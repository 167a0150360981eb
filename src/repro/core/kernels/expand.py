"""Batch-expansion candidate kernels (scalar / numpy / numba).

A batch step gathers the frontier batch's edges from the CSR arrays
(:func:`gather_in` / :func:`gather_out`) and computes *candidates* —
the (edge, keyword) pairs whose tentative value beats a snapshot of the
state taken at batch start:

* :func:`dist_candidates` — relaxations ``nd = dist[i][src] + w``
  that would improve ``dist[i][tgt]``;
* :func:`spread_candidates` — activation contributions
  ``mu * a(src, i) * (1/w) / norm(src)`` that would raise
  ``a(tgt, i)`` (max mode) or clear the contribution floor (sum mode).

The snapshot prefilter is sound: distances only decrease and (max-mode)
activations only increase, so a candidate that fails against the
snapshot also fails against any later state; improvements enabled
mid-batch are delivered by the cascades in
:mod:`repro.core.kernels.state`, which flow through the batch's
upfront-registered parent links.

Every backend returns candidates in one canonical order — edge-major,
keyword-minor — and identical IEEE float64 arithmetic, so downstream
application (shared scalar code) is bit-identical across backends.
The numba variants compile lazily on first use; callers never reach
them unless :func:`repro.core.kernels.backend.resolve_backend` said
numba is importable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.kernels.csr import GraphCSR

__all__ = [
    "gather_in",
    "gather_out",
    "dist_candidates",
    "spread_candidates",
]

_EMPTY_I = np.zeros(0, dtype=np.int64)
_EMPTY_F = np.zeros(0, dtype=np.float64)


def gather_in(
    csr: GraphCSR, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-edges of the batch: ``(neighbour, expanding_node, weight)``
    per edge ``(neighbour -> expanding_node)``, graph order."""
    return csr.in_side.gather(nodes)


def gather_out(
    csr: GraphCSR, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Out-edges of the batch: ``(neighbour, expanding_node, weight)``
    per edge ``(expanding_node -> neighbour)``, graph order."""
    return csr.out_side.gather(nodes)


# ----------------------------------------------------------------------
# distance relaxation candidates
# ----------------------------------------------------------------------
def dist_candidates(
    backend: str,
    dist: np.ndarray,
    tgt: np.ndarray,
    src: np.ndarray,
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(e_idx, i_idx, nd)`` of relaxations beating the snapshot."""
    if len(w) == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    if backend == "vectorized":
        nd_all = dist[:, src] + w[None, :]
        better = nd_all < dist[:, tgt]
        e_idx, i_idx = np.nonzero(better.T)
        return e_idx, i_idx, nd_all[i_idx, e_idx]
    if backend == "numba":
        kernels = _numba_kernels()
        cap = len(w) * dist.shape[0]
        e_out = np.empty(cap, dtype=np.int64)
        i_out = np.empty(cap, dtype=np.int64)
        nd_out = np.empty(cap, dtype=np.float64)
        count = kernels[0](dist, tgt, src, w, e_out, i_out, nd_out)
        return e_out[:count], i_out[:count], nd_out[:count]
    # scalar reference: same arrays, same arithmetic, python loops
    k = dist.shape[0]
    src_l = src.tolist()
    tgt_l = tgt.tolist()
    w_l = w.tolist()
    e_acc: list[int] = []
    i_acc: list[int] = []
    nd_acc: list[float] = []
    for e in range(len(w_l)):
        s = src_l[e]
        t = tgt_l[e]
        wt = w_l[e]
        for i in range(k):
            nd = dist[i, s] + wt
            if nd < dist[i, t]:
                e_acc.append(e)
                i_acc.append(i)
                nd_acc.append(float(nd))
    return (
        np.array(e_acc, dtype=np.int64),
        np.array(i_acc, dtype=np.int64),
        np.array(nd_acc, dtype=np.float64),
    )


# ----------------------------------------------------------------------
# activation spread candidates
# ----------------------------------------------------------------------
def spread_candidates(
    backend: str,
    act: np.ndarray,
    tgt: np.ndarray,
    src: np.ndarray,
    w: np.ndarray,
    norm: np.ndarray,
    mu: float,
    combine: str,
    min_contribution: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(e_idx, i_idx, contribution)`` of spreads worth applying.

    ``norm`` is the per-source activation normalizer ``sum(1/w)``
    gathered per edge.
    """
    if len(w) == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    want_sum = combine == "sum"
    if backend == "vectorized":
        contr = (mu * act[:, src]) * (1.0 / w)[None, :] / norm[None, :]
        if want_sum:
            better = contr > min_contribution
        else:
            better = contr > act[:, tgt]
        e_idx, i_idx = np.nonzero(better.T)
        return e_idx, i_idx, contr[i_idx, e_idx]
    if backend == "numba":
        kernels = _numba_kernels()
        cap = len(w) * act.shape[0]
        e_out = np.empty(cap, dtype=np.int64)
        i_out = np.empty(cap, dtype=np.int64)
        c_out = np.empty(cap, dtype=np.float64)
        count = kernels[1](
            act, tgt, src, w, norm, mu, want_sum, min_contribution,
            e_out, i_out, c_out,
        )
        return e_out[:count], i_out[:count], c_out[:count]
    k = act.shape[0]
    src_l = src.tolist()
    tgt_l = tgt.tolist()
    w_l = w.tolist()
    norm_l = norm.tolist()
    e_acc: list[int] = []
    i_acc: list[int] = []
    c_acc: list[float] = []
    for e in range(len(w_l)):
        s = src_l[e]
        t = tgt_l[e]
        wt = w_l[e]
        nm = norm_l[e]
        for i in range(k):
            contribution = (mu * act[i, s]) * (1.0 / wt) / nm
            if want_sum:
                ok = contribution > min_contribution
            else:
                ok = contribution > act[i, t]
            if ok:
                e_acc.append(e)
                i_acc.append(i)
                c_acc.append(float(contribution))
    return (
        np.array(e_acc, dtype=np.int64),
        np.array(i_acc, dtype=np.int64),
        np.array(c_acc, dtype=np.float64),
    )


# ----------------------------------------------------------------------
# numba backend (lazy compile; guarded by resolve_backend upstream)
# ----------------------------------------------------------------------
_NUMBA_CACHE: Optional[tuple] = None


def _numba_kernels() -> tuple:
    global _NUMBA_CACHE
    if _NUMBA_CACHE is not None:
        return _NUMBA_CACHE
    import numba

    @numba.njit(cache=False)
    def dist_kernel(dist, tgt, src, w, e_out, i_out, nd_out):  # pragma: no cover
        count = 0
        k = dist.shape[0]
        for e in range(w.shape[0]):
            s = src[e]
            t = tgt[e]
            wt = w[e]
            for i in range(k):
                nd = dist[i, s] + wt
                if nd < dist[i, t]:
                    e_out[count] = e
                    i_out[count] = i
                    nd_out[count] = nd
                    count += 1
        return count

    @numba.njit(cache=False)
    def spread_kernel(  # pragma: no cover
        act, tgt, src, w, norm, mu, want_sum, floor, e_out, i_out, c_out
    ):
        count = 0
        k = act.shape[0]
        for e in range(w.shape[0]):
            s = src[e]
            t = tgt[e]
            wt = w[e]
            nm = norm[e]
            for i in range(k):
                contribution = (mu * act[i, s]) * (1.0 / wt) / nm
                if want_sum:
                    ok = contribution > floor
                else:
                    ok = contribution > act[i, t]
                if ok:
                    e_out[count] = e
                    i_out[count] = i
                    c_out[count] = contribution
                    count += 1
        return count

    _NUMBA_CACHE = (dist_kernel, spread_kernel)
    return _NUMBA_CACHE
