"""Float64 CSR views of a :class:`~repro.graph.searchgraph.SearchGraph`.

The graph's own ``csr_arrays()`` is the paper's compact ``16|V| + 8|E|``
index — ``float32`` weights, out-adjacency only.  The kernels need
more: exact ``float64`` weights (so batched relaxation is bit-identical
to the python floats the dict-based tables use), *both* adjacency
directions, and a deduplicated "parent" adjacency for the ATTACH /
ACTIVATE cascades (parallel edges collapsed to their minimum weight at
the first occurrence position — mirroring the explored-parents bucket
``P[v]`` the dict-based :class:`~repro.core.pathtable.PathTable`
accumulates once a node's edges are fully explored).

Edge order inside every row matches ``graph.in_edges`` /
``graph.out_edges`` exactly; that shared order is what makes the
scalar and vectorized kernels produce identical candidate sequences.

Built lazily and cached on the graph instance (graphs are immutable;
mutations produce new graph objects, so the cache can never go stale).
What a build costs depends on the graph:

* a RAM :class:`~repro.graph.searchgraph.SearchGraph` packs its rows
  into fresh arrays once, O(|V| + |E|);
* a :class:`~repro.storage.MappedSearchGraph` hands over its snapshot
  arrays as zero-copy views, so the edge arrays stay in the shared,
  evictable page cache and only the O(|V|) row bounds, degrees and
  normalizers are process-resident;
* an :class:`~repro.live.OverlayGraph` reuses its base graph's CSR and
  carries only its replacement rows in small patch arrays, so a new
  commit epoch costs O(|V|) array copies plus its touched rows and
  never reads an untouched base row.

Parent rows are deduplicated per node on first use
(:func:`parent_rows`), so their resident cost is the rows the cascades
actually visit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = ["CSRSide", "GraphCSR", "graph_csr", "parent_rows", "norm_list"]

_CACHE_ATTR = "_kernels_csr_cache"

_EMPTY_I = np.zeros(0, dtype=np.int64)
_EMPTY_I32 = np.zeros(0, dtype=np.int32)
_EMPTY_F = np.zeros(0, dtype=np.float64)


@dataclass(frozen=True)
class CSRSide:
    """One adjacency direction as rows over flat edge arrays.

    Row ``v`` is ``count[v]`` edges starting at ``start[v]``.  A start
    below ``len(nbr)`` indexes the base arrays ``nbr``/``w`` (possibly
    read-only views of a mapped snapshot); a start at or past it
    indexes the patch arrays at ``start - len(nbr)`` — the replacement
    rows an overlay graph carries over its base.
    """

    start: np.ndarray  # int64, n
    count: np.ndarray  # int64, n
    nbr: np.ndarray  # int32, base edges
    w: np.ndarray  # float64, base edges
    patch_nbr: np.ndarray  # int32, replacement-row edges
    patch_w: np.ndarray  # float64, replacement-row edges

    @classmethod
    def from_indptr(cls, indptr: np.ndarray, nbr, w) -> "CSRSide":
        return cls(
            start=indptr[:-1],
            count=np.diff(indptr),
            nbr=nbr,
            w=w,
            patch_nbr=_EMPTY_I32,
            patch_w=_EMPTY_F,
        )

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbours, weights)`` of row ``v``, graph order."""
        lo = int(self.start[v])
        hi = lo + int(self.count[v])
        m = len(self.nbr)
        if lo >= m:
            return self.patch_nbr[lo - m : hi - m], self.patch_w[lo - m : hi - m]
        return self.nbr[lo:hi], self.w[lo:hi]

    def gather(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge of the ``nodes`` rows, row by row in graph order:
        ``(neighbour, row_node, weight)`` arrays."""
        if len(nodes) == 0:
            return _EMPTY_I, _EMPTY_I, _EMPTY_F
        starts = self.start[nodes]
        counts = self.count[nodes]
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_I, _EMPTY_I, _EMPTY_F
        edge_index = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts.tolist(), counts.tolist())]
        )
        rep = np.repeat(nodes, counts).astype(np.int64, copy=False)
        m = len(self.nbr)
        if len(self.patch_nbr) == 0 or int(starts.max()) < m:
            return self.nbr[edge_index].astype(np.int64, copy=False), rep, self.w[
                edge_index
            ]
        in_patch = edge_index >= m
        in_base = ~in_patch
        nbr = np.empty(total, dtype=np.int64)
        w = np.empty(total, dtype=np.float64)
        nbr[in_base] = self.nbr[edge_index[in_base]]
        w[in_base] = self.w[edge_index[in_base]]
        patch_index = edge_index[in_patch] - m
        nbr[in_patch] = self.patch_nbr[patch_index]
        w[in_patch] = self.patch_w[patch_index]
        return nbr, rep, w

    def with_rows(self, n: int, rows: Mapping[int, Sequence]) -> "CSRSide":
        """This side grown to ``n`` nodes with ``rows`` replacing (or
        adding) whole rows of ``(neighbour, weight, ...)`` edges.  The
        base arrays are shared, not copied; nodes past the current end
        without a row are empty."""
        if len(self.patch_nbr):
            raise ValueError("cannot patch an already patched CSR side")
        base_n = len(self.start)
        m = len(self.nbr)
        start = np.empty(n, dtype=np.int64)
        count = np.zeros(n, dtype=np.int64)
        start[:base_n] = self.start
        count[:base_n] = self.count
        start[base_n:] = m
        nodes = sorted(rows)
        lengths = [len(rows[v]) for v in nodes]
        offsets = np.cumsum([0] + lengths[:-1], dtype=np.int64) + m
        if nodes:
            index = np.asarray(nodes, dtype=np.int64)
            start[index] = offsets
            count[index] = lengths
        patch = [edge for v in nodes for edge in rows[v]]
        return CSRSide(
            start=start,
            count=count,
            nbr=self.nbr,
            w=self.w,
            patch_nbr=np.fromiter(
                (edge[0] for edge in patch), dtype=np.int32, count=len(patch)
            ),
            patch_w=np.fromiter(
                (edge[1] for edge in patch), dtype=np.float64, count=len(patch)
            ),
        )


@dataclass(frozen=True)
class GraphCSR:
    """Immutable kernel-side arrays for one graph."""

    n: int
    # in-adjacency: edges (src -> v) grouped by v, graph order.
    in_side: CSRSide
    # out-adjacency: edges (u -> dst) grouped by u, graph order.
    out_side: CSRSide
    # activation normalizers sum(1/w) and prestige.
    in_norm: np.ndarray  # float64, n
    out_norm: np.ndarray  # float64, n
    prestige: np.ndarray  # float64, n

    @property
    def in_degree(self) -> np.ndarray:
        return self.in_side.count

    @property
    def out_degree(self) -> np.ndarray:
        return self.out_side.count


class _ParentRows(dict):
    """Node -> deduplicated in-row, built on first access.

    Each row keeps the first occurrence of every source with the
    minimum weight among its parallel edges, as ``(src, weight)``
    tuples.  A plain dict on hits, so the cascades' per-node lookups
    stay at C speed; concurrent misses build the same row and either
    write wins."""

    def __init__(self, side: CSRSide) -> None:
        super().__init__()
        self._side = side

    def __missing__(self, v: int) -> list[tuple[int, float]]:
        src, w = self._side.row(v)
        bucket: dict[int, float] = {}
        for u, weight in zip(src.tolist(), w.tolist()):
            prev = bucket.get(u)
            if prev is None or weight < prev:
                bucket[u] = weight
        row = list(bucket.items())
        self[v] = row
        return row


def parent_rows(csr: GraphCSR) -> Mapping[int, list[tuple[int, float]]]:
    """The parent adjacency: ``(src, weight)`` tuples per node.

    The ATTACH/ACTIVATE cascades touch a handful of tiny rows per
    event; python tuples beat numpy slicing at that grain by an order
    of magnitude.  Weights round-trip through ``tolist()`` so the
    floats are exactly the CSR's.  Rows are built on first use and
    cached on the (immutable) CSR, shared by every search over it.
    """
    cached = getattr(csr, "_parent_rows", None)
    if cached is not None:
        return cached
    rows = _ParentRows(csr.in_side)
    object.__setattr__(csr, "_parent_rows", rows)
    return rows


def norm_list(csr: GraphCSR) -> list[float]:
    """``in_norm`` as a python float list (cascade-side scalar reads)."""
    cached = getattr(csr, "_norm_list", None)
    if cached is not None:
        return cached
    out = csr.in_norm.tolist()
    object.__setattr__(csr, "_norm_list", out)
    return out


def _build_side(rows) -> CSRSide:
    lengths = [len(edges) for edges in rows]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    m = int(indptr[-1])
    nbr = np.fromiter(
        (edge[0] for edges in rows for edge in edges), dtype=np.int32, count=m
    )
    w = np.fromiter(
        (edge[1] for edges in rows for edge in edges), dtype=np.float64, count=m
    )
    return CSRSide.from_indptr(indptr, nbr, w)


def _patched(base: np.ndarray, n: int, over: Mapping[int, float]) -> np.ndarray:
    out = np.zeros(n, dtype=np.float64)
    out[: len(base)] = base
    for v, value in over.items():
        out[v] = value
    return out


def _build(graph) -> GraphCSR:
    n = graph.num_nodes
    overlay = getattr(graph, "_csr_overlay", None)
    if overlay is not None:
        base, in_over, out_over, in_invw, out_invw = overlay()
        b = graph_csr(base)
        return GraphCSR(
            n=n,
            in_side=b.in_side.with_rows(n, in_over),
            out_side=b.out_side.with_rows(n, out_over),
            in_norm=_patched(b.in_norm, n, in_invw),
            out_norm=_patched(b.out_norm, n, out_invw),
            prestige=np.asarray(graph.prestige, dtype=np.float64),
        )
    sides = getattr(graph, "_mapped_csr_sides", None)
    if sides is not None:
        raw = sides()
        in_side = CSRSide.from_indptr(raw["in_indptr"], raw["in_src"], raw["in_w"])
        out_side = CSRSide.from_indptr(
            raw["out_indptr"], raw["out_dst"], raw["out_w"]
        )
    else:
        in_side = _build_side([graph.in_edges(v) for v in range(n)])
        out_side = _build_side([graph.out_edges(u) for u in range(n)])
    return GraphCSR(
        n=n,
        in_side=in_side,
        out_side=out_side,
        in_norm=np.array(
            [graph.in_inv_weight_sum(v) for v in range(n)], dtype=np.float64
        ),
        out_norm=np.array(
            [graph.out_inv_weight_sum(u) for u in range(n)], dtype=np.float64
        ),
        prestige=np.asarray(graph.prestige, dtype=np.float64),
    )


def graph_csr(graph) -> GraphCSR:
    """The graph's kernel CSR, built on first use and cached on it.

    Mapped graphs (:class:`~repro.storage.MappedSearchGraph`) expose
    their on-disk CSR sides via ``_mapped_csr_sides()`` — the snapshot
    stores edges in original graph row order and in the kernels'
    dtypes, so those arrays *are* what ``_build_side`` would produce,
    as views.  Overlay graphs (:class:`~repro.live.OverlayGraph`)
    expose their base and replacement rows via ``_csr_overlay()``."""
    cached = getattr(graph, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    csr = _build(graph)
    try:
        setattr(graph, _CACHE_ATTR, csr)
    except AttributeError:  # pragma: no cover - exotic graph wrappers
        pass
    return csr
