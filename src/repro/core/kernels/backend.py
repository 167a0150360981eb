"""Expansion-backend selection (``SearchParams.expansion_backend``).

Four backends share one batched-engine contract:

* ``"python"`` — not a kernel at all: the seed's per-pop loops in
  ``backward_si``/``bidirectional``/``backward_mi``, kept selectable
  (by parameter or environment variable) as the per-pop reference;
* ``"scalar"`` — the batched engine with pure-python candidate
  kernels.  Slower than ``"python"`` (it exists for parity testing:
  every other kernel backend must match it bit for bit);
* ``"vectorized"`` — the batched engine with numpy kernels over the
  graph's CSR arrays, and the default;
* ``"numba"`` — compiled kernels; resolves to ``"vectorized"`` when
  numba is not importable so deployments opt in without a hard
  dependency.

``"auto"`` (the ``SearchParams`` default) resolves through the
``REPRO_EXPANSION_BACKEND`` environment variable — the switch CI's
kernel-parity job uses to run the whole tier-1 suite on a non-default
backend — and falls back to ``"vectorized"`` when unset.  The batched
engines skip building answer trees that cannot enter the top-k (the
exact-mode ``EmitGate``); the per-pop loops build every one.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "ENV_VAR",
    "KERNEL_BACKENDS",
    "available_backends",
    "numba_available",
    "resolve_backend",
]

ENV_VAR = "REPRO_EXPANSION_BACKEND"

#: Backends implemented by the batched engines (everything but "python").
KERNEL_BACKENDS = ("scalar", "vectorized", "numba")

_VALID = ("python",) + KERNEL_BACKENDS

_numba_available: Optional[bool] = None


def numba_available() -> bool:
    """True when numba imports; probed once per process."""
    global _numba_available
    if _numba_available is None:
        try:
            import numba  # noqa: F401

            _numba_available = True
        except ImportError:
            _numba_available = False
    return _numba_available


def available_backends() -> tuple[str, ...]:
    """The backends that can actually run in this environment."""
    if numba_available():
        return _VALID
    return tuple(b for b in _VALID if b != "numba")


def resolve_backend(requested: str) -> str:
    """Map a ``SearchParams.expansion_backend`` value to a runnable backend.

    ``"auto"`` reads ``REPRO_EXPANSION_BACKEND`` (defaulting to
    ``"vectorized"``); ``"numba"`` degrades to ``"vectorized"`` when numba
    is absent.  An unknown environment value raises so CI typos fail
    loudly instead of silently testing the default backend.
    """
    name = requested
    if name == "auto":
        name = os.environ.get(ENV_VAR, "").strip() or "vectorized"
    if name not in _VALID:
        raise ValueError(
            f"unknown expansion backend {name!r}; expected one of {_VALID}"
        )
    if name == "numba" and not numba_available():
        return "vectorized"
    return name
