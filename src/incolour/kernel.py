"""The backtracking kernel: the compiled extension ``incolour._ckernel``
when it is importable, the pure-Python ``incolour._pykernel`` otherwise.

The choice is made once, at import time.  Both kernels return identical
results; ``backend_name()`` says which one runs.
"""

from __future__ import annotations

try:  # pragma: no cover - depends on the build environment
    from . import _ckernel as _impl  # type: ignore[attr-defined]

    _BACKEND = "c"
except ImportError:  # pragma: no cover
    from . import _pykernel as _impl

    _BACKEND = "python"

FOUND = _impl.FOUND
EXHAUSTED = _impl.EXHAUSTED
CUTOFF = _impl.CUTOFF


def backend_name() -> str:
    return _BACKEND


# Defined here rather than bound to ``_impl.search``, so that tools which
# wrap this module's own functions (the benchmark's tracer) see it.
def search(nv, dom_off, dom_val, adj_off, adj, uniform, use_mrv, node_budget, deadline):
    return _impl.search(nv, dom_off, dom_val, adj_off, adj, uniform, use_mrv, node_budget,
                        deadline)
