"""Constructive colouring procedures: deterministic polynomial algorithms
that, given a list assignment at the family's proven size, always return a
valid colouring.

:func:`construct` does the steps every family shares, once: it builds the
graph and a :class:`Painter` (which checks that the lists cover the
incidences), checks the lists against the family's list size, runs the
family's painting rule on the painter and reports.  Each painting rule is
a public ``paint_*`` function of its family's module, so that a tracer
that wraps public functions sees it; a cycle is one
:meth:`Painter.paint_ring`, and so is a Halin rim with the leaf ends of
its spokes, and each corona or cactus cycle unit with its pendant
internals, before its externals are filled.  A rule
checks only what is particular to it, such as where a corona's
pre-colouring lies.

:func:`construct` and :func:`guaranteed_bound` are the two entry points.
Every instance is named by a spec: an arbitrary tree or cactus by its
edges (``{"family": "tree", "edges": ...}``).  Both go through
``_procedure``, so :func:`guaranteed_bound` rejects the specs
:func:`construct` rejects, with the same messages: a pre-colouring off
:data:`PRE_FAMILIES` or on an instance with no edge, or a cactus that
:func:`cactus_bound` finds to be a tree, a cycle or disconnected.
:func:`construct` then checks the pre-coloured incidences and colours
once, before the list size.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..families import FamilySpec, generate
from ..graphs import (
    Graph,
    IncidenceColouring,
    IncolourError,
    InputError,
    ListAssignment,
    validate_colouring,
)
from .cactus import cactus_bound, paint_cactus
from .coronae import corona_bound, paint_corona
from .grids import grid_bound, paint_grid
from .halin import K4_HALIN, paint_halin, required_halin_lists
from .hamcubic import HAM_CUBIC_BOUND, paint_ham_cubic
from .report import ConstructiveReport, Painter, StuckError, TraceStep
from .trees import paint_tree, tree_bound

__all__ = [
    "ConstructiveReport", "Painter", "StuckError", "TraceStep", "PRE_FAMILIES",
    "corona_bound", "cactus_bound", "required_halin_lists", "tree_bound",
    "cycle_bound", "grid_bound", "HAM_CUBIC_BOUND",
    "guaranteed_bound", "construct",
]

Rule = Callable[[Painter, dict[int, int]], None]

# the families whose construct takes a pre-colouring
PRE_FAMILIES = ("path", "star", "tree", "corona")


def cycle_bound(n: int) -> int:
    """List size at which the cycle C_n is coloured: three colours suffice
    exactly when n is divisible by 3, four always do."""
    return 3 if n % 3 == 0 else 4


def guaranteed_bound(spec: FamilySpec, pre: bool = False) -> int:
    """List size at which :func:`construct` is guaranteed to succeed on this
    family; with ``pre``, for a run with two pre-coloured incidences: a
    corona's pendant edge v0-v0^1, or a tree edge (max degree + 2)."""
    g, spec = generate(spec)
    return _procedure(g, spec, 2 if pre else 0)[0]


def construct(
    spec: FamilySpec,
    lists: ListAssignment,
    pre: Optional[dict[int, int]] = None,
) -> ConstructiveReport:
    """Colour the incidences of the family graph ``spec`` from ``lists``
    with the family's constructive procedure.

    ``pre`` maps incidence ids to fixed colours; trees take any set of
    them, coronae exactly the two incidences of the pendant edge v0-v0^1
    (see :func:`~incolour.constructive.coronae.pendant_edge_ids`).  It must
    be a proper colouring from the lists, on a family of
    :data:`PRE_FAMILIES`.  The list size is the family's for k =
    ``len(pre)`` pre-coloured incidences, checked once here, unless the
    graph has no edges.  A spec from :func:`~incolour.families.generate`
    brings its graph; others are built.
    """
    g, spec = generate(spec)
    painter = Painter(g, lists)
    pre = pre or {}
    size, short, rule = _procedure(g, spec, len(pre))
    if pre:
        m = len(painter.colour)
        bad = next((i for i in pre if not 0 <= i < m), None)
        if bad is not None:
            raise InputError(f"pre-coloured incidence {bad} out of range")
        verdict = validate_colouring(g, lists, IncidenceColouring(pre))
        if not (verdict.proper and verdict.list_respecting):
            raise InputError(f"bad pre-colouring: {verdict.violation}")
    if g.edges and lists.min_size() < size:
        raise InputError(short)
    rule(painter, pre)
    report = painter.report()
    for i, colour in pre.items():
        if report.colouring.assignment.get(i) != colour:
            raise IncolourError(f"colouring changes the pre-colour {colour} of incidence {i}")
    return report


def _procedure(g: Graph, spec: FamilySpec, k: int) -> tuple[int, str, Rule]:
    """The list size of the family of ``spec`` with k pre-coloured
    incidences, the error message for shorter lists, and the family's
    painting rule, called as ``rule(painter, pre)``.  A rule names its
    ``paint_*`` function only when it runs, so a tracer that swaps the
    module attribute sees the call.  Both entry points come here, so a
    pre-colouring off :data:`PRE_FAMILIES`, or on an instance with no
    edge, is rejected here for both."""
    f, p = spec.family, spec.params
    if k and f not in PRE_FAMILIES:
        raise InputError(f"family {f!r} does not take a pre-colouring")
    if k and not g.edges:
        raise InputError(
            f"a pre-colouring needs an instance with an edge, got {spec.to_json()}")
    if f in ("path", "star", "tree"):
        size = tree_bound(g, k)
        short = f"every list needs at least {size} colours"
        rule = lambda painter, pre: paint_tree(painter, pre)
    elif f == "cycle":
        n = p["n"]
        size = cycle_bound(n)
        short = f"cycle of order {n} needs lists of size >= {size}"
        rule = lambda painter, pre: painter.paint_ring(range(n), "cycle-dp")
    elif f == "grid":
        size = grid_bound(p["n"])
        short = f"grid with n={p['n']} needs lists of size >= {size}"
        rule = lambda painter, pre: paint_grid(painter, p["m"], p["n"])
    elif f in ("halin", "wheel", "complete"):
        hspec = _as_halin(spec)
        size = required_halin_lists(g, hspec)
        short = f"halin colouring needs lists of size >= {size}"
        rule = lambda painter, pre: paint_halin(painter, hspec)
    elif f == "corona":
        n, q = p["n"], p["p"]
        size = corona_bound(n, q, k > 0)
        short = f"corona (n={n}, p={q}{', pre' if k else ''}) needs lists of size >= {size}"
        rule = lambda painter, pre: paint_corona(painter, n, q, pre)
    elif f == "cactus":
        size = cactus_bound(g, p["cycles"])
        short = f"this cactus needs lists of size >= {size}"
        rule = lambda painter, pre: paint_cactus(painter, p["cycles"])
    elif f == "ham_cubic":
        size = HAM_CUBIC_BOUND
        short = f"hamiltonian cubic colouring needs lists of size >= {size}"
        rule = lambda painter, pre: paint_ham_cubic(painter, spec)
    else:
        raise InputError(f"no constructive procedure for family {f!r}")
    return size, short, rule


def _as_halin(spec: FamilySpec) -> FamilySpec:
    """Wheels (and K4) rephrased as Halin specs: star tree plus the rim."""
    if spec.family == "halin":
        return spec
    if spec.family == "wheel":
        n = spec.params["n"]
        tree = [[i, n] for i in range(n)]
        return FamilySpec("halin", {"tree_edges": tree, "leaf_order": list(range(n))})
    if spec.family == "complete" and spec.params["n"] == 4:
        return K4_HALIN
    raise InputError(f"family {spec.family!r} has no halin structure")
