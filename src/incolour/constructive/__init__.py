"""Constructive colouring procedures: deterministic polynomial algorithms
that, given a list assignment at the family's proven size, always return a
valid colouring."""

from __future__ import annotations

from typing import Optional

from ..families import FamilySpec, generate
from ..graphs import Graph, IncolourError, InputError, ListAssignment, check_lists_cover
from .cactus import cactus_bound, colour_cactus
from .coronae import _colour_corona, corona_bound
from .grids import _colour_grid, choose_grid_window, grid_bound, window_choice_valid
from .halin import K4_HALIN, _colour_halin, required_halin_lists
from .hamcubic import (
    HAM_CUBIC_BOUND,
    _colour_hamiltonian_cubic,
    choose_ham_boundary,
    choose_k4_triple,
    ham_boundary_valid,
    k4_triple_valid,
)
from .report import ConstructiveReport, Painter, StuckError, TraceStep
from .trees import colour_tree

__all__ = [
    "ConstructiveReport", "Painter", "StuckError", "TraceStep",
    "colour_tree", "colour_cactus",
    "choose_grid_window", "choose_k4_triple", "choose_ham_boundary",
    "window_choice_valid", "k4_triple_valid", "ham_boundary_valid",
    "corona_bound", "cactus_bound", "required_halin_lists",
    "cycle_bound", "grid_bound", "HAM_CUBIC_BOUND",
    "guaranteed_bound", "construct",
]


def cycle_bound(n: int) -> int:
    """List size at which the cycle C_n is coloured: three colours suffice
    exactly when n is divisible by 3, four always do."""
    return 3 if n % 3 == 0 else 4


def _colour_cycle(g: Graph, n: int, lists: ListAssignment) -> ConstructiveReport:
    """List incidence colouring of the cycle ``g = C_n`` by ring transfer,
    from lists of :func:`cycle_bound` colours; smaller lists are rejected
    up front."""
    required = cycle_bound(n)
    if lists.min_size() < required:
        raise InputError(f"cycle of order {n} needs lists of size >= {required}")
    painter = Painter(g, lists)
    painter.paint_ring(range(n), "cycle-dp")
    return painter.report()


def guaranteed_bound(spec: FamilySpec, pre: bool = False) -> int:
    """List size at which the constructive procedure for this family is
    guaranteed to succeed; with ``pre``, for a pre-coloured run: a corona's
    pendant edge v0-v0^1, or two incidences of a tree (max degree + 2)."""
    g, spec = generate(spec)
    f = spec.family
    if f in ("path", "star", "tree"):
        return g.max_degree + (2 if pre else 1)
    if f == "cycle":
        return cycle_bound(spec.params["n"])
    if f == "grid":
        return grid_bound(spec.params["n"])
    if f in ("halin", "wheel", "complete"):
        hspec = _as_halin(spec)
        return required_halin_lists(g, hspec)
    if f == "corona":
        return corona_bound(spec.params["n"], spec.params["p"], pre)
    if f == "cactus":
        return cactus_bound(g)
    if f == "ham_cubic":
        return HAM_CUBIC_BOUND
    raise InputError(f"no constructive bound for family {f!r}")


def construct(
    spec: FamilySpec,
    lists: ListAssignment,
    pre: Optional[dict[int, int]] = None,
) -> ConstructiveReport:
    """Colour the incidences of the family graph ``spec`` from ``lists``
    with the family's constructive procedure.

    ``pre`` maps incidence ids to fixed colours; trees take any set of
    them, coronae exactly the two incidences of the pendant edge v0-v0^1
    (see :func:`~incolour.constructive.coronae.pendant_edge_ids`). A spec
    from :func:`~incolour.families.generate` brings its graph; others are built.
    """
    g, spec = generate(spec)
    check_lists_cover(g, lists)
    f = spec.family
    if pre and f not in ("path", "star", "tree", "corona"):
        raise InputError(f"family {f!r} does not take a pre-colouring")
    report = _dispatch(g, spec, lists, pre)
    for i, colour in (pre or {}).items():
        if report.colouring.assignment.get(i) != colour:
            raise IncolourError(f"colouring changes the pre-colour {colour} of incidence {i}")
    return report


def _dispatch(g: Graph, spec: FamilySpec, lists: ListAssignment, pre) -> ConstructiveReport:
    f = spec.family
    if f in ("path", "star", "tree"):
        return colour_tree(g, lists, pre=pre)
    if f == "cycle":
        return _colour_cycle(g, spec.params["n"], lists)
    if f == "grid":
        return _colour_grid(g, spec.params["m"], spec.params["n"], lists)
    if f in ("halin", "wheel", "complete"):
        return _colour_halin(g, _as_halin(spec), lists)
    if f == "corona":
        return _colour_corona(g, spec.params["n"], spec.params["p"], lists, pre)
    if f == "cactus":
        return colour_cactus(g, lists)
    if f == "ham_cubic":
        return _colour_hamiltonian_cubic(g, spec, lists)
    raise InputError(f"no constructive procedure for family {f!r}")


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
