"""Constructive colouring procedures: deterministic polynomial algorithms
that, given a list assignment at the family's proven size, always return a
valid colouring."""

from __future__ import annotations

from typing import Optional

from ..families import FamilySpec, gen_basic, generate
from ..graphs import Graph, IncolourError, InputError, ListAssignment, incidences
from ..solver import COLOURED, solve_list_colouring
from .cactus import cactus_bound, colour_cactus
from .coronae import colour_corona, corona_bound, pendant_edge_ids
from .grids import choose_grid_window, colour_grid, window_choice_valid
from .halin import (
    choose_halin_boundary,
    choose_k4_triple,
    colour_halin,
    halin_boundary_valid,
    k4_triple_valid,
    required_halin_lists,
)
from .hamcubic import choose_ham_boundary, colour_hamiltonian_cubic, ham_boundary_valid
from .report import ConstructiveReport, Painter, StuckError, TraceStep
from .trees import colour_tree

__all__ = [
    "ConstructiveReport", "Painter", "StuckError", "TraceStep",
    "colour_tree", "colour_grid", "colour_halin", "colour_corona",
    "colour_cactus", "colour_hamiltonian_cubic", "colour_cycle",
    "choose_grid_window", "choose_halin_boundary", "choose_k4_triple",
    "choose_ham_boundary", "window_choice_valid", "halin_boundary_valid",
    "k4_triple_valid", "ham_boundary_valid",
    "corona_bound", "cactus_bound", "required_halin_lists",
    "guaranteed_bound", "construct",
]


def colour_cycle(n: int, lists: ListAssignment) -> ConstructiveReport:
    """List incidence colouring of the cycle C_n via exact search.

    Three colours per list suffice exactly when n is divisible by 3, four
    always do; smaller lists are rejected up front.
    """
    g, _ = gen_basic("cycle", n)
    if len(lists) != 2 * n:
        raise InputError("list assignment does not cover the cycle")
    required = 3 if n % 3 == 0 else 4
    if lists.min_size() < required:
        raise InputError(f"cycle of order {n} needs lists of size >= {required}")
    res = solve_list_colouring(g, lists)
    if res.status != COLOURED:  # pragma: no cover - guaranteed at the bound
        raise IncolourError("cycle colouring not found at its guaranteed bound")
    painter = Painter(g, lists)
    painter.adopt(res.colouring.assignment, "cycle-solver")
    return painter.report()


def guaranteed_bound(spec: FamilySpec, pre: bool = False) -> int:
    """List size at which the constructive procedure for this family is
    guaranteed to succeed."""
    g, spec = generate(spec)
    f = spec.family
    if f in ("path", "star", "tree"):
        return g.max_degree + (2 if pre else 1)
    if f == "cycle":
        return 3 if spec.params["n"] % 3 == 0 else 4
    if f == "grid":
        return 5 if spec.params["n"] == 2 else 6
    if f in ("halin", "wheel", "complete"):
        hspec = _as_halin(spec)
        return required_halin_lists(g, hspec)
    if f == "corona":
        return corona_bound(spec.params["n"], spec.params["p"], pre)
    if f == "cactus":
        return cactus_bound(g)
    if f == "ham_cubic":
        return 6
    raise InputError(f"no constructive bound for family {f!r}")


def construct(
    spec: FamilySpec,
    lists: ListAssignment,
    pre: Optional[dict[int, int]] = None,
) -> ConstructiveReport:
    """Route a family spec to its constructive colouring procedure."""
    g, spec = generate(spec)
    f = spec.family
    if f in ("path", "star", "tree"):
        return colour_tree(g, lists, pre=pre)
    if f == "cycle":
        _no_pre(pre, f)
        return colour_cycle(spec.params["n"], lists)
    if f == "grid":
        _no_pre(pre, f)
        return colour_grid(spec.params["m"], spec.params["n"], lists)
    if f in ("halin", "wheel", "complete"):
        _no_pre(pre, f)
        return colour_halin(g, _as_halin(spec), lists)
    if f == "corona":
        return colour_corona(spec.params["n"], spec.params["p"], lists, pre=_corona_pre(g, spec, pre))
    if f == "cactus":
        _no_pre(pre, f)
        return colour_cactus(g, spec, lists)
    if f == "ham_cubic":
        _no_pre(pre, f)
        return colour_hamiltonian_cubic(g, spec, lists)
    raise InputError(f"no constructive procedure for family {f!r}")


def _no_pre(pre, family):
    if pre:
        raise InputError(f"family {family!r} does not take a pre-colouring")


def _corona_pre(g, spec, pre) -> Optional[tuple[int, int]]:
    """The corona procedure pre-colours exactly the two incidences of the
    pendant edge v0-v0^1."""
    if not pre:
        return None
    down, up = pendant_edge_ids(g, spec.params["n"], spec.params["p"])
    if sorted(pre) != sorted((down, up)):
        raise InputError(
            f"corona pre-colouring must cover incidences {down} and {up} only")
    return pre[down], pre[up]


def _as_halin(spec: FamilySpec) -> FamilySpec:
    """Wheels (and K4) rephrased as Halin specs: star tree plus the rim."""
    if spec.family == "halin":
        return spec
    if spec.family == "wheel":
        n = spec.params["n"]
        tree = [[i, n] for i in range(n)]
        return FamilySpec("halin", {"tree_edges": tree, "leaf_order": list(range(n))})
    if spec.family == "complete" and spec.params["n"] == 4:
        tree = [[0, 3], [1, 3], [2, 3]]
        return FamilySpec("halin", {"tree_edges": tree, "leaf_order": [0, 1, 2]})
    raise InputError(f"family {spec.family!r} has no halin structure")
