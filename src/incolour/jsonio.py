"""JSON round-trips for graphs, list assignments, colourings and family
specs.  Formats are plain text and self-describing: list and colouring
files embed an echo of the incidence enumeration they are keyed by.

The readers check the shape of what they read: a value of the wrong JSON
type, a non-integer where an integer belongs, or an incidence id outside
``0..m-1`` is a :class:`GraphError`, never a ``TypeError`` deep inside the
library."""

from __future__ import annotations

import reprlib
from typing import Optional

from .families import FamilySpec
from .graphs import (
    Graph,
    GraphError,
    IncidenceColouring,
    ListAssignment,
    incidences,
)


def _object(data, what: str) -> dict:
    """``data`` if it is a JSON object, else a :class:`GraphError`."""
    if not isinstance(data, dict):
        raise GraphError(f"{what} must be a JSON object, got {reprlib.repr(data)}")
    return data


def _pairs(data, what: str) -> list[tuple[int, int]]:
    """``data`` as a list of integer pairs, each written ``[a, b]``
    (``true`` and ``1.0`` are not integers)."""
    if not isinstance(data, list):
        raise GraphError(f"{what} must be a JSON array, got {reprlib.repr(data)}")
    out = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2
                and type(item[0]) is int and type(item[1]) is int):
            raise GraphError(f"{what} must hold [a, b] pairs of integers, "
                             f"got {reprlib.repr(item)}")
        out.append(tuple(item))
    return out


def _incidence_ids(data: dict, m: int) -> list[int]:
    """The incidence ids the keys of ``data`` name, each in ``0..m-1``."""
    try:
        ids = list(map(int, data))
    except ValueError:
        keys = reprlib.repr(list(data))
        raise GraphError(f"incidence ids must be integers, got {keys}") from None
    unknown = set(ids).difference(range(m))
    if unknown:
        raise GraphError(f"unknown incidence id {min(unknown)}")
    return ids


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_json(data: dict) -> Graph:
    n = _object(data, "a graph")["n"]
    if type(n) is not int:
        raise GraphError(f"'n' must be an integer, got {reprlib.repr(n)}")
    return Graph(n, _pairs(data["edges"], "'edges'"))


def _incidence_echo(g: Graph) -> list:
    return [[inc.vertex, list(inc.edge)] for inc in incidences(g)]


def _check_echo(g: Graph, data: dict) -> None:
    echo = data.get("incidences")
    if echo is not None and echo != _incidence_echo(g):
        raise GraphError("incidence enumeration in file does not match the graph")


def lists_to_json(g: Graph, lists: ListAssignment) -> dict:
    return {
        "lists": {str(i): sorted(l) for i, l in enumerate(lists.lists)},
        "incidences": _incidence_echo(g),
    }


def lists_from_json(g: Graph, data: dict) -> ListAssignment:
    _check_echo(g, _object(data, "a list file"))
    lists = _object(data["lists"], "'lists'")
    raw = dict(zip(_incidence_ids(lists, 2 * len(g.edges)), lists.values()))
    bad = next((i for i, colours in raw.items() if not isinstance(colours, list)), None)
    if bad is not None:
        raise GraphError(f"the list of incidence {bad} must be a JSON array, "
                         f"got {reprlib.repr(raw[bad])}")
    return ListAssignment.from_dict(g, raw)


def colouring_to_json(g: Graph, colouring: IncidenceColouring) -> dict:
    return {
        "assignment": {str(i): c for i, c in sorted(colouring.items())},
        "incidences": _incidence_echo(g),
    }


def colouring_from_json(g: Graph, data: dict) -> IncidenceColouring:
    _check_echo(g, _object(data, "a colouring file"))
    assignment = _object(data["assignment"], "'assignment'")
    out = dict(zip(_incidence_ids(assignment, 2 * len(g.edges)), assignment.values()))
    bad = next((i for i, colour in out.items() if type(colour) is not int), None)
    if bad is not None:
        raise GraphError(f"the colour of incidence {bad} must be an integer, "
                         f"got {reprlib.repr(out[bad])}")
    return IncidenceColouring(out)


def spec_to_json(spec: FamilySpec) -> dict:
    return spec.to_json()


def spec_from_json(data: dict) -> FamilySpec:
    return FamilySpec.from_json(data)


def pre_to_json(pre: dict[int, int]) -> dict:
    return {"pre": [[i, c] for i, c in sorted(pre.items())]}


def pre_from_json(data: Optional[dict]) -> Optional[dict[int, int]]:
    if data is None:
        return None
    return dict(_pairs(_object(data, "a pre-colouring")["pre"], "'pre'"))
