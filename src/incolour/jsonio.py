"""JSON round-trips for graphs, list assignments, colourings and family
specs.  Formats are plain text and self-describing: list and colouring
files embed an echo of the incidence enumeration they are keyed by.

The readers check the shape of what they read: a value of the wrong JSON
type, a non-integer where an integer belongs, or an incidence id outside
``0..m-1`` is a :class:`GraphError`, never a ``TypeError`` deep inside the
library.  A graph whose edge list names one edge twice is an
:class:`InputError`."""

from __future__ import annotations

import reprlib
from itertools import chain
from typing import Optional

from .families import FamilySpec
from .graphs import (
    Graph,
    GraphError,
    IncidenceColouring,
    InputError,
    ListAssignment,
    repeated_edge,
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
    """The incidence ids the keys of ``data`` name, each in ``0..m-1`` and
    written in plain decimal (``"01"`` or ``" 1"`` would name id 1 a second
    time)."""
    try:
        ids = list(map(int, data))
    except ValueError:
        keys = reprlib.repr(list(data))
        raise GraphError(f"incidence ids must be integers, got {keys}") from None
    if list(map(str, ids)) != list(data):
        key = next(k for k, i in zip(data, ids) if k != str(i))
        raise GraphError(f"incidence id {key!r} must be written {str(int(key))!r}")
    unknown = set(ids).difference(range(m))
    if unknown:
        raise GraphError(f"unknown incidence id {min(unknown)}")
    return ids


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_json(data: dict) -> Graph:
    missing = next((key for key in ("n", "edges") if key not in _object(data, "a graph")), None)
    if missing is not None:
        raise GraphError(f"a graph needs the key {missing!r}")
    n = data["n"]
    if type(n) is not int:
        raise GraphError(f"'n' must be an integer, got {reprlib.repr(n)}")
    edges = _pairs(data["edges"], "'edges'")
    twice = repeated_edge(edges)
    if twice is not None:
        raise InputError(f"'edges' names the edge {list(twice)} twice")
    return Graph(n, edges)


def _incidence_echo(g: Graph) -> list:
    """``[vertex, [a, b]]`` per incidence in id order, edge ``a < b``: the
    enumeration of :func:`graphs.incidences`, read off ``g.adj``."""
    return [[v, [v, u] if v < u else [u, v]] for v, nbrs in enumerate(g.adj) for u in nbrs]


def _check_echo(g: Graph, data: dict) -> None:
    """A file's echo, when it has one, must be :func:`_incidence_echo`:
    compared entry by entry against ``g.adj``, so the echo is never built."""
    echo = data.get("incidences")
    if echo is None:
        return
    if isinstance(echo, list) and len(echo) == 2 * len(g.edges):
        entries = iter(echo)
        if all(next(entries) == [v, [v, u] if v < u else [u, v]]
               for v, nbrs in enumerate(g.adj) for u in nbrs):
            return
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
    if bad is None and not set(map(type, chain.from_iterable(raw.values()))) <= {int}:
        # a JSON boolean would pass as the colour 0 or 1
        bad = next(i for i, colours in raw.items() if any(type(c) is not int for c in colours))
    if bad is not None:
        raise GraphError(f"the list of incidence {bad} must be a JSON array of integers, "
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


def spec_from_json(data: dict) -> FamilySpec:
    return FamilySpec.from_json(data)


def pre_to_json(pre: dict[int, int]) -> dict:
    return {"pre": [[i, c] for i, c in sorted(pre.items())]}


def pre_from_json(data: Optional[dict]) -> Optional[dict[int, int]]:
    if data is None:
        return None
    pre: dict[int, int] = {}
    for i, colour in _pairs(_object(data, "a pre-colouring")["pre"], "'pre'"):
        if i in pre:
            raise GraphError(f"'pre' names incidence {i} twice")
        pre[i] = colour
    return pre
