"""Output checks that share no code with ``incolour.graphs``.

A colouring is checked from the graph's edge list alone, in time linear in
the sum of squared degrees.  Two incidences are adjacent when they sit at
the same vertex, share an edge, or one is ``(v, vu)`` and the other sits at
``u``; so a colouring is proper exactly when

* the incidences at each vertex have distinct colours, and
* ``(v, vu)`` avoids every colour used at ``u``.

Incidence ids follow the enumeration documented by the library: sorted by
(vertex, other endpoint).  It is rebuilt here from the edges.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

MAX_ERRORS = 5


def incidence_pairs(n: int, edges: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """``(vertex, other endpoint)`` for every incidence id, in id order."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [(v, u) for v in range(n) for u in sorted(nbrs[v])]


def incidence_echo(n: int, edges: Sequence[Sequence[int]]) -> list:
    """The incidence echo the library's JSON files carry: ``[v, [a, b]]``."""
    return [[v, sorted((v, u))] for v, u in incidence_pairs(n, edges)]


def graph_errors(n: int, edges: Sequence[Sequence[int]]) -> list[str]:
    """Structural problems with an edge list: loops, repeats, bad ends."""
    errors = []
    seen = set()
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            errors.append(f"bad edge ({u}, {v}) for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            errors.append(f"repeated edge {key}")
        seen.add(key)
    return errors[:MAX_ERRORS]


def colouring_errors(
    n: int,
    edges: Sequence[Sequence[int]],
    lists: Optional[Sequence[frozenset]],
    colour: Mapping[int, int],
    pre: Optional[Mapping[int, int]] = None,
) -> list[str]:
    """Every way ``colour`` (incidence id -> colour) fails to be a total,
    proper, list-respecting incidence colouring that keeps ``pre``; empty
    when it is one.  At most ``MAX_ERRORS`` messages."""
    pairs = incidence_pairs(n, edges)
    m = len(pairs)
    errors = graph_errors(n, edges)
    if set(colour) != set(range(m)):
        errors.append(f"colouring covers {len(colour)} ids, graph has {m} incidences")
        return errors
    if lists is not None and len(lists) != m:
        errors.append(f"{len(lists)} lists for {m} incidences")
        return errors
    at: dict[tuple[int, int], int] = {}
    used: list[set[int]] = [set() for _ in range(n)]
    for i, (v, u) in enumerate(pairs):
        c = colour[i]
        at[(v, u)] = c
        if c in used[v]:
            errors.append(f"colour {c} repeats at vertex {v}")
        used[v].add(c)
        if lists is not None and c not in lists[i]:
            errors.append(f"incidence {i} uses {c} outside its list")
        if pre is not None and i in pre and pre[i] != c:
            errors.append(f"incidence {i} was pre-coloured {pre[i]}, got {c}")
    for (v, u), c in at.items():
        if c in used[u]:
            errors.append(f"incidence ({v}, {v}{u}) has colour {c}, also used at {u}")
        if len(errors) >= MAX_ERRORS:
            break
    return errors[:MAX_ERRORS]
