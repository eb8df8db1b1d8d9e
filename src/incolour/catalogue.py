"""Named instances reused by the CLI fuzz defaults and the test suite."""

from __future__ import annotations

import random

from .families import FamilySpec


def grid_specs() -> list[FamilySpec]:
    two_rows = [FamilySpec("grid", {"m": m, "n": 2}) for m in range(2, 11)]
    wide = [
        FamilySpec("grid", {"m": m, "n": n})
        for n in range(3, 8)
        for m in range(n, 8)
    ]
    return two_rows + wide


def tree_specs() -> list[FamilySpec]:
    """Twelve random trees, with 3 to 14 vertices."""
    return [FamilySpec("tree", {"n": 3 + i, "seed": i}) for i in range(12)]


def wheel_specs() -> list[FamilySpec]:
    return [FamilySpec("wheel", {"n": n}) for n in range(4, 9)]


def halin_specs() -> list[FamilySpec]:
    """Non-wheel Halin graphs with maximum degree 3 or 4."""
    spider = FamilySpec("halin", {
        "tree_edges": [[0, 1], [0, 2], [0, 3], [1, 4], [1, 5]],
        "leaf_order": [2, 3, 4, 5],
    })
    broom = FamilySpec("halin", {
        "tree_edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 5], [1, 6]],
        "leaf_order": [2, 3, 4, 5, 6],
    })
    caterpillar = FamilySpec("halin", {
        "tree_edges": [[0, 1], [1, 2], [0, 3], [0, 4], [1, 5], [1, 6], [2, 7], [2, 8]],
        "leaf_order": [3, 4, 5, 6, 7, 8],
    })
    # adjacent leaf blocks whose parents sit two tree edges apart
    distant = FamilySpec("halin", {
        "tree_edges": [[0, 1], [1, 2], [1, 3], [0, 4], [0, 5], [2, 6], [2, 7], [3, 8], [3, 9]],
        "leaf_order": [4, 5, 6, 7, 8, 9],
    })
    return [spider, broom, caterpillar, distant]


def random_halin_spec(n_internal: int, seed: int) -> FamilySpec:
    """Seeded random Halin structure: a random internal tree, enough leaf
    children to rule out degree-2 vertices plus a few extra, and the leaf
    order read off a depth-first walk of a random plane embedding."""
    rng = random.Random(seed)
    internal_edges = [(rng.randrange(v), v) for v in range(1, n_internal)]
    internal_adj: dict[int, list[int]] = {v: [] for v in range(n_internal)}
    for u, v in internal_edges:
        internal_adj[u].append(v)
        internal_adj[v].append(u)

    next_id = n_internal
    children: dict[int, list[int]] = {}
    tree_edges = [list(e) for e in internal_edges]
    for v in range(n_internal):
        need = max(0, 3 - len(internal_adj[v])) if n_internal > 1 else 3
        items: list = list(internal_adj[v])
        for _ in range(need + rng.randint(0, 2)):
            tree_edges.append([v, next_id])
            items.append(("leaf", next_id))
            next_id += 1
        rng.shuffle(items)
        children[v] = items

    # leaves in depth-first order of the chosen embedding
    order: list[int] = []
    seen = {0}
    stack: list = [(0, iter(children[0]))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for item in it:
            if isinstance(item, tuple):
                order.append(item[1])
                continue
            if item not in seen:
                seen.add(item)
                stack.append((item, iter(children[item])))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return FamilySpec("halin", {"tree_edges": tree_edges, "leaf_order": order})


def halin_interleaved_spec() -> FamilySpec:
    """A Halin graph whose leaf order has no two adjacent parent runs of
    length >= 2, coloured by the same route, with no search, as every
    other Halin graph."""
    return FamilySpec("halin", {
        "tree_edges": [
            [0, 1], [0, 2], [0, 3], [0, 4],
            [1, 5], [1, 6], [2, 7], [2, 8],
        ],
        "leaf_order": [5, 6, 3, 7, 8, 4],
    })


def corona_specs() -> list[FamilySpec]:
    return [
        FamilySpec("corona", {"n": n, "p": p})
        for n in (3, 4, 5)
        for p in range(1, 6)
    ]


def cactus_row_specs() -> list[FamilySpec]:
    """Five handcrafted cactuses, one per row of the census bound table."""
    deg3 = FamilySpec("cactus", {
        "cycles": [[0, 1, 2], [3, 4, 5]],
        "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]],
    })
    deg4_no_max = FamilySpec("cactus", {
        "cycles": [[0, 1, 2]],
        "edges": [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [3, 5], [3, 6]],
    })
    deg4_max = FamilySpec("cactus", {
        "cycles": [[0, 1, 2]],
        "edges": [[0, 1], [1, 2], [0, 2], [0, 3], [0, 4]],
    })
    deg5_one_max3 = FamilySpec("cactus", {
        "cycles": [[0, 1, 2], [5, 6, 7, 8]],
        "edges": [[0, 1], [1, 2], [0, 2], [0, 3], [0, 4], [0, 5],
                  [5, 6], [6, 7], [7, 8], [5, 8]],
    })
    deg6_two_max3 = FamilySpec("cactus", {
        "cycles": [[0, 1, 2], [3, 4, 5]],
        "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [0, 3],
                  [0, 6], [0, 7], [0, 8], [3, 9], [3, 10], [3, 11]],
    })
    return [deg3, deg4_no_max, deg4_max, deg5_one_max3, deg6_two_max3]


def random_cactus_specs(count: int = 20, seed: int = 0) -> list[FamilySpec]:
    return [
        FamilySpec("cactus", {"size": 12 + (seed + i) % 18, "seed": seed + i})
        for i in range(count)
    ]


def ham_cubic_named() -> list[FamilySpec]:
    k4 = FamilySpec("ham_cubic", {"n": 4, "matching": [[0, 2], [1, 3]]})
    k33 = FamilySpec("ham_cubic", {"n": 6, "matching": [[0, 3], [1, 4], [2, 5]]})
    cube = FamilySpec("ham_cubic", {"n": 8, "matching": [[0, 3], [1, 6], [2, 5], [4, 7]]})
    return [k4, k33, cube]


def random_ham_cubic_specs(count: int = 20) -> list[FamilySpec]:
    """Random Hamiltonian cubic graphs with 6 to 20 vertices."""
    return [FamilySpec("ham_cubic", {"n": 6 + 2 * (i % 8), "seed": i}) for i in range(count)]


def default_fuzz_instances(family: str) -> list[FamilySpec]:
    if family == "grid":
        return grid_specs()
    if family == "tree":
        return tree_specs()
    if family == "cycle":
        return [FamilySpec("cycle", {"n": n}) for n in range(3, 13)]
    if family == "halin":
        return wheel_specs() + halin_specs() + [random_halin_spec(1 + i % 5, i) for i in range(5)]
    if family == "corona":
        return corona_specs()
    if family == "cactus":
        return cactus_row_specs() + random_cactus_specs(count=10)
    if family == "ham_cubic":
        return ham_cubic_named() + random_ham_cubic_specs(count=10)
    raise ValueError(f"no default fuzz instances for family {family!r}")
