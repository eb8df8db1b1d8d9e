"""Graph family generators and the structural annotations the constructive
colouring algorithms need (grid coordinates, Halin tree and leaf order,
corona labels, Hamilton cycle plus matching, cactus cycles)."""

from __future__ import annotations

import random
import reprlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from .graphs import Graph, InputError, canon_edge

BASIC_FAMILIES = ("path", "cycle", "star", "wheel", "complete")
ALL_FAMILIES = BASIC_FAMILIES + (
    "grid", "tree", "halin", "corona", "cactus", "ham_cubic", "cycle_power",
)


class _FrozenParams(dict):
    """A spec's ``params``: a dict whose keys cannot be set or removed.

    A generated spec carries its graph, so changing its params in place
    would leave them describing another graph.  Nested lists are frozen to
    tuples (``FamilySpec.to_json`` turns them back into lists); equality
    and ``repr`` are those of a plain dict holding those tuples.
    """

    def _read_only(self, *args, **kwargs):
        raise TypeError("FamilySpec params are read-only; build a new spec")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # the default dict-subclass pickle refills the dict with __setitem__
        return _FrozenParams, (dict(self),)


def _frozen(value):
    """``value`` with every nested list or tuple turned into a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(x) for x in value)
    return value


def _thawed(value):
    """``value`` with every nested tuple turned back into a list."""
    if isinstance(value, tuple):
        return [_thawed(x) for x in value]
    return value


def _int_tree(value) -> bool:
    """Whether ``value`` is an integer (not a bool) or a list of such
    values, nested to any depth."""
    if isinstance(value, list):
        return all(map(_int_tree, value))
    return type(value) is int


@dataclass(frozen=True)
class FamilySpec:
    """Parametric description of a generated graph.

    ``params`` holds the family payload: grid dimensions, the Halin tree
    edges plus cyclic leaf order, corona ``(n, p)``, the Hamilton cycle
    matching, cactus cycles, and so on.  It is copied into a read-only
    dict on construction, nested lists frozen to tuples.  Specs round-trip
    through JSON, where the tuples are lists again.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in ALL_FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        if not isinstance(self.params, _FrozenParams):
            frozen = {k: _frozen(v) for k, v in self.params.items()}
            object.__setattr__(self, "params", _FrozenParams(frozen))

    def to_json(self) -> dict:
        return {"family": self.family, **{k: _thawed(v) for k, v in self.params.items()}}

    @classmethod
    def from_json(cls, data: dict) -> "FamilySpec":
        """The spec a JSON object describes.  A missing or non-string
        family, or a parameter that is not an integer or a nested list of
        integers, is an :class:`InputError`."""
        if not isinstance(data, dict) or not isinstance(data.get("family"), str):
            raise InputError("a family spec must be an object with a string 'family', "
                             f"got {reprlib.repr(data)}")
        data = dict(data)
        family = data.pop("family")
        for key, value in data.items():
            if not _int_tree(value):
                raise InputError(f"spec parameter {key!r} must be an integer or a list of them, "
                                 f"got {reprlib.repr(value)}")
        return cls(family, data)


def gen_basic(variant: str, n: int) -> tuple[Graph, FamilySpec]:
    """Canonical path/cycle/star/wheel/complete graphs.

    Cycles use vertices ``0..n-1`` in cyclic order, stars have centre 0 and
    ``n`` leaves, wheels put the hub at vertex ``n``.
    """
    variant = variant.lower()
    if variant == "path":
        if n < 1:
            raise InputError("path needs n >= 1")
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    elif variant == "cycle":
        if n < 3:
            raise InputError("cycle needs n >= 3")
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    elif variant == "star":
        if n < 1:
            raise InputError("star needs n >= 1 leaves")
        g = Graph(n + 1, [(0, i) for i in range(1, n + 1)])
    elif variant == "wheel":
        if n < 3:
            raise InputError("wheel needs n >= 3")
        edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
        g = Graph(n + 1, edges)
    elif variant == "complete":
        if n < 1:
            raise InputError("complete graph needs n >= 1")
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    else:
        raise InputError(f"unknown basic variant {variant!r}")
    return g, FamilySpec(variant, {"n": n})


def grid_vertex(i: int, j: int, n: int) -> int:
    """Id of grid vertex ``v_{i,j}`` (1-based row i, column j, n columns)."""
    return (i - 1) * n + (j - 1)


def gen_grid(m: int, n: int) -> tuple[Graph, FamilySpec]:
    """The m-by-n square grid (product of two paths), m >= n >= 2."""
    if n < 2 or m < n:
        raise InputError("grid needs m >= n >= 2 (transpose the arguments)")
    edges = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if j < n:
                edges.append((grid_vertex(i, j, n), grid_vertex(i, j + 1, n)))
            if i < m:
                edges.append((grid_vertex(i, j, n), grid_vertex(i + 1, j, n)))
    return Graph(m * n, edges), FamilySpec("grid", {"m": m, "n": n})


def gen_random_tree(n: int, seed: int) -> tuple[Graph, FamilySpec]:
    """Random recursive tree on n vertices: vertex v attaches to a uniform
    earlier vertex.  Deterministic per seed."""
    if n < 1:
        raise InputError("tree needs n >= 1")
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(n, edges), FamilySpec("tree", {"n": n, "seed": seed})


def gen_halin(tree_edges: Sequence[Sequence[int]], leaf_order: Sequence[int]) -> tuple[Graph, FamilySpec]:
    """A Halin graph: the given tree plus a cycle through its leaves.

    The tree must have order >= 4 and no vertex of degree 2; ``leaf_order``
    must be a permutation of its leaves.  Planarity of the order is the
    caller's responsibility and is not verified; the colouring algorithms
    only use the cyclic order and the leaf parents.
    """
    nt = max((max(e) for e in tree_edges), default=0) + 1
    tree = Graph(nt, tree_edges)
    if len(tree.edges) != nt - 1 or not is_connected(tree):
        raise InputError("tree_edges do not describe a tree")
    if nt < 4:
        raise InputError("Halin tree needs order >= 4")
    if any(tree.degree(v) == 2 for v in range(nt)):
        raise InputError("Halin tree must have no vertex of degree 2")
    leaves = [v for v in range(nt) if tree.degree(v) == 1]
    if sorted(leaf_order) != sorted(leaves):
        raise InputError("leaf_order is not a permutation of the tree leaves")
    k = len(leaf_order)
    cycle_edges = [(leaf_order[i], leaf_order[(i + 1) % k]) for i in range(k)]
    g = Graph(nt, list(tree.edges) + cycle_edges)
    spec = FamilySpec("halin", {"tree_edges": tree.edges, "leaf_order": tuple(leaf_order)})
    return g, spec


def corona_pendant(i: int, j: int, n: int, p: int) -> int:
    """Id of pendant vertex ``v_i^j`` of the corona C_n . pK_1 (1 <= j <= p)."""
    return n + i * p + (j - 1)


def gen_corona(n: int, p: int) -> tuple[Graph, FamilySpec]:
    """Generalized corona of a cycle: C_n with p pendant vertices on each
    cycle vertex.  Vertices 0..n-1 form the cycle; pendant v_i^j gets id
    ``n + i*p + (j-1)``."""
    if n < 3 or p < 1:
        raise InputError("corona needs n >= 3 and p >= 1")
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        for j in range(1, p + 1):
            edges.append((i, corona_pendant(i, j, n, p)))
    return Graph(n * (p + 1), edges), FamilySpec("corona", {"n": n, "p": p})


def gen_ham_cubic(
    n: int,
    matching: Optional[Iterable[Sequence[int]]] = None,
    seed: Optional[int] = None,
) -> tuple[Graph, FamilySpec]:
    """Hamiltonian cubic graph: the cycle 0..n-1 plus a perfect matching
    disjoint from the cycle edges.  With ``seed`` given, a matching is
    sampled by rejection."""
    if n % 2 != 0 or n < 4:
        raise InputError("ham_cubic needs even n >= 4")
    if matching is None:
        if seed is None:
            raise InputError("ham_cubic needs a matching or a seed")
        matching = _sample_matching(n, seed)
    pairs = sorted(tuple(sorted(pair)) for pair in matching)
    seen: set[int] = set()
    for u, v in pairs:
        if u == v or (v - u) % n in (1, n - 1):
            raise InputError(f"matching pair {(u, v)} uses a cycle edge or loop")
        seen.update((u, v))
    if seen != set(range(n)):
        raise InputError("matching is not perfect on 0..n-1")
    edges = [(i, (i + 1) % n) for i in range(n)] + [tuple(pair) for pair in pairs]
    g = Graph(n, edges)
    return g, FamilySpec("ham_cubic", {"n": n, "matching": pairs})


def _sample_matching(n: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    while True:
        verts = list(range(n))
        rng.shuffle(verts)
        pairs = [(verts[i], verts[i + 1]) for i in range(0, n, 2)]
        if all((v - u) % n not in (1, n - 1) for u, v in pairs):
            return pairs


def gen_cycle_power(n: int, p: int) -> tuple[Graph, FamilySpec]:
    """The p-th power of the cycle C_n: vertices joined when their cycle
    distance is at most p."""
    if n < 3 or p < 1:
        raise InputError("cycle power needs n >= 3 and p >= 1")
    edges = []
    for i in range(n):
        for d in range(1, p + 1):
            j = (i + d) % n
            if i != j:
                edges.append((i, j))
    return Graph(n, edges), FamilySpec("cycle_power", {"n": n, "p": p})


def gen_cactus(
    cycles: Optional[Sequence[Sequence[int]]] = None,
    extra_edges: Optional[Sequence[Sequence[int]]] = None,
    size: Optional[int] = None,
    seed: Optional[int] = None,
) -> tuple[Graph, FamilySpec]:
    """A cactus, either from an explicit description (cycles as vertex
    sequences plus tree/bridge edges) or sampled from ``(size, seed)``.

    The random model grows a skeleton tree and expands a subset of its
    nodes into vertex-disjoint cycles of bounded length, so both the
    maximal-cycle and the no-maximal-cycle regimes occur.
    """
    if cycles is None:
        if size is None or seed is None:
            raise InputError("random cactus needs size and seed")
        cycles, extra_edges = _random_cactus_parts(size, seed)
        spec_params: dict[str, Any] = {"size": size, "seed": seed}
    else:
        spec_params = {}
    cycles = [list(c) for c in cycles]
    extra_edges = [tuple(e) for e in (extra_edges or [])]
    edges: list[tuple[int, int]] = list(extra_edges)
    for c in cycles:
        if len(c) < 3:
            raise InputError("cactus cycles need length >= 3")
        edges.extend((c[i], c[(i + 1) % len(c)]) for i in range(len(c)))
    nv = max(max((max(c) for c in cycles), default=-1),
             max((max(e) for e in extra_edges), default=-1)) + 1
    g = Graph(nv, edges)
    found = cactus_cycles(g)
    if found is None:
        raise InputError("description violates the one-cycle-per-vertex rule")
    spec_params.update({"cycles": found, "edges": g.edges})
    return g, FamilySpec("cactus", spec_params)


def _random_cactus_parts(size: int, seed: int):
    rng = random.Random(seed)
    n_nodes = max(2, size // 3)
    kinds = []
    for node in range(n_nodes):
        if node == 0 or rng.random() < 0.55:
            kinds.append(rng.randint(3, 6))   # cycle length
        else:
            kinds.append(0)                   # normal vertex
    nxt = 0
    node_verts: list[list[int]] = []
    cycles = []
    for length in kinds:
        if length:
            vs = list(range(nxt, nxt + length))
            cycles.append(vs)
        else:
            vs = [nxt]
        node_verts.append(vs)
        nxt += len(vs)
    extra = []
    for node in range(1, n_nodes):
        parent = rng.randrange(node)
        extra.append((rng.choice(node_verts[parent]), rng.choice(node_verts[node])))
    # sprinkle pendant vertices so high degrees occur
    for node in range(n_nodes):
        for _ in range(rng.randint(0, 2)):
            extra.append((rng.choice(node_verts[node]), nxt))
            nxt += 1
    return cycles, extra


def cactus_cycles(g: Graph) -> Optional[list[list[int]]]:
    """The cycles of ``g`` if it is a cactus, else None.

    Uses biconnected components: each component is either a bridge or, in
    a cactus, a single cycle.  A component that is 2-connected but not a
    plain cycle (some vertex of degree > 2 inside it) disqualifies the
    graph, as does a vertex lying on two cycle components.
    """
    comps = biconnected_components(g)
    cycles = []
    on_cycle: set[int] = set()
    for comp in comps:
        if len(comp) == 1:
            continue
        verts: dict[int, int] = {}
        for u, v in comp:
            verts[u] = verts.get(u, 0) + 1
            verts[v] = verts.get(v, 0) + 1
        if len(comp) != len(verts) or any(d != 2 for d in verts.values()):
            return None
        if any(v in on_cycle for v in verts):
            return None
        on_cycle.update(verts)
        cycles.append(_walk_cycle(comp))
    return cycles


def _walk_cycle(comp_edges: Sequence[tuple[int, int]]) -> list[int]:
    adj: dict[int, list[int]] = {}
    for u, v in comp_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    order = [start, min(adj[start])]
    while len(order) < len(adj):
        prev, cur = order[-2], order[-1]
        order.append(adj[cur][0] if adj[cur][0] != prev else adj[cur][1])
    return order


def biconnected_components(g: Graph) -> list[list[tuple[int, int]]]:
    """Biconnected components as edge lists (iterative Hopcroft-Tarjan).

    The graph is simple, so each parent appears exactly once in its child's
    adjacency list and can be skipped directly.
    """
    idx: dict[int, int] = {}
    low: dict[int, int] = {}
    comps: list[list[tuple[int, int]]] = []
    stack: list[tuple[int, int]] = []
    counter = 0
    for root in range(g.n):
        if root in idx:
            continue
        idx[root] = low[root] = counter
        counter += 1
        dfs = [(root, -1, iter(g.adj[root]))]
        while dfs:
            v, parent, it = dfs[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w not in idx:
                    stack.append(canon_edge(v, w))
                    idx[w] = low[w] = counter
                    counter += 1
                    dfs.append((w, v, iter(g.adj[w])))
                    advanced = True
                    break
                if idx[w] < idx[v]:
                    stack.append(canon_edge(v, w))
                    if idx[w] < low[v]:
                        low[v] = idx[w]
            if advanced:
                continue
            dfs.pop()
            if dfs:
                u = dfs[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= idx[u]:
                    comp = []
                    e = canon_edge(u, v)
                    while stack:
                        f = stack.pop()
                        comp.append(f)
                        if f == e:
                            break
                    if comp:
                        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    todo = [0]
    while todo:
        v = todo.pop()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == g.n


def is_tree(g: Graph) -> bool:
    return is_connected(g) and len(g.edges) == g.n - 1


def gen_random_graph(n: int, seed: int, density: float = 0.3) -> Graph:
    """Erdos-Renyi style random simple graph (test helper)."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return Graph(n, edges)


def gen_random_degenerate(n: int, d: int, seed: int) -> Graph:
    """Random d-degenerate graph: each new vertex attaches to at most d
    earlier vertices."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        k = rng.randint(1, min(d, v))
        for u in rng.sample(range(v), k):
            edges.append((u, v))
    return Graph(n, edges)


def generate(spec: FamilySpec) -> tuple[Graph, FamilySpec]:
    """Materialize a spec (the inverse of the gen_* constructors).

    The spec returned carries its graph, which generating it again returns
    without a build; any other spec, copies included, is built afresh and
    never marked.  The graph is not a field: ``==``, ``repr`` and the JSON
    form ignore it.  ``params`` is read-only and its nested sequences are
    tuples, so the graph always matches the spec.
    """
    g = getattr(spec, "_graph", None)
    if g is None:
        g, spec = _build(spec)
        object.__setattr__(spec, "_graph", g)   # not (g, spec): that is a cycle
    return g, spec


def _int(value) -> bool:
    return type(value) is int


def _ints(value) -> bool:
    return isinstance(value, tuple) and all(map(_int, value))


def _int_pairs(value) -> bool:
    return isinstance(value, tuple) and all(_ints(x) and len(x) == 2 for x in value)


def _int_lists(value) -> bool:
    return isinstance(value, tuple) and all(map(_ints, value))


# the shape of each family parameter, checked in one pass per build so that
# a spec with the wrong nesting fails as an InputError, not in a generator
_PARAM_SHAPES = {
    "n": (_int, "an integer"),
    "m": (_int, "an integer"),
    "p": (_int, "an integer"),
    "size": (_int, "an integer"),
    "seed": (_int, "an integer"),
    "leaf_order": (_ints, "a list of integers"),
    "tree_edges": (_int_pairs, "a list of integer pairs"),
    "matching": (_int_pairs, "a list of integer pairs"),
    "edges": (_int_pairs, "a list of integer pairs"),
    "cycles": (_int_lists, "a list of integer lists"),
}


# the parameters each family needs; a cactus given its cycles needs no others
_REQUIRED = {
    **dict.fromkeys(BASIC_FAMILIES, ("n",)),
    "grid": ("m", "n"),
    "tree": ("n",),
    "halin": ("tree_edges", "leaf_order"),
    "corona": ("n", "p"),
    "ham_cubic": ("n",),
    "cycle_power": ("n", "p"),
    "cactus": ("size", "seed"),
}


def _build(spec: FamilySpec) -> tuple[Graph, FamilySpec]:
    f, p = spec.family, spec.params
    for key, value in p.items():
        shape = _PARAM_SHAPES.get(key)
        if shape is not None and not shape[0](value):
            raise InputError(f"spec parameter {key!r} must be {shape[1]}, "
                             f"got {reprlib.repr(_thawed(value))}")
    if not (f == "cactus" and "cycles" in p):
        for key in _REQUIRED[f]:
            if key not in p:
                raise InputError(f"a {f} spec needs the parameter {key!r}")
    if f in BASIC_FAMILIES:
        return gen_basic(f, p["n"])
    if f == "grid":
        return gen_grid(p["m"], p["n"])
    if f == "tree":
        return gen_random_tree(p["n"], p.get("seed", 0))
    if f == "halin":
        return gen_halin(p["tree_edges"], p["leaf_order"])
    if f == "corona":
        return gen_corona(p["n"], p["p"])
    if f == "ham_cubic":
        return gen_ham_cubic(p["n"], matching=p.get("matching"), seed=p.get("seed"))
    if f == "cycle_power":
        return gen_cycle_power(p["n"], p["p"])
    if f == "cactus":
        if "cycles" in p and not ("size" in p and "seed" in p):
            cycle_edge_set = set()
            for c in p["cycles"]:
                cycle_edge_set.update(canon_edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c)))
            extra = [e for e in p.get("edges", []) if canon_edge(*e) not in cycle_edge_set]
            return gen_cactus(cycles=p["cycles"], extra_edges=extra)
        # a random cactus; once generated, its spec also lists the cycles and
        # edges, which must be the ones its size and seed give
        g, built = gen_cactus(size=p["size"], seed=p["seed"])
        if any(p[key] != built.params[key] for key in ("cycles", "edges") if key in p):
            raise InputError("cactus cycles and edges do not match its size and seed")
        return g, built
    raise InputError(f"cannot generate family {f!r}")
