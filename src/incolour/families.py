"""Graph family generators and the structural annotations the constructive
colouring algorithms need (grid coordinates, Halin tree and leaf order,
corona labels, Hamilton cycle plus matching, cactus cycles)."""

from __future__ import annotations

import random
import reprlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from .graphs import Graph, InputError, repeated_edge

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
        """The spec a JSON object describes.  A missing, non-string or
        unknown family is an :class:`InputError`; the shape of each
        parameter and the family's form are checked by :func:`generate`."""
        if not isinstance(data, dict) or not isinstance(data.get("family"), str):
            raise InputError("a family spec must be an object with a string 'family', "
                             f"got {reprlib.repr(data)}")
        data = dict(data)
        return cls(data.pop("family"), data)


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


def gen_tree(edges: Sequence[Sequence[int]]) -> tuple[Graph, FamilySpec]:
    """The tree with the given edges on vertices ``0..max``; no edges give
    the single vertex.  Edges that do not form a tree are an
    :class:`InputError`."""
    n = max((max(e) for e in edges), default=0) + 1
    g = Graph(n, edges)
    if not is_tree(g):
        raise InputError("edges do not describe a tree")
    return g, FamilySpec("tree", {"edges": g.edges})


def gen_halin(tree_edges: Sequence[Sequence[int]], leaf_order: Sequence[int]) -> tuple[Graph, FamilySpec]:
    """A Halin graph: the given tree plus a cycle through its leaves.

    The tree must have order >= 4 and no vertex of degree 2; ``leaf_order``
    must be a permutation of its leaves.  Planarity of the order is the
    caller's responsibility and is not verified; the colouring algorithms
    only use the cyclic order and the leaf parents.
    """
    tree, _ = gen_tree(tree_edges)
    nt = tree.n
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
    if (matching is None) == (seed is None):
        raise InputError("ham_cubic needs exactly one of a matching and a seed")
    if matching is None:
        matching = _sample_matching(n, seed)
    pairs = sorted(tuple(sorted(pair)) for pair in matching)
    bad = next((pair for pair in pairs if pair[0] < 0 or pair[1] >= n), None)
    if bad is not None:
        raise InputError(f"matching pair {bad} out of range for n={n}")
    seen: set[int] = set()
    for u, v in pairs:
        twice = {u, v} & seen
        if twice:
            raise InputError(f"matching puts vertex {min(twice)} in two pairs")
        if u == v or (v - u) % n in (1, n - 1):
            raise InputError(f"matching pair {(u, v)} uses a cycle edge or loop")
        seen.update((u, v))
    if len(seen) != n:
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
    if cycles is None and extra_edges is None:
        if size is None or seed is None:
            raise InputError("random cactus needs size and seed")
        cycles, extra_edges = _random_cactus_parts(size, seed)
        spec_params: dict[str, Any] = {"size": size, "seed": seed}
    elif size is None and seed is None:
        spec_params = {}
    else:
        raise InputError("a cactus is given by its cycles and edges or by size and seed, not both")
    cycles = [list(c) for c in cycles or ()]
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

    One depth-first search: roots in id order, neighbours in ``g.adj``
    order.  Each back edge (v, w), w an ancestor of v, closes the tree path
    w...v into a cycle.  ``g`` is a cactus exactly when these cycles share
    no vertex: every edge of a block that is not a bridge lies on the cycle
    of one of that block's back edges, so a block that is not a single
    cycle makes two of them meet.  The search returns None at the first
    shared vertex, so it stays linear.

    A cycle is listed when the search leaves the child of w on it, the
    moment a Hopcroft-Tarjan block decomposition pops that block, so the
    cycles come in that decomposition's order.  Each starts at its least
    vertex and goes on towards the lesser of that vertex's two neighbours.
    """
    parent = [-1] * g.n
    depth = [-1] * g.n
    on_cycle: set[int] = set()
    closes_at: list[Optional[list[int]]] = [None] * g.n   # child of w -> v...w
    cycles = []
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        dfs = [(root, iter(g.adj[root]))]
        while dfs:
            v, it = dfs[-1]
            for w in it:
                if depth[w] < 0:
                    parent[w], depth[w] = v, depth[v] + 1
                    dfs.append((w, iter(g.adj[w])))
                    break
                if w == parent[v] or depth[w] > depth[v]:
                    continue
                cycle = [v]
                while cycle[-1] != w:
                    cycle.append(parent[cycle[-1]])
                if not on_cycle.isdisjoint(cycle):
                    return None
                on_cycle.update(cycle)
                closes_at[cycle[-2]] = cycle
            else:
                dfs.pop()
                cycle = closes_at[v]
                if cycle:
                    i = cycle.index(min(cycle))
                    cycle = cycle[i:] + cycle[:i]
                    cycles.append(cycle if cycle[1] < cycle[-1] else cycle[:1] + cycle[:0:-1])
    return cycles


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

    Each parameter must have its shape in ``_PARAM_SHAPES``, and the spec
    is built by the first of its family's forms in ``_FORMS`` that its
    parameters fit; any other spec is an :class:`InputError` naming the
    missing parameter or the family's forms and the parameters given.

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


def _random_cactus(p) -> tuple[Graph, FamilySpec]:
    # once generated, a random cactus spec also lists its cycles and edges,
    # which must be the ones its size and seed give
    g, built = gen_cactus(size=p["size"], seed=p["seed"])
    if any(p[key] != built.params[key] for key in ("cycles", "edges") if key in p):
        raise InputError("cactus cycles and edges do not match its size and seed")
    return g, built


def _given_cactus(p) -> tuple[Graph, FamilySpec]:
    # the stored edges repeat the cycles' edges; Graph keeps one copy
    return gen_cactus(p.get("cycles", ()), p.get("edges", ()))


# each family's forms: the parameters a form needs, the ones it may add, and
# its builder, which takes the params; a spec is built by the first form its
# parameters fit
_FORMS = {
    **{f: [(("n",), (), lambda p, f=f: gen_basic(f, **p))] for f in BASIC_FAMILIES},
    "grid": [(("m", "n"), (), lambda p: gen_grid(**p))],
    "tree": [(("n",), ("seed",), lambda p: gen_random_tree(p["n"], p.get("seed", 0))),
             (("edges",), (), lambda p: gen_tree(**p))],
    "halin": [(("tree_edges", "leaf_order"), (), lambda p: gen_halin(**p))],
    "corona": [(("n", "p"), (), lambda p: gen_corona(**p))],
    "ham_cubic": [(("n", "seed"), (), lambda p: gen_ham_cubic(**p)),
                  (("n", "matching"), (), lambda p: gen_ham_cubic(**p))],
    "cycle_power": [(("n", "p"), (), lambda p: gen_cycle_power(**p))],
    "cactus": [(("size", "seed"), ("cycles", "edges"), _random_cactus),
               (("edges",), ("cycles",), _given_cactus), (("cycles",), (), _given_cactus)],
}


def _build(spec: FamilySpec) -> tuple[Graph, FamilySpec]:
    f, p = spec.family, spec.params
    for key, value in p.items():
        shape = _PARAM_SHAPES.get(key)
        if shape is not None and not shape[0](value):
            raise InputError(f"spec parameter {key!r} must be {shape[1]}, "
                             f"got {reprlib.repr(_thawed(value))}")
    for key in ("edges", "tree_edges"):
        twice = repeated_edge(p.get(key, ()))
        if twice is not None:
            raise InputError(f"spec parameter {key!r} names the edge {list(twice)} twice")
    forms = _FORMS[f]
    for needs, may, build in forms:
        if set(needs) <= p.keys() <= {*needs, *may}:
            return build(p)
    for needs, _, _ in forms:
        if p.keys() <= set(needs):
            missing = next(key for key in needs if key not in p)
            raise InputError(f"a {f} spec needs the parameter {missing!r}")
    texts = [f"({', '.join(needs)}{'[, ' + ', '.join(may) + ']' if may else ''})"
             for needs, may, _ in forms]
    given = ", ".join(map(repr, sorted(p)))
    raise InputError(f"a {f} spec takes {' or '.join(texts)}; got {given}")
