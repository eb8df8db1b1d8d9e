from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import pickle
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen_random_degenerate
from incolour.catalogue import default_fuzz_instances, random_halin_spec, random_ham_cubic_specs
from incolour.families import (
    ALL_FAMILIES,
    FamilySpec,
    cactus_cycles,
    gen_basic,
    gen_cactus,
    gen_corona,
    gen_cycle_power,
    gen_grid,
    gen_halin,
    gen_ham_cubic,
    gen_random_graph,
    gen_random_tree,
    gen_tree,
    generate,
    is_tree,
)
from incolour.graphs import Graph, InputError, canon_edge


def test_gen_basic_examples():
    c4, _ = gen_basic("cycle", 4)
    assert c4.n == 4 and len(c4.edges) == 4 and c4.max_degree == 2
    w3, _ = gen_basic("wheel", 3)
    k4, _ = gen_basic("complete", 4)
    assert set(w3.edges) == {canon_edge(u, v) for u in range(4) for v in range(u + 1, 4)}
    assert len(k4.edges) == 6
    s5, _ = gen_basic("star", 5)
    assert s5.max_degree == 5 and len(s5.edges) == 5


def test_gen_basic_bounds():
    with pytest.raises(InputError):
        gen_basic("cycle", 2)
    with pytest.raises(InputError):
        gen_basic("wheel", 2)
    with pytest.raises(InputError):
        gen_basic("nope", 3)


def test_grid_counts_and_degrees():
    g, spec = gen_grid(5, 4)
    assert g.n == 20 and len(g.edges) == 2 * 5 * 4 - 5 - 4
    g32, _ = gen_grid(3, 2)
    assert g32.max_degree == 3
    g22, _ = gen_grid(2, 2)   # a 4-cycle up to relabelling
    assert g22.n == 4 and len(g22.edges) == 4
    assert all(g22.degree(v) == 2 for v in range(4))
    with pytest.raises(InputError):
        gen_grid(2, 5)
    with pytest.raises(InputError):
        gen_grid(3, 1)


def test_grid_degree_range():
    g, _ = gen_grid(6, 4)
    assert set(g.degree(v) for v in range(g.n)) <= {2, 3, 4}


def test_halin_star_is_wheel():
    star_edges = [[0, 3], [1, 3], [2, 3]]
    g, _ = gen_halin(star_edges, [0, 1, 2])
    w3, _ = gen_basic("wheel", 3)
    assert g == w3
    s6 = [[i, 6] for i in range(6)]
    g6, _ = gen_halin(s6, list(range(6)))
    assert g6 == gen_basic("wheel", 6)[0]
    assert g6.max_degree == 6


def test_halin_spider():
    edges = [[0, 1], [0, 2], [0, 3], [1, 4], [1, 5]]
    g, spec = gen_halin(edges, [2, 3, 4, 5])
    assert g.max_degree == 3
    assert all(g.degree(v) == 3 for v in [2, 3, 4, 5])


def test_halin_guards():
    with pytest.raises(InputError):
        gen_halin([[0, 1], [1, 2]], [0, 2])          # degree-2 vertex
    with pytest.raises(InputError):
        gen_halin([[0, 1], [0, 2], [0, 3]], [1, 2])  # not a leaf permutation
    with pytest.raises(InputError, match="order >= 4"):
        generate(FamilySpec("halin", {"tree_edges": [], "leaf_order": []}))


# (family, the parameters given, the one missing)
MISSING_PARAMETERS = [
    *((f, {}, "n") for f in ("path", "cycle", "star", "wheel", "complete", "tree")),
    ("grid", {"m": 4}, "n"),
    ("grid", {"n": 4}, "m"),
    ("halin", {"leaf_order": [1, 2, 3]}, "tree_edges"),
    ("halin", {"tree_edges": [[0, 1], [0, 2], [0, 3]]}, "leaf_order"),
    ("corona", {"n": 4}, "p"),
    ("corona", {"p": 2}, "n"),
    ("ham_cubic", {"seed": 1}, "n"),
    ("cycle_power", {"n": 7}, "p"),
    ("cactus", {"seed": 1}, "size"),
    ("cactus", {"size": 12}, "seed"),
]


@pytest.mark.parametrize("family, params, missing", MISSING_PARAMETERS,
                         ids=[f"{f}-{m}" for f, _, m in MISSING_PARAMETERS])
def test_generate_names_a_missing_parameter(family, params, missing):
    with pytest.raises(InputError, match=f"a {family} spec needs the parameter '{missing}'"):
        generate(FamilySpec(family, params))


# (family, a spec's parameters, the one outside every form of the family)
FOREIGN_PARAMETERS = [
    ("path", {"n": 4, "seed": 1}, "seed"),
    ("cycle", {"n": 5, "p": 2}, "p"),
    ("star", {"n": 3, "m": 2}, "m"),
    ("wheel", {"n": 5, "edges": [[0, 1]]}, "edges"),
    ("complete", {"n": 4, "size": 4}, "size"),
    ("grid", {"m": 5, "n": 4, "family": "cycle"}, "family"),
    ("grid", {"m": 5, "n": 4, "seed": 3}, "seed"),
    ("tree", {"n": 5, "p": 2}, "p"),
    ("halin", {"tree_edges": [[0, 1], [0, 2], [0, 3]], "leaf_order": [1, 2, 3], "n": 4}, "n"),
    ("corona", {"n": 4, "p": 2, "seed": 1}, "seed"),
    ("ham_cubic", {"n": 6, "seed": 7, "matching": [[0, 3], [1, 4], [2, 5]]}, "seed"),
    ("cycle_power", {"n": 7, "p": 2, "m": 3}, "m"),
    ("cactus", {"size": 99, "edges": [[0, 1], [1, 2], [0, 2]]}, "size"),
]


@pytest.mark.parametrize("family, params, foreign", FOREIGN_PARAMETERS,
                         ids=[f"{f}-{k}" for f, _, k in FOREIGN_PARAMETERS])
def test_generate_rejects_a_parameter_outside_the_forms(family, params, foreign):
    with pytest.raises(InputError, match=f"^a {family} spec takes .*; got .*'{foreign}'"):
        generate(FamilySpec(family, params))


def test_foreign_parameter_rows_cover_every_family():
    assert {f for f, _, _ in FOREIGN_PARAMETERS} == set(ALL_FAMILIES)


def test_corona_labels():
    g, spec = gen_corona(3, 1)
    assert g.n == 6 and g.max_degree == 3
    g, _ = gen_corona(4, 4)
    assert g.max_degree == 6
    assert g.n == 4 * 5
    # pendant ids
    from incolour.families import corona_pendant
    assert corona_pendant(0, 1, 4, 4) == 4
    assert corona_pendant(2, 3, 4, 4) == 4 + 2 * 4 + 2
    with pytest.raises(InputError):
        gen_corona(2, 1)


def test_ham_cubic_named():
    k4, _ = gen_ham_cubic(4, [[0, 2], [1, 3]])
    assert k4 == gen_basic("complete", 4)[0]
    k33, _ = gen_ham_cubic(6, [[0, 3], [1, 4], [2, 5]])
    part = {0, 2, 4}
    assert all((u in part) != (v in part) for u, v in k33.edges)
    cube, _ = gen_ham_cubic(8, [[0, 4], [1, 5], [2, 6], [3, 7]])
    assert len(cube.edges) == 12 and all(cube.degree(v) == 3 for v in range(8))


def test_ham_cubic_guards():
    with pytest.raises(InputError):
        gen_ham_cubic(5, [[0, 2], [1, 3]])
    with pytest.raises(InputError):
        gen_ham_cubic(4, [[0, 1], [2, 3]])   # cycle edge in the matching
    with pytest.raises(InputError):
        gen_ham_cubic(6, [[0, 3], [1, 4]])   # not perfect


def test_ham_cubic_rejects_a_matching_and_a_seed():
    with pytest.raises(InputError, match="exactly one of a matching and a seed"):
        gen_ham_cubic(6, matching=[[0, 3], [1, 4], [2, 5]], seed=7)


def test_ham_cubic_seeded_matchings_regular_and_deterministic():
    for seed in range(10):
        g1, s1 = gen_ham_cubic(12, seed=seed)
        g2, s2 = gen_ham_cubic(12, seed=seed)
        assert g1 == g2 and s1.params["matching"] == s2.params["matching"]
        assert all(g1.degree(v) == 3 for v in range(12))


def test_cycle_power():
    g, _ = gen_cycle_power(6, 2)
    assert all(g.degree(v) == 4 for v in range(6))
    k5, _ = gen_cycle_power(5, 2)
    assert len(k5.edges) == 10


def test_cactus_explicit_and_checker():
    g, spec = gen_cactus(
        cycles=[[0, 1, 2]],
        extra_edges=[[0, 3], [1, 4], [2, 5]],
    )
    assert cactus_cycles(g) == [[0, 1, 2]]
    # two triangles joined by a path of length 2
    g2, _ = gen_cactus(cycles=[[0, 1, 2], [4, 5, 6]], extra_edges=[[2, 3], [3, 4]])
    assert len(cactus_cycles(g2)) == 2
    with pytest.raises(InputError):
        gen_cactus(cycles=[[0, 1, 2], [2, 3, 4]])   # vertex 2 on two cycles
    k4, _ = gen_basic("complete", 4)
    assert cactus_cycles(k4) is None


def test_cactus_random_deterministic_and_valid():
    for seed in range(15):
        g1, s1 = gen_cactus(size=20, seed=seed)
        g2, s2 = gen_cactus(size=20, seed=seed)
        assert g1 == g2
        assert cactus_cycles(g1) is not None


def test_cactus_rejects_cycles_with_size_and_seed():
    with pytest.raises(InputError, match="cycles and edges or by size and seed, not both"):
        gen_cactus(cycles=[[0, 1, 2]], size=50, seed=3)


def test_cactus_cycles_bridge_and_cycle():
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert cactus_cycles(g) == [[0, 1, 2]]


def _simple_cycles(g):
    """Every simple cycle of ``g`` by brute force: paths from each start s
    through vertices above s that close back at s, each cycle once, from s
    towards its lesser neighbour."""
    found = []

    def extend(path, seen):
        for w in g.adj[path[-1]]:
            if w == path[0] and len(path) >= 3 and path[1] < path[-1]:
                found.append(list(path))
            elif w > path[0] and w not in seen:
                seen.add(w)
                path.append(w)
                extend(path, seen)
                path.pop()
                seen.discard(w)

    for s in range(g.n):
        extend([s], {s})
    return found


def _oracle_graphs():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
    rng = random.Random(11)
    for _ in range(300):
        yield gen_random_graph(rng.randint(6, 9), rng.randrange(10**6), rng.choice((0.2, 0.3, 0.4)))


def test_cactus_cycles_match_a_brute_force_oracle():
    """None exactly when two simple cycles share a vertex, otherwise every
    simple cycle once, from its least vertex towards its lesser neighbour."""
    graphs = cactuses = 0
    for g in _oracle_graphs():
        cycles = _simple_cycles(g)
        vertices = [v for c in cycles for v in c]
        got = cactus_cycles(g)
        graphs += 1
        if len(set(vertices)) < len(vertices):
            assert got is None, g.edges
        else:
            cactuses += 1
            assert got is not None and sorted(got) == sorted(cycles), g.edges
    assert graphs == 1400 and 0 < cactuses < graphs


def _relabelled_union(parts, rng):
    n = sum(p.n for p in parts)
    label = list(range(n))
    rng.shuffle(label)
    edges, offset = [], 0
    for p in parts:
        edges += [(label[u + offset], label[v + offset]) for u, v in p.edges]
        offset += p.n
    return n, edges


# sha256 prefix of cactus_cycles (order, orientation and None) on 60 seeded
# random cactuses and 60 relabelled unions of two or three, each union with
# and without one extra edge
CACTUS_CYCLES_DIGEST = "0281dec54c03502f"


def test_cactus_cycles_match_golden_digest():
    rng = random.Random(5)
    h = hashlib.sha256()
    graphs = [gen_cactus(size=rng.randint(5, 150), seed=seed)[0] for seed in range(60)]
    for i in range(60):
        parts = [gen_cactus(size=rng.randint(3, 40), seed=100 + 3 * i + j)[0]
                 for j in range(rng.randint(2, 3))]
        n, edges = _relabelled_union(parts, rng)
        graphs += [Graph(n, edges), Graph(n, edges + [tuple(rng.sample(range(n), 2))])]
    results = [cactus_cycles(g) for g in graphs]
    for cycles in results:
        h.update(f"{cycles}\n".encode())
    assert sum(r is None for r in results) > 0
    assert h.hexdigest()[:16] == CACTUS_CYCLES_DIGEST


def test_random_tree_and_degenerate():
    for seed in range(10):
        t, _ = gen_random_tree(9, seed)
        assert is_tree(t)
        d = gen_random_degenerate(10, 2, seed)
        # every prefix construction leaves a vertex of degree <= 2
        from incolour.solver import degeneracy_order
        assert degeneracy_order(d.adj).degeneracy <= 2


def test_spec_json_roundtrip():
    specs = [
        FamilySpec("grid", {"m": 5, "n": 4}),
        FamilySpec("corona", {"n": 4, "p": 3}),
        FamilySpec("ham_cubic", {"n": 6, "matching": [[0, 3], [1, 4], [2, 5]]}),
    ]
    for spec in specs:
        again = FamilySpec.from_json(spec.to_json())
        assert again == spec
        g1, _ = generate(spec)
        g2, _ = generate(again)
        assert g1 == g2


def test_edges_specs_round_trip_through_json():
    """A tree named by its edges, and a cactus named by its edges alone,
    read back from the JSON of their generated specs as equal specs with
    equal graphs; the generated cactus spec carries its cycles."""
    tree, _ = gen_random_tree(11, 3)
    cactus, _ = gen_cactus(size=15, seed=4)
    for family, g in (("tree", tree), ("cactus", cactus)):
        data = {"family": family, "edges": [list(e) for e in g.edges]}
        g1, spec1 = generate(FamilySpec.from_json(data))
        g2, spec2 = generate(FamilySpec.from_json(json.loads(json.dumps(spec1.to_json()))))
        assert g1 == g2 == g and spec1 == spec2
    assert spec1.params["cycles"] == tuple(map(tuple, cactus_cycles(g1)))
    assert spec1.to_json() == {"family": "cactus", "cycles": cactus_cycles(g1),
                               "edges": [list(e) for e in g1.edges]}
    assert gen_tree([]) == (Graph(1, []), FamilySpec("tree", {"edges": []}))


@pytest.mark.parametrize("params, message", [
    ({"edges": [[0, 1], [1, 2], [0, 2]]}, "edges do not describe a tree"),
    ({"edges": [[0, 1], [2, 3]]}, "edges do not describe a tree"),
    ({"edges": [[0, 2]]}, "edges do not describe a tree"),
    ({"edges": [[0, 1]], "n": 2},
     re.escape("a tree spec takes (n[, seed]) or (edges); got 'edges', 'n'")),
    ({"edges": [[0, 1]], "seed": 0},
     re.escape("a tree spec takes (n[, seed]) or (edges); got 'edges', 'seed'")),
], ids=["cycle", "forest", "isolated-vertex", "edges-and-n", "edges-and-seed"])
def test_tree_edges_spec_rejects(params, message):
    with pytest.raises(InputError, match=message):
        generate(FamilySpec("tree", params))


def test_generate_materializes_cactus():
    _, spec = gen_cactus(size=15, seed=4)
    g1, spec1 = generate(spec)
    g2, spec2 = generate(FamilySpec.from_json(spec1.to_json()))
    assert g1 == g2 and spec1.params["cycles"] == spec2.params["cycles"]


def test_generate_reuses_the_graph_of_a_generated_spec(builder_calls):
    g, spec = generate(FamilySpec("grid", {"m": 4, "n": 3}))
    assert builder_calls == ["gen_grid"]
    again_g, again_spec = generate(spec)
    assert again_g is g and again_spec is spec
    assert builder_calls == ["gen_grid"]


def test_generate_builds_for_every_other_spec(builder_calls):
    source = FamilySpec("corona", {"n": 4, "p": 2})
    g, spec = generate(source)
    copies = [
        source,                                  # the caller's spec stays unmarked
        FamilySpec("corona", {"n": 4, "p": 2}),
        FamilySpec.from_json(spec.to_json()),
        dataclasses.replace(spec),
    ]
    for copy in copies:
        assert copy == spec and repr(copy) == repr(spec)
        assert copy.to_json() == spec.to_json()
        copy_g, copy_spec = generate(copy)
        assert copy_g == g and copy_g is not g and copy_spec == spec
    assert builder_calls == ["gen_corona"] * 5


def test_generated_spec_keeps_its_graph_through_pickle(builder_calls):
    g, spec = generate(FamilySpec("halin", {
        "tree_edges": [[0, 5], [1, 5], [2, 6], [3, 6], [4, 6], [5, 6]],
        "leaf_order": [0, 1, 2, 3, 4]}))
    back = pickle.loads(pickle.dumps(spec))
    back_g, back_spec = generate(back)
    assert back_spec is back and back == spec and back_g == g
    assert builder_calls == ["gen_halin"]


def test_spec_params_are_read_only():
    raw = {"m": 4, "n": 3}
    g, spec = generate(FamilySpec("grid", raw))
    raw["m"] = 5                       # the caller's dict is copied, not kept
    assert spec.params == {"m": 4, "n": 3}
    for mutate in (
        lambda p: p.__setitem__("m", 5),
        lambda p: p.__delitem__("m"),
        lambda p: p.update(m=5),
        lambda p: p.setdefault("seed", 1),
        lambda p: p.pop("m"),
        lambda p: p.popitem(),
        lambda p: p.clear(),
        lambda p: p.__ior__({"m": 5}),
    ):
        with pytest.raises(TypeError, match="read-only"):
            mutate(spec.params)
    assert spec.params == {"m": 4, "n": 3}
    assert generate(spec)[0] is g and (g.n, len(g.edges)) == (12, 17)
    # a plain dict in every view, and the frozen type survives copies
    assert spec == FamilySpec("grid", {"m": 4, "n": 3})
    assert repr(spec) == "FamilySpec(family='grid', params={'m': 4, 'n': 3})"
    assert FamilySpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec
    for copy in (pickle.loads(pickle.dumps(spec)), dataclasses.replace(spec),
                 FamilySpec.from_json(spec.to_json())):
        assert copy == spec
        with pytest.raises(TypeError):
            copy.params["m"] = 5


def _is_frozen(value):
    return not isinstance(value, (list, dict)) and (
        not isinstance(value, tuple) or all(_is_frozen(x) for x in value))


def test_nested_spec_params_are_frozen():
    tree_edges = [[0, 5], [1, 5], [2, 6], [3, 6], [4, 6], [5, 6]]
    raw = {"tree_edges": tree_edges, "leaf_order": [0, 1, 2, 3, 4]}
    g, spec = generate(FamilySpec("halin", raw))
    tree_edges.append([4, 7])          # the caller's lists are copied, not kept
    # appending an eighth vertex used to leave generate() returning the
    # stale 7-vertex graph; the nested lists are tuples now
    with pytest.raises(AttributeError):
        spec.params["tree_edges"].append([4, 7])
    with pytest.raises(TypeError):
        spec.params["leaf_order"][0] = 4
    assert generate(spec)[0] is g and g.n == 7
    assert spec.params["tree_edges"] == ((0, 5), (1, 5), (2, 6), (3, 6), (4, 6), (5, 6))
    assert spec.to_json() == {"family": "halin", "tree_edges": tree_edges[:-1],
                              "leaf_order": [0, 1, 2, 3, 4]}
    for spec in (generate(FamilySpec("ham_cubic", {"n": 8, "seed": 1}))[1],
                 generate(FamilySpec("cactus", {"size": 12, "seed": 0}))[1]):
        assert all(_is_frozen(v) for v in spec.params.values())
        assert FamilySpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


def test_generated_spec_is_freed_without_cyclic_gc():
    gc.disable()
    try:
        _g, spec = generate(FamilySpec("grid", {"m": 5, "n": 5}))
        ref = weakref.ref(spec)
        del _g, spec
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 10), st.integers(1, 4))
def test_corona_degrees(n, p):
    g, _ = gen_corona(n, p)
    degs = sorted({g.degree(v) for v in range(g.n)})
    assert degs == [1, p + 2]



def test_generated_specs_round_trip_through_json():
    """Every default fuzz instance and random Halin or Hamiltonian cubic
    spec, once generated, reads back from its JSON as an equal spec with an
    equal graph, so a replayed fuzz bundle names the instance it reports."""
    families = ("grid", "tree", "cycle", "halin", "corona", "cactus", "ham_cubic")
    specs = [s for f in families for s in default_fuzz_instances(f)]
    specs += [random_halin_spec(n, seed) for n in range(1, 9) for seed in range(5)]
    specs += random_ham_cubic_specs()
    changed = []
    for spec in specs:
        g, spec = generate(spec)
        data = json.loads(json.dumps(spec.to_json()))
        g2, spec2 = generate(FamilySpec.from_json(data))
        if spec2 != spec or g2 != g or spec2.to_json() != data:
            changed.append(spec)
    assert changed == []
