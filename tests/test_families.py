from __future__ import annotations

import dataclasses
import gc
import json
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incolour.catalogue import default_fuzz_instances, random_halin_spec, random_ham_cubic_specs
from incolour.families import (
    FamilySpec,
    biconnected_components,
    cactus_cycles,
    gen_basic,
    gen_cactus,
    gen_corona,
    gen_cycle_power,
    gen_grid,
    gen_halin,
    gen_ham_cubic,
    gen_random_degenerate,
    gen_random_tree,
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


def test_biconnected_components_bridge_and_cycle():
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    comps = biconnected_components(g)
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 1, 3]


def test_random_tree_and_degenerate():
    for seed in range(10):
        t, _ = gen_random_tree(9, seed)
        assert is_tree(t)
        d = gen_random_degenerate(10, 2, seed)
        # every prefix construction leaves a vertex of degree <= 2
        from incolour.solver import graph_degeneracy
        assert graph_degeneracy(d) <= 2


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
