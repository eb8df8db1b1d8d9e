from __future__ import annotations

import json
import re

import pytest
from click.testing import CliRunner

from incolour.cli import main
from incolour.families import FamilySpec, gen_basic, gen_grid, gen_random_graph, generate
from incolour.graphs import (
    Graph,
    GraphError,
    IncidenceColouring,
    InputError,
    ListAssignment,
    incidences,
)
from incolour.harness import random_list_assignment
from incolour.jsonio import (
    colouring_from_json,
    colouring_to_json,
    graph_from_json,
    graph_to_json,
    lists_from_json,
    lists_to_json,
    pre_from_json,
    pre_to_json,
    _incidence_echo,
)
from incolour.dot import incidence_graph_dot


def test_graph_json_roundtrip():
    g, _ = gen_grid(3, 2)
    assert graph_from_json(graph_to_json(g)) == g


def test_outside_edge_lists_name_each_edge_once():
    """A graph file or a tree, Halin or cactus spec that names one edge
    twice, in either orientation, is an InputError; ``Graph`` itself still
    merges repeats for internal callers."""
    with pytest.raises(InputError, match=r"'edges' names the edge \[0, 1\] twice"):
        graph_from_json({"n": 3, "edges": [[0, 1], [1, 2], [1, 0]]})
    for spec in (FamilySpec("tree", {"edges": [[0, 1], [1, 0], [1, 2]]}),
                 FamilySpec("halin", {"tree_edges": [[0, 3], [1, 3], [2, 3], [0, 3]],
                                      "leaf_order": [0, 1, 2]}),
                 FamilySpec("cactus", {"cycles": [[0, 1, 2]], "edges": [[2, 3], [3, 2]]})):
        with pytest.raises(InputError, match="names the edge"):
            generate(spec)
    assert Graph(3, [(0, 1), (1, 0), (1, 2)]).edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("g", [
    gen_grid(3, 2)[0],
    gen_random_graph(12, 5, 0.15),              # vertices 3 and 10 are isolated
    Graph(6, [(5, 0), (3, 1), (3, 5)]),         # so are 2 and 4
    Graph(4, []),
    Graph(0, []),
], ids=["grid", "random", "isolated", "edgeless", "empty"])
def test_incidence_echo_follows_the_enumeration(g):
    assert _incidence_echo(g) == [[inc.vertex, list(inc.edge)] for inc in incidences(g)]


def test_lists_json_roundtrip_and_echo_guard():
    g, _ = gen_basic("cycle", 4)
    lists = random_list_assignment(g, 3, 9, 1)
    data = lists_to_json(g, lists)
    assert lists_from_json(g, data).lists == lists.lists
    other, _ = gen_basic("cycle", 5)
    with pytest.raises(GraphError):
        lists_from_json(other, data)
    # the right length with one wrong entry, and an echo that is no list
    data["incidences"][3] = [2, [1, 2]]
    with pytest.raises(GraphError, match="does not match the graph"):
        lists_from_json(g, data)
    data["incidences"] = 8
    with pytest.raises(GraphError, match="does not match the graph"):
        lists_from_json(g, data)


def test_colouring_json_roundtrip():
    g, _ = gen_basic("cycle", 3)
    col = IncidenceColouring({0: 1, 1: 2})
    data = colouring_to_json(g, col)
    assert colouring_from_json(g, data) == col
    data["assignment"]["99"] = 1
    with pytest.raises(GraphError):
        colouring_from_json(g, data)


def test_pre_json_roundtrip():
    pre = {3: 1, 7: 2}
    assert pre_from_json(pre_to_json(pre)) == pre
    assert pre_from_json(None) is None
    with pytest.raises(GraphError, match="'pre' names incidence 1 twice"):
        pre_from_json({"pre": [[1, 1], [1, 2]]})


def test_dot_export_mentions_colours():
    g, _ = gen_basic("cycle", 3)
    from incolour.solver import solve_list_colouring

    res = solve_list_colouring(g, ListAssignment.uniform(g, 3))
    text = incidence_graph_dot(g, res.colouring)
    assert text.startswith("graph incidences {")
    assert "fillcolor=" in text and "i0 --" in text


@pytest.fixture
def runner():
    return CliRunner()


def test_cli_generate_solve_chi(runner, tmp_path):
    out = str(tmp_path)
    r = runner.invoke(main, ["generate", "--family", "cycle", "--n", "6",
                             "--k", "3", "--universe", "0", "--out", out])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["solve", "--graph", f"{out}/graph.json",
                             "--lists", f"{out}/lists.json", "--out", out])
    assert r.exit_code == 0, r.output
    assert (tmp_path / "colouring.json").exists()
    r = runner.invoke(main, ["chi", "--graph", f"{out}/graph.json"])
    assert r.exit_code == 0 and r.output.strip() == "3"


def test_cli_solve_unsat_exit_code(runner, tmp_path):
    out = str(tmp_path)
    runner.invoke(main, ["generate", "--family", "cycle", "--n", "4",
                         "--k", "3", "--universe", "0", "--out", out])
    r = runner.invoke(main, ["solve", "--graph", f"{out}/graph.json",
                             "--lists", f"{out}/lists.json", "--out", out])
    assert r.exit_code == 1
    r = runner.invoke(main, ["solve", "--graph", f"{out}/graph.json",
                             "--lists", f"{out}/lists.json", "--node-budget", "1",
                             "--out", out])
    assert r.exit_code == 3


def test_cli_construct_with_trace(runner, tmp_path):
    out = str(tmp_path)
    runner.invoke(main, ["generate", "--family", "grid", "--m", "4", "--n", "3",
                         "--k", "6", "--out", out])
    r = runner.invoke(main, ["construct", "--from-spec", f"{out}/spec.json",
                             "--lists", f"{out}/lists.json",
                             "--trace", f"{out}/trace.json", "--out", out])
    assert r.exit_code == 0, r.output
    trace = json.loads((tmp_path / "trace.json").read_text())
    tags = {step[2].split(":")[0] for step in trace["trace"]}
    assert "grid-step-1" in tags


def test_cli_construct_builds_the_graph_once(runner, tmp_path, builder_calls):
    out = str(tmp_path)
    runner.invoke(main, ["generate", "--family", "grid", "--m", "4", "--n", "3",
                         "--k", "6", "--out", out])
    builder_calls.clear()
    r = runner.invoke(main, ["construct", "--from-spec", f"{out}/spec.json",
                             "--lists", f"{out}/lists.json", "--out", out])
    assert r.exit_code == 0, r.output
    assert builder_calls == ["gen_grid"]


def test_cli_construct_corona_with_pre(runner, tmp_path):
    out = str(tmp_path)
    runner.invoke(main, ["generate", "--family", "corona", "--n", "4", "--p", "3",
                         "--k", "7", "--universe", "0", "--out", out])
    spec = FamilySpec("corona", {"n": 4, "p": 3})
    from incolour.families import corona_pendant, generate as build
    from incolour.graphs import incidence_id
    g, _ = build(spec)
    down = incidence_id(g, 0, corona_pendant(0, 1, 4, 3))
    up = incidence_id(g, corona_pendant(0, 1, 4, 3), 0)
    (tmp_path / "pre.json").write_text(json.dumps({"pre": [[down, 1], [up, 2]]}))
    r = runner.invoke(main, ["construct", "--from-spec", f"{out}/spec.json",
                             "--lists", f"{out}/lists.json", "--pre", f"{out}/pre.json",
                             "--out", out])
    assert r.exit_code == 0, r.output
    colouring = json.loads((tmp_path / "colouring.json").read_text())
    assert colouring["assignment"][str(down)] == 1
    assert colouring["assignment"][str(up)] == 2


def test_cli_colours_a_tree_and_a_cactus_named_by_their_edges(runner, tmp_path):
    out = str(tmp_path)
    tree = {"family": "tree", "edges": [[0, 1], [1, 2], [1, 3], [3, 4]]}
    cactus = {"family": "cactus", "edges": [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [3, 5], [4, 5]]}
    for spec, k in ((tree, 4), (cactus, 5)):
        (tmp_path / "named.json").write_text(json.dumps(spec))
        r = runner.invoke(main, ["generate", "--from-spec", f"{out}/named.json",
                                 "--k", str(k), "--out", out])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["construct", "--from-spec", f"{out}/spec.json",
                                 "--lists", f"{out}/lists.json", "--out", out])
        assert r.exit_code == 0, r.output
    assert sorted(json.loads((tmp_path / "spec.json").read_text())["cycles"]) == [[0, 1, 2], [3, 4, 5]]
    (tmp_path / "named.json").write_text(json.dumps({"family": "tree", "edges": [[0, 1], [1, 2], [0, 2]]}))
    r = runner.invoke(main, ["generate", "--from-spec", f"{out}/named.json", "--out", out])
    assert r.exit_code == 2 and "edges do not describe a tree" in r.output, r.output


def test_cli_construct_rejects_small_lists(runner, tmp_path):
    out = str(tmp_path)
    runner.invoke(main, ["generate", "--family", "grid", "--m", "4", "--n", "3",
                         "--k", "5", "--out", out])
    r = runner.invoke(main, ["construct", "--from-spec", f"{out}/spec.json",
                             "--lists", f"{out}/lists.json", "--out", out])
    assert r.exit_code == 2


def test_cli_fuzz_and_report(runner, tmp_path):
    out = str(tmp_path)
    r = runner.invoke(main, ["fuzz", "--family", "cycle", "--trials", "4", "--out", out])
    assert r.exit_code == 0, r.output
    report = json.loads((tmp_path / "fuzz-report.json").read_text())
    assert report["total_failures"] == 0
    r = runner.invoke(main, ["fuzz", "--family", "tree", "--trials", "3", "--pre", "--out", out])
    assert r.exit_code == 0, r.output
    # below the guaranteed bound failures are recorded, exit code 1
    r = runner.invoke(main, ["fuzz", "--family", "cycle", "--trials", "2",
                             "--k", "2", "--out", out])
    assert r.exit_code == 1


def test_cli_fuzz_single_spec(runner, tmp_path):
    out = str(tmp_path)
    spec = FamilySpec("corona", {"n": 3, "p": 1})
    (tmp_path / "spec.json").write_text(json.dumps(spec.to_json()))
    r = runner.invoke(main, ["fuzz", "--family", "corona", "--trials", "3",
                             "--from-spec", f"{out}/spec.json", "--pre", "--out", out])
    assert r.exit_code == 0, r.output


def test_cli_fuzz_takes_a_spec_file_without_a_family(runner, tmp_path):
    out = str(tmp_path)
    spec = FamilySpec("cycle", {"n": 5})
    (tmp_path / "spec.json").write_text(json.dumps(spec.to_json()))
    r = runner.invoke(main, ["fuzz", "--from-spec", f"{out}/spec.json", "--trials", "3",
                             "--out", out])
    assert r.exit_code == 0, r.output
    report = json.loads((tmp_path / "fuzz-report.json").read_text())
    assert [inst["spec"] for inst in report["instances"]] == [spec.to_json()]
    assert report["total_trials"] == 3


@pytest.mark.parametrize("args, phrase", [
    (["generate", "--family", "grid", "--m", "9", "--n", "7"],
     "--from-spec takes the family parameters from the file, not --n, --m"),
    (["generate", "--p", "2"], "--from-spec takes the family parameters from the file, not --p"),
    (["generate", "--size", "40"], "--from-spec takes the family parameters from the file, not --size"),
    (["generate", "--seed", "3"], "--from-spec takes the family parameters from the file, not --seed"),
    (["generate", "--family", "grid"],
     "--family grid does not match the spec file's family 'cycle'"),
    (["fuzz", "--family", "grid", "--trials", "3"],
     "--family grid does not match the spec file's family 'cycle'"),
    (["fuzz", "--family", "ham-cubic", "--trials", "3"],
     "--family ham-cubic does not match the spec file's family 'cycle'"),
], ids=["n-m", "p", "size", "seed", "generate-family", "fuzz-family", "fuzz-family-dashed"])
def test_cli_spec_file_rejects_other_family_flags(runner, tmp_path, args, phrase):
    """Beside --from-spec, a --family that is not the file's, or a family
    parameter flag to generate, is a configuration error, not dropped."""
    (tmp_path / "c5.json").write_text(json.dumps({"family": "cycle", "n": 5}))
    r = runner.invoke(main, [args[0], "--from-spec", str(tmp_path / "c5.json"), *args[1:],
                             "--out", str(tmp_path)])
    assert r.exit_code == 2 and "configuration error: " + phrase in r.output, r.output
    assert [f.name for f in tmp_path.iterdir()] == ["c5.json"]


def test_cli_spec_file_takes_its_own_family_and_a_fuzz_seed(runner, tmp_path):
    out = str(tmp_path)
    spec = FamilySpec("ham_cubic", {"n": 6, "matching": [[0, 3], [1, 4], [2, 5]]})
    (tmp_path / "hc.json").write_text(json.dumps(spec.to_json()))
    r = runner.invoke(main, ["generate", "--from-spec", f"{out}/hc.json", "--family", "ham-cubic",
                             "--out", out])
    assert r.exit_code == 0, r.output
    assert json.loads((tmp_path / "spec.json").read_text()) == spec.to_json()
    r = runner.invoke(main, ["fuzz", "--from-spec", f"{out}/hc.json", "--family", "ham_cubic",
                             "--seed", "7", "--trials", "2", "--out", out])
    assert r.exit_code == 0, r.output
    report = json.loads((tmp_path / "fuzz-report.json").read_text())
    assert [inst["spec"] for inst in report["instances"]] == [spec.to_json()]


def test_cli_fuzz_needs_a_family_or_a_spec_file(runner, tmp_path):
    r = runner.invoke(main, ["fuzz", "--trials", "3", "--out", str(tmp_path)])
    assert r.exit_code == 2
    assert "configuration error: need --family or --from-spec" in r.output
    assert not (tmp_path / "fuzz-report.json").exists()


def test_cli_regress(runner):
    r = runner.invoke(main, ["regress"])
    assert r.exit_code == 0, r.output
    assert "K4: computed=4 expected=4 [ok]" in r.output


def test_cli_export_dot(runner, tmp_path):
    out = str(tmp_path)
    runner.invoke(main, ["generate", "--family", "cycle", "--n", "5", "--out", out])
    r = runner.invoke(main, ["export-dot", "--graph", f"{out}/graph.json", "--out", out])
    assert r.exit_code == 0
    assert (tmp_path / "incidences.dot").read_text().startswith("graph incidences")


def test_cli_out_dir_from_environment(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("INCOLOUR_OUT", str(tmp_path / "envout"))
    r = runner.invoke(main, ["generate", "--family", "path", "--n", "3"])
    assert r.exit_code == 0
    assert (tmp_path / "envout" / "graph.json").exists()


def test_cli_config_error_exit_code(runner, tmp_path):
    r = runner.invoke(main, ["generate", "--family", "wheel", "--n", "1"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["fuzz", "--family", "nonsense"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["fuzz", "--family", "cycle", "--workers", "0"])
    assert r.exit_code == 2
    out = str(tmp_path)
    r = runner.invoke(main, ["generate", "--family", "cycle", "--n", "4",
                             "--k", "3", "--universe", "0", "--out", out])
    assert r.exit_code == 0, r.output
    graph = ["--graph", f"{out}/graph.json"]
    solve = ["solve", *graph, "--lists", f"{out}/lists.json", "--out", out]
    r = runner.invoke(main, [*solve, "--node-budget", "-1"])
    assert r.exit_code == 2 and "node_budget" in r.output, r.output
    r = runner.invoke(main, ["chi", *graph, "--time-budget", "-1"])
    assert r.exit_code == 2 and "time_budget" in r.output, r.output
    r = runner.invoke(main, [*solve, "--order", "static"])   # no such option
    assert r.exit_code == 2 and "--order" in r.output, r.output
    # a corona pre-colour outside its list: (2, 20) is the pendant edge v0-v0^1
    r = runner.invoke(main, ["generate", "--family", "corona", "--n", "4", "--p", "3",
                             "--k", "7", "--out", out])
    assert r.exit_code == 0, r.output
    (tmp_path / "pre.json").write_text(json.dumps({"pre": [[2, 99], [20, 2]]}))
    r = runner.invoke(main, ["construct", "--from-spec", f"{out}/spec.json",
                             "--lists", f"{out}/lists.json", "--pre", f"{out}/pre.json",
                             "--out", out])
    assert r.exit_code == 2, r.output
    assert "bad pre-colouring: incidence 2 uses colour 99 outside its list" in r.output, r.output
    r = runner.invoke(main, ["fuzz", "--family", "grid", "--pre", "--trials", "1",
                             "--out", out])
    assert r.exit_code == 2 and "corona instances only" in r.output, r.output


# (subcommand, the option that reads the malformed file, its content, a
# phrase the error names); the other files are a valid 4-cycle
MALFORMED_FILES = [
    ("construct", "--pre", {"pre": 5}, "'pre' must be a JSON array"),
    ("solve", "--lists", {"lists": [[1, 2]]}, "'lists' must be a JSON object"),
    ("solve", "--lists", {"lists": {**{str(i): [1, 2, 3] for i in range(8)}, "99": [1]}},
     "unknown incidence id 99"),
    ("solve", "--lists", {"lists": {**{str(i): [1, 2, 3] for i in range(8)}, "-1": [1]}},
     "unknown incidence id -1"),
    ("solve", "--lists", {"lists": {"one": [1, 2, 3]}}, "incidence ids must be integers"),
    ("solve", "--lists", {"lists": {str(i): 3 for i in range(8)}}, "must be a JSON array"),
    ("chi", "--graph", {"n": "3", "edges": [[0, 1]]}, "'n' must be an integer"),
    ("chi", "--graph", {"n": 3, "edges": [[0, 1.5]]}, "'edges' must hold [a, b] pairs"),
    ("chi", "--graph", {"n": 3, "edges": [[0, 1, 2]]}, "'edges' must hold [a, b] pairs"),
    ("chi", "--graph", [1, 2], "a graph must be a JSON object"),
    ("construct", "--from-spec", {"family": "cycle", "n": "4"}, "spec parameter 'n'"),
    ("construct", "--from-spec", [1, 2], "a family spec must be an object"),
    ("export-dot", "--colouring", {"assignment": [1]}, "'assignment' must be a JSON object"),
    ("export-dot", "--colouring", {"assignment": {"0": 1.5}}, "the colour of incidence 0"),
    ("solve", "--lists", {"lists": {str(i): [1, True, 2] for i in range(8)}},
     "must be a JSON array of integers"),
    ("solve", "--lists", {"lists": {str(i): [True] if i == 5 else [1, 2, 3] for i in range(8)}},
     "the list of incidence 5 must be a JSON array of integers"),
    ("construct", "--pre", {"pre": [[1, 1], [1, 2]]}, "'pre' names incidence 1 twice"),
    ("chi", "--graph", {"n": 3, "edges": [[0, 1], [1, 2], [0, 1]]},
     "'edges' names the edge [0, 1] twice"),
    ("chi", "--graph", {"n": 3, "edges": [[0, 1], [1, 0]]}, "'edges' names the edge [0, 1] twice"),
    ("chi", "--graph", {"n": 3}, "a graph needs the key 'edges'"),
    ("chi", "--graph", {"edges": [[0, 1]]}, "a graph needs the key 'n'"),
]


@pytest.mark.parametrize("command, option, content, phrase", MALFORMED_FILES,
                         ids=[f"{c[0]}{c[1]}-{i}" for i, c in enumerate(MALFORMED_FILES)])
def test_cli_malformed_file_is_a_config_error(runner, tmp_path, command, option, content, phrase):
    out = str(tmp_path)
    r = runner.invoke(main, ["generate", "--family", "cycle", "--n", "4",
                             "--k", "3", "--universe", "0", "--out", out])
    assert r.exit_code == 0, r.output
    bad = f"{out}/bad.json"
    (tmp_path / "bad.json").write_text(json.dumps(content))
    graph, lists, spec = (f"{out}/{name}.json" for name in ("graph", "lists", "spec"))
    args = {
        "solve": ["--graph", graph, "--lists", lists, "--out", out],
        "chi": ["--graph", graph],
        "construct": ["--from-spec", spec, "--lists", lists, "--out", out],
        "export-dot": ["--graph", graph, "--out", out],
    }[command]
    if option in args:
        args[args.index(option) + 1] = bad
    else:
        args += [option, bad]
    r = runner.invoke(main, [command, *args])
    assert r.exit_code == 2 and phrase in r.output, r.output
    assert "configuration error" in r.output


def test_cli_fuzz_rejects_campaigns_that_run_no_trial(runner, tmp_path):
    out = str(tmp_path)
    for bad in (["--trials", "-3"], ["--trials", "0"], ["--k", "0"],
                ["--k", "4", "--universe", "3"], ["--universe", "2"]):
        r = runner.invoke(main, ["fuzz", "--family", "cycle", *bad, "--out", out])
        assert r.exit_code == 2 and "configuration error" in r.output, (bad, r.output)
        assert "trials ok" not in r.output


# family specs whose leaves are integers but whose nesting or form is wrong,
# or whose edge list names an edge twice
MISNESTED_SPECS = [
    ({"family": "halin", "tree_edges": [1, 2], "leaf_order": [0]},
     "'tree_edges' must be a list of integer pairs"),
    ({"family": "halin", "tree_edges": [[0, 1], [0, 2], [0, 3]], "leaf_order": [[1, 2], 3]},
     "'leaf_order' must be a list of integers"),
    ({"family": "cactus", "cycles": [3]}, "'cycles' must be a list of integer lists"),
    ({"family": "cactus", "cycles": [[0, 1, 2]], "edges": [[0, 1, 3]]},
     "'edges' must be a list of integer pairs"),
    ({"family": "ham_cubic", "n": 8, "matching": [5]}, "'matching' must be a list of integer pairs"),
    ({"family": "grid", "m": [4], "n": 3}, "'m' must be an integer"),
    ({"family": "cactus", "size": 12, "seed": 0, "cycles": [[0, 1, 2]], "edges": []},
     "do not match its size and seed"),
    ({"family": "grid", "m": 4}, "a grid spec needs the parameter 'n'"),
    ({"family": "halin", "tree_edges": [], "leaf_order": []}, "Halin tree needs order >= 4"),
    ({"family": "cycle", "n": 5, "p": 2}, "a cycle spec takes (n); got 'n', 'p'"),
    ({"family": "tree", "edges": [[0, 1], [1, 0], [1, 2]]},
     "spec parameter 'edges' names the edge [0, 1] twice"),
    ({"family": "halin", "tree_edges": [[0, 3], [1, 3], [2, 3], [3, 2]], "leaf_order": [0, 1, 2]},
     "spec parameter 'tree_edges' names the edge [2, 3] twice"),
    ({"family": "cactus", "edges": [[0, 1], [1, 2], [0, 2], [0, 2]]},
     "spec parameter 'edges' names the edge [0, 2] twice"),
]


@pytest.mark.parametrize("content, phrase", MISNESTED_SPECS,
                         ids=[s["family"] + str(i) for i, (s, _) in enumerate(MISNESTED_SPECS)])
def test_cli_misnested_spec_is_a_config_error(runner, tmp_path, content, phrase):
    (tmp_path / "spec.json").write_text(json.dumps(content))
    r = runner.invoke(main, ["generate", "--from-spec", str(tmp_path / "spec.json"),
                             "--out", str(tmp_path)])
    assert r.exit_code == 2 and phrase in r.output, r.output
    assert "configuration error" in r.output


def test_cli_generate_rejects_a_parameter_the_family_does_not_take(runner, tmp_path):
    r = runner.invoke(main, ["generate", "--family", "grid", "--m", "5", "--n", "4",
                             "--seed", "3", "--out", str(tmp_path)])
    assert r.exit_code == 2 and "a grid spec takes (m, n); got 'm', 'n', 'seed'" in r.output, \
        r.output


@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1"])
def test_readers_reject_a_second_key_for_one_incidence(key):
    c4, _ = gen_basic("cycle", 4)
    lists = lists_to_json(c4, ListAssignment.uniform(c4, 3))
    lists["lists"][key] = [9]
    with pytest.raises(GraphError, match=re.escape(f"incidence id {key!r} must be written '1'")):
        lists_from_json(c4, lists)
    colouring = colouring_to_json(c4, IncidenceColouring({i: 1 for i in range(8)}))
    colouring["assignment"][key] = 9
    with pytest.raises(GraphError, match=re.escape(f"incidence id {key!r} must be written '1'")):
        colouring_from_json(c4, colouring)
