"""Command line entry point.

Subcommands: generate, solve, chi, construct, fuzz, regress, export-dot.
Exit codes: 0 all good, 1 failures recorded (unsatisfiable for ``solve``),
2 configuration error, 3 incomplete (budget ran out / unknowns).
The ``INCOLOUR_OUT`` environment variable sets the default output
directory.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Optional

import click

from . import __version__
from .catalogue import default_fuzz_instances
from .constructive import construct as run_construct
from .dot import incidence_graph_dot
from .families import FamilySpec
from .families import generate as build_family
from .graphs import GraphError, IncolourError, InputError, validate_colouring
from .harness import FuzzCampaign, regression_chi, run_campaign
from .jsonio import (
    colouring_from_json,
    colouring_to_json,
    graph_from_json,
    graph_to_json,
    lists_from_json,
    lists_to_json,
    pre_from_json,
    spec_from_json,
)
from .solver import (
    COLOURED,
    UNSATISFIABLE,
    ChiUnknown,
    SolverConfig,
    incidence_chromatic_number,
    solve_list_colouring,
)

_CONFIG_ERRORS = (InputError, GraphError, ValueError, KeyError, OSError, json.JSONDecodeError)


def _out_dir(out: Optional[str]) -> Path:
    path = Path(out or os.environ.get("INCOLOUR_OUT") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _read_spec(spec_path: str, family: Optional[str], flags=()) -> FamilySpec:
    """The spec of a ``--from-spec`` file.  A ``--family`` beside it must
    name the file's family, and the family parameter flags in ``flags``
    must be absent: either is an :class:`InputError`, never dropped."""
    if flags:
        given = ", ".join(f"--{name}" for name in flags)
        raise InputError(f"--from-spec takes the family parameters from the file, not {given}")
    spec = spec_from_json(_read_json(spec_path))
    if family and family.replace("-", "_") != spec.family:
        raise InputError(f"--family {family} does not match the spec file's family {spec.family!r}")
    return spec


def _config_guard(fn):
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BrokenPipeError:
            raise
        except _CONFIG_ERRORS as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(2)

    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


@click.group()
@click.version_option(version=__version__)
def main():
    """Incidence list colouring: generators, exact solvers, constructive
    algorithms and a fuzzing harness."""


@main.command()
@click.option("--family", help="path|cycle|star|wheel|complete|grid|tree|corona|ham_cubic|cycle_power|cactus")
@click.option("--n", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--size", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--from-spec", "spec_path", type=click.Path(exists=True), default=None,
              help="Read the family spec from a JSON file instead of flags; "
                   "--family may only repeat its family, and --n, --m, --p, "
                   "--size and --seed are rejected.")
@click.option("--k", "list_size", type=int, default=None,
              help="Also write lists.json with lists of this size.")
@click.option("--universe", type=int, default=None,
              help="Colour universe for sampled lists (default 3k; 0 = uniform {1..k}).")
@click.option("--lists-seed", type=int, default=0, show_default=True)
@click.option("--out", default=None, help="Output directory.")
@_config_guard
def generate(family, n, m, p, size, seed, spec_path, list_size, universe, lists_seed, out):
    """Build a graph family instance; writes graph.json and spec.json
    (plus lists.json when --k is given)."""
    params = {k: v for k, v in
              (("n", n), ("m", m), ("p", p), ("size", size), ("seed", seed))
              if v is not None}
    if spec_path:
        spec = _read_spec(spec_path, family, params)
    else:
        if not family:
            raise InputError("need --family or --from-spec")
        spec = FamilySpec(family.replace("-", "_"), params)
    g, spec = build_family(spec)
    directory = _out_dir(out)
    _write_json(directory / "graph.json", graph_to_json(g))
    _write_json(directory / "spec.json", spec.to_json())
    written = f"{directory / 'graph.json'} and {directory / 'spec.json'}"
    if list_size is not None:
        from .graphs import ListAssignment
        from .harness import random_list_assignment

        if universe == 0:
            lists = ListAssignment.uniform(g, list_size)
        else:
            lists = random_list_assignment(g, list_size, universe or 3 * list_size, lists_seed)
        _write_json(directory / "lists.json", lists_to_json(g, lists))
        written += f" and {directory / 'lists.json'}"
    click.echo(f"wrote {written} ({g.n} vertices, {len(g.edges)} edges)")


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--lists", "lists_path", required=True, type=click.Path(exists=True))
@click.option("--node-budget", type=int, default=None)
@click.option("--time-budget", type=float, default=None)
@click.option("--out", default=None)
@_config_guard
def solve(graph_path, lists_path, node_budget, time_budget, out):
    """Backtracking list incidence colouring; exit 0/1/3 for
    coloured/unsatisfiable/unknown."""
    g = graph_from_json(_read_json(graph_path))
    lists = lists_from_json(g, _read_json(lists_path))
    cfg = SolverConfig(node_budget=node_budget, time_budget=time_budget)
    res = solve_list_colouring(g, lists, cfg)
    click.echo(f"{res.status} after {res.nodes} nodes")
    if res.status == COLOURED:
        _write_json(_out_dir(out) / "colouring.json", colouring_to_json(g, res.colouring))
        sys.exit(0)
    sys.exit(1 if res.status == UNSATISFIABLE else 3)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--node-budget", type=int, default=None)
@click.option("--time-budget", type=float, default=None)
@_config_guard
def chi(graph_path, node_budget, time_budget):
    """Exact incidence chromatic number; exit 3 when the budget runs out."""
    g = graph_from_json(_read_json(graph_path))
    cfg = SolverConfig(node_budget=node_budget, time_budget=time_budget)
    try:
        click.echo(str(incidence_chromatic_number(g, cfg)))
    except ChiUnknown as exc:
        click.echo(f"unknown (bracket [{exc.lower}, {exc.upper}])")
        sys.exit(3)


@main.command(name="construct")
@click.option("--from-spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--lists", "lists_path", required=True, type=click.Path(exists=True))
@click.option("--pre", "pre_path", type=click.Path(exists=True), default=None)
@click.option("--trace", "trace_path", default=None, help="Write the step trace to this file.")
@click.option("--out", default=None)
@_config_guard
def construct_cmd(spec_path, lists_path, pre_path, trace_path, out):
    """Run the constructive procedure for a family spec."""
    spec = spec_from_json(_read_json(spec_path))
    g, spec = build_family(spec)
    lists = lists_from_json(g, _read_json(lists_path))
    pre = pre_from_json(_read_json(pre_path)) if pre_path else None
    try:
        report = run_construct(spec, lists, pre=pre)
    except IncolourError as exc:
        if isinstance(exc, (InputError, GraphError)):
            raise
        click.echo(f"failure: {exc}", err=True)
        sys.exit(1)
    verdict = validate_colouring(g, lists, report.colouring)
    if not verdict.ok:
        click.echo(f"failure: {verdict.violation}", err=True)
        sys.exit(1)
    directory = _out_dir(out)
    _write_json(directory / "colouring.json", colouring_to_json(g, report.colouring))
    if trace_path:
        steps = [[s.incidence, s.colour, s.tag] for s in report.trace]
        _write_json(Path(trace_path), {"trace": steps})
    click.echo(f"coloured {len(report.colouring)} incidences")


@main.command()
@click.option("--family", help="grid|tree|cycle|halin|corona|cactus|ham_cubic")
@click.option("--trials", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--k", type=int, default=None,
              help="Explicit list size; default is the guaranteed bound per instance.")
@click.option("--universe", type=int, default=None, help="Colour universe size; default 3k.")
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--pre", is_flag=True, default=False,
              help="Pre-colour both incidences of one edge per trial: a corona's "
                   "pendant edge v0-v0^1, or the first edge of a path, star or tree.")
@click.option("--from-spec", "spec_path", type=click.Path(exists=True), default=None,
              help="Fuzz a single instance from a spec file instead of the default "
                   "sweep; --family may only repeat its family.")
@click.option("--out", default=None)
@_config_guard
def fuzz(family, trials, seed, k, universe, workers, pre, spec_path, out):
    """Randomized list-assignment campaign against a family's constructive
    procedure; exit 1 when any trial fails."""
    if spec_path:
        instances = [_read_spec(spec_path, family)]
    else:
        if not family:
            raise InputError("need --family or --from-spec")
        instances = default_fuzz_instances(family.replace("-", "_"))
    campaign = FuzzCampaign(
        instances=tuple(instances),
        trials=trials,
        master_seed=seed,
        k=k,
        universe=universe,
        pre=pre,
        workers=workers,
    )
    report = run_campaign(campaign)
    for line in report.summary_lines():
        click.echo(line)
    _write_json(_out_dir(out) / "fuzz-report.json", report.to_json())
    sys.exit(0 if report.total_failures == 0 else 1)


@main.command()
@click.option("--node-budget", type=int, default=None)
@_config_guard
def regress(node_budget):
    """Exact chromatic values of the named suite against the stored table."""
    cfg = SolverConfig(node_budget=node_budget)
    report = regression_chi(cfg)
    for row in report.rows:
        click.echo(f"{row['name']}: computed={row['computed']} "
                   f"expected={row['expected']} [{row['status']}]")
    if report.mismatches:
        sys.exit(1)
    if report.unknowns:
        sys.exit(3)


@main.command(name="export-dot")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--colouring", "colouring_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None)
@_config_guard
def export_dot(graph_path, colouring_path, out):
    """DOT file of the (optionally coloured) incidence graph."""
    g = graph_from_json(_read_json(graph_path))
    colouring = None
    if colouring_path:
        colouring = colouring_from_json(g, _read_json(colouring_path))
    path = _out_dir(out) / "incidences.dot"
    path.write_text(incidence_graph_dot(g, colouring))
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
