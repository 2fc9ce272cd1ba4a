"""Command-line interface.

``python -m repro <command>`` drives the evaluation harness without
writing any code:

* ``study``    — run the Gainesville field-study reconstruction and print
  the paper-vs-measured report (plus optional map/CDF detail),
* ``compare``  — run every routing protocol on the identical deployment,
* ``density``  — the higher-density sweep the paper calls for,
* ``protocols`` — list available routing schemes,
* ``graph-stats`` — degree statistics of a generated follow graph (sweep
  sanity checks before paying for a large run),
* ``lint`` — the determinism / simulation-hygiene static-analysis suite
  (``--strict`` is the CI lane),
* ``bench`` — benchmark orchestration: ``run`` a declarative suite into
  a ``BENCH_<suite>.json`` trajectory artifact (resumable via an
  on-disk journal), ``report`` the cross-PR trend table, ``check`` a
  new artifact against a committed baseline (the regression gate), and
  ``list`` the available suites.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.routing.registry import RoutingRegistry
from repro.faults.plan import FAULT_PRESET_NAMES
from repro.pki.provisioning import PROVISIONING_MODES
from repro.experiments import (
    DensitySweep,
    GainesvilleStudy,
    ProtocolComparison,
    ScenarioConfig,
)
from repro.social.generators import SOCIAL_GRAPH_KINDS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2017, help="master seed")
    parser.add_argument("--days", type=int, default=None, help="study length in days")
    parser.add_argument("--posts", type=int, default=None, help="total posts to schedule")
    parser.add_argument("--users", type=int, default=None, help="population size")
    parser.add_argument(
        "--protocol", default=None, help="routing protocol (default: interest)"
    )
    parser.add_argument(
        "--legacy-packet-crypto",
        action="store_true",
        help="use the per-packet hybrid-RSA reference path instead of the "
        "per-link secure-session layer (same traces; for benchmarking)",
    )
    parser.add_argument(
        "--provisioning",
        choices=PROVISIONING_MODES,
        default=None,
        help="identity provisioning strategy: eager on-device keygen at "
        "sign-up (default, the reference oracle), pooled deterministic "
        "keypair cache, or lazy first-use materialisation (same traces; "
        "pooled/lazy make large-N secured builds tractable)",
    )
    parser.add_argument(
        "--key-cache",
        metavar="DIR",
        default=None,
        help="on-disk keypair-pool directory for --provisioning pooled/lazy "
        "(default: $REPRO_KEY_CACHE, else memory-only)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes: parallel keypair prefetch for pooled "
        "provisioning, and parallel sweep points for the density command",
    )
    parser.add_argument(
        "--social-graph",
        choices=SOCIAL_GRAPH_KINDS,
        default=None,
        help="follow-graph generator: auto (figure4a at N=10, hub_and_cluster "
        "otherwise), or a sparse family (degree_bounded, powerlaw_cluster) "
        "whose per-user degree stays constant as N grows",
    )
    parser.add_argument(
        "--per-edge-bootstrap",
        action="store_true",
        help="wire day-0 follows one cloud round per edge (the reference "
        "oracle) instead of the bulk per-user batch (same traces; for "
        "benchmarking)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault plan: a preset "
        f"({', '.join(FAULT_PRESET_NAMES)}), optionally followed by "
        "comma-separated key=value overrides, or a bare override list "
        '(e.g. "mild,frame_drop_prob=0.2"); default: none',
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for the fault-injection DRBG (default: derived from "
        "--seed); same plan + same fault seed = identical traces",
    )


def _config_from(args: argparse.Namespace) -> ScenarioConfig:
    kwargs = {"seed": args.seed}
    if args.days is not None:
        kwargs["duration_days"] = args.days
    if args.posts is not None:
        kwargs["total_posts"] = args.posts
    if args.users is not None:
        kwargs["num_users"] = args.users
    if args.protocol is not None:
        kwargs["routing_protocol"] = args.protocol
    if args.legacy_packet_crypto:
        kwargs["session_crypto"] = False
    if args.provisioning is not None:
        kwargs["provisioning"] = args.provisioning
    if args.key_cache is not None:
        kwargs["key_cache_dir"] = args.key_cache
    if args.workers != 1:
        kwargs["provisioning_workers"] = args.workers
    if args.social_graph is not None:
        kwargs["social_graph"] = args.social_graph
    if args.per_edge_bootstrap:
        kwargs["bulk_bootstrap"] = False
    if args.faults is not None:
        kwargs["faults"] = args.faults
    if args.fault_seed is not None:
        kwargs["fault_seed"] = args.fault_seed
    return ScenarioConfig(**kwargs)


def cmd_study(args: argparse.Namespace) -> int:
    config = _config_from(args)
    print(
        f"running: {config.num_users} users, {config.duration_days} days, "
        f"{config.total_posts} posts, protocol={config.routing_protocol!r}",
        file=sys.stderr,
    )
    result = GainesvilleStudy(config).run()
    print(result.report())
    if result.collector.fault_counts or result.collector.cloud_counts:
        injected = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(result.collector.fault_counts.items())
        ) or "(none)"
        recovery = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(result.collector.cloud_counts.items())
        ) or "(none)"
        print()
        print(f"injected faults: {injected}")
        print(f"sync resilience: {recovery}")
    if args.map:
        print()
        print("Fig. 4b overlay (b=creation, r=dissemination, x=both):")
        print(result.overlay.ascii_map())
    if args.cdf:
        print()
        print("delay CDF (hours, F(all), F(1-hop)):")
        for h, f_all, f_one in result.delay.curve_hours():
            print(f"  {h:>5.0f}  {f_all:.3f}  {f_one:.3f}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from(args)
    protocols = tuple(args.only.split(",")) if args.only else ProtocolComparison.DEFAULT_PROTOCOLS
    comparison = ProtocolComparison(base_config=config, protocols=protocols)
    comparison.run()
    print(comparison.report())
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    config = _config_from(args)
    populations = tuple(int(p) for p in args.populations.split(","))
    sweep = DensitySweep(
        base_config=config,
        populations=populations,
        workers=args.workers,
    )
    sweep.run()
    print(sweep.report())
    return 0


def cmd_protocols(args: argparse.Namespace) -> int:
    for name in RoutingRegistry.with_builtins().names():
        print(name)
    return 0


def cmd_graph_stats(args: argparse.Namespace) -> int:
    """Sanity-check a generator before committing to a large sweep:
    node/edge counts, density, reciprocity and the degree histogram of
    exactly the graph a study with this seed/population would build."""
    from repro.metrics.report import format_table
    from repro.sim.randomness import RandomStreams
    from repro.social import metrics as social_metrics
    from repro.social.generators import make_social_graph, resolve_social_graph_kind

    kind = args.social_graph or "auto"
    resolved = resolve_social_graph_kind(kind, args.users)
    rng = RandomStreams(args.seed).get("social")
    graph = make_social_graph(kind, args.users, rng)
    summary = social_metrics.degree_summary(graph)
    print(
        format_table(
            f"social graph: {resolved} (N={args.users}, seed={args.seed})",
            ("quantity", "value"),
            [
                ("nodes", graph.node_count),
                ("directed edges", graph.edge_count),
                ("directed density", f"{social_metrics.density_directed(graph):.4f}"),
                ("reciprocity", f"{social_metrics.reciprocity(graph):.3f}"),
                ("weakly connected", graph.is_weakly_connected()),
                ("out-degree min/mean/max",
                 f"{summary['out_min']:.0f} / {summary['out_mean']:.1f} / {summary['out_max']:.0f}"),
                ("in-degree min/mean/max",
                 f"{summary['in_min']:.0f} / {summary['in_mean']:.1f} / {summary['in_max']:.0f}"),
            ],
        )
    )
    histogram = social_metrics.degree_histogram(graph, direction=args.direction)
    max_degree = max(histogram)
    bucket = max(1, (max_degree + 1) // 16)
    buckets: dict = {}
    for degree, count in histogram.items():
        buckets[degree // bucket] = buckets.get(degree // bucket, 0) + count
    peak = max(buckets.values())
    print()
    print(f"{args.direction}-degree histogram (bucket width {bucket}):")
    for index in sorted(buckets):
        lo, hi = index * bucket, index * bucket + bucket - 1
        label = f"{lo}" if bucket == 1 else f"{lo}-{hi}"
        bar = "#" * max(1, round(40 * buckets[index] / peak))
        print(f"  {label:>9}  {buckets[index]:>6}  {bar}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis for determinism and simulation hygiene.

    Exit 0 = clean, 1 = findings, 2 = bad invocation.  ``--strict``
    (the CI lane) additionally rejects suppressions with no
    justification, unknown rule names, and stale ignores.
    """
    from repro.analysis.runner import list_rules, run_lint

    if args.list_rules:
        return list_rules()
    return run_lint(
        args.paths,
        strict=args.strict,
        output_format=args.format,
    )


def cmd_bench_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.runner import BenchRunError, run_suite
    from repro.bench.suites import SuiteError, load_suite

    try:
        suite = load_suite(
            args.suite, Path(args.suite_file) if args.suite_file else None
        )
    except SuiteError as exc:
        print(f"bench run: {exc}", file=sys.stderr)
        return 2
    journal_dir = Path(args.journal) if args.journal else Path(".bench") / suite.name
    out_path = Path(args.out) if args.out else None
    try:
        run_suite(
            suite,
            journal_dir=journal_dir,
            out_path=out_path,
            fresh=args.fresh,
            backend=args.sampler,
            log=lambda message: print(message, file=sys.stderr),
        )
    except (BenchRunError, SuiteError) as exc:
        print(f"bench run: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.report import consolidate, render_json, render_markdown

    suites = args.suites.split(",") if args.suites else None
    consolidated = consolidate(Path(args.dir), pattern=args.glob, suites=suites)
    rendered = (
        render_json(consolidated)
        if args.format == "json"
        else render_markdown(consolidated)
    )
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0


def cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.bench.check import compare_artifacts
    from repro.bench.schema import BenchSchemaError, load_artifact

    try:
        current = load_artifact(args.current)
        baseline = load_artifact(args.against)
    except BenchSchemaError as exc:
        print(f"bench check: {exc}", file=sys.stderr)
        return 2
    report = compare_artifacts(
        current,
        baseline,
        metric=args.metric,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
        check_traces=not args.no_trace_check,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_bench_list(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.suites import SuiteError, builtin_suite_names, load_suite

    if args.suite_file:
        try:
            suites = [load_suite("", Path(args.suite_file))]
        except SuiteError as exc:
            print(f"bench list: {exc}", file=sys.stderr)
            return 2
    else:
        suites = [load_suite(name) for name in builtin_suite_names()]
    for suite in suites:
        points = sum(run.repetitions for run in suite.runs)
        print(f"{suite.name}: {suite.description} ({points} points)")
        for run in suite.runs:
            overrides = ", ".join(
                f"{key}={value}" for key, value in sorted(run.config.items())
            ) or "(defaults)"
            print(f"  {run.name} x{run.repetitions}: {overrides}")
    return 0


def _add_bench_parsers(sub) -> None:
    bench = sub.add_parser(
        "bench",
        help="benchmark orchestration: run declarative suites into "
        "BENCH_<suite>.json artifacts, report the cross-PR trajectory, "
        "gate against a baseline",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    run = bench_sub.add_parser(
        "run", help="execute a suite resumably and emit BENCH_<suite>.json"
    )
    run.add_argument("--suite", default="smoke", help="suite name (see 'bench list')")
    run.add_argument(
        "--suite-file",
        default=None,
        metavar="JSON",
        help="load the suite definition from a JSON file instead of the "
        "built-in registry",
    )
    run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="artifact destination (default: BENCH_<suite>.json in the "
        "current directory)",
    )
    run.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="journal directory for resume (default: .bench/<suite>); "
        "completed points found here are skipped",
    )
    run.add_argument(
        "--fresh",
        action="store_true",
        help="discard the journal and re-run every point",
    )
    run.add_argument(
        "--sampler",
        choices=("psutil", "proc", "resource", "none"),
        default=None,
        help="pin the memory sampling backend (default: auto-detect)",
    )
    run.set_defaults(func=cmd_bench_run)

    report = bench_sub.add_parser(
        "report", help="consolidate BENCH_*.json files into a trend table"
    )
    report.add_argument(
        "--dir", default=".", help="directory holding the artifacts (default: .)"
    )
    report.add_argument(
        "--glob", default="BENCH_*.json", help="artifact filename pattern"
    )
    report.add_argument(
        "--suites",
        default=None,
        help="comma-separated suite names to include; named suites with "
        "no artifact are reported as missing",
    )
    report.add_argument(
        "--format", choices=("md", "json"), default="md", help="output format"
    )
    report.add_argument(
        "--out", default=None, metavar="PATH", help="write to a file instead of stdout"
    )
    report.set_defaults(func=cmd_bench_report)

    check = bench_sub.add_parser(
        "check", help="regression gate: compare an artifact against a baseline"
    )
    check.add_argument("current", help="the freshly produced BENCH_*.json")
    check.add_argument(
        "--against", required=True, metavar="BASELINE", help="the baseline artifact"
    )
    check.add_argument(
        "--metric",
        default="cpu_s",
        help="timing metric to judge (default: cpu_s — wall_s is noisier)",
    )
    check.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="allowed relative slowdown (0.5 = fail beyond 1.5x; default 0.5)",
    )
    check.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="skip points under this duration in both artifacts (noise floor)",
    )
    check.add_argument(
        "--no-trace-check",
        action="store_true",
        help="skip the trace-sha256 equality check (only while deliberately "
        "re-baselining behaviour)",
    )
    check.set_defaults(func=cmd_bench_check)

    listing = bench_sub.add_parser("list", help="list suites and their points")
    listing.add_argument(
        "--suite-file", default=None, metavar="JSON", help="describe a suite file"
    )
    listing.set_defaults(func=cmd_bench_list)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SOS middleware / AlleyOop Social reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run the Gainesville field-study reconstruction")
    _add_common(study)
    study.add_argument("--map", action="store_true", help="print the Fig. 4b ASCII map")
    study.add_argument("--cdf", action="store_true", help="print the Fig. 4c CDF series")
    study.set_defaults(func=cmd_study)

    compare = sub.add_parser("compare", help="compare routing protocols on one deployment")
    _add_common(compare)
    compare.add_argument(
        "--only", default=None, help="comma-separated protocol names (default: all)"
    )
    compare.set_defaults(func=cmd_compare)

    density = sub.add_parser("density", help="population-density sweep")
    _add_common(density)
    density.add_argument(
        "--populations", default="10,16,24", help="comma-separated population sizes"
    )
    density.set_defaults(func=cmd_density)

    protocols = sub.add_parser("protocols", help="list available routing schemes")
    protocols.set_defaults(func=cmd_protocols)

    graph_stats = sub.add_parser(
        "graph-stats",
        help="node/edge counts and degree histogram of a generated follow "
        "graph (sweep sanity check; also scripts/graph_stats.py)",
    )
    graph_stats.add_argument("--seed", type=int, default=2017, help="master seed")
    graph_stats.add_argument("--users", type=int, default=10, help="population size")
    graph_stats.add_argument(
        "--social-graph",
        choices=SOCIAL_GRAPH_KINDS,
        default=None,
        help="generator family (default: auto)",
    )
    graph_stats.add_argument(
        "--direction",
        choices=("out", "in", "total"),
        default="out",
        help="which degree to histogram (default: out)",
    )
    graph_stats.set_defaults(func=cmd_graph_stats)

    lint = sub.add_parser(
        "lint",
        help="determinism & simulation-hygiene static analysis "
        "(nondeterminism hazards, trace-event registry, fork safety, "
        "exception hygiene, seeded-stream discipline)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint, repo-relative (default: src)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="also fail on suppression-hygiene findings (no justification, "
        "unknown rule, stale ignore); the CI lint lane runs this",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule name and description, then exit",
    )
    lint.set_defaults(func=cmd_lint)

    _add_bench_parsers(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
