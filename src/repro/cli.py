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
* ``bench`` — the trace-sha gate: ``run`` a built-in suite (``smoke``
  or ``default``) into a ``BENCH_<suite>.json`` artifact, ``check`` it
  against a committed baseline (trace-sha256 equality plus a ``cpu_s``
  bound), and ``report`` every artifact in a directory as one table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
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


def _add_common(parser: argparse.ArgumentParser, users: bool = True) -> None:
    """The scenario options; ``users=False`` leaves out ``--users`` for
    the density sweep, whose populations come from ``--populations``."""
    parser.add_argument("--seed", type=int, default=2017, help="master seed")
    parser.add_argument("--days", type=int, default=None, help="study length in days")
    parser.add_argument("--posts", type=int, default=None, help="total posts to schedule")
    if users:
        parser.add_argument("--users", type=int, default=None, help="population size")
    parser.add_argument(
        "--protocol", default=None, help="routing protocol (default: interest)"
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
        "(default: memory-only)",
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
    parser.set_defaults(parser=parser)


def _config_from(args: argparse.Namespace) -> ScenarioConfig:
    kwargs = {"seed": args.seed}
    if args.days is not None:
        kwargs["duration_days"] = args.days
    if args.posts is not None:
        kwargs["total_posts"] = args.posts
    if getattr(args, "users", None) is not None:
        kwargs["num_users"] = args.users
    if args.protocol is not None:
        kwargs["routing_protocol"] = args.protocol
    if args.provisioning is not None:
        kwargs["provisioning"] = args.provisioning
    if args.key_cache is not None:
        kwargs["key_cache_dir"] = args.key_cache
    if args.social_graph is not None:
        kwargs["social_graph"] = args.social_graph
    if args.faults is not None:
        kwargs["faults"] = args.faults
    if args.fault_seed is not None:
        kwargs["fault_seed"] = args.fault_seed
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        # A rejected value from the command line is a usage error, not a
        # crash; failures once the study runs still raise.
        args.parser.error(str(exc))


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
    try:
        comparison = ProtocolComparison(base_config=config, protocols=protocols)
    except ValueError as exc:
        args.parser.error(f"--only: {exc}")
    comparison.run()
    print(comparison.report())
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    config = _config_from(args)
    if args.workers < 1:
        args.parser.error(f"--workers must be at least 1, got {args.workers}")
    try:
        populations = tuple(int(p) for p in args.populations.split(","))
        # Builds every point's config, so a swept population the scenario
        # rejects is reported here too.
        sweep = DensitySweep(
            base_config=config,
            populations=populations,
            workers=args.workers,
        )
    except ValueError as exc:
        args.parser.error(f"--populations: {exc}")
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
    try:
        resolved = resolve_social_graph_kind(kind, args.users)
        graph = make_social_graph(kind, args.users, RandomStreams(args.seed).get("social"))
    except ValueError as exc:
        args.parser.error(f"--users: {exc}")
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
    (what the tier-1 tree contract runs) additionally rejects
    suppressions with no justification, unknown rule names, and stale
    ignores.
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
    from repro.bench.runner import BenchRunError, run_suite

    try:
        run_suite(
            args.suite,
            out_path=args.out,
            log=lambda message: print(message, file=sys.stderr),
        )
    except BenchRunError as exc:
        print(f"bench run: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.bench.report import consolidate, render_markdown

    if not Path(args.dir).is_dir():
        args.parser.error(f"--dir: not a directory: {args.dir}")
    print(render_markdown(consolidate(args.dir)), end="")
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
    try:
        report = compare_artifacts(current, baseline, threshold=args.threshold)
    except ValueError as exc:
        args.parser.error(str(exc))
    print(report.render())
    return 0 if report.ok else 1


def _add_bench_parsers(sub) -> None:
    from repro.bench.suites import SUITES

    bench = sub.add_parser(
        "bench",
        help="the trace-sha gate: run a built-in suite into "
        "BENCH_<suite>.json, check it against a baseline, report artifacts",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    run = bench_sub.add_parser("run", help="run a suite and emit BENCH_<suite>.json")
    run.add_argument(
        "--suite", choices=sorted(SUITES), default="smoke", help="built-in suite"
    )
    run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="artifact destination (default: BENCH_<suite>.json in the "
        "current directory)",
    )
    run.set_defaults(func=cmd_bench_run, parser=run)

    report = bench_sub.add_parser(
        "report", help="every BENCH_*.json in a directory as one markdown table"
    )
    report.add_argument(
        "--dir", default=".", help="directory holding the artifacts (default: .)"
    )
    report.set_defaults(func=cmd_bench_report, parser=report)

    check = bench_sub.add_parser(
        "check",
        help="regression gate: trace-sha256 equality and a cpu_s bound "
        "against a baseline",
    )
    check.add_argument("current", help="the freshly produced BENCH_*.json")
    check.add_argument(
        "--against", required=True, metavar="BASELINE", help="the baseline artifact"
    )
    check.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="allowed relative cpu_s slowdown (0.5 = fail beyond 1.5x; "
        "default 0.5)",
    )
    check.set_defaults(func=cmd_bench_check, parser=check)


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
    _add_common(density, users=False)
    density.add_argument(
        "--populations", default="10,16,24", help="comma-separated population sizes"
    )
    density.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes that run the sweep points in parallel "
        "(same results at any count)",
    )
    density.set_defaults(func=cmd_density)

    protocols = sub.add_parser("protocols", help="list available routing schemes")
    protocols.set_defaults(func=cmd_protocols, parser=protocols)

    graph_stats = sub.add_parser(
        "graph-stats",
        help="node/edge counts and degree histogram of a generated follow "
        "graph (sweep sanity check)",
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
    graph_stats.set_defaults(func=cmd_graph_stats, parser=graph_stats)

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
        "unknown rule, stale ignore); the tier-1 suite runs this",
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
    lint.set_defaults(func=cmd_lint, parser=lint)

    _add_bench_parsers(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # Reported by the command's own parser (every command sets it),
        # whose usage line lists the options the command does take.
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
