"""Benchmark of ``repro study``: end-to-end timings and a per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload field_study --seed 1 --seconds 40 --trace 0

One operation is one whole study point, timed in three phases:
``GainesvilleStudy.build()`` (``setup_s``), ``Simulator.run`` to the end
of the window plus ``Medium.stop()`` (``run_s``), and the post-run
analysis in ``GainesvilleStudy.run()`` (``analyse_s``).

``--trace 0`` repeats operations, tracing off, for about ``--seconds``
(default: ``run_seconds`` in ``BENCHMARK.json``) and at least three
operations, and reports the end-to-end metrics: medians over the
operations of set-up, of each slice of the run phase and of the analysis
(see :func:`phases`).  The shared host's speed drifts by tens of percent
over minutes, so a short fixed reference kernel (``reference.py``) runs
after every timed piece, and every time is reported scaled to a host on
which that kernel takes ``REFERENCE_S``: a faster program still reads
faster, a slower host does not.  The unscaled median operation is printed
as a comment line.  ``--trace 1`` runs one untraced and one traced
operation and reports the per-layer breakdown (see ``layers.py``); its
spans are written to ``perfbench/out/``.

Every workload runs at its pinned study seed (see ``workloads.py`` for
why) and under ``PYTHONHASHSEED=0``; ``--seed`` is recorded in the output
and changes nothing else.  Every operation's trace digest is compared
with the digest pinned for the workload; a mismatch or an exception is a
failed operation.  All metrics are printed by name and unit; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import layers
import reference
from workloads import STUDY_SEED, WORKLOADS, key_cache_state

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

#: The string-hash seed every run executes under (traces do not depend on it).
HASH_SEED = "0"
#: Operations per untraced run, at least.
MIN_OPS = 3
#: The run phase is timed in this many equal slices of simulated time.
SLICES = 64
#: Each operation repeats its post-run analysis until this much time is
#: timed, so that millisecond analyses still get many tries.
ANALYSE_MIN_S = 1.0
#: Reference chunks timed before set-up.
SETUP_PROBES = 8
#: A slice is scaled by the reference chunks this many slices either side.
PROBE_WINDOW = 4
#: Set-up and analysis are single calls of up to seconds: while one runs,
#: a timer interrupts it for a reference chunk every this many seconds.
SAMPLE_S = 0.05
#: Seconds one reference chunk takes on the host the times are scaled to
#: (the median on a 2-vCPU Xeon VM, Python 3.11).
REFERENCE_S = 0.0065

Piece = Tuple[float, float]


@dataclass
class Op:
    """One study operation: ``(wall, cpu)`` seconds of each timed piece,
    and of the reference chunks timed between them (see ``reference.py``)."""

    setup: Piece
    #: The run phase, one entry per slice of simulated time.
    slices: List[Piece]
    #: Every repeat of the post-run analysis.
    analyses: List[Piece]
    #: Reference chunks before and during set-up, after each slice, and
    #: during and after each analysis repeat.  Chunks taken during a piece
    #: are not counted in its time.
    setup_probes: List[Piece]
    slice_probes: List[Piece]
    analysis_probes: List[Piece]
    digest: str

    def scaled(self, clock: int) -> Tuple[float, List[float], float]:
        """``(setup, slices, analyse)`` on one clock (0 wall, 1 CPU),
        each scaled by the host's speed at the time.

        A slice is divided by the median reference chunk around it, over
        ``REFERENCE_S``; the median over operations then drops the slices a
        burst hit.  Set-up and a single long analysis are one piece per
        operation, so a burst inside one cannot be dropped: it is paid for
        instead, by multiplying the piece by the host's mean speed over the
        chunks that interrupted it at even steps of wall time.  An analysis
        repeated many times is its fastest repeat over the fastest chunk
        between the repeats: bursts only add time, and a millisecond
        analysis gets enough tries for both to reach the host's calm speed."""

        def median_speed(probes: List[Piece]) -> float:
            return REFERENCE_S / statistics.median(p[clock] for p in probes)

        def mean_speed(probes: List[Piece]) -> float:
            return statistics.fmean(REFERENCE_S / p[clock] for p in probes)

        probes = self.slice_probes
        inside = self.setup_probes[SETUP_PROBES:] or self.setup_probes
        setup = self.setup[clock] * mean_speed(inside)
        slices = [
            s[clock] * median_speed(probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1])
            for k, s in enumerate(self.slices)
        ]
        if len(self.analyses) > 1:
            fastest = min(p[clock] for p in self.analysis_probes) / REFERENCE_S
            analyse = min(a[clock] for a in self.analyses) / fastest
        else:
            analyse = self.analyses[0][clock] * mean_speed(self.analysis_probes)
        return setup, slices, analyse

    def total(self, clock: int) -> float:
        """The whole operation on one clock, scaled to the reference host."""
        setup, slices, analyse = self.scaled(clock)
        return setup + sum(slices) + analyse

    def raw_total(self, clock: int) -> float:
        """The whole operation on one clock as measured, reference chunks
        left out."""
        return (self.setup[clock] + sum(s[clock] for s in self.slices)
                + sum(a[clock] for a in self.analyses))


def cpu_seconds() -> float:
    """Process CPU time, including reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def clocks() -> Tuple[float, float]:
    return time.perf_counter(), cpu_seconds()


def since(start: Tuple[float, float]) -> Tuple[float, float]:
    wall, cpu = clocks()
    return wall - start[0], cpu - start[1]


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


@contextmanager
def sampled(probes: List[Piece], enabled: bool) -> Iterator[None]:
    """Time a reference chunk into ``probes`` every ``SAMPLE_S`` of wall
    time while the block runs.  The chunks touch nothing of the program's."""
    if not enabled:
        yield
        return

    def tick(signum: int, frame: Any) -> None:
        probes.append(reference.probe())

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def timed_piece(start: Piece, probes: List[Piece], since_index: int) -> Piece:
    """Time since ``start``, less the chunks appended to ``probes`` from
    ``since_index`` on."""
    wall, cpu = since(start)
    inside = probes[since_index:]
    return wall - sum(p[0] for p in inside), cpu - sum(p[1] for p in inside)


def run_op(config: Any, analyse_min_s: float = 0.0, sample: bool = False) -> Tuple[Op, Any, Any]:
    """One study operation; returns ``(timings, study, result)``.  With
    ``sample``, reference chunks also interrupt set-up and the analysis
    (never in a traced run: they would be charged to the layer they
    interrupt)."""
    from repro.bench.traceid import trace_sha256
    from repro.experiments.gainesville import GainesvilleStudy

    gc.collect()
    setup_probes = [reference.probe() for _ in range(SETUP_PROBES)]
    start = clocks()
    with sampled(setup_probes, sample):
        study = GainesvilleStudy(config)
        study.build()
    setup = timed_piece(start, setup_probes, SETUP_PROBES)
    slices, slice_probes = [], []
    for k in range(1, SLICES + 1):
        # Slice boundaries are exact (SLICES is a power of two), and an
        # event at a boundary runs in the earlier slice, as in one call.
        start = clocks()
        study.sim.run(until=config.duration_seconds * k / SLICES)
        if k == SLICES:
            study.medium.stop()
        slices.append(since(start))
        slice_probes.append(reference.probe())
    analyses, analysis_probes = [], []
    while not analyses or sum(wall for wall, _ in analyses) < analyse_min_s:
        first = len(analysis_probes)
        start = clocks()
        with sampled(analysis_probes, sample):
            result = study.run()
        analyses.append(timed_piece(start, analysis_probes, first))
        analysis_probes.append(reference.probe())
    op = Op(setup, slices, analyses, setup_probes, slice_probes, analysis_probes,
            trace_sha256(study.sim))
    return op, study, result


def problem_with(op: Op, result: Any, config: Any, expected: str) -> Optional[str]:
    """Why an operation's output is wrong, or None."""
    if op.digest != expected:
        return f"trace digest {op.digest} != expected {expected}"
    if result.unique_messages != config.total_posts:
        return f"{result.unique_messages} messages created, {config.total_posts} scheduled"
    return None


class Checker:
    """Counts operations and compares each with the pinned digest."""

    def __init__(self, expected: str) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def attempt(
        self, config: Any, analyse_min_s: float = 0.0, sample: bool = False
    ) -> Optional[Tuple[Op, Any, Any]]:
        self.attempted += 1
        try:
            op, study, result = run_op(config, analyse_min_s, sample)
        except Exception:  # a failed operation is reported, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        problem = problem_with(op, result, config, self.expected)
        if problem is not None:
            print(f"failed operation: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return op, study, result


def measure(config: Any, seconds: float, checker: Checker) -> Dict[str, float]:
    """Untraced operations for about ``seconds`` (at least ``MIN_OPS``):
    no operation starts that would, at the mean pace so far, end late."""
    ops: List[Op] = []
    start = time.perf_counter()
    while checker.attempted < MIN_OPS or (
        (time.perf_counter() - start) * (checker.attempted + 1) / checker.attempted < seconds
    ):
        # Keep only the timings: the next operation must not build its
        # world while this one's is still alive.
        done = checker.attempt(config, ANALYSE_MIN_S, sample=True)
        if done is not None:
            ops.append(done[0])
        del done
    if not ops:
        raise SystemExit("every operation failed")
    print(f"# as measured: median operation {statistics.median(op.raw_total(0) for op in ops):.3f} s"
          f" wall, median reference chunk "
          f"{statistics.median(p[0] for op in ops for p in op.slice_probes) * 1e3:.3f} ms"
          f" (scaled to {REFERENCE_S * 1e3:g} ms)")
    return end_to_end(ops, config)


def phases(ops: List[Op], clock: int) -> Tuple[float, float, float]:
    """``(setup, run, analyse)`` seconds on one clock (0 wall, 1 CPU),
    scaled to the reference host (see :meth:`Op.scaled`).

    Set-up and analysis are medians over the operations.  The run phase is
    the sum, over its slices, of each slice's median.  Scaling removes the
    host's drift over seconds to minutes; the medians remove bursts.
    """
    scaled = [op.scaled(clock) for op in ops]
    setup = statistics.median(s[0] for s in scaled)
    run = sum(statistics.median(s[1][k] for s in scaled) for k in range(SLICES))
    analyse = statistics.median(s[2] for s in scaled)
    return setup, run, analyse


def end_to_end(ops: List[Op], config: Any) -> Dict[str, float]:
    """The end-to-end metrics of the operations."""
    setup_s, run_s, analyse_s = phases(ops, 0)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "analyse_s": analyse_s,
        "wall_s": setup_s + run_s + analyse_s,
        "cpu_s": sum(phases(ops, 1)),
        "peak_rss_mb": peak_rss_mb(),
        "device_hours_per_s": config.num_users * config.duration_seconds / 3600.0 / run_s,
    }


def trace(config: Any, checker: Checker) -> Tuple[Dict[str, float], "layers.Tracer"]:
    """One untraced and one traced operation; the per-layer metrics and
    the tracer holding the spans."""
    untraced = checker.attempt(config)
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        traced = checker.attempt(config)
    finally:
        tracer.restore()
    if untraced is None or traced is None:
        raise SystemExit("the traced run needs both operations to succeed")
    op, study, result = traced
    metrics = layers.layer_metrics(
        tracer, study, result, op.raw_total(1), op.total(0), untraced[0].total(0)
    )
    return metrics, tracer


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(config: Any) -> Dict[str, Any]:
    return {
        "key_cache": key_cache_state(config),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(ROOT),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=STUDY_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "experiments" / "gainesville.py").is_file() or not SPEC.is_file():
        print(f"no repro sources at {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing moves dict/set costs from one process to the next
        # (a 40-user epidemic study's analysis: 0.023 s at one hash seed, 0.028 s at
        # others), so every run uses the same one.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SRC))
    # A developer's key cache would silently remove keygen from the runs.
    os.environ.pop("REPRO_KEY_CACHE", None)

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    config = workload.config()
    env = environment(config)
    # Warm-up, untimed: a miniature of the workload, and the key cache.
    run_op(workload.config(mini=True))
    if config.key_cache_dir:
        from repro.pki.provisioning import KeypairPool

        KeypairPool(config.key_cache_dir).prefetch(config.key_bits, config.seed, range(config.num_users))

    checker = Checker(workload.digest)
    if args.trace:
        metrics, tracer = trace(config, checker)
        tracer.dump(OUT / f"spans-{workload.name}.json")
    else:
        metrics = measure(config, args.seconds or spec["run_seconds"], checker)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not match {SPEC.name}")

    print(f"# {workload.name} seed={args.seed} study_seed={STUDY_SEED} trace={args.trace}: "
          f"{checker.attempted} operations, {checker.failed} failed; "
          f"pinned digest {workload.digest}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:32} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
