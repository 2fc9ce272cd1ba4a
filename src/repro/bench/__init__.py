"""The ``repro bench`` trace-sha gate.

* :mod:`repro.bench.suites`  — the built-in suites ``smoke`` ⊂ ``default``.
* :mod:`repro.bench.runner`  — runs a suite's points and writes
  ``BENCH_<suite>.json``: wall/CPU time, peak RSS and the trace sha256.
* :mod:`repro.bench.schema`  — the versioned artifact layout and its
  validator.
* :mod:`repro.bench.check`   — the regression gate: trace-sha256 equality
  and a ``cpu_s`` slowdown bound against a baseline artifact.
* :mod:`repro.bench.report`  — every ``BENCH_*.json`` in a directory as
  one markdown table.
* :mod:`repro.bench.traceid` — canonical trace hashing.

CLI: ``repro bench run|check|report``.
"""
