"""Time-to-verdict benchmark for quantcat.

Run from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke     # one small file per workload, untraced and traced
    python3 bench/run.py --pin       # re-pin the report digests of every pool file

The seed generates the workload's instance files (``workloads.py``); the
program only ever sees those files, run through its public entry point
``quantcat.cli.main`` in-process (``harness.py``).  Each workload runs in its
own single-threaded process.  Every run is checked: exit code, verdict list,
independent reference values and the pinned digest of the ``--json`` report.

``--trace 0`` reports the end-to-end metrics from untraced passes over the
files, repeated until ``--seconds`` have passed (three passes at least).
Times are rescaled by the calibration kernel run around each file (see
``harness``), so that the drifting speed of a shared machine cancels out;
the unscaled throughput goes to standard error.

* ``setup_s``: median over nine fresh processes of the time to import
  ``quantcat.cli`` and write the workload's files;
* ``instances_per_s``: files per second of time inside ``main``, over the
  median pass;
* ``verdict_p50_ms`` and ``verdict_tail_ms``: the median time of one file and
  the highest whole percentile with at least ten samples beyond it, pooled
  over the passes (the percentile and sample count go to standard error);
* ``peak_rss_mb``: the peak resident set of the workload's process;
* ``decided_ratio``: runs ending with exit 0 or 1 over runs attempted.

``attempted`` and ``failed`` in the result carry the failure ratio.

``--trace 1`` runs one untraced and two traced passes, each in a fresh
process, and reports the per-layer metrics of ``tracer.METRICS`` from the
first traced pass.  It fails the result when the two traced passes count
differently or when a traced report differs from the untraced one.  The
spans of the first traced pass are written to
``.bench_work/<workload>.spans.jsonl``.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 9
MIN_PASSES = 3
#: stop adding passes past this, whatever --seconds asks, to end within 180 s
MAX_TIMED_SECONDS = 120
TAIL_BEYOND = 10
CHILD_TIMEOUT = 170

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child(step, workload, seed, directory, *extra) -> dict:
    command = [
        sys.executable, str(BENCH / "child.py"), step, "--workload", workload.name,
        "--seed", str(seed), "--dir", str(directory), *extra,
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=harness.ROOT
    )
    if proc.returncode != 0:
        raise BenchError(f"child.py {step} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples, beyond=TAIL_BEYOND):
    """(percentile, value): the highest whole percentile whose nearest-rank
    sample has at least ``beyond`` samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    raise BenchError(f"{n} samples are too few for a tail with {beyond} beyond it")


def mismatched(reference, digests) -> int:
    return sum(a != b for a, b in zip(reference, digests))


def measure(workload, seed, seconds) -> dict:
    cli = harness.import_cli()
    cases = workloads.cases(workload, seed)
    directory = harness.WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        setup = [
            child("setup", workload, seed, directory)["setup_s"]
            for _ in range(SETUP_REPEATS)
        ]
        paths = [directory / f"{case.name}.json" for case in cases]
        for case, path in zip(cases, paths):
            if path.read_text(encoding="utf-8") != case.text:
                raise BenchError(f"{path} does not hold the generated instance")
        pins = harness.load_pins()
        warm = sorted(range(len(cases)), key=lambda i: len(cases[i].text))[:3]
        harness.run_pass(cli, workload, [cases[i] for i in warm], [paths[i] for i in warm], pins)
        passes = []
        started = last = time.perf_counter()
        while True:
            passes.append(harness.run_pass(cli, workload, cases, paths, pins, calibrate=True))
            now = time.perf_counter()
            # stop when another pass like the last one would overrun --seconds
            if len(passes) >= MIN_PASSES and (
                now + (now - last) - started > seconds or now - started > MAX_TIMED_SECONDS
            ):
                break
            last = now
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # byte-identical reports across reruns: a file whose digest changes fails
    failed += sum(mismatched(passes[0].digests, p.digests) for p in passes[1:])
    samples = [t for p in passes for t in p.times]
    percentile, tail_s = tail(samples)
    metrics = {
        "setup_s": statistics.median(setup),
        "instances_per_s": len(cases) / statistics.median(p.seconds for p in passes),
        "verdict_p50_ms": statistics.median(samples) * 1000,
        "verdict_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_ratio": sum(p.decided for p in passes) / attempted,
    }
    log(f"{workload.name} seed {seed}: {len(cases)} files, {len(passes)} passes, "
        f"budget {workload.budget}, probe {workload.probe}")
    raw_pass = statistics.median(sum(p.raw_times) for p in passes)
    log(f"verdict_tail_ms is p{percentile} of {len(samples)} samples; "
        f"fail_ratio {failed}/{attempted}; unscaled instances_per_s {len(cases) / raw_pass:.4f}")
    for problem in sorted({x for p in passes for x in p.problems})[:10]:
        log(f"FAILED {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()},
    }


def trace(workload, seed) -> dict:
    harness.import_cli()
    cases = workloads.cases(workload, seed)
    directory = harness.WORK / f"{workload.name}-{seed}-{os.getpid()}"
    spans = harness.WORK / f"{workload.name}.spans.jsonl"
    try:
        harness.write_files(cases, directory)
        base = child("pass", workload, seed, directory, "--trace", "0")
        first = child("pass", workload, seed, directory, "--trace", "1", "--spans", str(spans))
        second = child("pass", workload, seed, directory, "--trace", "1")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    runs = (base, first, second)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # tracing must not change a single report byte
    failed += mismatched(base["digests"], first["digests"])
    failed += mismatched(base["digests"], second["digests"])
    differing = sorted(
        k for k in first["counts"].keys() | second["counts"].keys()
        if first["counts"].get(k) != second["counts"].get(k)
    )
    for problem in sorted({x for r in runs for x in r["problems"]})[:10]:
        log(f"FAILED {problem}")
    for key in differing[:10]:
        log(f"count differs between traced runs: {key}")
    metrics = tracing.layer_metrics(
        first["counts"], first["times"], first["seconds"], base["seconds"]
    )
    log(f"{workload.name} seed {seed}: traced {first['seconds']:.3f}s, "
        f"untraced {base['seconds']:.3f}s, spans in {spans}")
    return {
        "correct": failed == 0 and not differing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def smoke() -> int:
    """One small file per workload, untraced and traced, plus a check that
    BENCHMARK.json names exactly the metrics and workloads reported here."""
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for key, names in (
        ("workloads", sorted(workloads.WORKLOADS)),
        ("end_to_end", sorted(END_TO_END)),
        ("per_layer", sorted(name for name, _, _ in tracing.METRICS)),
    ):
        if sorted(entry["name"] for entry in declared[key]) != names:
            log(f"BENCHMARK.json {key} does not match the benchmark")
            ok = False
    for workload in workloads.WORKLOADS.values():
        directory = harness.WORK / f"smoke-{workload.name}-{os.getpid()}"
        try:
            harness.write_files(workloads.cases(workload, 0), directory)
            runs = [
                child("pass", workload, 0, directory, "--smoke", "--trace", t)
                for t in ("0", "1")
            ]
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        good = (
            all(r["failed"] == 0 for r in runs)
            and runs[0]["digests"] == runs[1]["digests"]
            and runs[1]["counts"]
        )
        ok &= bool(good)
        problems = [x for r in runs for x in r["problems"]]
        log(f"smoke {workload.name}: {'ok' if good else 'FAILED'} {problems}")
    return 0 if ok else 1


def pin() -> int:
    """Run every pool file once and rewrite pins.json with its instance and
    report digests; the report digest is null when the run was undecided."""
    cli = harness.import_cli()
    table, problems = {}, []
    for workload in workloads.WORKLOADS.values():
        pool = workloads.pool(workload)
        directory = harness.WORK / f"pin-{workload.name}-{os.getpid()}"
        try:
            paths = harness.write_files(pool, directory)
            entries = {}
            for case, path in zip(pool, paths):
                run = harness.run_file(cli, path, workload)
                _, problem = harness.check(case, run, [case.sha, None])
                if problem:
                    problems.append(f"{workload.name} {case.name}: {problem}")
                decided = run.code in (0, 1)
                entries[case.name] = [case.sha, harness.digest(run.out) if decided else None]
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        table[workload.name] = entries
        log(f"pinned {workload.name}: {len(entries)} files")
    if problems:
        for problem in problems:
            log(f"FAILED {problem}")
        return 1
    harness.PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.pin:
            return pin()
        if args.workload is None:
            parser.error("--workload is required")
        workload = workloads.WORKLOADS[args.workload]
        if args.trace:
            result = trace(workload, args.seed)
        else:
            result = measure(workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
