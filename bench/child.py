"""Fresh-process steps of the benchmark, started by ``run.py``.

``child.py setup --workload W --seed N --dir D``
    Import ``quantcat.cli`` and write the workload's files into D; print the
    seconds both took, measured inside this fresh process and rescaled by
    the calibration kernel run just before and after (see ``harness``).

``child.py pass --workload W --seed N --dir D --trace 0|1 [--spans F] [--smoke]``
    Run every file in D once (with ``--smoke``, only the smallest) and check
    each run; with ``--trace 1`` wrap the program's layers first and write
    the spans to F.  Print a JSON summary as the last line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import harness
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    cases = workloads.cases(workload, args.seed)

    if args.step == "setup":
        before = statistics.median(harness.kernel() for _ in range(3))
        started = time.perf_counter()
        harness.import_cli()
        harness.write_files(cases, args.dir)
        seconds = time.perf_counter() - started
        after = statistics.median(harness.kernel() for _ in range(3))
        scale = harness.KERNEL_REF_S * 2 / (before + after)
        print(json.dumps({"setup_s": seconds * scale, "raw_s": seconds}))
        return 0

    if args.smoke:
        cases = [min(cases, key=lambda c: len(c.text))]
    paths = [args.dir / f"{case.name}.json" for case in cases]
    cli = harness.import_cli()
    pins = harness.load_pins()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = harness.run_pass(cli, workload, cases, paths, pins, tracer)
    summary = {
        "seconds": result.seconds,
        "attempted": result.attempted,
        "failed": result.failed,
        "decided": result.decided,
        "problems": result.problems,
        "digests": result.digests,
    }
    if tracer is not None:
        summary["counts"] = tracer.counts()
        summary["times"] = tracer.times()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
