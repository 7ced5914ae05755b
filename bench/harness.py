"""Run instance files through the program's public entry point, in-process,
and check every run.

A run is ``quantcat.cli.main([file, "--json", "--budget", B, "--probe", P])``
with standard output and standard error captured.  Its time is taken from
the ``main`` call to the return of the ``--json`` bytes.

The machines this runs on are shared, and their speed drifts by a third
within a minute.  A timed pass therefore brackets every run with a fixed
piece of pure-Python work, the calibration kernel, and rescales the run's
time to the speed at which the kernel takes ``KERNEL_REF_S``: a run is
reported as ``seconds * KERNEL_REF_S / kernel``, where ``kernel`` is the
median of the eight kernel times nearest to it (two run between files).  The kernel never calls
the program, so a change to the program moves the rescaled time exactly as
it moves the raw one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
PINS = Path(__file__).resolve().parent / "pins.json"


def import_cli():
    """Import ``quantcat.cli`` from this checkout's ``src``, and nothing else."""
    package = ROOT / "src" / "quantcat"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no program at {package}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import quantcat.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's program")
    return cli


def write_files(cases, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = directory / f"{case.name}.json"
        path.write_text(case.text, encoding="utf-8")
        paths.append(path)
    return paths


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: Kernel seconds at the reference speed: the median measured on the 2-vCPU
#: Intel Xeon (2.1 GHz, Python 3.11) the baseline was recorded on.
KERNEL_REF_S = 0.0023


class _Cell:
    __slots__ = ("key", "step")

    def __init__(self, key, step):
        self.key, self.step = key, step


def _lookup(cell, table):
    if isinstance(cell.key, int):
        return table.get(cell.key, cell.step)
    return 0


def kernel() -> float:
    """Seconds for a fixed mix of calls, attribute and dict access and int
    arithmetic, the operations the program spends its time on."""
    table = {i: i % 5 for i in range(64)}
    cell = _Cell(0, 0)
    acc = 0
    started = time.perf_counter()
    for i in range(7500):
        cell.key, cell.step = i & 63, (i * 7) % 5
        acc += _lookup(cell, table)
        table[(i * 3) & 63] = acc & 255
    return time.perf_counter() - started


@dataclass
class Run:
    code: int | None
    seconds: float
    out: str
    raised: str | None = None


def run_file(cli, path: Path, workload: workloads.Workload) -> Run:
    argv = [str(path), "--json", "--budget", str(workload.budget),
            "--probe", str(workload.probe)]
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed run, not a benchmark stop
            code, raised = None, f"{type(exc).__name__}: {exc}"
        text = out.getvalue()
        seconds = time.perf_counter() - started
    return Run(code, seconds, text, raised)


def check(case: workloads.Case, run: Run, pinned) -> tuple[bool, str | None]:
    """(decided, problem): decided means exit 0 or 1; a problem fails the run.

    Exit 3 (budget exceeded) is undecided, not failed.  ``pinned`` is the
    pool entry ``[instance sha, report sha or None]`` or None if missing."""
    if run.raised:
        return False, f"raised {run.raised}"
    if run.code == 3:
        return False, None
    decided = run.code in (0, 1)
    if run.code != case.expected_exit:
        return decided, f"exit {run.code}, expected {case.expected_exit}"
    try:
        tasks = json.loads(run.out)["tasks"]
        verdicts = [t["verdict"] for t in tasks]
    except (ValueError, KeyError, TypeError) as exc:
        return decided, f"unreadable report: {exc}"
    if verdicts != case.verdicts:
        return decided, f"verdicts {verdicts}, expected {case.verdicts}"
    for index, key, expected in case.checks:
        got = tasks[index].get("details", {}).get(key)
        if got != expected:
            return decided, f"task {index} {key} is {got!r}, reference {expected!r}"
    if pinned is None:
        return decided, "instance is not in the pinned pool"
    instance_sha, report_sha = pinned
    if instance_sha != case.sha:
        return decided, "instance differs from the pinned pool"
    if report_sha is not None and digest(run.out) != report_sha:
        return decided, "report digest differs from the pinned one"
    return decided, None


@dataclass
class PassResult:
    times: list = field(default_factory=list)  # rescaled when calibrated
    raw_times: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    problems: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Time inside ``main`` over the pass; checking is not counted."""
        return sum(self.times)


def run_pass(cli, workload, cases, paths, pins, tracer=None, calibrate=False) -> PassResult:
    """Run every file once, in order, and check each run.  With ``calibrate``
    the kernel brackets every run and ``times`` are rescaled."""
    result = PassResult()
    table = pins.get(workload.name, {})
    kernels = [kernel(), kernel()] if calibrate else []
    for case, path in zip(cases, paths):
        if tracer is not None:
            tracer.request = case.name
        run = run_file(cli, path, workload)
        result.raw_times.append(run.seconds)
        if calibrate:
            kernels += [kernel(), kernel()]
        decided, problem = check(case, run, table.get(case.name))
        result.digests.append(digest(run.out))
        result.attempted += 1
        result.decided += decided
        if problem:
            result.failed += 1
            result.problems.append(f"{case.name}: {problem}")
    if calibrate:
        # run i lies between the kernel pairs i and i + 1; one kernel time
        # is noisy, so take the median of the eight nearest
        result.times = [
            t * KERNEL_REF_S / statistics.median(kernels[max(0, 2 * i - 2): 2 * i + 6])
            for i, t in enumerate(result.raw_times)
        ]
    else:
        result.times = list(result.raw_times)
    return result
