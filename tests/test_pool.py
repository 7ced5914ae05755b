"""Every benchmark pool file, run through ``cli.main`` as the benchmark runs
it: the expected exit code, and the pinned ``--json`` digest where
``bench/pins.json`` pins one.  ``bench/workloads.py`` is imported without
writing bytecode, so the benchmark directory is left as it is."""

import hashlib
import importlib
import json
import os
import sys

import pytest

from quantcat.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _workloads():
    sys.path.insert(0, BENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(BENCH)


workloads = _workloads()

with open(os.path.join(BENCH, "pins.json"), encoding="utf-8") as fh:
    PINS = json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_files_keep_their_exit_codes_and_pinned_reports(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    pins = PINS[name]
    cases = workloads.pool(workload)
    assert sorted(case.name for case in cases) == sorted(pins)
    problems = []
    for case in cases:
        instance_sha, report_sha = pins[case.name]
        assert case.sha == instance_sha, case.name
        f = tmp_path / f"{case.name}.json"
        f.write_text(case.text, encoding="utf-8")
        code = main([str(f), "--json", "--budget", str(workload.budget),
                     "--probe", str(workload.probe)])
        out = capsys.readouterr().out
        if code != case.expected_exit:
            problems.append((case.name, f"exit {code}, expected {case.expected_exit}"))
        elif report_sha is not None and hashlib.sha256(out.encode()).hexdigest() != report_sha:
            problems.append((case.name, "report digest differs from the pinned one"))
    assert problems == []
