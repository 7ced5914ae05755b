"""Every benchmark pool file, run through ``cli.main`` as the benchmark runs
it: the expected exit code, and the pinned ``--json`` digest where
``bench/pins.json`` pins one.  The reports it leaves unpinned have their
(exit code, digest) recorded in ``unpinned_reports.json``, so every pool
report is guarded byte for byte.  ``bench/workloads.py`` is imported without
writing bytecode, so the benchmark directory is left as it is."""

import hashlib
import importlib
import json
import os
import sys

import pytest

from quantcat.cli import main

from helpers import counted_colimits

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

#: (exit code, sha256 of ``--json`` stdout) of each pool file whose report
#: ``bench/pins.json`` leaves null, recorded before V-matrices were held as rows
UNPINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "unpinned_reports.json")
with open(UNPINNED_PATH, encoding="utf-8") as fh:
    UNPINNED = json.load(fh)


def test_every_unpinned_report_is_recorded():
    unpinned = {
        name: sorted(case for case, (_, report_sha) in pins.items() if report_sha is None)
        for name, pins in PINS.items()
    }
    assert {name: cases for name, cases in unpinned.items() if cases} == {
        name: sorted(cases) for name, cases in UNPINNED.items()
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_files_keep_their_exit_codes_and_pinned_reports(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    pins, recorded = PINS[name], UNPINNED.get(name, {})
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
        digest = hashlib.sha256(out.encode()).hexdigest()
        if code != case.expected_exit:
            problems.append((case.name, f"exit {code}, expected {case.expected_exit}"))
        elif report_sha is not None and digest != report_sha:
            problems.append((case.name, "report digest differs from the pinned one"))
        elif report_sha is None and [code, digest] != recorded[case.name]:
            problems.append((case.name, "exit or report digest differs from the recorded one"))
    assert problems == []


@pytest.mark.parametrize("name", ["colimit-rational", "colimit-probe"])
def test_colimit_and_colimit_vlip_share_one_apex(name, tmp_path, capsys, monkeypatch):
    workload = workloads.WORKLOADS[name]
    calls = counted_colimits(monkeypatch)
    shared = [case for case in workloads.pool(workload)
              if case.name.startswith(("rotation-", "vlip-chain"))]
    assert shared
    for case in shared:
        tasks = json.loads(case.text)["tasks"]
        assert [(t["op"], t.get("vlip")) for t in tasks][-2:] == [("colimit", None),
                                                                  ("colimit", True)]
        f = tmp_path / f"{case.name}.json"
        f.write_text(case.text, encoding="utf-8")
        calls.clear()
        code = main([str(f), "--json", "--budget", str(workload.budget),
                     "--probe", str(workload.probe)])
        assert code == case.expected_exit == 0, case.name
        # one apex for both tasks, and (C2a) norms each tail component into it once
        period = int(calls[1].split()[1])
        assert calls == ["built", f"period {period}"] + ["norm"] * period, case.name
    capsys.readouterr()
