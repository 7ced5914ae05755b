import contextlib
import glob
import hashlib
import io
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quantcat.cli import (
    KINDS,
    NAME,
    OPS,
    STAGE,
    STEP,
    load_instance,
    machine_report,
    main,
    parse_instance,
    run_instance,
)

from helpers import fresh_python, serialize_instance, without_unit_criterion

DATA = os.path.join(os.path.dirname(__file__), "data")


def path(name):
    return os.path.join(DATA, name)


def run_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_weights_file_all_pass(capsys):
    code, report, _ = run_json(capsys, path("weights.json"))
    assert code == 0
    assert report["all_pass"]
    by_op = {t["op"]: t for t in report["tasks"] if t["op"] != "validate"}
    assert by_op["adjoint"]["verdict"] == "pass"
    assert by_op["representable"]["verdict"] == "pass"
    assert by_op["representable"]["details"]["witness"] == "x"
    assert by_op["lawvere"]["verdict"] == "pass"
    assert by_op["isbell"]["verdict"] == "info"


def test_monoid_file_fails_with_witness(capsys):
    code, report, _ = run_json(capsys, path("monoid.json"))
    assert code == 1
    tasks = {t["op"]: t for t in report["tasks"]}
    assert tasks["validate"]["verdict"] == "pass"
    assert tasks["split"]["verdict"] == "fail"
    assert tasks["split"]["details"]["witness"] == "e"
    assert tasks["lawvere"]["verdict"] == "fail"
    assert tasks["lawvere"]["details"]["clause"] == 1
    assert tasks["lawvere"]["details"]["certificate"] == "e"


def test_sequence_file_colimit(capsys):
    code, report, _ = run_json(capsys, path("sequence.json"))
    assert code == 0
    colimit = report["tasks"][-1]
    assert colimit["verdict"] == "pass"
    apex = colimit["details"]["apex"]
    assert apex["elements"] == [{"id": "c0", "norm": "1"}]


def test_noncauchy_rejection_names_value(capsys):
    code, report, _ = run_json(capsys, path("noncauchy.json"))
    assert code == 1
    task = report["tasks"][0]
    assert task["verdict"] == "fail"
    assert task["details"]["value"] == "0"
    assert "not Cauchy" in task["details"]["rejected"]


def test_metric_file(capsys):
    code, report, _ = run_json(capsys, path("metric.json"))
    assert code == 0
    tasks = report["tasks"]
    assert tasks[0]["verdict"] == "pass"  # cauchy
    assert tasks[1]["verdict"] == "pass"  # forward limit at p
    assert tasks[2]["details"]["value"] == "2"
    assert tasks[3]["details"]["exponent"] == "1"


def test_compose_min_plus(capsys):
    code, report, _ = run_json(capsys, path("compose.json"))
    assert code == 0
    values = report["tasks"][0]["details"]["values"]
    # frozen from the min-plus oracle: out[i][k] = min_j (A[i][j] + B[j][k])
    assert values == [["1", "1"], ["0", "3"]]


def test_machine_report_byte_identical(capsys):
    _, _, first = run_json(capsys, path("weights.json"))
    _, _, second = run_json(capsys, path("weights.json"))
    assert first == second


#: (exit code, sha256 of stdout) of ``--json --budget 4096 --probe 3`` on each
#: fixture, pinned before the quantale kernel stopped re-checking its arguments
#: (the two ``*_sequence.json`` fixtures: before ``validate_sequence`` stopped
#: scanning its window)
GOLDEN_JSON = {
    "certs.json": (1, "1955858d6428fcf419524fe46a1b3b6df87e9a283fe7c009e4c3e4fb4ddafb0c"),
    "compose.json": (0, "b51bdae4cd2bcfd78f8ce0d98fe6b12c4674b62d3e49aecef6267c0d89e538d6"),
    "cyclic.json": (0, "1e7f7fb5d72795b1aa53a3cf994eb1e683c15193e91d03a8444ccdc687b29bd5"),
    "lawvere_sequence.json": (0, "6168b15548db4b66cc3a703e8feef1b78a0826f01061cc18c219935729261bb4"),
    "metric.json": (0, "4b4a6e877386f27e4f336125ac870e939d5e10b1fa689388594bae33f184116e"),
    "monoid.json": (1, "babedf3b14b92d93990cf8a611f3cbb3c778afac197fb26c2e1b11f817e1838c"),
    "ncat_sequence.json": (1, "dc521bd9f7a91fc4308b153221a5248473f80dfe17c6bf37a7ecf388cd33a232"),
    "noncauchy.json": (1, "04967b72906ebd65c247d633f42df7c669c1b5467754bfeba59bfea89c99f9ad"),
    "odot.json": (1, "528d005768aa28ad7cfae748b6ec1372599334bded6e677292dbe3dd1338be06"),
    "sequence.json": (0, "35aa39317a92aa8a31404b91e71b8a340cca58610ab52205138318e84f9ead75"),
    "vlip.json": (0, "88ea684069621ad74d16f5a0f0b0c7140ba20d371c2c682c14275fa6bbce50ba"),
    "weights.json": (0, "734621e423eb0a0e868a4d356565cade4764453ee0d96dd5896054d16d4a0dd9"),
}


def test_every_fixture_has_a_golden_digest():
    fixtures = sorted(os.path.basename(f) for f in glob.glob(path("*.json")))
    assert fixtures == sorted(GOLDEN_JSON)


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_machine_report_matches_golden_digest(name, capsys):
    code = main([path(name), "--json", "--budget", "4096", "--probe", "3"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN_JSON[name]


def dumps(value) -> str:
    """The writer's oracle: the stdlib encoder with the report's settings."""
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_report_writer_matches_json_dumps_on_fixtures(name):
    report = run_instance(load_instance(path(name)), 4096, 3)
    assert machine_report(report) == dumps(report)


REPORT_SHAPES = [
    {"naïve": "ü\u2028 \"q\" \\ \n\t\x00\x7f 😀", "Z": "", "a": ["é", "\ud800"]},
    {"empty": {}, "none": [], "nested": [{}, [], [[]], {"x": {}}]},
    {"flags": [True, 1, False, 0, None], "one": 1, "true": True},
    {"big": [2**64, -(2**64) - 1, 10**300, -1]},
    {"tuples": (1, ("a", (True, None)), ()), "pair": ("x", [("y",)])},
    [], {}, (), "", 0, None, True,
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=200, deadline=None)
@example(REPORT_SHAPES)
def test_report_writer_matches_json_dumps_on_generated_values(value):
    assert machine_report(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [1.5, {"a": [0.0]}, {"a": {1, 2}}, {1: "a"}, {"a": [{2: "b"}]}, Fraction(1, 2)],
    ids=["float", "nested-float", "set", "int-key", "nested-int-key", "fraction"],
)
def test_report_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        machine_report(value)


def test_round_trip_parse_serialize(capsys):
    for name in sorted(GOLDEN_JSON):
        inst = load_instance(path(name))
        once = serialize_instance(inst)
        again = serialize_instance(parse_instance(json.loads(json.dumps(once))))
        assert once == again


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    assert main([str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unresolved_reference_exit_code(tmp_path, capsys):
    f = tmp_path / "unres.json"
    f.write_text(
        json.dumps(
            {
                "quantale": "bool2",
                "objects": {},
                "tasks": [{"op": "lawvere", "target": "ghost"}],
            }
        ),
        encoding="utf-8",
    )
    assert main([str(f)]) == 2
    assert "unresolved" in capsys.readouterr().err


def test_budget_exit_code(tmp_path, capsys):
    f = tmp_path / "big.json"
    f.write_text(
        json.dumps(
            {
                "quantale": "bool4",
                "objects": {
                    "X": {
                        "kind": "vcat",
                        "objects": ["x", "y", "z"],
                        "dist": [
                            ["top", "bot", "bot"],
                            ["bot", "top", "bot"],
                            ["bot", "bot", "top"],
                        ],
                    }
                },
                "tasks": [{"op": "lawvere", "target": "X"}],
            }
        ),
        encoding="utf-8",
    )
    assert main([str(f), "--budget", "10"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_budget_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUANTCAT_BUDGET", "10")
    f = tmp_path / "big.json"
    f.write_text(
        json.dumps(
            {
                "quantale": "bool4",
                "objects": {
                    "X": {
                        "kind": "vcat",
                        "objects": ["x", "y", "z"],
                        "dist": [
                            ["top", "bot", "bot"],
                            ["bot", "top", "bot"],
                            ["bot", "bot", "top"],
                        ],
                    }
                },
                "tasks": [{"op": "lawvere", "target": "X"}],
            }
        ),
        encoding="utf-8",
    )
    assert main([str(f)]) == 3


def test_numerals_rejected_in_finite_carriers(tmp_path):
    f = tmp_path / "coerce.json"
    f.write_text(
        json.dumps(
            {
                "quantale": "bool2",
                "objects": {
                    "X": {"kind": "vcat", "objects": ["x"], "dist": [[1]]}
                },
                "tasks": [],
            }
        ),
        encoding="utf-8",
    )
    assert main([str(f)]) == 2


def test_float_rejected_in_lawvere(tmp_path):
    f = tmp_path / "float.json"
    f.write_text(
        json.dumps(
            {
                "quantale": "lawvere-plus",
                "objects": {
                    "X": {"kind": "vcat", "objects": ["x"], "dist": [[0.5]]}
                },
                "tasks": [],
            }
        ),
        encoding="utf-8",
    )
    assert main([str(f)]) == 2


def test_human_output_has_timing(capsys):
    code = main([path("weights.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "all tasks passed" in out
    assert "s)" in out  # elapsed seconds are shown in the human report only


def test_certificate_file(capsys):
    code, report, _ = run_json(capsys, path("certs.json"))
    assert code == 1  # the strict split check fails on the unsplit idempotent
    tasks = report["tasks"]
    assert tasks[0]["verdict"] == "pass"
    assert tasks[1]["verdict"] == "pass"
    assert tasks[2]["verdict"] == "pass"  # the normed certificate checks out
    assert tasks[3]["verdict"] == "info"
    assert tasks[3]["details"]["sizes"] == {"a": 2}
    assert tasks[4]["verdict"] == "fail" and tasks[4]["details"]["witness"] == "e"


def test_vlip_file(capsys):
    code, report, _ = run_json(capsys, path("vlip.json"))
    assert code == 0
    tasks = report["tasks"]
    assert all(t["verdict"] == "pass" for t in tasks)
    plain, vlip = tasks[1], tasks[2]
    assert plain["details"]["apex"] == vlip["details"]["apex"]


def test_inline_quantale_table(tmp_path, capsys):
    import json as _json

    table = {
        "elements": ["0", "h", "1"],
        "leq": [[True, True, True], [False, True, True], [False, False, True]],
        "tensor": [["0", "0", "0"], ["0", "0", "h"], ["0", "h", "1"]],
        "unit": "1",
    }
    f = tmp_path / "inline.json"
    f.write_text(
        _json.dumps(
            {
                "quantale": table,
                "objects": {
                    "X": {"kind": "vcat", "objects": ["x"], "dist": [["1"]]}
                },
                "tasks": [{"op": "validate", "target": "X"}, {"op": "lawvere", "target": "X"}],
            }
        ),
        encoding="utf-8",
    )
    code, report, _ = run_json(capsys, str(f))
    assert code == 0 and report["all_pass"]


def test_enumeration_task_on_infinite_carrier_is_input_error(tmp_path, capsys):
    import json as _json

    f = tmp_path / "inf.json"
    f.write_text(
        _json.dumps(
            {
                "quantale": "lawvere-plus",
                "objects": {
                    "X": {"kind": "vcat", "objects": ["x"], "dist": [["0"]]}
                },
                "tasks": [{"op": "lawvere", "target": "X"}],
            }
        ),
        encoding="utf-8",
    )
    assert main([str(f)]) == 2
    assert "finite carrier" in capsys.readouterr().err


def test_lawvere_on_non_vcategory_reports_precondition(tmp_path, capsys):
    f = tmp_path / "nonrefl.json"
    f.write_text(
        json.dumps(
            {
                "quantale": "bool2",
                "objects": {"X": {"kind": "vcat", "objects": ["x"], "dist": [["0"]]}},
                "tasks": [{"op": "lawvere", "target": "X"}],
            }
        ),
        encoding="utf-8",
    )
    code, report, _ = run_json(capsys, str(f))
    assert code == 1
    task = report["tasks"][0]
    assert task["verdict"] == "fail"
    assert task["details"]["error"] == "not a V-category"
    evidence = {c["check"]: c["ok"] for c in task["details"]["evidence"]}
    assert evidence == {"reflexivity": False, "transitivity": True}


def test_representable_on_non_adjoint_pair_reports_failed_checks(tmp_path, capsys):
    f = tmp_path / "nonadjoint.json"
    f.write_text(
        json.dumps(
            {
                "quantale": "bool2",
                "objects": {
                    "X": {"kind": "vcat", "objects": ["x", "y"], "dist": [["1", "1"], ["0", "1"]]},
                    "wp": {"kind": "weight_pair", "space": "X",
                           "phi": {"x": "1", "y": "1"}, "psi": {"x": "0", "y": "0"}},
                },
                "tasks": [{"op": "representable", "pair": "wp"}],
            }
        ),
        encoding="utf-8",
    )
    code, report, _ = run_json(capsys, str(f))
    assert code == 1
    task = report["tasks"][0]
    assert task["verdict"] == "fail"
    assert task["details"]["error"] == "pair is not adjoint"
    evidence = {c["check"]: (c["ok"], c["witness"]) for c in task["details"]["evidence"]}
    assert evidence == {
        "unit-inequality": (False, ["*", "*"]),
        "counit-inequality": (True, None),
    }


def test_inline_table_that_is_not_a_quantale_is_input_error(tmp_path, capsys):
    f = tmp_path / "badtable.json"
    f.write_text(
        json.dumps(
            {
                "quantale": {
                    "elements": ["0", "1"],
                    "leq": [[True, True], [False, True]],
                    "tensor": [["1", "0"], ["0", "1"]],
                    "unit": "1",
                },
                "objects": {"X": {"kind": "vcat", "objects": ["x"], "dist": [["1"]]}},
                "tasks": [{"op": "lawvere", "target": "X"}],
            }
        ),
        encoding="utf-8",
    )
    assert main([str(f)]) == 2
    assert "tensor-join-distributive" in capsys.readouterr().err


TWO_POINTS = {"kind": "vcat", "objects": ["x", "y"], "dist": [["1", "0"], ["0", "1"]]}
LAWVERE_POINTS = {"kind": "vcat", "objects": ["p", "q"], "dist": [["0", "1"], ["1", "0"]]}
MONOID_NCAT = {
    "kind": "ncat",
    "objects": ["a"],
    "morphisms": [
        {"id": "1", "dom": "a", "cod": "a", "norm": "1"},
        {"id": "e", "dom": "a", "cod": "a", "norm": "1"},
    ],
    "identities": {"a": "1"},
    "compose": [["1", "1", "1"], ["1", "e", "e"], ["e", "1", "e"], ["e", "e", "e"]],
}
# the idempotent e = s∘r split through b (r∘s = 1b), every morphism unit-normed
SPLIT_NCAT = {
    "kind": "ncat",
    "objects": ["a", "b"],
    "morphisms": [
        {"id": m, "dom": d, "cod": c, "norm": "1"}
        for m, d, c in (
            ("1a", "a", "a"), ("1b", "b", "b"), ("e", "a", "a"), ("r", "a", "b"), ("s", "b", "a")
        )
    ],
    "identities": {"a": "1a", "b": "1b"},
    "compose": [
        ["1a", "1a", "1a"], ["1b", "1b", "1b"], ["e", "1a", "e"], ["1a", "e", "e"],
        ["e", "e", "e"], ["r", "1a", "r"], ["1b", "r", "r"], ["s", "1b", "s"],
        ["1a", "s", "s"], ["s", "r", "e"], ["r", "s", "1b"], ["r", "e", "r"], ["e", "s", "s"],
    ],
}
# SPLIT_NCAT's table with the pair (1a, 1a) given a second composite
TWICE = SPLIT_NCAT["compose"] + [["1a", "1a", "e"]]
LONG_DECIMAL = "1" * 3000 + "." + "1" * 3000


def _certs_with(**fields):
    """``certs.json`` with the given fields of its certificate replaced."""
    with open(path("certs.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["objects"]["cert"].update(fields)
    return data


def _certs_phi(field, key, value):
    """``certs.json`` with ``phi[field][key]`` replaced."""
    with open(path("certs.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["objects"]["phi"][field][key] = value
    return data


# the counit entry of ``certs.json``: a = b = 'a', four [y, x, morphism] rows
CERT_EPS = _certs_with()["objects"]["cert"]["eps"][0]


@pytest.mark.parametrize(
    "objects, located",
    [
        ({"A": {"kind": "normed_set", "elements": [{"id": "a"}]}},
         ["objects.A.elements[0].norm: missing field"]),
        (
            {
                "X": TWO_POINTS,
                "d": {
                    "kind": "vdist", "source": "X", "target": "X",
                    "values": [["1", "0"], ["0"]],
                },
            },
            ["objects.d.values[1]: a row of the 2x2 matrix must have 2 values, got 1"],
        ),
        ({"X": "not an object"}, ["objects.X: expected an object, got a string"]),
        ({"A": {"kind": "normed_set", "elements": ["a"]}},
         ["objects.A.elements[0]: expected an object, got a string"]),
        (
            {"X": TWO_POINTS, "d": {"kind": "vdist", "source": "X", "target": "X", "values": 7}},
            ["objects.d.values: expected a list, got an integer"],
        ),
        # a string of object names, a dist larger than n x n, a short row, an
        # extra row, a string dist, a list as an object name
        ({"X": {**TWO_POINTS, "objects": "xy"}}, ["objects.X.objects: expected a list"]),
        (
            {"X": {**TWO_POINTS,
                   "dist": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}},
            ["objects.X.dist: must be a 2x2 matrix, got 3 rows"],
        ),
        ({"X": {**TWO_POINTS, "dist": [["1", "0"], ["0"]]}},
         ["objects.X.dist[1]: a row of the 2x2 matrix must have 2 values, got 1"]),
        (
            {"X": {**TWO_POINTS, "dist": [["1", "0"], ["0", "1"], ["0", "0"]]}},
            ["objects.X.dist: must be a 2x2 matrix, got 3 rows"],
        ),
        ({"X": {**TWO_POINTS, "dist": "10"}}, ["objects.X.dist: expected a list"]),
        ({"X": {**TWO_POINTS, "objects": [["x"], "y"]}},
         ["objects.X.objects[0]: expected a name (a string or an integer), got a list"]),
        # normed categories: a string of object names, a list as an object
        # name, a compose row that is not a 3-item list, a pair given twice
        # with different composites
        ({"M": {**SPLIT_NCAT, "objects": "ab"}}, ["objects.M.objects: expected a list"]),
        ({"M": {**SPLIT_NCAT, "objects": [["a"], "b"]}},
         ["objects.M.objects[0]: expected a name (a string or an integer), got a list"]),
        (
            {"M": {**SPLIT_NCAT, "compose": SPLIT_NCAT["compose"] + [["1a", "1a"]]}},
            ["objects.M.compose[13]: expected a list of 3 items, got 2"],
        ),
        ({"M": {**SPLIT_NCAT, "compose": "1a1a1a"}}, ["objects.M.compose: expected a list"]),
        (
            {"M": {**SPLIT_NCAT, "compose": SPLIT_NCAT["compose"] + [["e", "e", "1a"]]}},
            ["objects.M.compose[13]: gives ['e', 'e'] two composites"],
        ),
        (
            {"M": {**SPLIT_NCAT, "compose": SPLIT_NCAT["compose"] + [["e", ["e"], "e"]]}},
            ["objects.M.compose[13][1]: expected a name (a string or an integer), got a list"],
        ),
    ],
)
def test_malformed_literals_are_input_errors(tmp_path, capsys, objects, located):
    f = tmp_path / "malformed.json"
    f.write_text(
        json.dumps({"quantale": "bool2", "objects": objects, "tasks": []}),
        encoding="utf-8",
    )
    assert main([str(f)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert all(part in err for part in located), err


def _named(cases, ids):
    """``cases`` as pytest params with these ids.  A case whose expected
    text changed when input errors came to carry a JSON path keeps the id
    it had before, so that its results compare with earlier runs."""
    assert len(cases) == len(ids)
    return [pytest.param(*case, id=name) for case, name in zip(cases, ids)]


SHAPE_IDS = [
    "instance0-'objects'",
    "instance1-task 0",
    "instance2-task 0",
    "instance3-reference",
    "instance4-'log_base'",
    "instance5-'log_base'",
    "instance6-'log_base'",
    "instance7-'log_base'",
    "instance8-'log_base'",
    "instance9-task 0 (compose): missing field 'outer'",
    "instance10-input error: object 'X': zero denominator: '1/0'",
    "instance11-input error: object 'X': zero denominator: '0/0'",
    "instance12-input error: object 'X': exponent notation is not accepted: '1e10000000'",
    "instance13-input error: object 'X': malformed numeral: 'abc'\n",
    "instance14-input error: object 'X': numeral too long: 5001 digits (at most 4300 per "
    "integer)\n",
    "instance15-input error: object 'X': numeral too long: 6000 digits (at most 4300 per "
    "integer)\n",
    "instance16-input error: object 'phi': numeral too long: 6000 digits (at most 4300 per "
    "integer)\n",
    "instance17-input error: object 'A': an entry of 'compose' must be a name, got ['x']\n",
    "instance18-input error: object 'A': an entry of 'compose' must be a name, got {'y': 1}\n",
    "instance19-input error: object 'A': field 'compose' gives ['1a', '1a'] two composites\n",
    "instance20-input error: task 0 (compose): numeral too long: 5001 digits (at most 4300 "
    "per integer)\n",
    "instance21-input error: task 0 (validate): field 'mode': floats are not exact values\n",
    "instance22-input error: task 0 (lipnorm): 'map' has no image for source point 'q'\n",
    "instance23-input error: task 0 (lipnorm): 'map' names 'c', which is not a source point\n",
    "instance24-input error: task 0 (lipnorm): image of 'q' outside the target\n",
    "instance25-input error: object 'cert': field 'c': 'nowhere' is not an object of phi's "
    "category\n",
    "instance26-input error: object 'cert': field 'u': 'zz' is not an element of phi at 'a'\n",
    "instance27-input error: object 'cert': field 'v': 'zz' is not an element of psi at 'a'\n",
    "instance28-input error: object 'cert': field 'eps': 'nowhere' is not an object of phi's "
    "category\n",
    "instance29-input error: object 'cert': field 'eps': 'nowhere' is not an object of phi's "
    "category\n",
    "instance30-input error: object 'cert': field 'eps' gives ['a', 'a'] two entries\n",
    "instance31-input error: object 'cert': field 'eps': entry ['a', 'a'] gives ['1', 'e'] "
    "two morphisms\n",
    "weight-pair-no-value-y",
    "weight-pair-no-value-7",
    "weight-pair-stray-phi",
    "weight-pair-stray-psi",
    "ndist-stray-set",
    "ndist-stray-action",
    "metric-sequence-point-outside-the-space",
]


@pytest.mark.parametrize(
    "instance, located",
    _named([
        ({"quantale": "bool2", "objects": [], "tasks": []},
         "input error: objects: expected an object, got a list\n"),
        ({"quantale": "bool2", "objects": {}, "tasks": ["lawvere"]},
         "input error: tasks[0]: expected an object, got a string\n"),
        ({"quantale": "bool2", "objects": {}, "tasks": [{"op": ["lawvere"]}]},
         "input error: tasks[0].op: expected one of "),
        ({"quantale": "bool2", "objects": {"X": TWO_POINTS},
          "tasks": [{"op": "lawvere", "target": ["X"]}]},
         "input error: tasks[0].target (lawvere): "
         "a reference must be an object name, got a list\n"),
    ]
    + [
        ({"quantale": "lawvere-plus", "objects": {"X": LAWVERE_POINTS},
          "tasks": [{"op": "lipnorm", "source": "X", "target": "X",
                     "map": {"p": "p", "q": "q"}, "mode": "log",
                     "log_base": base}]}, f"input error: tasks[0].log_base (lipnorm): {problem}\n")
        for base, problem in (("2", "expected an integer, got a string"),
                              ([], "expected an integer, got a list"),
                              (2.5, "expected an integer, got 2.5"),
                              (True, "expected an integer, got true"),
                              (1, "must be at least 2, got 1"))
    ]
    + [
        ({"quantale": "bool2", "objects": {}, "tasks": [{"op": "compose"}]},
         "input error: tasks[0].outer (compose): missing field\n"),
    ]
    + [
        ({"quantale": "lawvere-plus",
          "objects": {"X": {"kind": "vcat", "objects": ["p"], "dist": [[zero]]}},
          "tasks": []}, f"input error: objects.X.dist[0][0]: zero denominator: '{zero}'\n")
        for zero in ("1/0", "0/0")
    ]
    + [
        ({"quantale": "lawvere-plus",
          "objects": {"X": {"kind": "vcat", "objects": ["p"], "dist": [["1e10000000"]]}},
          "tasks": []},
         "input error: objects.X.dist[0][0]: exponent notation is not accepted: '1e10000000'\n"),
    ]
    + [
        ({"quantale": "lawvere-plus",
          "objects": {"X": {"kind": "vcat", "objects": ["p"], "dist": [["abc"]]}},
          "tasks": []},
         "input error: objects.X.dist[0][0]: malformed numeral: 'abc'\n"),
        # past the int-string digit limit: the message names the size and
        # echoes none of the 5001 digits
        ({"quantale": "lawvere-plus",
          "objects": {"X": {"kind": "vcat", "objects": ["p"], "dist": [["1" + "0" * 5000]]}},
          "tasks": []},
         "input error: objects.X.dist[0][0]: "
         "numeral too long: 5001 digits (at most 4300 per integer)\n"),
    ]
    + [
        # each digit run fits, the reduced value (6000 digits over 10^3000)
        # could not be written back: rejected while parsing, before the task
        ({"quantale": "lawvere-plus",
          "objects": {"X": {"kind": "vcat", "objects": ["p"], "dist": [[dist]]},
                      "phi": {"kind": "vdist", "source": "X", "target": "X",
                              "values": [[value]]}},
          "tasks": [{"op": op, "target": "X", "outer": "phi", "inner": "phi"}]},
         f"input error: objects.{bad}[0][0]: "
         "numeral too long: 6000 digits (at most 4300 per integer)\n")
        for op, bad, dist, value in (("validate", "X.dist", LONG_DECIMAL, "0"),
                                     ("compose", "phi.values", "0", LONG_DECIMAL))
    ]
    + [
        # a bad name in a compose row after a pair given two composites: the
        # first bad name in row order is reported, as the names are checked
        # before the table is built
        ({"quantale": "bool2", "objects": {"A": {**SPLIT_NCAT, "compose": rows}}, "tasks": []},
         f"input error: objects.A.compose{message}\n")
        for rows, message in (
            (TWICE + [["1a", ["x"], "1a"], ["1a", "1a", {"y": 1}]],
             "[14][1]: expected a name (a string or an integer), got a list"),
            (TWICE + [["1a", "1a", {"y": 1}]],
             "[14][2]: expected a name (a string or an integer), got an object"),
            (TWICE, "[13]: gives ['1a', '1a'] two composites"),
        )
    ]
    + [
        # each value prints, their min-plus composite 1/a + 1/b (a, b past
        # 10^2500) has a 5001-digit denominator
        ({"quantale": "lawvere-plus",
          "objects": {"X": {"kind": "vcat", "objects": ["p"], "dist": [["0"]]},
                      **{name: {"kind": "vdist", "source": "X", "target": "X",
                                "values": [[f"1/{10**2500 + c}"]]}
                         for name, c in (("phi", 7), ("psi", 9))}},
          "tasks": [{"op": "compose", "outer": "phi", "inner": "psi"}]},
         "input error: tasks[0] (compose): "
         "numeral too long: 5001 digits (at most 4300 per integer)\n"),
        # a float in a field the report echoes, unread by the task
        ({"quantale": "bool2",
          "objects": {"X": {"kind": "vcat", "objects": ["p"], "dist": [["1"]]}},
          "tasks": [{"op": "validate", "target": "X", "mode": [1.5]}]},
         "input error: tasks[0].mode (validate): floats are not exact values\n"),
    ]
    + [
        # a lipnorm map must name exactly the source points
        ({"quantale": "lawvere-plus", "objects": {"X": LAWVERE_POINTS},
          "tasks": [{"op": "lipnorm", "source": "X", "target": "X", "map": mapping}]},
         f"input error: tasks[0].map{problem}\n")
        for mapping, problem in (
            ({"p": "p"}, " (lipnorm): no image for source point 'q'"),
            ({"p": "p", "q": "q", "c": "zz"},
             ".c (lipnorm): names 'c', which is not a source point"),
        )
    ]
    + [
        # an image outside the target is located too
        ({"quantale": "lawvere-plus", "objects": {"X": LAWVERE_POINTS},
          "tasks": [{"op": "lipnorm", "source": "X", "target": "X",
                     "map": {"p": "p", "q": "zz"}}]},
         "input error: tasks[0].map.q (lipnorm): image of 'q' outside the target\n"),
    ]
    + [
        # a certificate's c is an object of phi's category, u an element of
        # phi at c and v an element of psi at c
        (_certs_with(**{field: value}), f"input error: objects.cert.{field}: {problem}\n")
        for field, value, problem in (
            ("c", "nowhere", "'nowhere' is not an object of phi's category"),
            ("u", "zz", "'zz' is not an element of phi at 'a'"),
            ("v", "zz", "'zz' is not an element of psi at 'a'"),
        )
    ]
    + [
        # a counit entry names objects of phi's category, and a pair (a, b)
        # or a row (y, x) given twice must give the same value
        (_certs_with(eps=[{**CERT_EPS, key: "nowhere"}]),
         f"input error: objects.cert.eps[0].{key}: "
         "'nowhere' is not an object of phi's category\n")
        for key in ("a", "b")
    ]
    + [
        (_certs_with(eps=[CERT_EPS, {**CERT_EPS, "map": CERT_EPS["map"][1:]}]),
         "input error: objects.cert.eps[1]: gives ['a', 'a'] two entries\n"),
        (_certs_with(eps=[{**CERT_EPS, "map": CERT_EPS["map"] + [["1", "e", "1"]]}]),
         "input error: objects.cert.eps[0].map[4]: gives ['1', 'e'] two morphisms\n"),
    ]
    + [
        # a weight pair gives a value at every object of its space, names
        # that are integers included
        ({"quantale": "bool2", "tasks": [],
          "objects": {"X": {**TWO_POINTS, "objects": ["x", y]},
                      "wp": {"kind": "weight_pair", "space": "X", "phi": {"x": "1"},
                             "psi": {"x": "1", "y": "1"}}}},
         f"input error: objects.wp.phi: no value for object {y!r}\n")
        for y in ("y", 7)
    ]
    + [
        # and no value at a name that is not one of its objects
        ({"quantale": "bool2", "tasks": [],
          "objects": {"X": TWO_POINTS,
                      "wp": {"kind": "weight_pair", "space": "X",
                             **{"phi": {"x": "1", "y": "0"}, "psi": {"x": "1", "y": "0"},
                                field: {"x": "1", "y": "0", "zz": "1"}}}}},
         f"input error: objects.wp.{field}.zz: names 'zz', which is not an object of 'X'\n")
        for field in ("phi", "psi")
    ]
    + [
        # a normed distributor's sets and action name only objects and
        # morphisms of its category
        (_certs_phi("sets", "zz", []),
         "input error: objects.phi.sets.zz: names 'zz', which is not an object of 'M'\n"),
        (_certs_phi("action", "zz", {}),
         "input error: objects.phi.action.zz: names 'zz', which is not a morphism of 'M'\n"),
    ]
    + [
        # a metric sequence's points lie in its space
        ({"quantale": "lawvere-plus", "tasks": [],
          "objects": {"X": {"kind": "vcat", "objects": ["p", "q"],
                            "dist": [["0", "1"], ["1", "0"]]},
                      "ms": {"kind": "metric_sequence", "space": "X", "prefix_points": ["q"],
                             "tail": {"points": ["p", "zz"]}}}},
         "input error: objects.ms.tail.points[1]: point 'zz' not in the space\n"),
    ], SHAPE_IDS),
)
def test_malformed_instance_shapes_are_input_errors(tmp_path, capsys, instance, located):
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(instance), encoding="utf-8")
    assert main([str(f)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and located in err, err


#: names that are integers, which a JSON object keys by their text: the
#: object 7 of X, the object 1 and the morphism 5 of M
INTEGER_NAMES = {
    "quantale": "bool2",
    "objects": {
        "X": {**TWO_POINTS, "objects": ["x", 7]},
        "wp": {"kind": "weight_pair", "space": "X",
               "phi": {"x": "1", "7": "0"}, "psi": {"x": "1", "7": "0"}},
        "M": {"kind": "ncat", "objects": [1],
              "morphisms": [{"id": 5, "dom": 1, "cod": 1, "norm": "1"}],
              "identities": {"1": 5}, "compose": [[5, 5, 5]]},
        "P": {"kind": "ndist", "category": "M",
              "sets": {"1": [{"id": "p", "norm": "1"}]}, "action": {"5": {"p": "p"}}},
    },
    "tasks": [{"op": "isbell", "target": "wp"}, {"op": "lawvere", "target": "X"},
              {"op": "validate", "target": "M"}, {"op": "isbell", "target": "P"}],
}


def test_an_integer_name_is_keyed_by_its_text(tmp_path, capsys):
    f = tmp_path / "integer_names.json"
    f.write_text(json.dumps(INTEGER_NAMES), encoding="utf-8")
    code, report, _ = run_json(capsys, str(f))
    assert code == 0
    isbell_wp, lawvere, validate, isbell_P = (task["details"] for task in report["tasks"])
    assert isbell_wp == {"conjugate": {"x": "1", "7": "0"}}
    assert lawvere == {"witness": [{"weight": {"x": "0", "7": "1"}, "witness": 7},
                                   {"weight": {"x": "1", "7": "0"}, "witness": "x"}]}
    assert all(check["ok"] for check in validate["checks"])
    assert isbell_P == {"sizes": {"1": 1}, "norms": {"1": ["1"]}}


def _integer_names_with(name, **fields):
    data = json.loads(json.dumps(INTEGER_NAMES))
    data["objects"][name].update(fields)
    return data


@pytest.mark.parametrize("instance, located", [
    (_integer_names_with("X", objects=["7", 7]),
     "objects.wp.phi: key '7' would name both '7' and 7"),
    (_integer_names_with("M", objects=["1", 1]),
     "objects.M.identities: key '1' would name both '1' and 1"),
    (_integer_names_with(
        "M", morphisms=[{"id": i, "dom": 1, "cod": 1, "norm": "1"} for i in (5, "5")],
        compose=[[g, f, 5 if g == f == 5 else "5"] for g in (5, "5") for f in (5, "5")]),
     "objects.P.action: key '5' would name both 5 and '5'"),
], ids=["vcat-objects", "ncat-objects", "ncat-morphisms"])
def test_names_with_one_key_text_are_an_input_error(tmp_path, capsys, instance, located):
    f = tmp_path / "one_key.json"
    f.write_text(json.dumps(instance), encoding="utf-8")
    assert main([str(f), "--json"]) == 2
    assert capsys.readouterr() == ("", f"input error: {located}\n")


NSET_SEQUENCE = {
    "kind": "sequence", "ambient": "nset",
    "prefix": [{"object": {"elements": [{"id": "p", "norm": "1"}]}, "step": {"p": "q"}}],
    "tail": {"object": {"elements": [{"id": "q", "norm": "1"}, {"id": "r", "norm": "1"}]},
             "endo": {"q": "r", "r": "r"}},
}


@pytest.mark.parametrize(
    "instance, err",
    [
        # a check across a constructor's arguments is located at the field
        # it reads
        ({"quantale": "bool2", "tasks": [],
          "objects": {"M": {**MONOID_NCAT, "compose": MONOID_NCAT["compose"][:3]}}},
         "input error: objects.M.compose: composition missing for ('e', 'e')\n"),
        ({"quantale": "bool2", "tasks": [],
          "objects": {"M": {**MONOID_NCAT, "morphisms": [
              {"id": "1", "dom": "a", "cod": "a", "norm": "1"},
              {"id": "e", "dom": "a", "cod": "zz", "norm": "1"}]}}},
         "input error: objects.M.morphisms[1]: morphism 'e' has unknown endpoints\n"),
        ({"quantale": "bool2", "tasks": [],
          "objects": {"s": {**NSET_SEQUENCE, "tail": {**NSET_SEQUENCE["tail"],
                                                      "endo": {"q": "r"}}}}},
         "input error: objects.s.tail.endo: no image for element 'r'\n"),
        ({"quantale": "bool2", "tasks": [],
          "objects": {"s": {**NSET_SEQUENCE, "tail": {**NSET_SEQUENCE["tail"],
                                                      "endo": {"q": "r", "r": "zz"}}}}},
         "input error: objects.s.tail.endo.r: image of 'r' outside the target\n"),
        ({"quantale": "bool2", "tasks": [],
          "objects": {"s": {**NSET_SEQUENCE, "prefix": [
              {**NSET_SEQUENCE["prefix"][0], "step": {}}]}}},
         "input error: objects.s.prefix[0].step: no image for element 'p'\n"),
        ({"quantale": "bool2", "tasks": [],
          "objects": {"M": MONOID_NCAT,
                      "t": {"kind": "sequence", "ambient": "ncat", "category": "M",
                            "tail": {"object": "zz", "endo": "e"}}}},
         "input error: objects.t.tail.object: unknown object 'zz'\n"),
        (_certs_phi("action", "e", {"1": "e"}),
         "input error: objects.phi.action.e: no image for element 'e'\n"),
        (_certs_phi("sets", "a", [{"id": "1", "norm": "1"}] * 2),
         "input error: objects.phi.sets.a: duplicate elements in normed set\n"),
        # a literal stage's own check is located below its stage
        ({"quantale": "bool2", "tasks": [],
          "objects": {"s": {**NSET_SEQUENCE, "prefix": [
              {**NSET_SEQUENCE["prefix"][0], "object": {"elements": [
                  {"id": "p", "norm": "1"}, {"id": "p", "norm": "1"}]}}]}}},
         "input error: objects.s.prefix[0].object.elements: duplicate elements in normed set\n"),
        ({"quantale": "bool2", "tasks": [],
          "objects": {"s": {"kind": "sequence", "ambient": "dset", "tail": {
              "object": {"objects": ["x", "x"], "dist": [["1", "1"], ["1", "1"]]},
              "endo": {"x": "x"}}}}},
         "input error: objects.s.tail.object.objects: duplicate objects\n"),
    ],
    ids=["compose", "morphism-endpoints", "tail-endo", "tail-endo-image", "prefix-step",
         "ncat-stage", "ndist-action", "ndist-set", "nset-stage", "vcat-stage"],
)
def test_a_constructor_check_is_located_at_its_field(tmp_path, capsys, instance, err):
    f = tmp_path / "located.json"
    f.write_text(json.dumps(instance), encoding="utf-8")
    assert main([str(f)]) == 2
    assert capsys.readouterr() == ("", err)


def test_certificate_repeats_that_agree_are_accepted(tmp_path, capsys):
    entry = {**CERT_EPS, "map": CERT_EPS["map"] + CERT_EPS["map"][:1]}
    f = tmp_path / "repeats.json"
    f.write_text(json.dumps(_certs_with(eps=[entry, CERT_EPS])), encoding="utf-8")
    assert run_json(capsys, str(f))[2] == run_json(capsys, path("certs.json"))[2]


@pytest.mark.parametrize(
    "raw, problem",
    [("abc", "an integer, got 'abc'"), ("0", "positive, got 0"),
     ("-3", "positive, got -3"), ("1.5", "an integer, got '1.5'"),
     # long values are not echoed back; a valid one past int's limit is
     # reported by its size
     pytest.param("9" * 5000, "a shorter integer, got 5000 digits (at most 4300 per integer)",
                  id="5000-nines"),
     pytest.param("x" * 5000, "an integer, got 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)",
                  id="5000-letters")],
)
def test_malformed_budget_env_var_is_input_error(capsys, monkeypatch, raw, problem):
    monkeypatch.setenv("QUANTCAT_BUDGET", raw)
    assert main([path("compose.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: QUANTCAT_BUDGET must be {problem}\n", err
    # --budget wins, and the variable is then never read
    code, report, _ = run_json(capsys, path("compose.json"), "--budget", "7")
    assert (code, report["budget"]) == (0, 7)


def test_lipnorm_log_exponent_past_24th_roots(tmp_path, capsys):
    f = tmp_path / "log.json"
    f.write_text(json.dumps({
        "quantale": "lawvere-plus",
        "objects": {"X": LAWVERE_POINTS,
                    "Y": {**LAWVERE_POINTS, "dist": [["0", "2"], ["2", "0"]]}},
        "tasks": [{"op": "lipnorm", "source": "X", "target": "Y",
                   "map": {"p": "p", "q": "q"}, "mode": "log", "log_base": base}
                  for base in (2**24, 2**25, 6)],
    }), encoding="utf-8")
    code, report, _ = run_json(capsys, str(f))
    assert code == 0
    assert [t["details"]["ratio"] for t in report["tasks"]] == ["2"] * 3
    assert [t["details"]["exponent"] for t in report["tasks"]] == ["1/24", "1/25", None]


def test_repeated_main_calls_parse_their_own_flags(capsys, monkeypatch):
    monkeypatch.delenv("QUANTCAT_BUDGET", raising=False)
    code, report, _ = run_json(capsys, path("compose.json"), "--budget", "7", "--probe", "2")
    assert (code, report["budget"], report["probe_bound"]) == (0, 7, 2)
    monkeypatch.setenv("QUANTCAT_BUDGET", "11")
    assert main([path("compose.json")]) == 0
    assert "(budget 11, probe bound 3, " in capsys.readouterr().out


# the usage contract, as argparse printed it before main read any argv itself
USAGE = "usage: quantcat [-h] [--json] [--budget BUDGET] [--probe PROBE] file\n"
HELP = USAGE + """
Run validations, decisions, and constructions from an instance file.

positional arguments:
  file             JSON instance file

options:
  -h, --help       show this help message and exit
  --json           emit the machine report
  --budget BUDGET  enumeration budget (default from QUANTCAT_BUDGET or 4096)
  --probe PROBE    probe object size bound for (C2b)
"""


def test_help_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP, "")


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: file"),
    ([path("compose.json"), "b.json"], "unrecognized arguments: b.json"),
    ([path("compose.json"), "--budget", "x"], "argument --budget: invalid int value: 'x'"),
    ([path("compose.json"), "--budget"], "argument --budget: expected one argument"),
    ([path("compose.json"), "--nope"], "unrecognized arguments: --nope"),
], ids=["no-file", "two-files", "budget-not-an-int", "trailing-budget", "unknown-option"])
def test_usage_errors(capsys, monkeypatch, argv, error):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"{USAGE}quantcat: error: {error}\n")


@pytest.mark.parametrize("flags, budget", [
    (["--budget=5"], 5), (["--bud", "5"], 5), (["--budget", "٣"], 3),
], ids=["equals-form", "abbreviation", "arabic-indic-digit"])
def test_argparse_forms_still_run(capsys, flags, budget):
    code, report, _ = run_json(capsys, path("compose.json"), *flags)
    assert (code, report["budget"]) == (0, budget)


def test_negative_budget_is_an_input_error(capsys):
    assert main([path("compose.json"), "--budget", "-5"]) == 2
    assert capsys.readouterr() == ("", "input error: budget must be positive\n")


ARGV_TOKENS = [
    "--json", "--budget", "--probe", "--js", "--bud", "--pro", "--budget=5", "--probe=2",
    "5", "2", "007", "0", "9" * 5000, "-5", "٣", "x", "-", "--", "-h", "", "a.json", "b.json",
]


@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
@example(["a.json", "--budget", "5", "--probe", "2", "--json"])
@example(["--budget", "1", "a.json", "--budget", "007"])
def test_the_argv_reader_agrees_with_argparse(argv):
    from quantcat.cli import _parser, _read_argv

    read = _read_argv(argv)
    if read is not None:
        args = _parser().parse_args(argv)
        assert read == (args.file, args.json, args.budget, args.probe)


def test_a_well_formed_run_does_not_import_argparse():
    script = (
        "import contextlib, io, sys\n"
        "import quantcat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = quantcat.cli.main([{path('compose.json')!r}, '--json'])\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    assert fresh_python(script) == ("0 False\n", "")


#: prints the modules of ``dataclasses`` and ``typing`` imported, then the
#: lazily loaded modules of quantcat whose code ran (``exec`` puts
#: ``__builtins__`` in the namespace of the code it runs; reading the
#: namespace with ``object.__getattribute__`` does not load a lazy module)
RAN = (
    "print([m for m in ('dataclasses', 'typing') if m in sys.modules])\n"
    "print([n for n in ('normed_set', 'ncat', 'seqlim') if '__builtins__' in\n"
    "       object.__getattribute__(sys.modules.get('quantcat.' + n, sys), '__dict__')])\n"
)


@pytest.mark.parametrize(
    "argv, ran",
    [
        ([path("weights.json"), "--json"], []),
        ([path("compose.json")], []),
        ([path("monoid.json"), "--json"], ["ncat"]),
        ([path("certs.json"), "--json"], ["normed_set", "ncat"]),
        ([path("sequence.json"), "--json"], ["normed_set", "seqlim"]),
        # a metric sequence or a dset or ncat sequence reads no normed set
        ([path("metric.json"), "--json"], ["seqlim"]),
        ([path("odot.json"), "--json"], ["seqlim"]),
        ([path("vlip.json"), "--json"], ["seqlim"]),
        ([path("ncat_sequence.json"), "--json"], ["ncat", "seqlim"]),
        (["--help"], []),
    ],
    ids=["vcat", "vdist", "ncat", "ndist", "colimit", "metric", "odot", "vlip",
         "ncat-sequence", "help"],
)
def test_a_run_loads_only_the_modules_its_file_uses(argv, ran):
    # -S: site would import typing itself
    script = (
        "import contextlib, io, sys\n"
        "import quantcat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        quantcat.cli.main({argv!r})\n"
        "    except SystemExit:\n"
        "        pass\n"
        + RAN
    )
    assert fresh_python(script, "-S") == (f"[]\n{ran}\n", "")


def _json_nodes(data, where=()):
    """The path of every node below the root of a JSON document."""
    children = data.items() if isinstance(data, dict) else (
        enumerate(data) if isinstance(data, list) else ()
    )
    for key, child in children:
        yield where + (key,)
        yield from _json_nodes(child, where + (key,))


def _node(data, where):
    for key in where:
        data = data[key]
    return data


def _replaced(data, where, value):
    data = json.loads(json.dumps(data))
    _node(data, where[:-1])[where[-1]] = value
    return data


def _mutants(data):
    """``(what, document)`` for each mutation of the sweep on ``data``: every
    node replaced by a value of a wrong JSON type, every string leaf by each
    other string leaf of the document, every list item dropped and
    duplicated, and every field deleted."""
    nodes = list(_json_nodes(data))
    strings = sorted({leaf for leaf in (_node(data, where) for where in nodes)
                      if type(leaf) is str})
    for where in nodes:
        value = _node(data, where)
        others = [s for s in strings if s != value] if type(value) is str else []
        for other in ([], 7, *others):
            yield f"{where} := {other!r}", _replaced(data, where, other)
        for what in ("deleted", "duplicated") if type(where[-1]) is int else ("deleted",):
            mutated = json.loads(json.dumps(data))
            parent, key = _node(mutated, where[:-1]), where[-1]
            if what == "deleted":
                del parent[key]
            else:
                parent.insert(key, parent[key])
            yield f"{where} {what}", mutated


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_wrong_type_mutations_exit_cleanly(name, tmp_path, capsys):
    # every mutation of a fixture exits with its verdicts, an input error or
    # an exceeded budget, and an error is one stderr line and no stdout
    with open(path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    f = tmp_path / "mutated.json"
    for what, mutated in _mutants(data):
        f.write_text(json.dumps(mutated), encoding="utf-8")
        try:
            code = main([str(f), "--json", "--budget", "64"])
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{what} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3) and "Traceback" not in err, (what, code, err)
        if code in (2, 3):
            assert out == "" and err.endswith("\n") and err.count("\n") == 1, (what, err)


def _renamed(t, node, rename, ambient=None):
    """``node``, of field type ``t``, with each name ``n`` of an object,
    morphism, element or point made ``rename(n)``: the names the format
    reads, as items and as the keys of a ``{NAME: t}`` map, and no record
    field, quantale value, quantale or reference to an instance object.  A
    sequence's stages and steps are read by its ``ambient``."""
    if t is NAME:
        return rename(node)
    if t is STAGE or t is STEP:
        if ambient == "ncat":
            return rename(node)
        if t is STEP:
            return _renamed({NAME: NAME}, node, rename)
        kind = "normed_set" if ambient == "nset" else "vcat"
        return _renamed(KINDS[kind], node, rename) if type(node) is dict else node
    if type(t) in (list, tuple):
        items = t * len(node) if type(t) is list else t
        return [_renamed(u, x, rename, ambient) for u, x in zip(items, node)]
    if type(t) is not dict:
        return node
    if NAME in t:
        return {str(rename(k)): _renamed(t[NAME], v, rename, ambient) for k, v in node.items()}
    ambient, fields = node.get("ambient", ambient), {k.rstrip("?"): u for k, u in t.items()}
    return {k: _renamed(fields[k], v, rename, ambient) if k in fields else v
            for k, v in node.items()}


def _renamed_instance(data, rename):
    objects = {name: _renamed(KINDS[spec["kind"]], spec, rename)
               for name, spec in data.get("objects", {}).items()}
    tasks = [_renamed(OPS[task["op"]], task, rename) for task in data.get("tasks", [])]
    return {**data, "objects": objects, "tasks": tasks}


def _verdicts(capsys, f):
    code = main([str(f), "--json"])
    out = capsys.readouterr().out
    return code, [task["verdict"] for task in json.loads(out)["tasks"]] if out else None


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_a_name_renamed_to_an_integer_keeps_the_verdicts(name, tmp_path, capsys):
    # a name that is an integer reads as the same name written as a string:
    # every map keyed by name finds it at its key text
    with open(path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    names = set()
    _renamed_instance(data, lambda n: names.add(n) or n)
    assert names and all(type(n) is str for n in names)
    expected = _verdicts(capsys, path(name))
    f = tmp_path / "renamed.json"
    new = next(i for i in range(1000, 2000) if str(i) not in names)
    for old in sorted(names):
        renamed = _renamed_instance(data, lambda n: new if n == old else n)
        f.write_text(json.dumps(renamed), encoding="utf-8")
        assert _verdicts(capsys, f) == expected, (old, capsys.readouterr().err)


# a name is a JSON string or integer; the report writes every other JSON
# scalar differently from how the file wrote it, or not at all
FLOAT_NAME = {
    "quantale": "bool2",
    "objects": {"X": {"kind": "vcat", "objects": ["p", 2.5], "dist": [["1", "0"], ["0", "1"]]}},
    "tasks": [{"op": "lawvere", "target": "X"}],
}


@pytest.mark.parametrize("name, got", [(2.5, "2.5"), (True, "true"), (None, "null")])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_name_that_is_not_a_string_or_integer_is_located(tmp_path, capsys, name, got, flags):
    f = tmp_path / "names.json"
    f.write_text(json.dumps(_replaced(FLOAT_NAME, ("objects", "X", "objects", 1), name)))
    assert main([str(f), *flags]) == 2
    assert capsys.readouterr() == (
        "", f"input error: objects.X.objects[1]: expected a name (a string or an integer), got {got}\n"
    )
    # a composite or a counit morphism is a name too
    with open(path("certs.json"), encoding="utf-8") as fh:
        certs = json.load(fh)
    for where in (("objects", "M", "compose", 3, 2), ("objects", "cert", "eps", 0, "map", 1, 2)):
        f.write_text(json.dumps(_replaced(certs, where, name)))
        assert main([str(f), *flags]) == 2
        located = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in where)[1:]
        assert capsys.readouterr().err.startswith(f"input error: {located}: expected a name")


_DELETE = object()
MUTATIONS = [None, [], {}, 7, "zz", 2.5, True, ["x"], {"y": 1}, _DELETE]
PYTHON_TEXT = ("not subscriptable", "unhashable", "has no attribute", "indices must be",
               "not iterable", "to unpack", "update sequence", "has no len")
# an input error starts with the JSON path of what is wrong, and the op of a task
JSON_PATH = re.compile(
    r'input error: (\$|(quantale|objects|tasks)(\.[A-Za-z_]\w*|\[\d+\]|\["(?:[^"\\]|\\.)*"\])*)'
    r"( \([a-z-]+\))?: \S"
)


def _fixture(name):
    with open(path(name), encoding="utf-8") as fh:
        return json.load(fh)


FIXTURES = {name: _fixture(name) for name in sorted(GOLDEN_JSON)}
NODES = {name: list(_json_nodes(data)) for name, data in FIXTURES.items()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_node_mutations_exit_with_one_located_line(tmp_path_factory, data):
    # one node of a fixture replaced by a value of another JSON type, or deleted
    name = data.draw(st.sampled_from(sorted(FIXTURES)), label="fixture")
    where = data.draw(st.sampled_from(NODES[name]), label="node")
    value = data.draw(st.sampled_from(MUTATIONS), label="value")
    mutated = json.loads(json.dumps(FIXTURES[name]))
    node = mutated
    for key in where[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[where[-1]]
    else:
        node[where[-1]] = value
    f = tmp_path_factory.getbasetemp() / "mutated.json"
    f.write_text(json.dumps(mutated), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(f), "--json", "--budget", "64"])
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (0, 1):
        assert err == ""
    else:
        assert err.endswith("\n") and err.count("\n") == 1, err
    if code == 2:
        assert JSON_PATH.match(err), err
        assert not any(text in err for text in PYTHON_TEXT), err


def test_split_ncat_literal_is_complete(tmp_path, capsys):
    f = tmp_path / "split.json"
    f.write_text(
        json.dumps({"quantale": "bool2", "objects": {"M": SPLIT_NCAT},
                    "tasks": [{"op": "validate", "target": "M"},
                              {"op": "lawvere", "target": "M"}]}),
        encoding="utf-8",
    )
    code, report, _ = run_json(capsys, str(f))
    assert code == 0 and [t["verdict"] for t in report["tasks"]] == ["pass", "pass"]


def _ncat_report(tmp_path, capsys, literal, tasks):
    f = tmp_path / "ncat.json"
    f.write_text(
        json.dumps({"quantale": "bool2", "objects": {"M": literal}, "tasks": tasks}),
        encoding="utf-8",
    )
    code = main([str(f), "--json"])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, json.loads(out)["tasks"]


def test_lawvere_and_strict_split_on_low_identity_norm_report_precondition(tmp_path, capsys):
    # the identity of a is normed 0 < 1: not a normed category
    low = json.loads(json.dumps(MONOID_NCAT))
    low["morphisms"][0]["norm"] = "0"
    code, tasks = _ncat_report(
        tmp_path, capsys, low,
        [{"op": "lawvere", "target": "M"}, {"op": "split", "target": "M", "strict": True}],
    )
    assert code == 1
    lawvere, split = tasks
    assert lawvere["verdict"] == "fail"
    assert lawvere["details"]["error"] == "not a normed category"
    failed = {c["check"]: c["witness"] for c in lawvere["details"]["evidence"] if not c["ok"]}
    assert failed == {"identity-norms": "a"}
    assert split["verdict"] == "fail"
    assert "identity of 'a' is not unit-normed" in split["details"]["precondition"]


def test_strict_split_names_the_first_composite_outside_the_strict_part(tmp_path, capsys):
    # x∘x = z with |x| = 1 and |z| = 0: a category whose unit-normed
    # morphisms are not closed under composition (it is not submultiplicative)
    ms = ["1", "x", "z"]
    literal = {
        "kind": "ncat", "objects": ["a"],
        "morphisms": [{"id": m, "dom": "a", "cod": "a", "norm": n}
                      for m, n in zip(ms, ["1", "1", "0"])],
        "identities": {"a": "1"},
        "compose": [[g, f, f if g == "1" else g if f == "1" else "z"] for g in ms for f in ms],
    }
    f = tmp_path / "open.json"
    f.write_text(json.dumps({"quantale": "bool2", "objects": {"M": literal}, "tasks": [
        {"op": "validate", "target": "M"}, {"op": "split", "target": "M", "strict": True},
    ]}), encoding="utf-8")
    code, report, out = run_json(capsys, str(f))
    assert code == 1
    assert report["tasks"][1]["details"] == {"precondition": (
        "the strict part needs a normed category: "
        "strict morphisms not closed under composition at ('x', 'x')")}
    # the --json bytes pinned while the strict part was a rebuilt subcategory
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5f8be72a9543835bca7f6ef3ffe07fcf41b7d2a154c46805b3119f6ad02c9cd5")


@pytest.mark.parametrize("target, budget, code, err", [
    ("psi", "4096", 2,
     "input error: tasks[0] (isbell): the conjugate is taken of a covariant distributor\n"),
    # one below the first object's priced count: phi has one generator, 1,
    # with |M(a, a)| = 2 values
    ("phi", "1", 3,
     "budget exceeded: natural-transformation enumeration needs 2 candidates, budget is 1\n"),
], ids=["contravariant-target", "budget-below-the-first-object"])
def test_isbell_on_an_ndist_checks_before_it_enumerates(tmp_path, capsys, target, budget,
                                                         code, err):
    with open(path("certs.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["tasks"] = [{"op": "isbell", "target": target}]
    f = tmp_path / "isbell.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    assert main([str(f), "--json", "--budget", budget]) == code
    assert capsys.readouterr() == ("", err)


def test_isbell_on_an_invalid_ndist_reports_its_failed_checks(tmp_path, capsys, monkeypatch):
    from quantcat import ncat

    calls = Counter()
    for name in ("validate_category", "validate_ndist"):
        def counted(*args, _fn=getattr(ncat, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(ncat, name, counted)
    with open(path("certs.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    # the identity moves 1 to e
    data["objects"]["phi"]["action"]["1"] = {"1": "e", "e": "e"}
    data["tasks"] = [{"op": "validate", "target": "phi"}, {"op": "isbell", "target": "phi"},
                     {"op": "validate", "target": "phi"}]
    f = tmp_path / "isbell.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    code, report, _ = run_json(capsys, str(f))
    assert code == 1
    validate, isbell, _ = report["tasks"]
    assert isbell["verdict"] == "fail"
    assert isbell["details"]["error"] == "not a normed distributor"
    assert isbell["details"]["evidence"] == validate["details"]["checks"]
    failed = [(c["check"], c["witness"]) for c in validate["details"]["checks"] if not c["ok"]]
    assert failed == [("action-identities", "a")]
    # the three tasks share one scan of the category and one of the distributor
    assert calls == {"validate_category": 1, "validate_ndist": 1}


def test_isbell_on_a_free_cyclic_action_prices_its_generator(capsys):
    # Z/6 acting on itself: one generator with 6 values, where the product of
    # all component functions has 6^6 = 46656 and exceeded the default budget
    code, report, _ = run_json(capsys, path("cyclic.json"))
    assert code == 0
    isbell = report["tasks"][2]["details"]
    assert isbell == {"sizes": {"o": 6}, "norms": {"o": ["1", "0", "1", "0", "1", "0"]}}
    assert main([path("cyclic.json"), "--json", "--budget", "5"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: natural-transformation enumeration needs 6 candidates, budget is 5\n")


def test_isbell_builds_no_distributor(tmp_path, capsys, monkeypatch):
    from quantcat import ncat

    built = Counter()
    init = ncat.NormedDistributor.__init__

    def counted(self, *args):
        built["NormedDistributor"] += 1
        init(self, *args)

    monkeypatch.setattr(ncat.NormedDistributor, "__init__", counted)
    with open(path("certs.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["tasks"] = [{"op": "validate", "target": "phi"}, {"op": "isbell", "target": "phi"}]
    f = tmp_path / "isbell.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    code, report, _ = run_json(capsys, str(f))
    assert code == 0
    assert report["tasks"][1]["details"]["sizes"] == {"a": 2}
    literals = sum(obj["kind"] == "ndist" for obj in data["objects"].values())
    assert built["NormedDistributor"] == literals == 2


def test_isbell_of_a_contravariant_distributor_is_an_input_error():
    from quantcat.cli import InputError, _task_isbell

    inst = load_instance(path("certs.json"))
    with pytest.raises(InputError, match="the conjugate is taken of a covariant distributor"):
        _task_isbell(inst, {"op": "isbell", "target": "psi"}, 4096, 3)


def test_lawvere_on_non_associative_table_reports_precondition(tmp_path, capsys):
    # a∘a = b, a∘b = a, b∘a = b: (a∘a)∘a = b but a∘(a∘a) = a
    ms = ["1", "a", "b"]
    table = [["1", m, m] for m in ms] + [[m, "1", m] for m in ms[1:]] + [
        ["a", "a", "b"], ["a", "b", "a"], ["b", "a", "b"], ["b", "b", "b"]
    ]
    literal = {
        "kind": "ncat", "objects": ["x"],
        "morphisms": [{"id": m, "dom": "x", "cod": "x", "norm": "1"} for m in ms],
        "identities": {"x": "1"}, "compose": table,
    }
    code, tasks = _ncat_report(tmp_path, capsys, literal, [{"op": "lawvere", "target": "M"}])
    assert code == 1
    (lawvere,) = tasks
    assert lawvere["verdict"] == "fail"
    assert lawvere["details"]["error"] == "not a normed category"
    failed = {c["check"]: c["witness"] for c in lawvere["details"]["evidence"] if not c["ok"]}
    assert failed == {"associativity": ["a", "a", "a"]}


def _point_certificate_file(tmp_path, variance, tasks):
    """The non-associative table of the test above, with one-point
    distributors phi (covariant) and psi (of the given variance) and the
    certificate ε(p, p) = 1 at (x, p, p)."""
    ms = ["1", "a", "b"]
    table = [["1", m, m] for m in ms] + [[m, "1", m] for m in ms[1:]] + [
        ["a", "a", "b"], ["a", "b", "a"], ["b", "a", "b"], ["b", "b", "b"]
    ]
    point = {
        "kind": "ndist", "category": "M", "sets": {"x": [{"id": "p", "norm": "1"}]},
        "action": {m: {"p": "p"} for m in ms},
    }
    objects = {
        "M": {
            "kind": "ncat", "objects": ["x"],
            "morphisms": [{"id": m, "dom": "x", "cod": "x", "norm": "1"} for m in ms],
            "identities": {"x": "1"}, "compose": table,
        },
        "phi": point | {"variance": "covariant"},
        "psi": point | {"variance": variance},
        "cert": {
            "kind": "certificate", "phi": "phi", "psi": "psi",
            "eps": [{"a": "x", "b": "x", "map": [["p", "p", "1"]]}],
            "c": "x", "u": "p", "v": "p",
        },
    }
    f = tmp_path / "cert.json"
    f.write_text(
        json.dumps({"quantale": "bool2", "objects": objects, "tasks": tasks}),
        encoding="utf-8",
    )
    return str(f)


def test_certificate_over_non_associative_table_reports_precondition(tmp_path, capsys):
    # isbell on phi, too, which once enumerated families over the non-category
    tasks = [{"op": "adjoint", "target": "cert"},
             {"op": "adjoint", "target": "cert", "normed": True},
             {"op": "isbell", "target": "phi"}]
    code, report, _ = run_json(capsys, _point_certificate_file(tmp_path, "contravariant", tasks))
    assert code == 1
    for task in report["tasks"]:
        assert task["verdict"] == "fail"
        assert task["details"]["error"] == "not a category"
        evidence = task["details"]["evidence"]
        failed = {c["check"]: c["witness"] for c in evidence if not c["ok"]}
        assert failed == {"associativity": ["a", "a", "a"]}


@pytest.mark.parametrize("normed", [False, True])
def test_certificate_with_two_covariant_distributors_is_input_error(tmp_path, capsys, normed):
    tasks = [{"op": "adjoint", "target": "cert", "normed": normed}]
    code = main([_point_certificate_file(tmp_path, "covariant", tasks), "--json"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (
        "input error: tasks[0] (adjoint): "
        "a certificate pairs a covariant phi with a contravariant psi over one category\n"
    )


def _off_endpoints(composite):
    """e: a → a with e∘e listed as ``composite``."""
    return {
        "kind": "ncat", "objects": ["a", "b"],
        "morphisms": [
            {"id": m, "dom": o, "cod": o, "norm": "1"}
            for m, o in (("1a", "a"), ("1b", "b"), ("e", "a"))
        ],
        "identities": {"a": "1a", "b": "1b"},
        "compose": [
            ["1a", "1a", "1a"], ["1b", "1b", "1b"], ["e", "1a", "e"], ["1a", "e", "e"],
            ["e", "e", composite],
        ],
    }


@pytest.mark.parametrize("composite", ["1b", "zz"])
def test_composite_off_its_endpoints_is_a_failed_check(tmp_path, capsys, composite):
    # e∘e listed as 1b, or as a name that is no morphism
    code, tasks = _ncat_report(
        tmp_path, capsys, _off_endpoints(composite),
        [{"op": "validate", "target": "M"}, {"op": "lawvere", "target": "M"},
         {"op": "split", "target": "M"}, {"op": "split", "target": "M", "strict": True}],
    )
    assert code == 1
    validate, lawvere, *splits = tasks
    failed = {c["check"]: c["witness"] for c in validate["details"]["checks"] if not c["ok"]}
    assert failed == {"composition-endpoints": ["e", "e"]}
    assert lawvere["verdict"] == "fail"
    assert lawvere["details"]["error"] == "not a normed category"
    # split has the category precondition too, strict or not
    for split in splits:
        assert split["verdict"] == "fail"
        assert split["details"]["error"] == "not a category"
        evidence = split["details"]["evidence"]
        assert {c["check"]: c["witness"] for c in evidence if not c["ok"]} == failed


@pytest.mark.parametrize("composite", ["1b", "zz"])
def test_validate_of_a_distributor_over_a_non_category_reports_precondition(
    tmp_path, capsys, composite
):
    # a one-point distributor over the category above: validate names the
    # category's failure, as isbell does, and does not read the action
    # checks off a composite that is no morphism of the right endpoints
    point = {"kind": "ndist", "category": "M",
             "sets": {"a": [{"id": "p", "norm": "1"}], "b": []},
             "action": {"1a": {"p": "p"}, "1b": {}, "e": {"p": "p"}}}
    f = tmp_path / "ndist.json"
    f.write_text(json.dumps({"quantale": "bool2",
                             "objects": {"M": _off_endpoints(composite), "P": point},
                             "tasks": [{"op": "validate", "target": "P"}]}), encoding="utf-8")
    code, report, _ = run_json(capsys, str(f))
    assert code == 1
    assert report["tasks"] == [{
        "index": 0, "op": "validate", "target": "P", "verdict": "fail",
        "details": {"error": "not a category", "evidence": [
            {"check": "composition-endpoints", "ok": False, "witness": ["e", "e"]},
            {"check": "identity-laws", "ok": True, "witness": None},
        ]},
    }]


@pytest.mark.parametrize("edit", ["norm", "composite"])
def test_ncat_sequence_tasks_check_their_normed_category(tmp_path, capsys, edit):
    # |e| = 0 breaks |s∘r| ≥ |s| ⊗ |r|; e∘e = zz breaks the category: validate
    # and cauchy on the sequence fail with the category's evidence, and give
    # no verdict on the sequence itself
    with open(path("ncat_sequence.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    M = data["objects"]["M"]
    if edit == "norm":
        M["morphisms"][2]["norm"] = "0"
    else:
        assert M["compose"][4] == ["e", "e", "e"]
        M["compose"][4][2] = "zz"
    f = tmp_path / "ncat_sequence.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    code, report, _ = run_json(capsys, str(f))
    assert code == 1
    validate_M, *on_t = report["tasks"]
    failed = {c["check"]: c["witness"] for c in validate_M["details"]["checks"] if not c["ok"]}
    assert failed == ({"composition-submultiplicative": ["s", "r"]} if edit == "norm"
                      else {"composition-endpoints": ["e", "e"]})
    expected = {"error": "not a normed category", "evidence": validate_M["details"]["checks"]}
    assert [(task["op"], task["verdict"], task["details"]) for task in on_t] == [
        (op, "fail", expected) for op in ("validate", "cauchy")
    ]


def test_validate_split_and_lawvere_share_each_scan(tmp_path, capsys, monkeypatch):
    from quantcat import ncat, vcat

    calls = {}
    for module, name in (
        (ncat, "validate_category"), (ncat, "norm_checks"), (vcat, "validate_vcat"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    f = tmp_path / "shared.json"
    f.write_text(
        json.dumps({
            "quantale": "bool2",
            "objects": {"M": SPLIT_NCAT, "X": TWO_POINTS},
            "tasks": [
                {"op": "split", "target": "M"},
                {"op": "validate", "target": "M"},
                {"op": "split", "target": "M", "strict": True},
                {"op": "lawvere", "target": "M"},
                {"op": "validate", "target": "X"},
                {"op": "lawvere", "target": "X"},
            ],
        }),
        encoding="utf-8",
    )
    code, report, _ = run_json(capsys, str(f))
    assert code == 0 and len(report["tasks"]) == 6
    assert calls == {"validate_category": 1, "norm_checks": 1, "validate_vcat": 1}


def _i_embedded_literal(objects, matrix):
    """The ncat literal of ``i_embed_cat`` on a distance matrix, with the
    arrow x → y named x + y."""
    return {
        "kind": "ncat",
        "objects": objects,
        "morphisms": [
            {"id": x + y, "dom": x, "cod": y, "norm": matrix[i][j]}
            for i, x in enumerate(objects)
            for j, y in enumerate(objects)
        ],
        "identities": {x: x + x for x in objects},
        "compose": [[y + z, x + y, x + z] for x in objects for y in objects for z in objects],
    }


@pytest.mark.parametrize(
    "quantale, literal",
    [
        # decide-vcat shapes: nine discrete points, a chain
        ("bool2", {"kind": "vcat", "objects": [f"p{i}" for i in range(9)],
                   "dist": [["1" if i == j else "0" for j in range(9)] for i in range(9)]}),
        ("chain4", {"kind": "vcat", "objects": ["p", "q", "r"],
                    "dist": [["1", "a", "a"], ["0", "1", "b"], ["0", "0", "1"]]}),
        # i-embedded shapes: a bool2 chain, a chain3 space
        ("bool2", _i_embedded_literal(
            ["p", "q", "r"], [["1", "1", "1"], ["0", "1", "1"], ["0", "0", "1"]])),
        ("chain3", _i_embedded_literal(["p", "q"], [["1", "m"], ["0", "1"]])),
        # the split monoid: the search guards idempotents that are not
        # identities
        ("chain3", SPLIT_NCAT),
        # a left-zero monoid normed 0 off the identity: at e = 1 the
        # conjugate has 27 natural families, more than the 8 assignments,
        # and neither path counts them (the conjugate has a closed form)
        ("bool2", {
            "kind": "ncat", "objects": ["x"],
            "morphisms": [{"id": m, "dom": "x", "cod": "x", "norm": n}
                          for m, n in (("1", "1"), ("a", "0"), ("b", "0"))],
            "identities": {"x": "1"},
            "compose": [["1", m, m] for m in "1ab"] + [[z, m, z] for z in "ab" for m in "1ab"],
        }),
    ],
)
def test_theorem_path_fires_the_search_paths_guards(
    tmp_path, capsys, monkeypatch, quantale, literal
):
    from quantcat import common, ncat, vcat
    from quantcat.quantale import builtin_quantale

    f = tmp_path / "guards.json"
    f.write_text(
        json.dumps({"quantale": quantale, "objects": {"T": literal},
                    "tasks": [{"op": "lawvere", "target": "T"}]}),
        encoding="utf-8",
    )

    def run(budget, search):
        """The guards fired, and main's (exit code, stdout, stderr)."""
        fired = []

        def recorded(needed, budget, what, skipped=None):
            fired.append((what, needed, skipped))
            common.guard_count(needed, budget, what, skipped)

        with monkeypatch.context() as m:
            for module in (vcat, ncat):
                m.setattr(module, "guard_count", recorded)
            if search:
                without_unit_criterion(m)
            code = main([str(f), "--json", "--budget", str(budget)])
        out, err = capsys.readouterr()
        return fired, (code, out, err)

    def tasks(outcome):
        code, out, err = outcome
        return code, json.loads(out)["tasks"], err

    # the theorem path enumerates nothing, so it fires no guard and decides
    # at every budget; the forced search fires its guards and agrees at 4096
    assert builtin_quantale(quantale).unit_criterion
    guards, outcome = run(4096, search=False)
    assert outcome[0] == 0 and guards == []
    searched, searched_outcome = run(4096, search=True)
    assert searched and searched_outcome == outcome
    at_one = run(1, search=False)
    assert at_one[0] == [] and tasks(at_one[1]) == tasks(outcome)
    for needed in sorted({needed for _, needed, _ in searched if needed > 1}):
        theorem = run(needed - 1, search=False)
        assert theorem[0] == [] and tasks(theorem[1]) == tasks(outcome), needed
        fired, (code, out, err) = run(needed - 1, search=True)
        what, first, skipped = fired[-1]
        line = f"budget exceeded: {what} needs {first} candidates, budget is {needed - 1}"
        line += "" if skipped is None else f" (skipped: {skipped})"
        assert (code, out, err) == (3, "", line + "\n")


def test_the_unit_criterion_is_read_once_per_quantale(tmp_path, capsys, monkeypatch):
    # two lawvere tasks in one file, then a second file over the same
    # built-in quantale: the criterion's tables are scanned once, at its
    # one totally-below test k ≪ k
    from quantcat import quantale

    vars(quantale.builtin_quantale("chain3")).pop("unit_criterion", None)
    original, scans = quantale.totally_below, []

    def counted(q, u, v):
        scans.append((u, v))
        return original(q, u, v)

    for name, module in list(sys.modules.items()):
        if name.startswith("quantcat.") and vars(module).get("totally_below") is original:
            monkeypatch.setattr(module, "totally_below", counted)
    monoid = {"kind": "ncat", "objects": ["a"], "identities": {"a": "1"},
              "morphisms": [{"id": "1", "dom": "a", "cod": "a", "norm": "1"}],
              "compose": [["1", "1", "1"]]}
    files = [
        {"X": TWO_POINTS, "M": monoid},
        {"Y": {**TWO_POINTS, "dist": [["1", "m"], ["0", "1"]]}},
    ]
    for i, objects in enumerate(files):
        f = tmp_path / f"lawvere{i}.json"
        tasks = [{"op": "lawvere", "target": name} for name in objects]
        f.write_text(json.dumps({"quantale": "chain3", "objects": objects, "tasks": tasks}),
                     encoding="utf-8")
        assert main([str(f), "--json"]) == 0
        capsys.readouterr()
    assert len(scans) == 1


@pytest.mark.parametrize("name", ["weights.json", "sequence.json", "vlip.json", "odot.json"])
def test_theorem_paths_decide_below_the_guards_they_replaced(name, capsys):
    # these exited 3 at --budget 2 on the guard of a weight or probe search
    # that the criterion lemma or the canonical cocone makes unnecessary
    code, report, _ = run_json(capsys, path(name), "--budget", "2")
    default_code, default, _ = run_json(capsys, path(name))
    assert code == default_code == GOLDEN_JSON[name][0]
    assert report["tasks"] == default["tasks"]


def test_discrete_bool2_vcategory_of_13_objects_is_decided(tmp_path, capsys):
    # 2^13 weights exceed the default budget; the criterion enumerates none
    n = 13
    f = tmp_path / "discrete13.json"
    f.write_text(
        json.dumps({
            "quantale": "bool2",
            "objects": {"X": {"kind": "vcat", "objects": [f"p{i}" for i in range(n)],
                              "dist": [["1" if i == j else "0" for j in range(n)]
                                       for i in range(n)]}},
            "tasks": [{"op": "validate", "target": "X"}, {"op": "lawvere", "target": "X"}],
        }),
        encoding="utf-8",
    )
    code, report, _ = run_json(capsys, str(f))
    assert code == 0
    lawvere = report["tasks"][1]
    assert lawvere["verdict"] == "pass"
    witnesses = lawvere["details"]["witness"]
    assert [w["witness"] for w in witnesses] == [f"p{i}" for i in reversed(range(n))]


BOOL4_SEARCHES = [
    ({"kind": "vcat", "objects": ["x", "y", "z"],
      "dist": [["top" if i == j else "bot" for j in range(3)] for i in range(3)]},
     63, "weights |V|^3 needs 64 candidates, budget is 63"),
    ({"kind": "ncat", "objects": ["x"],
      "morphisms": [{"id": "1", "dom": "x", "cod": "x", "norm": "top"},
                    {"id": "e", "dom": "x", "cod": "x", "norm": "bot"}],
      "identities": {"x": "1"},
      "compose": [["1", "1", "1"], ["1", "e", "e"], ["e", "1", "e"], ["e", "e", "e"]]},
     15, "norm assignments |V|^2 at idempotent '1' needs 16 candidates, budget is 15"
         " (skipped: 2 idempotents, 16 assignments)"),
]


@pytest.mark.parametrize("literal, budget, line", BOOL4_SEARCHES, ids=["vcat", "ncat"])
def test_bool4_search_stops_one_below_its_guard(tmp_path, capsys, literal, budget, line):
    # bool4 fails the criterion, so the weight search runs and is priced
    f = tmp_path / "bool4.json"
    f.write_text(
        json.dumps({"quantale": "bool4", "objects": {"X": literal},
                    "tasks": [{"op": "validate", "target": "X"},
                              {"op": "lawvere", "target": "X"}]}),
        encoding="utf-8",
    )
    assert main([str(f), "--json", "--budget", str(budget)]) == 3
    assert capsys.readouterr() == ("", f"budget exceeded: {line}\n")
    assert main([str(f), "--json", "--budget", str(budget + 1)]) in (0, 1)


@pytest.mark.parametrize("strict_part", ["unsplit", "split"])
def test_split_and_lawvere_build_the_strict_part_once(tmp_path, capsys, monkeypatch, strict_part):
    from quantcat import ncat

    if strict_part == "unsplit":
        with open(path("monoid.json"), encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = {"quantale": "chain3", "objects": {"M": SPLIT_NCAT}}
    data["tasks"] = [{"op": "validate", "target": "M"},
                     {"op": "split", "target": "M", "strict": True},
                     {"op": "lawvere", "target": "M"}]
    f = tmp_path / "strict.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    built = []
    strict_morphisms = ncat.strict_morphisms
    monkeypatch.setattr(ncat, "strict_morphisms",
                        lambda A: built.append(A) or strict_morphisms(A))
    code, report, _ = run_json(capsys, str(f))
    assert len(built) == 1
    split, lawvere = report["tasks"][1:]
    if strict_part == "unsplit":
        # clause 1 names the idempotent the split task names
        assert code == 1
        assert split["details"]["witness"] == lawvere["details"]["certificate"] == "e"
        assert lawvere["details"]["clause"] == 1
    else:
        assert code == 0 and split["details"]["witness"] is None


# ---------------------------------------------------------------------------
# canonical values made once at the boundary


def _one_vcat(quantale, row0, row1):
    return {"quantale": quantale,
            "objects": {"X": {"kind": "vcat", "objects": ["p", "q"], "dist": [row0, row1]}},
            "tasks": [{"op": "validate", "target": "X"}]}


def _parse_outcome(data):
    from quantcat.cli import InputError

    try:
        X = parse_instance(data).objects["X"][1]
    except InputError as exc:
        return "error", exc.describe()
    return "ok", [[X.d(x, y) for y in X.objects] for x in X.objects]


@pytest.mark.parametrize("other, error", _named([
    (True, "not an extended rational: true"),
    (1, None),
    (1.0, "floats are not exact values: 1.0"),
    ("1", None),
    ({"y": 1}, 'not an extended rational: {"y": 1}'),
    (None, "not an extended rational: null"),
], ["True-object 'X': not an extended rational: True", "1-None0",
    "1.0-object 'X': floats are not exact values: 1.0", "1-None1", "object", "null"]))
def test_numeral_memo_keeps_json_scalars_apart(other, error):
    # "1" beside JSON true, 1 and 1.0, in either order: each is accepted or
    # rejected as it is alone, so the string's memo entry never answers for
    # them; a rejected value is echoed as the file writes it, in JSON
    from fractions import Fraction

    # and beside the JSON 1, which equals true and 1.0 as a dict key would
    for row0, row1, cell in ((["0", "1"], [other, "0"], "[1][0]"),
                             (["0", other], ["1", "0"], "[0][1]"),
                             (["0", 1], [other, "0"], "[1][0]")):
        got = _parse_outcome(_one_vcat("lawvere-plus", row0, row1))
        one = Fraction(1)
        expected = ("error", f"objects.X.dist{cell}: {error}")
        assert got == (("ok", [[0, one], [one, 0]]) if error is None else expected)
    # a finite carrier takes names only: "1" is an element, the others are not
    finite = _parse_outcome(_one_vcat("bool2", ["1", "1"], [other, "1"]))
    if other == "1" and type(other) is str:
        assert finite == ("ok", [[1, 1], [1, 1]])
    else:
        assert finite == ("error", "objects.X.dist[1][0]: finite quantale elements must be "
                                   f"referenced by name, got {json.dumps(other)}")


def test_a_bad_numeral_is_rejected_every_time_it_is_read():
    from quantcat.cli import Instance, InputError
    from quantcat.quantale import lawvere_plus

    inst = Instance("lawvere-plus", lawvere_plus(), {}, [])
    errors = []
    for _ in range(2):
        with pytest.raises(InputError) as exc:
            inst.value("abc")
        errors.append(str(exc.value))
    assert errors == ["malformed numeral: 'abc'"] * 2 and "abc" not in inst.numerals
    # in a file, each object naming it fails the same way
    objects = {name: {"kind": "vcat", "objects": ["p"], "dist": [["abc"]]} for name in "XY"}
    for first in "XY":
        data = {"quantale": "lawvere-plus", "tasks": [],
                "objects": dict(sorted(objects.items(), key=lambda kv: kv[0] != first))}
        with pytest.raises(InputError) as exc:
            parse_instance(data)
        assert exc.value.describe() == f"objects.{first}.dist[0][0]: malformed numeral: 'abc'"


def test_instances_with_different_inline_tables_keep_their_own_names():
    # the same names in opposite orders: "y" is index 0 in one table and 1
    # in the other, and each instance reads it in its own table
    def chain(names):
        return {"elements": names, "leq": [[True, True], [False, True]],
                "tensor": [[names[0], names[0]], [names[0], names[1]]], "unit": names[1]}

    parsed = [parse_instance(_one_vcat(chain(names), ["y", "x"], ["x", "y"]))
              for names in (["x", "y"], ["y", "x"])]
    for inst in parsed:
        X = inst.objects["X"][1]
        assert [inst.quantale.name(X.d("p", y)) for y in X.objects] == ["y", "x"]
    assert [inst.objects["X"][1].d("p", "p") for inst in parsed] == [1, 0]
    # y is the unit of the first table and the bottom of the second
    assert [inst.objects["X"][1].report.ok for inst in parsed] == [True, False]


def _checked_literals(inst, spec):
    """(parsed object, the same literal built by a checking constructor) for
    every vcat, normed-set and weight-pair literal of an instance file,
    inline ones too."""
    from quantcat.normed_set import NormedSet
    from quantcat.vcat import VCategory
    from helpers import left_weight, right_weight

    q = inst.quantale

    def vcat(parsed, raw):
        return parsed, VCategory(q, raw["objects"], raw["dist"])

    def nset(parsed, raw):
        norms = {e["id"]: e["norm"] for e in raw["elements"]}
        return parsed, NormedSet(q, norms, [e["id"] for e in raw["elements"]])

    for name, raw in spec["objects"].items():
        kind, parsed = inst.objects[name]
        if kind == "vcat":
            yield vcat(parsed, raw)
        elif kind == "normed_set":
            yield nset(parsed, raw)
        elif kind == "weight_pair":
            X = inst.objects[raw["space"]][1]
            yield parsed.phi, left_weight(X, raw["phi"])
            yield parsed.psi, right_weight(X, raw["psi"])
        elif kind == "ndist":
            for a, elements in raw["sets"].items():
                yield nset(parsed.sets[a], {"elements": elements})
        elif kind == "sequence" and raw["ambient"] != "ncat":
            build = nset if raw["ambient"] == "nset" else vcat
            stages = [p["object"] for p in raw.get("prefix", [])] + [raw["tail"]["object"]]
            for got, stage in zip(parsed.prefix_objects + [parsed.tail_object], stages):
                if isinstance(stage, dict):
                    yield build(got, stage)


def test_parsed_literals_equal_the_checked_constructors():
    from fractions import Fraction

    from quantcat.normed_set import NormedSet
    from quantcat.quantale import INF

    compared = Counter()
    for name in sorted(os.listdir(DATA)):
        with open(path(name), encoding="utf-8") as fh:
            spec = json.load(fh)
        inst = load_instance(path(name))
        for parsed, checked in _checked_literals(inst, spec):
            assert parsed == checked, name
            values = (parsed.norms.values() if isinstance(parsed, NormedSet)
                      else [v for row in parsed.rows for v in row])
            kinds = (int,) if inst.quantale.is_finite else (Fraction, type(INF))
            assert all(type(v) in kinds for v in values), name
            compared[type(parsed).__name__, inst.quantale.is_finite] += 1
    # each literal kind, vcats and normed sets over both kinds of carrier
    assert len(compared) == 5, compared


def test_parsing_converts_each_numeral_string_once(monkeypatch):
    from quantcat import quantale

    calls = Counter()
    convert = quantale.as_extended_rational

    def counted(x):
        calls[x] += 1
        return convert(x)

    monkeypatch.setattr(quantale, "as_extended_rational", counted)
    repeats = 0
    for name in sorted(os.listdir(DATA)):
        calls.clear()
        inst = load_instance(path(name))
        if inst.quantale.is_finite:
            assert not calls, name
            continue
        with open(path(name), encoding="utf-8") as fh:
            text = fh.read()
        strings = [raw for raw in calls if type(raw) is str]
        assert strings, name
        assert all(calls[raw] == 1 and json.dumps(raw) in text for raw in strings), name
        repeats += sum(text.count(json.dumps(raw)) - 1 for raw in strings)
        assert inst.numerals == {}, name  # the memo lasts for one parse
    assert repeats > 10  # the fixtures repeat numerals, and each repeat was a memo hit


def test_an_integer_literal_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "long.json"
    f.write_text('{"quantale": "lawvere-plus", "objects": {"X": {"kind": "vcat", '
                 '"objects": ["p"], "dist": [[1' + "0" * 5000 + ']]}}, "tasks": []}',
                 encoding="utf-8")
    assert main([str(f)]) == 2
    err = capsys.readouterr().err
    assert err == ("input error: numeral too long: an integer literal has more "
                   "than 4300 digits\n"), err
    text = b'{"quantale": "bool2", "objects": {}, "tasks": [], "x": "\xff"}'
    f.write_bytes(text)
    assert main([str(f)]) == 2
    assert capsys.readouterr().err == (
        f"input error: cannot read {f}: not UTF-8 text (byte {text.index(255)})\n"
    )


@pytest.mark.parametrize("fault", [KeyError("zz"), ValueError("not a fault of the input")],
                         ids=["KeyError", "ValueError"])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_program_fault_exits_4_on_one_stderr_line(capsys, monkeypatch, fault, flags):
    # not exit 2, which would blame the file, nor exit 1, which reads as a
    # failed verdict
    from quantcat import cli

    def broken(*args):
        raise fault

    monkeypatch.setitem(cli._TASKS, "validate", broken)
    assert main([path("certs.json"), *flags]) == 4
    name, message = type(fault).__name__, str(fault)
    assert capsys.readouterr() == ("", f"internal error: {name}: {message}\n")


def _fixture_with_task(name, task, objects=None):
    """A fixture file with its first task followed by ``task``."""
    with open(path(name)) as fh:
        instance = json.load(fh)
    instance["objects"].update(objects or {})
    instance["tasks"] = instance["tasks"][:1] + [task]
    return instance


ONE_POINT = {"kind": "vcat", "objects": ["z"], "dist": [["0"]]}


TASK_IDS = [
    "instance0-task 1 (forward-limit): candidate point 'nowhere' not in the space",
    "instance1-task 1 (lipnorm): lipnorm 'log_base' must be an integer >= 2, got 1",
    "instance2-task 1 (lipnorm): lipnorm needs a 'map' object",
    "instance3-task 1 (compose): middle categories do not match",
    "instance4-task 1 (compose): unresolved reference 'nothing'",
    "instance5-task 1 (compose): 'X' has kind vcat, expected one of {'vdist'}",
    "instance6-task 1 (compose): a reference must be an object name, got ['d1']",
    "instance7-task 1 (validate): validate does not apply to kind 'metric_sequence'",
    "instance8-task 1 (colimit): colimit construction applies to set-like ambients",
    "compose-middle-distances-differ",
]


@pytest.mark.parametrize(
    "instance, message",
    _named([
        (
            _fixture_with_task("metric.json", {"op": "forward-limit", "target": "ms", "point": "nowhere"}),
            "tasks[1].point (forward-limit): candidate point 'nowhere' not in the space",
        ),
        (
            _fixture_with_task("metric.json", {"op": "lipnorm", "source": "X", "target": "Y",
                                               "map": {"p": "p", "q": "q"}, "mode": "log",
                                               "log_base": 1}),
            "tasks[1].log_base (lipnorm): must be at least 2, got 1",
        ),
        (
            _fixture_with_task("metric.json", {"op": "lipnorm", "source": "X", "target": "Y"}),
            "tasks[1].map (lipnorm): missing field",
        ),
        (
            _fixture_with_task(
                "compose.json", {"op": "compose", "outer": "d1", "inner": "e"},
                {"Z": ONE_POINT,
                 "e": {"kind": "vdist", "source": "Z", "target": "Z", "values": [["0"]]}},
            ),
            "tasks[1] (compose): middle categories do not match",
        ),
        (
            _fixture_with_task("compose.json", {"op": "compose", "outer": "d1", "inner": "nothing"}),
            "tasks[1].inner (compose): unresolved reference 'nothing'",
        ),
        (
            _fixture_with_task("compose.json", {"op": "compose", "outer": "d1", "inner": "X"}),
            "tasks[1].inner (compose): 'X' has kind vcat, expected vdist",
        ),
        (
            _fixture_with_task("compose.json", {"op": "compose", "outer": ["d1"], "inner": "d1"}),
            "tasks[1].outer (compose): a reference must be an object name, got a list",
        ),
        (
            _fixture_with_task("metric.json", {"op": "validate", "target": "ms"}),
            "tasks[1].target (validate): 'ms' has kind metric_sequence, expected vcat or ncat"
            " or vdist or weight_pair or ndist or normed_set or sequence",
        ),
        (
            _fixture_with_task("ncat_sequence.json", {"op": "colimit", "target": "t"}),
            "tasks[1].target (colimit): colimit construction applies to set-like ambients",
        ),
        (
            # the same objects at other distances make another middle category
            _fixture_with_task(
                "compose.json", {"op": "compose", "outer": "d1", "inner": "e"},
                {"W": {"kind": "vcat", "objects": ["a", "b"], "dist": [["0", "2"], ["2", "0"]]},
                 "e": {"kind": "vdist", "source": "X", "target": "W",
                       "values": [["0", "2"], ["2", "0"]]}},
            ),
            "tasks[1] (compose): middle categories do not match",
        ),
    ], TASK_IDS),
)
def test_task_input_errors_name_the_task(tmp_path, capsys, instance, message):
    f = tmp_path / "located.json"
    f.write_text(json.dumps(instance), encoding="utf-8")
    assert main([str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"
