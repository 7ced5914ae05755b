"""File-driven front end.

An instance file is strict JSON with three top-level fields: a quantale
(built-in name or finite table), a dictionary of named objects, and a task
list.  Quantale elements are referenced by name in finite carriers; the
extended-rational carriers accept integers and strings like ``"1/2"`` or
``"inf"`` (floats are rejected everywhere, and so is exponent notation).

Commands: validate, compose, adjoint, isbell, representable, lawvere,
split, cauchy, colimit, forward-limit, lipnorm.

Exit codes: 0 every verdict-bearing task passed, 1 some verdict failed,
2 input error, 3 enumeration budget exceeded.  The ``--json`` machine
report is byte-identical across reruns; wall-clock timing appears only in
the human-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Any

from . import ncat as ncat_mod
from . import seqlim as seq_mod
from . import vcat as vcat_mod
from .common import (
    BudgetExceeded,
    CarrierMismatch,
    ConstructionError,
    PreconditionError,
    Report,
    default_budget,
    int_digit_limit,
)
from .normed_set import NormedSet
from .quantale import (
    FiniteQuantale,
    Quantale,
    builtin_quantale,
    BUILTIN_QUANTALES,
    validate_quantale,
)
from .vcat import VCategory


class InputError(ValueError):
    """A problem with the instance file: parse failure or bad reference."""


# ---------------------------------------------------------------------------
# parsing


def parse_quantale(spec) -> Quantale:
    if isinstance(spec, str):
        if spec not in BUILTIN_QUANTALES:
            raise InputError(f"unknown built-in quantale {spec!r}")
        return builtin_quantale(spec)
    if isinstance(spec, dict):
        try:
            q = FiniteQuantale(
                spec["elements"], spec["leq"], spec["tensor"], spec["unit"]
            )
        except KeyError as missing:
            raise InputError(f"quantale table is missing field {missing}")
        except (ValueError, CarrierMismatch) as exc:
            raise InputError(f"bad quantale table: {exc}")
        report = validate_quantale(q)
        if not report.ok:
            failed = "; ".join(c.describe() for c in report.failures())
            raise InputError(f"quantale table is not a quantale: {failed}")
        return q
    raise InputError("quantale must be a built-in name or a table")


def parse_value(q: Quantale, raw):
    try:
        return q.parse(raw)
    except CarrierMismatch as exc:
        raise InputError(str(exc))


def parse_normed_set(inst: Instance, spec: dict) -> NormedSet:
    elements = spec.get("elements")
    if not isinstance(elements, list):
        raise InputError("normed set literal needs an 'elements' list")
    norms, order = {}, []
    for entry in elements:
        norms[entry["id"]] = inst.value(entry["norm"])
        order.append(entry["id"])
    return NormedSet.trusted(inst.quantale, norms, order)


def parse_vcat(inst: Instance, spec: dict) -> VCategory:
    objects = spec.get("objects")
    matrix = spec.get("dist")
    if objects is None or matrix is None:
        raise InputError("V-category literal needs 'objects' and 'dist'")
    if not isinstance(objects, list):
        raise InputError("field 'objects' must be a list of names")
    _require_names(objects, "an entry of 'objects'")
    n = len(objects)
    if (
        not isinstance(matrix, list)
        or len(matrix) != n
        or any(not isinstance(row, list) or len(row) != n for row in matrix)
    ):
        raise InputError(f"field 'dist' must be a {n}x{n} matrix")
    value = inst.value
    dist = {
        (x, y): value(v)
        for x, row in zip(objects, matrix)
        for y, v in zip(objects, row)
    }
    try:
        return VCategory.trusted(inst.quantale, objects, dist)
    except ValueError as exc:
        raise InputError(f"bad V-category literal: {exc}")


def _require_names(values, what: str) -> None:
    """Names of morphisms, elements and objects are JSON scalars."""
    bad = next((v for v in values if isinstance(v, (list, dict))), None)
    if bad is not None:
        raise InputError(f"{what} must be a name, got {bad!r}")


def parse_ncat(inst: Instance, spec: dict) -> ncat_mod.NormedCategory:
    try:
        objects, rows, morphisms = spec["objects"], spec["compose"], spec["morphisms"]
        if not isinstance(objects, list):
            raise InputError("field 'objects' must be a list of names")
        _require_names(objects, "an entry of 'objects'")
        if not isinstance(rows, list) or any(
            not isinstance(row, list) or len(row) != 3 for row in rows
        ):
            raise InputError("field 'compose' must be a list of [g, f, composite] rows")
        table: dict = {}
        twice = None  # the first [g, f] given a second composite
        try:
            for g, f, gf in rows:
                # a JSON list or object among the names does not hash: as g
                # or f in the key, or as gf here
                if table.setdefault((g, f), gf) != gf and twice is None:
                    twice = [g, f]
                hash(gf)
        except TypeError:
            _require_names((name for row in rows for name in row), "an entry of 'compose'")
            raise
        if twice is not None:
            raise InputError(f"field 'compose' gives {twice!r} two composites")
        names = [m["id"] for m in morphisms]
        return ncat_mod.NormedCategory(
            inst.quantale,
            objects,
            names,
            {m["id"]: m["dom"] for m in morphisms},
            {m["id"]: m["cod"] for m in morphisms},
            spec["identities"],
            table,
            {m["id"]: inst.value(m["norm"]) for m in morphisms},
        )
    except KeyError as missing:
        raise InputError(f"normed category literal is missing {missing}")
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"bad normed category literal: {exc}")


class Instance:
    """A parsed instance file.

    ``value`` makes each file-format value canonical, and converts each
    distinct numeral string once: the memo lives for one parse on this
    instance, keyed on ``str`` values only (JSON ``true``, ``1`` and ``1.0``
    are parsed each time, so they never meet ``"1"``), and an error is
    raised again rather than remembered.
    """

    def __init__(self, quantale_spec, quantale, objects, tasks):
        self.quantale_spec = quantale_spec
        self.quantale = quantale
        self.objects = objects  # name -> (kind, parsed value)
        self.tasks = tasks
        self.numerals: dict[str, Any] = {}

    def value(self, raw):
        """``parse_value`` in this instance's quantale, memoised on strings."""
        if type(raw) is not str:
            return parse_value(self.quantale, raw)
        try:
            return self.numerals[raw]
        except KeyError:
            value = self.numerals[raw] = parse_value(self.quantale, raw)
            return value

    def resolve(self, name, kinds=None):
        if not isinstance(name, str):
            raise InputError(f"a reference must be an object name, got {name!r}")
        if name not in self.objects:
            raise InputError(f"unresolved reference {name!r}")
        kind, value = self.objects[name]
        if kinds is not None and kind not in kinds:
            raise InputError(f"{name!r} has kind {kind}, expected one of {kinds}")
        return kind, value


def _parse_vdist(inst: Instance, spec: dict) -> vcat_mod.VDistributor:
    _, source = inst.resolve(spec["source"], {"vcat"})
    _, target = inst.resolve(spec["target"], {"vcat"})
    rows = spec["values"]
    if len(rows) != len(source.objects) or any(
        len(row) != len(target.objects) for row in rows
    ):
        raise InputError(
            f"field 'values' must be a {len(source.objects)}x{len(target.objects)} matrix"
        )
    value = inst.value
    values = {}
    for i, x in enumerate(source.objects):
        for j, y in enumerate(target.objects):
            values[(x, y)] = value(rows[i][j])
    return vcat_mod.VDistributor.trusted(source, target, values)


def _parse_weight_pair(inst: Instance, spec: dict) -> vcat_mod.VWeightPair:
    _, X = inst.resolve(spec["space"], {"vcat"})
    E, star = vcat_mod.unit_vcat(inst.quantale), vcat_mod.POINT
    phi = {(star, x): inst.value(spec["phi"][x]) for x in X.objects}
    psi = {(x, star): inst.value(spec["psi"][x]) for x in X.objects}
    trusted = vcat_mod.VDistributor.trusted
    return vcat_mod.VWeightPair(trusted(E, X, phi), trusted(X, E, psi))


def _parse_ndist(inst: Instance, spec: dict) -> ncat_mod.NormedDistributor:
    _, A = inst.resolve(spec["category"], {"ncat"})
    variance = spec.get("variance", "covariant")
    if variance not in ("covariant", "contravariant"):
        raise InputError(f"unknown variance {variance!r}")
    sets = {
        a: parse_normed_set(inst, {"elements": spec["sets"][a]}) for a in A.objects
    }
    action = {h: dict(spec["action"][h]) for h in A.morphisms}
    try:
        return ncat_mod.NormedDistributor(A, variance == "covariant", sets, action)
    except ValueError as exc:
        raise InputError(f"bad distributor literal: {exc}")


def _parse_certificate(inst: Instance, spec: dict) -> ncat_mod.AdjunctionCertificate:
    _, phi = inst.resolve(spec["phi"], {"ndist"})
    _, psi = inst.resolve(spec["psi"], {"ndist"})
    eps = {}
    for entry in spec["eps"]:
        key = (entry["a"], entry["b"])
        _require_names(key, "field 'eps': 'a' and 'b'")
        bad = next((a for a in key if a not in phi.sets), None)
        if bad is not None:
            raise InputError(f"field 'eps': {bad!r} is not an object of phi's category")
        table: dict = {}
        for y, x, m in entry["map"]:
            if table.setdefault((y, x), m) != m:
                raise InputError(f"field 'eps': entry {[*key]!r} gives {[y, x]!r} two morphisms")
        if eps.setdefault(key, table) != table:
            raise InputError(f"field 'eps' gives {[*key]!r} two entries")
    c, u, v = spec["c"], spec["u"], spec["v"]
    _require_names([c, u, v], "'c', 'u' and 'v'")
    if c not in phi.sets:
        raise InputError(f"field 'c': {c!r} is not an object of phi's category")
    if u not in phi.sets[c]:
        raise InputError(f"field 'u': {u!r} is not an element of phi at {c!r}")
    if c not in psi.sets or v not in psi.sets[c]:
        raise InputError(f"field 'v': {v!r} is not an element of psi at {c!r}")
    return ncat_mod.AdjunctionCertificate(phi, psi, eps, c, u, v)


def _parse_stage_object(inst: Instance, ambient: str, raw):
    if isinstance(raw, str):
        kind = {"nset": "normed_set", "dset": "vcat"}[ambient]
        return inst.resolve(raw, {kind})[1]
    if ambient == "nset":
        return parse_normed_set(inst, raw)
    return parse_vcat(inst, raw)


def _parse_sequence(inst: Instance, spec: dict) -> seq_mod.Sequence:
    ambient = spec.get("ambient")
    if ambient not in seq_mod.AMBIENTS:
        raise InputError(f"unknown ambient {ambient!r}")
    tail = spec.get("tail")
    if not isinstance(tail, dict):
        raise InputError("sequence literal needs a 'tail' object")
    try:
        if ambient == "ncat":
            _, A = inst.resolve(spec["category"], {"ncat"})
            prefix_objects = [p["object"] for p in spec.get("prefix", [])]
            prefix_steps = [p["step"] for p in spec.get("prefix", [])]
            return seq_mod.Sequence(
                ambient, prefix_objects, prefix_steps, tail["object"], tail["endo"],
                category=A,
            )
        prefix_objects = [
            _parse_stage_object(inst, ambient, p["object"])
            for p in spec.get("prefix", [])
        ]
        prefix_steps = [dict(p["step"]) for p in spec.get("prefix", [])]
        tail_object = _parse_stage_object(inst, ambient, tail["object"])
        norm_quantale = None
        if ambient == "dset" and "odot" in spec:
            norm_quantale = parse_quantale(spec["odot"])
        return seq_mod.Sequence(
            ambient, prefix_objects, prefix_steps, tail_object, dict(tail["endo"]),
            norm_quantale=norm_quantale,
        )
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad sequence literal: {exc}")


def _parse_metric_sequence(inst: Instance, spec: dict) -> seq_mod.MetricSequence:
    _, X = inst.resolve(spec["space"], {"vcat"})
    tail = spec.get("tail", {})
    points = tail.get("points")
    if not points:
        raise InputError("metric sequence needs tail points")
    if tail.get("period", len(points)) != len(points):
        raise InputError("tail period must equal the number of tail points")
    try:
        return seq_mod.MetricSequence(X, spec.get("prefix_points", []), points)
    except ValueError as exc:
        raise InputError(f"bad metric sequence: {exc}")


_PARSERS = {
    "normed_set": parse_normed_set,
    "vcat": parse_vcat,
    "ncat": parse_ncat,
    "vdist": _parse_vdist,
    "weight_pair": _parse_weight_pair,
    "ndist": _parse_ndist,
    "certificate": _parse_certificate,
    "sequence": _parse_sequence,
    "metric_sequence": _parse_metric_sequence,
}


def parse_instance(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InputError("the instance file must be a JSON object")
    if "quantale" not in data:
        raise InputError("missing 'quantale'")
    quantale = parse_quantale(data["quantale"])
    inst = Instance(data["quantale"], quantale, {}, [])
    objects = data.get("objects", {})
    if not isinstance(objects, dict):
        raise InputError("'objects' must be a JSON object")
    for name, spec in objects.items():
        if not isinstance(spec, dict):
            raise InputError(f"object {name!r} must be a JSON object")
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in _PARSERS:
            raise InputError(f"object {name!r} has unknown kind {kind!r}")
        try:
            inst.objects[name] = (kind, _PARSERS[kind](inst, spec))
        except KeyError as missing:
            raise InputError(f"object {name!r}: missing field {missing}")
        except InputError as exc:
            raise InputError(f"object {name!r}: {exc}")
        except (TypeError, AttributeError, IndexError, ValueError) as exc:
            # a field of the wrong JSON type somewhere inside the literal
            raise InputError(f"object {name!r}: malformed literal ({exc})")
    tasks = data.get("tasks", [])
    if not isinstance(tasks, list):
        raise InputError("'tasks' must be a list")
    bad = next((i for i, task in enumerate(tasks) if not isinstance(task, dict)), None)
    if bad is not None:
        raise InputError(f"task {bad} must be a JSON object")
    inst.tasks = tasks
    inst.numerals.clear()
    return inst


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text (byte {exc.start})")
    except ValueError:  # json reads an integer literal with int, which may refuse it
        raise InputError(
            f"numeral too long: an integer literal has more than {int_digit_limit()} digits"
        )
    return parse_instance(data)


# ---------------------------------------------------------------------------
# apex rendering


def _ser_normed_set(A: NormedSet) -> dict:
    q = A.quantale
    return {"elements": [{"id": e, "norm": q.format(A.norm(e))} for e in A]}


def _ser_vcat(X: VCategory) -> dict:
    q = X.quantale
    return {
        "objects": list(X.objects),
        "dist": [[q.format(X.d(a, b)) for b in X.objects] for a in X.objects],
    }


# ---------------------------------------------------------------------------
# task execution


def _report_details(q: Quantale, report: Report) -> list:
    return [
        {"check": c.name, "ok": c.ok, "witness": _jsonable(q, c.witness)}
        for c in report.checks
    ]


def _checks_outcome(q: Quantale, report: Report) -> dict:
    return {
        "verdict": "pass" if report.ok else "fail",
        "details": {"checks": _report_details(q, report)},
    }


def _jsonable(q: Quantale, value) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(q, v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(q, v) for k, v in value.items()}
    try:
        return q.format(value)
    except Exception:
        return repr(value)


def _task_validate(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    kind, value = inst.resolve(task["target"])
    q = inst.quantale
    if kind == "vcat":
        report = value.report
    elif kind == "ncat":
        report = value.ncat_report
    elif kind == "vdist":
        report = vcat_mod.validate_vdist(value)
    elif kind == "weight_pair":
        report = Report()
        for label, d in (("phi", value.phi), ("psi", value.psi)):
            sub = vcat_mod.validate_vdist(d)
            report.add(f"{label}-bimodule", sub.ok, sub.describe() if not sub.ok else None)
    elif kind == "ndist":
        report = ncat_mod.validate_ndist(value)
    elif kind == "normed_set":
        report = Report()
        report.add("norm-total", True)
    elif kind == "sequence":
        report = seq_mod.validate_sequence(value)
    else:
        raise InputError(f"validate does not apply to kind {kind!r}")
    return _checks_outcome(q, report)


def _task_compose(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    _, outer = inst.resolve(task["outer"], {"vdist"})
    _, inner = inst.resolve(task["inner"], {"vdist"})
    result = vcat_mod.compose_vdist(outer, inner)
    q = inst.quantale
    values = [
        [q.format(result.at(x, z)) for z in result.target.objects]
        for x in result.source.objects
    ]
    return {"verdict": "info", "details": {"values": values}}


def _task_adjoint(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    q = inst.quantale
    if "pair" in task:
        _, wp = inst.resolve(task["pair"], {"weight_pair"})
        return _checks_outcome(q, vcat_mod.adjoint_report(wp.phi, wp.psi))
    _, cert = inst.resolve(task["target"], {"certificate"})
    try:
        report = ncat_mod.check_adjunction_cert(cert, normed=task.get("normed", False))
    except PreconditionError as exc:
        return _precondition_failure(q, "not a category", exc.value)
    return _checks_outcome(q, report)


def _task_isbell(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    q = inst.quantale
    kind, value = inst.resolve(task["target"], {"weight_pair", "ndist"})
    if kind == "weight_pair":
        conj = vcat_mod.isbell_conjugate_weight(value.phi)
        vec = vcat_mod.coweight_vector(conj)
        return {
            "verdict": "info",
            "details": {"conjugate": {x: q.format(v) for x, v in vec.items()}},
        }
    conj = ncat_mod.isbell_conjugate_ndist(value, budget)
    sizes = {a: len(conj.set_at(a)) for a in conj.category.objects}
    norms = {
        a: [q.format(conj.set_at(a).norm(e)) for e in conj.set_at(a)]
        for a in conj.category.objects
    }
    return {"verdict": "info", "details": {"sizes": sizes, "norms": norms}}


def _task_representable(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    q = inst.quantale
    _, wp = inst.resolve(task["pair"], {"weight_pair"})
    try:
        witness = vcat_mod.is_representable(wp.phi, wp.psi)
    except PreconditionError as exc:
        return _precondition_failure(q, "pair is not adjoint", exc.value)
    return {
        "verdict": "pass" if witness is not None else "fail",
        "details": {"witness": witness},
    }


def _format_weight_vec(q: Quantale, vec: dict) -> dict:
    return {str(x): q.format(v) for x, v in vec.items()}


def _precondition_failure(q: Quantale, error: str, report: Report) -> dict:
    return {
        "verdict": "fail",
        "details": {"error": error, "evidence": _report_details(q, report)},
    }


def _task_lawvere(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    q = inst.quantale
    kind, value = inst.resolve(task["target"], {"vcat", "ncat"})
    error, decide = (
        ("not a V-category", vcat_mod.lawvere_complete_vcat)
        if kind == "vcat"
        else ("not a normed category", ncat_mod.is_lawvere_complete_ncat)
    )
    try:
        verdict = decide(value, budget)
    except PreconditionError as exc:
        return _precondition_failure(q, error, exc.value)
    if kind == "vcat":
        if verdict.complete:
            witness = [
                {"weight": _format_weight_vec(q, vec), "witness": obj}
                for vec, obj in verdict.witness
            ]
        else:
            phi_vec, psi_vec = verdict.witness
            witness = {
                "phi": _format_weight_vec(q, phi_vec),
                "psi": _format_weight_vec(q, psi_vec),
            }
        return {
            "verdict": "pass" if verdict.complete else "fail",
            "details": {"witness": witness},
        }
    details = {
        "clause": verdict.clause,
        "certificate": _jsonable(q, verdict.certificate),
    }
    return {"verdict": "pass" if verdict.complete else "fail", "details": details}


def _task_split(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    _, A = inst.resolve(task["target"], {"ncat"})
    if not A.report.ok:
        return _precondition_failure(inst.quantale, "not a category", A.report)
    try:
        ok, witness = (
            A.strict_split if task.get("strict") else ncat_mod.split_idempotents_check(A)
        )
    except ConstructionError as exc:
        raise PreconditionError(f"the strict part needs a normed category: {exc}")
    return {"verdict": "pass" if ok else "fail", "details": {"witness": witness}}


def _task_cauchy(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    q = inst.quantale
    kind, value = inst.resolve(task["target"], {"sequence", "metric_sequence"})
    if kind == "sequence":
        v = seq_mod.cauchy_value(value)
        ok = value.norm_quantale.leq(value.norm_quantale.unit, v)
        return {
            "verdict": "pass" if ok else "fail",
            "details": {"value": value.norm_quantale.format(v)},
        }
    v = seq_mod.forward_cauchy_value(value)
    ok = q.leq(q.unit, v)
    return {"verdict": "pass" if ok else "fail", "details": {"value": q.format(v)}}


def _task_colimit(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    q = inst.quantale
    _, s = inst.resolve(task["target"], {"sequence"})
    try:
        if s.kind == "nset":
            apex, gamma = seq_mod.colimit_nset(s)
            apex_out = _ser_normed_set(apex)
        elif s.kind == "dset":
            if task.get("vlip"):
                apex, gamma = seq_mod.colimit_vlip(s)
            else:
                apex, gamma = seq_mod.colimit_dset(s)
            apex_out = _ser_vcat(apex)
        else:
            raise InputError("colimit construction applies to set-like ambients")
    except PreconditionError as exc:
        return {
            "verdict": "fail",
            "details": {
                "rejected": str(exc),
                "value": s.norm_quantale.format(exc.value),
            },
        }
    report = seq_mod.colimit_report(s, gamma, probe)
    return {
        "verdict": "pass" if report.ok else "fail",
        "details": {
            "apex": apex_out,
            "checks": _report_details(s.norm_quantale, report),
            "probe_bound": probe,
        },
    }


def _task_forward_limit(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    _, ms = inst.resolve(task["target"], {"metric_sequence"})
    point = task.get("point")
    if point is None:
        raise InputError("forward-limit needs a candidate 'point'")
    ok = seq_mod.forward_limit_metric(ms, point)
    return {"verdict": "pass" if ok else "fail", "details": {"point": point}}


def _task_lipnorm(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    _, X = inst.resolve(task["source"], {"vcat"})
    _, Y = inst.resolve(task["target"], {"vcat"})
    mapping = task.get("map")
    mode = task.get("mode", "multiplicative")
    if not isinstance(mapping, dict):
        raise InputError("lipnorm needs a 'map' object")
    for x in X.objects:
        if x not in mapping:
            raise InputError(f"'map' has no image for source point {x!r}")
    points = set(X.objects)
    for x in mapping:
        if x not in points:
            raise InputError(f"'map' names {x!r}, which is not a source point")
    log_base = task.get("log_base", 2)
    if type(log_base) is not int or log_base < 2:
        raise InputError(f"lipnorm 'log_base' must be an integer >= 2, got {log_base!r}")
    value = seq_mod.lipschitz_norm(
        X, Y, mapping, mode,
        q_odot=inst.quantale if mode == "odot" else None,
        log_base=log_base,
    )
    if isinstance(value, seq_mod.LogNorm):
        exponent = value.exponent()
        detail = {
            "mode": mode,
            "zero": value.is_zero(),
            "infinite": value.is_infinite(),
            "ratio": "inf" if value.is_infinite() else str(value.ratio),
            "base": value.base,
            "exponent": None if exponent is None else str(exponent),
        }
    else:
        q_for = inst.quantale if mode == "odot" else seq_mod.lawvere_times()
        detail = {"mode": mode, "value": q_for.format(value)}
    return {"verdict": "info", "details": detail}


_TASKS = {
    "validate": _task_validate,
    "compose": _task_compose,
    "adjoint": _task_adjoint,
    "isbell": _task_isbell,
    "representable": _task_representable,
    "lawvere": _task_lawvere,
    "split": _task_split,
    "cauchy": _task_cauchy,
    "colimit": _task_colimit,
    "forward-limit": _task_forward_limit,
    "lipnorm": _task_lipnorm,
}


class _MissingField(KeyError):
    """A task lacks a field its op reads."""


class _TaskFields(dict):
    """A task's fields; reading one the task lacks raises ``_MissingField``."""

    def __missing__(self, key):
        raise _MissingField(key)


def run_instance(inst: Instance, budget: int, probe: int) -> dict:
    results = []
    for i, task in enumerate(inst.tasks):
        op = task.get("op")
        if not isinstance(op, str) or op not in _TASKS:
            raise InputError(f"task {i}: unknown op {op!r}")
        try:
            outcome = _TASKS[op](inst, _TaskFields(task), budget, probe)
        except _MissingField as missing:
            raise InputError(f"task {i} ({op}): missing field {missing}")
        except PreconditionError as exc:
            outcome = {
                "verdict": "fail",
                "details": {"precondition": str(exc)},
            }
        except (KeyError, ValueError) as exc:  # an InputError is a ValueError
            raise InputError(f"task {i} ({op}): {exc}")
        entry = {"index": i, "op": op}
        for key in ("target", "pair", "outer", "inner", "source", "point", "mode"):
            if key in task:
                entry[key] = echoed = task[key]
                if type(echoed) is not str:
                    try:  # the report writer takes every JSON value but a float
                        _json(echoed, "\n")
                    except TypeError:
                        raise InputError(
                            f"task {i} ({op}): field {key!r}: floats are not exact values"
                        )
        entry.update(outcome)
        results.append(entry)
    all_pass = all(r["verdict"] != "fail" for r in results)
    return {
        "budget": budget,
        "probe_bound": probe,
        "tasks": results,
        "all_pass": all_pass,
    }


def machine_report(report: dict) -> str:
    """The ``--json`` text of ``report``: the bytes of ``json.dumps(report,
    indent=2, sort_keys=True)``, without the pure-Python encoder that
    ``json.dumps`` runs whenever ``indent`` is set.  A report holds dicts
    with ``str`` keys, lists, tuples, strings, ints, booleans and None; any
    other value (a float, a set, a key that is not a string) raises
    ``TypeError``."""
    return _json(report, "\n")


_quoted = json.encoder.encode_basestring_ascii


def _json(value, newline: str) -> str:
    """``value`` as JSON, its nested lines indented two spaces past ``newline``."""
    if isinstance(value, str):
        return _quoted(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        # _quoted raises TypeError on a key that is not a string
        items = [f"{inner}{_quoted(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return "{" + ",".join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json(item, inner) for item in value]
        return "[" + ",".join(items) + newline + "]" if items else "[]"
    raise TypeError(f"not a report value: {type(value).__name__}")


def human_report(report: dict, elapsed: float) -> str:
    lines = []
    for entry in report["tasks"]:
        label = entry.get("target") or entry.get("pair") or entry.get("source") or ""
        verdict = entry["verdict"].upper()
        lines.append(f"[{entry['index']}] {entry['op']} {label}: {verdict}")
        details = entry.get("details", {})
        for key, value in details.items():
            if key == "checks":
                for check in value:
                    mark = "ok" if check["ok"] else "FAIL"
                    suffix = "" if check["witness"] is None else f" ({check['witness']})"
                    lines.append(f"      {check['check']}: {mark}{suffix}")
            else:
                lines.append(f"      {key}: {value}")
    lines.append(
        f"result: {'all tasks passed' if report['all_pass'] else 'failures'} "
        f"(budget {report['budget']}, probe bound {report['probe_bound']}, "
        f"{elapsed:.3f}s)"
    )
    return "\n".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to ``main`` and shared
    by later calls: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quantcat",
        description="Run validations, decisions, and constructions from an instance file.",
    )
    parser.add_argument("file", help="JSON instance file")
    parser.add_argument("--json", action="store_true", help="emit the machine report")
    parser.add_argument(
        "--budget", type=int, default=None,
        help="enumeration budget (default from QUANTCAT_BUDGET or 4096)",
    )
    parser.add_argument(
        "--probe", type=int, default=3, help="probe object size bound for (C2b)"
    )
    return parser


def _env_budget() -> int:
    """``default_budget``, with a malformed variable as an input error."""
    try:
        return default_budget()
    except ValueError as exc:
        raise InputError(str(exc))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        budget = args.budget if args.budget is not None else _env_budget()
        if budget <= 0:
            raise InputError("budget must be positive")
        if args.probe <= 0:
            raise InputError("probe bound must be positive")
        started = time.perf_counter()
        inst = load_instance(args.file)
        report = run_instance(inst, budget, args.probe)
        elapsed = time.perf_counter() - started
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:  # its text starts "budget exceeded: "
        print(exc, file=sys.stderr)
        return 3
    if args.json:
        print(machine_report(report))
    else:
        print(human_report(report, elapsed))
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
