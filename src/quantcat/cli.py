"""File-driven front end.

An instance file is strict JSON with three top-level fields: a quantale
(built-in name or finite table), a dictionary of named objects, and a task
list.  Quantale elements are referenced by name in finite carriers; the
extended-rational carriers accept integers and strings like ``"1/2"`` or
``"inf"`` (floats are rejected everywhere, and so is exponent notation).
``KINDS`` and ``OPS`` state the fields of every object kind and task op,
and each object and task is checked against them before it is read.

Exit codes: 0 every verdict-bearing task passed, 1 some verdict failed,
2 input error (an ``InputError``, located by its JSON path), 3 enumeration
budget exceeded, 4 internal error (any other exception: a program fault).
The ``--json`` machine report is byte-identical across reruns; wall-clock
timing appears only in the human-readable output.

A run loads ``normed_set``, ``ncat`` and ``seqlim`` only when it first uses
them: each is registered by ``common.lazily`` and runs its code on the first
access to one of its attributes.  ``common``, ``quantale`` and ``vcat``,
which nearly every run needs, are imported as usual.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from itertools import chain

from . import vcat as vcat_mod
from .common import (
    AMBIENTS,
    DSET,
    NCAT,
    NSET,
    BudgetExceeded,
    ConstructionError,
    InputError,
    PreconditionError,
    Report,
    default_budget,
    int_digit_limit,
    lazily,
)
from .quantale import (
    FiniteQuantale,
    Quantale,
    builtin_quantale,
    lawvere_times,
    validate_quantale,
)
from .vcat import VCategory


nset_mod = lazily("normed_set")
ncat_mod = lazily("ncat")
seq_mod = lazily("seqlim")


# ---------------------------------------------------------------------------
# the instance-file format
#
# A field type is an atom below, a string of the kinds (separated by spaces)
# an earlier object it names may have, a set of the strings it may be, [t] a
# list of t, (t, ..., t) a list of that many t, {NAME: t} a map to t, or a
# record {"field": t}, where a field ending in "?" is optional and fields not
# listed are ignored.  An atom with no JSON types is checked by its reader.


class _Atom:
    def __init__(self, types=None, expected=None):
        self.types, self.expected = types, expected


NAME = _Atom(frozenset((str, int)), "a name (a string or an integer)")
INT = _Atom(frozenset((int,)), "an integer")
VALUE = _Atom()  # an element name; a numeral too on the extended rationals
FLAG = _Atom()  # any JSON value, read for its truth
QUANTALE = _Atom()  # a built-in quantale's name or an inline ``TABLE``
STAGE, STEP = _Atom(), _Atom()  # a sequence's stage object and step, by its ambient

_ELEMENTS = [{"id": NAME, "norm": VALUE}]

KINDS = {
    "normed_set": {"elements": _ELEMENTS},
    "vcat": {"objects": [NAME], "dist": [[VALUE]]},
    "vdist": {"source": "vcat", "target": "vcat", "values": [[VALUE]]},
    "weight_pair": {"space": "vcat", "phi": {NAME: VALUE}, "psi": {NAME: VALUE}},
    "ncat": {"objects": [NAME], "identities": {NAME: NAME}, "compose": [(NAME, NAME, NAME)],
             "morphisms": [{"id": NAME, "dom": NAME, "cod": NAME, "norm": VALUE}]},
    "ndist": {"category": "ncat", "variance?": {"covariant", "contravariant"},
              "sets": {NAME: _ELEMENTS}, "action": {NAME: {NAME: NAME}}},
    "certificate": {"phi": "ndist", "psi": "ndist", "c": NAME, "u": NAME, "v": NAME,
                    "eps": [{"a": NAME, "b": NAME, "map": [(NAME, NAME, NAME)]}]},
    "sequence": {"ambient": set(AMBIENTS), "category?": "ncat", "odot?": QUANTALE,
                 "prefix?": [{"object": STAGE, "step": STEP}],
                 "tail": {"object": STAGE, "endo": STEP}},
    "metric_sequence": {"space": "vcat", "prefix_points?": [NAME],
                        "tail": {"points": [NAME], "period?": INT}},
}

OPS = {
    "validate": {"target": "vcat ncat vdist weight_pair ndist normed_set sequence"},
    "compose": {"outer": "vdist", "inner": "vdist"},
    "adjoint": {"pair?": "weight_pair", "target?": "certificate", "normed?": FLAG},
    "isbell": {"target": "weight_pair ndist"},
    "representable": {"pair": "weight_pair"},
    "lawvere": {"target": "vcat ncat"},
    "split": {"target": "ncat", "strict?": FLAG},
    "cauchy": {"target": "sequence metric_sequence"},
    "colimit": {"target": "sequence", "vlip?": FLAG},
    "forward-limit": {"target": "metric_sequence", "point": NAME},
    "lipnorm": {"source": "vcat", "target": "vcat", "map": {NAME: NAME},
                "mode?": {"multiplicative", "log", "odot"}, "log_base?": INT},
}

# an inline quantale table, and the top level (an object or a task is
# checked as it is read, against its kind's or op's fields)
TABLE = {"elements": [NAME], "leq": [[FLAG]], "tensor": [[NAME]], "unit": NAME}
_TOP = {"quantale": QUANTALE, "objects?": {NAME: FLAG}, "tasks?": [FLAG]}


def _got(node) -> str:
    """A JSON value as a message names it: a number that is not an integer,
    a boolean or null by its text, anything else by its type."""
    if node is None or type(node) in (bool, float):
        return json.dumps(node)
    return {str: "a string", int: "an integer", list: "a list"}.get(type(node), "an object")


def _check(t, node, inst=None, read=False) -> None:
    """Raise an ``InputError``, located below ``node``, unless it has field
    type ``t`` (references resolve in ``inst``); ``read`` reads each value
    cell too, which locates a value that a parser's one pass rejected."""
    kind = type(t)
    if kind is dict and NAME not in t:
        if type(node) is not dict:
            raise InputError(f"expected an object, got {_got(node)}")
        for key, u in t.items():
            field = key.rstrip("?")
            if field not in node:
                if field == key:
                    raise InputError("missing field", field)
            elif read or type(u) is not _Atom or u.types and type(node[field]) not in u.types:
                try:
                    _check(u, node[field], inst, read)
                except InputError as exc:
                    raise exc.at(field)
    elif kind is str:
        if type(node) is not str:
            raise InputError(f"a reference must be an object name, got {_got(node)}")
        if node not in inst.objects:
            raise InputError(f"unresolved reference {node!r}")
        if inst.objects[node][0] not in t.split():
            kinds = " or ".join(t.split())
            raise InputError(f"{node!r} has kind {inst.objects[node][0]}, expected {kinds}")
    elif kind is set:
        if type(node) is not str or node not in t:
            got = repr(node) if type(node) is str else _got(node)
            raise InputError(f"expected one of {', '.join(map(repr, sorted(t)))}, got {got}")
    elif kind is _Atom:
        if read and t is VALUE:
            inst.value(node)
        elif t.types is not None and type(node) not in t.types:
            raise InputError(f"expected {t.expected}, got {_got(node)}")
    else:
        item, json_type = (t[NAME], dict) if kind is dict else (t[0], list)
        if type(node) is not json_type or kind is tuple and len(node) != len(t):
            what = {dict: "an object", tuple: f"a list of {len(t)} items"}.get(kind, "a list")
            got = len(node) if type(node) is list and kind is tuple else _got(node)
            raise InputError(f"expected {what}, got {got}")
        if read or not _all(item, node.values() if kind is dict else node):
            for key, x in node.items() if kind is dict else enumerate(node):
                try:
                    _check(item, x, inst, read)
                except InputError as exc:
                    raise exc.at(key)


def _all(t, items) -> bool:
    """Whether each of ``items`` has field type ``t``, tested at C speed a
    level at a time (False: check one by one, as references and choices)."""
    if type(t) is _Atom:
        if t is NAME:
            try:
                "".join(items)  # the fastest test, while every name is a string
                return True
            except TypeError:
                pass
        return t.types is None or t.types.issuperset(map(type, items))
    if type(t) in (str, set):
        return False
    if type(t) is dict and NAME not in t:  # records, each field a column
        if not {dict} >= set(map(type, items)):
            return False
        try:
            for key, u in t.items():
                if key[-1] == "?" or not _all(u, [item[key] for item in items]):
                    return False
        except KeyError:  # a missing field
            return False
        return True
    item, json_type = (t[NAME], dict) if type(t) is dict else (t[0], list)
    if not {json_type} >= set(map(type, items)):
        return False
    if type(t) is tuple and not {len(t)} >= set(map(len, items)):
        return False
    if getattr(item, "types", 0) is None:
        return True
    cells = chain.from_iterable(map(dict.values, items) if json_type is dict else items)
    return _all(item, list(cells))


def _tag(node, field: str, table: dict) -> str:
    """The ``field`` of the JSON object ``node``, a key of ``table``."""
    tag = node.get(field) if type(node) is dict else None
    if type(tag) is not str or tag not in table:
        _check({field: set(table)}, node)
    return tag


# ---------------------------------------------------------------------------
# parsing: each parser reads a literal that passed its kind's fields


def parse_quantale(spec) -> Quantale:
    if type(spec) is str:
        return builtin_quantale(spec)
    if type(spec) is not dict:
        raise InputError(f"expected a built-in quantale name or a table, got {_got(spec)}")
    _check(TABLE, spec)
    try:
        q = FiniteQuantale(spec["elements"], spec["leq"], spec["tensor"], spec["unit"])
    except InputError as exc:
        raise InputError(f"bad quantale table: {exc}") from None
    report = validate_quantale(q)
    if not report.ok:
        failed = "; ".join(c.describe() for c in report.failures())
        raise InputError(f"quantale table is not a quantale: {failed}")
    return q


class Instance:
    """A parsed instance file; ``inst[name]`` is the object a checked
    reference names.  ``value`` makes each file-format value canonical, and
    converts each distinct numeral string once: the memo ``numerals`` lives
    for one parse, keyed on ``str`` values only (JSON ``true``, ``1`` and
    ``1.0`` are parsed each time, so they never meet ``"1"``), and an error
    is raised again rather than remembered.  ``_matrix`` fills the same memo
    from a matrix's distinct strings and reads its rows from it without
    calling ``value``."""

    def __init__(self, quantale_spec, quantale, objects, tasks):
        self.quantale_spec, self.quantale, self.tasks = quantale_spec, quantale, tasks
        self.objects = objects  # name -> (kind, parsed value)
        self.numerals: dict = {}

    def value(self, raw):
        """``raw`` parsed in this instance's quantale, memoised on strings."""
        if type(raw) is not str:
            return self.quantale.parse(raw)
        try:
            return self.numerals[raw]
        except KeyError:
            value = self.numerals[raw] = self.quantale.parse(raw)
            return value

    def __getitem__(self, name):
        return self.objects[name][1]


def _literal(inst: Instance, kind: str, spec: dict):
    """The object of a ``kind`` literal that passed the kind's fields."""
    _check(KINDS[kind], spec, inst)
    try:
        return _PARSERS[kind](inst, spec)
    except InputError as exc:
        if exc.path is None:  # a value: the parsers locate everything else
            _check(KINDS[kind], spec, inst, read=True)
        raise


def _normed_set(inst: Instance, elements: list) -> nset_mod.NormedSet:
    value = inst.value
    norms = {e["id"]: value(e["norm"]) for e in elements}
    return nset_mod.NormedSet.trusted(inst.quantale, norms, [e["id"] for e in elements])


def _matrix(inst: Instance, spec: dict, field: str, n: int, m: int) -> tuple:
    """The rows of the n x m matrix ``field``, each value made canonical.
    On the extended rationals, when every cell is a string, each distinct
    string not yet in the instance's memo is converted once, in set order,
    and each row is read through the memo at C speed; any other matrix is
    read value by value.  A finite carrier's value is one dict read, and its
    small matrices would pay more for the distinct strings than they save.
    ``_literal`` locates a value that does not convert by reading the
    literal again in row-major order, so the first bad cell is reported."""
    rows, q = spec[field], inst.quantale
    if len(rows) != n:
        raise InputError(f"must be a {n}x{m} matrix, got {len(rows)} rows", field)
    if n and set(map(len, rows)) != {m}:
        i = next(i for i, row in enumerate(rows) if len(row) != m)
        problem = f"a row of the {n}x{m} matrix must have {m} values, got {len(rows[i])}"
        raise InputError(problem, field, i)
    if not q.is_finite:
        try:
            distinct = set(chain.from_iterable(rows))
        except TypeError:  # a list or object cell
            distinct = set()
        if distinct and {str} >= set(map(type, distinct)):
            memo = inst.numerals
            for raw in distinct.difference(memo):
                memo[raw] = q.parse(raw)
            return tuple([tuple(map(memo.__getitem__, row)) for row in rows])
    return tuple([tuple(map(inst.value, row)) for row in rows])


def _name_map(spec: dict, field: str, keys, what: str, owner: str, images=None) -> dict:
    """``spec[field]``, a JSON object keyed by name text, as a map on
    ``keys``, the distinct names of ``owner``: each is read at its key text,
    ``"7"`` for the name 7.  Two names with one text, a name with no key, a
    key naming none of them and, when ``images`` is given, a value not in
    it are each an error at ``field``."""
    given = spec[field]
    try:
        "".join(keys)  # every name a string, so each is its own text
        texts = keys
    except TypeError:
        texts = list(map(str, keys))
        first = {}
        for name, text in zip(keys, texts):  # a repeated name is its owner's error
            if first.setdefault(text, name) != name:
                problem = f"key {text!r} would name both {first[text]!r} and {name!r}"
                raise InputError(problem, field)
    try:
        read = {k: given[text] for k, text in zip(keys, texts)}
    except KeyError:
        missing = next(k for k, text in zip(keys, texts) if text not in given)
        raise InputError(f"no {what} {missing!r}", field) from None
    if len(given) != len(read):
        known = set(texts)
        stray = next(text for text in given if text not in known)
        raise InputError(f"names {stray!r}, which is not {owner}", field, stray)
    if images is not None and not all(map(images.__contains__, read.values())):
        bad = next(k for k, y in read.items() if y not in images)
        raise InputError(f"image of {bad!r} outside the target", field, str(bad))
    return read


def parse_vcat(inst: Instance, spec: dict) -> VCategory:
    n = len(spec["objects"])
    rows = _matrix(inst, spec, "dist", n, n)
    return VCategory.trusted(inst.quantale, spec["objects"], rows)


def parse_ncat(inst: Instance, spec: dict) -> ncat_mod.NormedCategory:
    morphisms, table, value = spec["morphisms"], {}, inst.value
    for i, (g, f, gf) in enumerate(spec["compose"]):
        if table.setdefault((g, f), gf) != gf:
            raise InputError(f"gives {[g, f]!r} two composites", "compose", i)
    ids, norms = [m["id"] for m in morphisms], {m["id"]: value(m["norm"]) for m in morphisms}
    dom, cod = ({m["id"]: m[end] for m in morphisms} for end in ("dom", "cod"))
    objects = spec["objects"]
    identities = _name_map(spec, "identities", objects, "identity for object", "an object")
    return ncat_mod.NormedCategory(inst.quantale, objects, ids, dom, cod, identities, table, norms)


def _parse_vdist(inst: Instance, spec: dict) -> vcat_mod.VDistributor:
    source, target = inst[spec["source"]], inst[spec["target"]]
    rows = _matrix(inst, spec, "values", len(source.objects), len(target.objects))
    return vcat_mod.VDistributor.trusted(source, target, rows)


def _parse_weight_pair(inst: Instance, spec: dict) -> vcat_mod.VWeightPair:
    X, trusted = inst[spec["space"]], vcat_mod.VDistributor.trusted
    E, owner = vcat_mod.unit_vcat(inst.quantale), f"an object of {spec['space']!r}"
    phi, psi = (
        map(inst.value, _name_map(spec, field, X.objects, "value for object", owner).values())
        for field in ("phi", "psi")
    )
    # phi is a 1 x n row, psi an n x 1 column
    return vcat_mod.VWeightPair(
        trusted(E, X, (tuple(phi),)), trusted(X, E, tuple((v,) for v in psi))
    )


def _parse_ndist(inst: Instance, spec: dict) -> ncat_mod.NormedDistributor:
    A, name = inst[spec["category"]], spec["category"]
    sets = {}
    given = _name_map(spec, "sets", A.objects, "set for object", f"an object of {name!r}")
    for a, elements in given.items():
        try:
            sets[a] = _normed_set(inst, elements)
        except InputError as exc:  # the set at a stands for a normed set's elements
            if exc.path:
                exc.path[:1] = ["sets", str(a)]
            raise
    _name_map(spec, "action", A.morphisms, "map for morphism", f"a morphism of {name!r}")
    covariant, action = spec.get("variance", "covariant") == "covariant", {}
    for h in A.morphisms:
        a, b = ncat_mod.action_ends(A, covariant, h)
        try:
            action[h] = _name_map(spec["action"], str(h), sets[a].elements, "image for element",
                                  f"an element of the set at {a!r}", sets[b].norms)
        except InputError as exc:
            raise exc.at("action")
    return ncat_mod.NormedDistributor(A, covariant, sets, action)


def _parse_certificate(inst: Instance, spec: dict) -> ncat_mod.AdjunctionCertificate:
    phi, psi = inst[spec["phi"]], inst[spec["psi"]]
    eps = {}
    for i, entry in enumerate(spec["eps"]):
        for end in ("a", "b"):
            if entry[end] not in phi.sets:
                problem = f"{entry[end]!r} is not an object of phi's category"
                raise InputError(problem, "eps", i, end)
        table: dict = {}
        for j, (y, x, m) in enumerate(entry["map"]):
            if table.setdefault((y, x), m) != m:
                raise InputError(f"gives {[y, x]!r} two morphisms", "eps", i, "map", j)
        key = (entry["a"], entry["b"])
        if eps.setdefault(key, table) != table:
            raise InputError(f"gives {[*key]!r} two entries", "eps", i)
    c, u, v = spec["c"], spec["u"], spec["v"]
    if c not in phi.sets:
        raise InputError(f"{c!r} is not an object of phi's category", "c")
    if u not in phi.sets[c]:
        raise InputError(f"{u!r} is not an element of phi at {c!r}", "u")
    if c not in psi.sets or v not in psi.sets[c]:
        raise InputError(f"{v!r} is not an element of psi at {c!r}", "v")
    return ncat_mod.AdjunctionCertificate(phi, psi, eps, c, u, v)


def _parse_sequence(inst: Instance, spec: dict) -> seq_mod.Sequence:
    """A sequence.  Its stages and steps are an object and a morphism of its
    category, or else normed_set or vcat objects, named or literal, and maps."""
    ambient, tail, prefix = spec["ambient"], spec["tail"], spec.get("prefix", [])
    kind = {NSET: "normed_set", DSET: "vcat"}.get(ambient)
    stages = [(("prefix", i), "step", p) for i, p in enumerate(prefix)]
    stages.append((("tail",), "endo", tail))
    objects = []
    for where, field, stage in stages:
        raw = stage["object"]
        try:
            if kind and type(raw) is dict:
                raw = _literal(inst, kind, raw)
            else:
                _check(kind or NAME, raw, inst)
                raw = inst[raw] if kind else raw
        except InputError as exc:
            raise exc.at(*where, "object")
        try:
            _check({NAME: NAME} if kind else NAME, stage[field])
        except InputError as exc:
            raise exc.at(*where, field)
        objects.append(raw)
    steps = [stage[field] for _, field, stage in stages]
    for n, (where, field, stage) in enumerate(stages if kind else ()):
        X, Y = objects[n], objects[min(n + 1, len(objects) - 1)]  # into the next stage
        keys, images = (X.objects, Y.index) if kind == "vcat" else (X.elements, Y.norms)
        try:
            steps[n] = _name_map(stage, field, keys, "image for element",
                                 "an element of its stage", images)
        except InputError as exc:
            raise exc.at(*where)
    shape = (ambient, objects[:-1], steps[:-1], objects[-1], steps[-1])
    if not kind:
        if "category" not in spec:
            raise InputError("missing field", "category")
        return seq_mod.Sequence(*shape, category=inst[spec["category"]])
    odot = None
    if ambient == DSET and "odot" in spec:
        try:
            odot = parse_quantale(spec["odot"])
        except InputError as exc:
            raise exc.at("odot")
    return seq_mod.Sequence(*shape, norm_quantale=odot)


def _parse_metric_sequence(inst: Instance, spec: dict) -> seq_mod.MetricSequence:
    X, prefix, points = inst[spec["space"]], spec.get("prefix_points", []), spec["tail"]["points"]
    # an empty cycle is the constructor's error, before the period's
    if points and spec["tail"].get("period", len(points)) != len(points):
        raise InputError(f"must equal the number of tail points, {len(points)}", "tail", "period")
    return seq_mod.MetricSequence(X, prefix, points)


_PARSERS = {
    "normed_set": lambda inst, spec: _normed_set(inst, spec["elements"]),
    "vcat": parse_vcat,
    "ncat": parse_ncat,
    "vdist": _parse_vdist,
    "weight_pair": _parse_weight_pair,
    "ndist": _parse_ndist,
    "certificate": _parse_certificate,
    "sequence": _parse_sequence,
    "metric_sequence": _parse_metric_sequence,
}


def parse_instance(data) -> Instance:
    try:
        _check(_TOP, data)
    except InputError as exc:
        raise exc.at()
    try:
        quantale = parse_quantale(data["quantale"])
    except InputError as exc:
        raise exc.at("quantale")
    inst = Instance(data["quantale"], quantale, {}, data.get("tasks", []))
    for name, spec in data.get("objects", {}).items():
        try:
            kind = _tag(spec, "kind", KINDS)
            inst.objects[name] = (kind, _literal(inst, kind, spec))
        except InputError as exc:
            raise exc.at("objects", name)
    for i, task in enumerate(inst.tasks):
        op = None
        try:
            op = _tag(task, "op", OPS)
            _check(OPS[op], task, inst)
        except InputError as exc:
            raise exc.at("tasks", i, op=op)
    inst.numerals.clear()
    return inst


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text (byte {exc.start})")
    except ValueError:  # json reads an integer literal with int, which may refuse it
        limit = int_digit_limit()
        raise InputError(f"numeral too long: an integer literal has more than {limit} digits")
    return parse_instance(data)


# ---------------------------------------------------------------------------
# apex rendering


def _ser_normed_set(A: nset_mod.NormedSet) -> dict:
    q = A.quantale
    return {"elements": [{"id": e, "norm": q.format(A.norm(e))} for e in A]}


def _format_rows(q: Quantale, rows) -> list:
    """``rows`` as the file format writes them.  Each distinct value object
    is formatted once, in the order of its first cell in row order, so the
    first value too long to write is the one that raises; equal values of a
    composite or a parsed matrix are one object."""
    cells = list(chain.from_iterable(rows))
    distinct = dict(zip(map(id, cells), cells))
    text = dict(zip(distinct, map(q.format, distinct.values())))
    return [list(map(text.__getitem__, map(id, row))) for row in rows]


def _ser_vcat(X: VCategory) -> dict:
    return {"objects": list(X.objects), "dist": _format_rows(X.quantale, X.rows)}


# ---------------------------------------------------------------------------
# task execution


def _outcome(ok, **details) -> dict:
    """A task's verdict (None for an information task) and its details."""
    return {"verdict": "info" if ok is None else "pass" if ok else "fail", "details": details}


def _report_details(q: Quantale, report: Report) -> list:
    return [
        {"check": c.name, "ok": c.ok, "witness": _jsonable(q, c.witness)} for c in report.checks
    ]


def _checks_outcome(q: Quantale, report: Report) -> dict:
    return _outcome(report.ok, checks=_report_details(q, report))


def _precondition_failure(q: Quantale, error: str, report: Report) -> dict:
    return _outcome(False, error=error, evidence=_report_details(q, report))


def _jsonable(q: Quantale, value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(q, v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(q, v) for k, v in value.items()}
    return q.format(value)


def _task_validate(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    kind, value = inst.objects[task["target"]]
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
        if not value.category.report.ok:
            return _precondition_failure(inst.quantale, "not a category", value.category.report)
        report = value.report
    elif kind == "normed_set":
        report = Report()
        report.add("norm-total", True)
    else:
        if unmet := _unnormed_category(value):
            return unmet
        report = seq_mod.validate_sequence(value)
    return _checks_outcome(inst.quantale, report)


def _task_compose(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    outer, inner = inst[task["outer"]], inst[task["inner"]]
    result = vcat_mod.compose_vdist(outer, inner)
    return _outcome(None, values=_format_rows(inst.quantale, result.rows))


def _task_adjoint(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    q = inst.quantale
    if "pair" in task:
        wp = inst[task["pair"]]
        return _checks_outcome(q, vcat_mod.adjoint_report(wp.phi, wp.psi))
    if "target" not in task:
        raise InputError("missing field", "target")
    try:
        report = ncat_mod.check_adjunction_cert(inst[task["target"]], task.get("normed", False))
    except PreconditionError as exc:
        return _precondition_failure(q, "not a category", exc.value)
    return _checks_outcome(q, report)


def _task_isbell(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    q = inst.quantale
    kind, value = inst.objects[task["target"]]
    if kind == "weight_pair":
        column = vcat_mod.isbell_conjugate_weight(value.phi).rows
        conjugate = {str(x): q.format(v) for x, (v,) in zip(value.phi.target.objects, column)}
        return _outcome(None, conjugate=conjugate)
    if not value.covariant:
        raise InputError("the conjugate is taken of a covariant distributor")
    A = value.category
    if not A.report.ok:
        return _precondition_failure(q, "not a category", A.report)
    if not value.report.ok:
        return _precondition_failure(q, "not a normed distributor", value.report)
    # the conjugate at a is its natural families into A(a, -); its action is
    # not reported, so it is not built
    sizes, norms = {}, {}
    for a in A.objects:
        families = ncat_mod.conjugate_families(value, a, budget)
        sizes[str(a)] = len(families)
        norms[str(a)] = [q.format(norm) for _, norm in families]
    return _outcome(None, sizes=sizes, norms=norms)


def _task_representable(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    wp = inst[task["pair"]]
    try:
        witness = vcat_mod.is_representable(wp.phi, wp.psi)
    except PreconditionError as exc:
        return _precondition_failure(inst.quantale, "pair is not adjoint", exc.value)
    return _outcome(witness is not None, witness=witness)


def _format_weight_vec(q: Quantale, vec: dict) -> dict:
    return {str(x): q.format(v) for x, v in vec.items()}


def _task_lawvere(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    q = inst.quantale
    kind, value = inst.objects[task["target"]]
    error, decide = (
        ("not a V-category", vcat_mod.lawvere_complete_vcat) if kind == "vcat"
        else ("not a normed category", ncat_mod.is_lawvere_complete_ncat)
    )
    try:
        verdict = decide(value, budget)
    except PreconditionError as exc:
        return _precondition_failure(q, error, exc.value)
    if kind == "ncat":
        certificate = _jsonable(q, verdict.certificate)
        return _outcome(verdict.complete, clause=verdict.clause, certificate=certificate)
    if verdict.complete:
        witness = [
            {"weight": _format_weight_vec(q, vec), "witness": obj} for vec, obj in verdict.witness
        ]
    else:
        witness = dict(zip(("phi", "psi"), (_format_weight_vec(q, v) for v in verdict.witness)))
    return _outcome(verdict.complete, witness=witness)


def _task_split(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    A = inst[task["target"]]
    if not A.report.ok:
        return _precondition_failure(inst.quantale, "not a category", A.report)
    try:
        ok, witness = (
            A.strict_split if task.get("strict")
            else ncat_mod.split_idempotents_check(A, frozenset(A.morphisms))
        )
    except ConstructionError as exc:
        raise PreconditionError(f"the strict part needs a normed category: {exc}")
    return _outcome(ok, witness=witness)


def _unnormed_category(s: seq_mod.Sequence) -> dict | None:
    """The failure of a task on a normed-category sequence whose category
    is not a normed category, or None."""
    if s.kind == NCAT and not s.category.ncat_report.ok:
        return _precondition_failure(s.quantale, "not a normed category", s.category.ncat_report)


def _task_cauchy(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    kind, value = inst.objects[task["target"]]
    if kind == "sequence":
        if unmet := _unnormed_category(value):
            return unmet
        q, v = value.norm_quantale, seq_mod.cauchy_value(value)
    else:
        q, v = inst.quantale, seq_mod.forward_cauchy_value(value)
    return _outcome(q.leq(q.unit, v), value=q.format(v))


def _task_colimit(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    s = inst[task["target"]]
    if s.kind == NCAT:
        raise InputError("colimit construction applies to set-like ambients", "target")
    try:
        if s.kind == NSET:
            apex, gamma = seq_mod.colimit_nset(s)
        elif not task.get("vlip"):
            apex, gamma = seq_mod.colimit_dset(s)
        else:
            for X in (*s.prefix_objects, s.tail_object):
                if not X.report.ok:
                    return _precondition_failure(s.quantale, "not a V-category", X.report)
            apex, gamma = seq_mod.colimit_vlip(s)
    except PreconditionError as exc:
        return _outcome(False, rejected=str(exc), value=s.norm_quantale.format(exc.value))
    report = seq_mod.colimit_report(s, gamma, probe)
    apex_out = _ser_normed_set(apex) if s.kind == NSET else _ser_vcat(apex)
    checks = _report_details(s.norm_quantale, report)
    return _outcome(report.ok, apex=apex_out, checks=checks, probe_bound=probe)


def _task_forward_limit(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    ms, point = inst[task["target"]], task["point"]
    if point not in ms.space.index:
        raise InputError(f"candidate point {point!r} not in the space", "point")
    return _outcome(seq_mod.forward_limit_metric(ms, point), point=point)


def _task_lipnorm(inst: Instance, task: dict, budget: int, probe: int) -> dict:
    X, Y = inst[task["source"]], inst[task["target"]]
    mapping = _name_map(task, "map", X.objects, "image for source point", "a source point",
                        Y.index)
    mode, log_base = task.get("mode", "multiplicative"), task.get("log_base", 2)
    if log_base < 2:
        raise InputError(f"must be at least 2, got {log_base}", "log_base")
    q_odot = inst.quantale if mode == "odot" else None
    value = seq_mod.lipschitz_norm(X, Y, mapping, mode, q_odot=q_odot, log_base=log_base)
    if not isinstance(value, seq_mod.LogNorm):
        q = lawvere_times() if q_odot is None else q_odot
        return _outcome(None, mode=mode, value=q.format(value))
    exponent, infinite = value.exponent(), value.is_infinite()
    return _outcome(
        None, mode=mode, zero=value.is_zero(), infinite=infinite,
        ratio="inf" if infinite else str(value.ratio), base=value.base,
        exponent=None if exponent is None else str(exponent),
    )


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


def run_instance(inst: Instance, budget: int, probe: int) -> dict:
    results = []
    for i, task in enumerate(inst.tasks):
        op = task["op"]
        try:
            outcome = _TASKS[op](inst, task, budget, probe)
        except PreconditionError as exc:
            outcome = _outcome(False, precondition=str(exc))
        except InputError as exc:
            raise exc.at("tasks", i, op=op)
        entry = {"index": i, "op": op}
        for key in ("target", "pair", "outer", "inner", "source", "point", "mode"):
            if key in task:
                entry[key] = echoed = task[key]
                if type(echoed) is not str:
                    try:  # the report writer takes every JSON value but a float
                        _json(echoed, "\n")
                    except TypeError:
                        raise InputError("floats are not exact values", "tasks", i, key).at(op=op)
        entry.update(outcome)
        results.append(entry)
    all_pass = all(r["verdict"] != "fail" for r in results)
    return {"budget": budget, "probe_bound": probe, "tasks": results, "all_pass": all_pass}


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
        if value and type(value[0]) is str:
            try:  # a list of strings, as a formatted row is
                return "[" + inner + ("," + inner).join(map(_quoted, value)) + newline + "]"
            except TypeError:  # _quoted met an item that is not a string
                pass
        items = [inner + _json(item, inner) for item in value]
        return "[" + ",".join(items) + newline + "]" if items else "[]"
    raise TypeError(f"not a report value: {type(value).__name__}")


def human_report(report: dict, elapsed: float) -> str:
    lines = []
    for entry in report["tasks"]:
        label = entry.get("target") or entry.get("pair") or entry.get("source") or ""
        lines.append(f"[{entry['index']}] {entry['op']} {label}: {entry['verdict'].upper()}")
        for key, value in entry.get("details", {}).items():
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
    """The argument parser, built on the first argv that ``_read_argv``
    leaves to it and shared by later calls: ``parse_args`` leaves it
    unchanged.  It alone prints the help text and every usage error."""
    import argparse

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
    parser.add_argument("--probe", type=int, default=3, help="probe object size bound for (C2b)")
    return parser


def _read_argv(argv: list) -> tuple | None:
    """``(file, json, budget, probe)`` as ``_parser`` reads them, from an
    argv of the usual shape: ``--json``, ``--budget D`` and ``--probe D``
    with D a string of ASCII digits (the last of a repeated option wins),
    and one token not starting with ``-``, the file.  None for any other
    argv, which is left to ``_parser`` and its usage errors."""
    file, as_json, values = None, False, {"--budget": None, "--probe": 3}
    tokens = iter(argv)
    for token in tokens:
        if token == "--json":
            as_json = True
        elif token in values:
            digits = next(tokens, None)
            if type(digits) is not str or not (digits.isascii() and digits.isdigit()):
                return None
            try:
                values[token] = int(digits)
            except ValueError:  # past the interpreter's digit limit
                return None
        elif file is None and type(token) is str and token[:1] != "-":
            file = token
        else:
            return None
    if file is None:
        return None
    return file, as_json, values["--budget"], values["--probe"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    read = _read_argv(argv)
    if read is None:
        args = _parser().parse_args(argv)
        read = args.file, args.json, args.budget, args.probe
    file, as_json, budget, probe = read
    try:
        if budget is None:
            budget = default_budget()
        if budget <= 0:
            raise InputError("budget must be positive")
        if probe <= 0:
            raise InputError("probe bound must be positive")
        started = time.perf_counter()
        inst = load_instance(file)
        report = run_instance(inst, budget, probe)
        elapsed = time.perf_counter() - started
        text = machine_report(report) if as_json else human_report(report, elapsed)
    except InputError as exc:
        print(f"input error: {exc.describe()}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:  # its text starts "budget exceeded: "
        print(exc, file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program: neither a verdict nor an input error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    print(text)
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
