"""The library surface: every top-level definition in ``src/quantcat`` is
reachable from the command line, and the README's library example runs.

The walk parses each module with ``ast`` and starts at ``cli.main``.  A bare
name resolves to a definition of its own module or, through a
``from .m import name`` binding, to the definition in ``m``; ``alias.name``
resolves through a ``from . import m as alias`` binding or a lazy one,
``alias = lazily("m")`` with ``lazily`` imported from ``common``.  Method
calls on objects are not followed: a
reached class counts as reached with all of its methods.  Module-level
statements that are not definitions run on import, so the names they use
are roots too; a lazy binding is one of them.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

import quantcat
from quantcat import cli

from helpers import fresh_python

PACKAGE = Path(quantcat.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
ENTRY_POINTS = {"__init__", "__main__"}


def _lazy_module(node: ast.AST, imports: dict) -> str | None:
    """``m`` when ``node`` is a lazy binding ``alias = lazily("m")``, where
    ``imports`` binds ``lazily`` to the one in ``common``."""
    call = node.value if isinstance(node, ast.Assign) else None
    if (
        isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and imports.get(call.func.id) == ("common", "lazily") and len(call.args) == 1
        and isinstance(call.args[0], ast.Constant)
        and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
    ):
        return call.args[0].value
    return None


class _Module:
    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.defs: dict[str, ast.AST] = {}
        self.imports: dict[str, tuple[str, str]] = {}
        self.aliases: dict[str, str] = {}
        self.roots: list[ast.AST] = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif (lazy := _lazy_module(node, self.imports)) is not None:
                self.aliases[node.targets[0].id] = lazy
                self.roots.append(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            self.defs[leaf.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        self.aliases[bound] = alias.name
                    else:
                        self.imports[bound] = (node.module, alias.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                self.roots.append(node)


def _modules() -> dict[str, _Module]:
    return {
        path.stem: _Module(path.stem, ast.parse(path.read_text(), str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _references(node: ast.AST):
    """Bare names and ``alias.name`` pairs used inside ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id, None
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            yield n.value.id, n.attr


def _resolve(modules, module: str, name: str):
    """The (module, name) defining ``name`` as seen from ``module``."""
    seen = set()
    while (module, name) not in seen:
        seen.add((module, name))
        m = modules.get(module)
        if m is None:
            return None
        if name in m.defs:
            return module, name
        if name not in m.imports:
            return None
        module, name = m.imports[name]
    return None


def reachable(modules) -> set[tuple[str, str]]:
    reached: set[tuple[str, str]] = set()
    todo: list[tuple[str, ast.AST]] = [("cli", modules["cli"].defs["main"])]
    reached.add(("cli", "main"))
    for m in modules.values():
        if m.name not in ENTRY_POINTS:
            todo.extend((m.name, node) for node in m.roots)
    while todo:
        module, node = todo.pop()
        for base, attr in _references(node):
            target = None
            if attr is not None and base in modules[module].aliases:
                target = _resolve(modules, modules[module].aliases[base], attr)
            if target is None:
                target = _resolve(modules, module, base)
            if target is not None and target not in reached:
                reached.add(target)
                todo.append((target[0], modules[target[0]].defs[target[1]]))
    return reached


def unreached_definitions() -> list[str]:
    modules = _modules()
    reached = reachable(modules)
    return sorted(
        f"{m.name}.{name}"
        for m in modules.values()
        if m.name not in ENTRY_POINTS
        for name in m.defs
        if (m.name, name) not in reached
    )


def test_every_definition_in_src_is_reachable_from_the_cli():
    assert unreached_definitions() == []


def test_walk_follows_bindings_and_stops_at_an_orphan():
    modules = _modules()
    modules["cli"].defs["orphan"] = ast.parse("def orphan():\n    return main()\n").body[0]
    reached = reachable(modules)
    assert ("quantale", "validate_quantale") in reached  # ``from .quantale import``
    assert ("vcat", "compose_vdist") in reached  # ``from . import vcat as vcat_mod``
    assert ("normed_set", "NormedSet") in reached  # ``nset_mod = lazily("normed_set")``
    assert ("seqlim", "colimit_report") in reached  # ``seq_mod = lazily("seqlim")``
    # only seqlim reads it, through its own ``nset_mod = lazily("normed_set")``
    assert ("normed_set", "final_structure") in reached
    assert ("common", "lazily") in reached  # a lazy binding runs on import
    assert ("cli", "orphan") not in reached


def _call_sites(name: str) -> list[str]:
    """``module.definition`` for each call of ``name`` in ``src/quantcat``,
    as a bare name or an attribute, by the top-level definition it lies in
    (``module.<module>`` outside any), in file and source order."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    sites.append(f"{path.stem}.{owner}")
    return sites


def test_the_searches_and_their_guards_have_pinned_sites():
    # one priced weight search serves both completeness decisions, and the
    # natural families of the Isbell conjugate are the only other guard
    assert _call_sites("guard_count") == ["ncat.conjugate_families", "vcat.adjoint_weights"]
    assert _call_sites("matrix_weights") == ["vcat.adjoint_weights"]


def _caught(function: ast.AST) -> list[str]:
    """The exception names of each ``except`` clause inside ``function``,
    ``"<bare>"`` for a bare one."""
    names = []
    for handler in ast.walk(function):
        if isinstance(handler, ast.ExceptHandler):
            if handler.type is None:
                names.append("<bare>")
            for node in ast.walk(handler.type) if handler.type else ():
                if isinstance(node, ast.Name):
                    names.append(node.id)
    return names


def test_an_input_fault_has_one_type_from_its_check_to_the_exit_code():
    # every input fault is raised as an InputError where it is checked, so the
    # reader and the task loop catch nothing broader: a KeyError or ValueError
    # from a task is a fault of the program, not of the file
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if "FieldError" in p.read_text()] == []
    cli_defs = _modules()["cli"].defs
    broad = {"<bare>", "BaseException", "Exception", "LookupError", "KeyError", "ValueError"}
    for name in ("parse_instance", "run_instance"):
        caught = _caught(cli_defs[name])
        assert "InputError" in caught and broad.isdisjoint(caught), (name, caught)


def _name_map_fields() -> set:
    """The fields ``cli`` reads with ``_name_map``: the constant ``field``
    argument of each call, or each constant of the tuple a loop binds it to."""
    tree = ast.parse(Path(cli.__file__).read_text())
    loops: dict[str, set] = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            constants = {c.value for c in node.iter.elts if isinstance(c, ast.Constant)}
            loops.setdefault(node.target.id, set()).update(constants)
    fields = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_name_map":
            field = node.args[1]
            if isinstance(field, ast.Constant):
                fields.add(field.value)
            elif isinstance(field, ast.Name):
                fields |= loops.get(field.id, set())
    return fields


def test_every_name_keyed_map_is_read_by_one_reader():
    # a JSON object keyed by name text becomes a map on names in one place,
    # which reads each name at its key text and checks totality, strays and
    # images: every {NAME: t} field of the format goes through it
    typed = {
        key.rstrip("?")
        for table in (cli.KINDS, cli.OPS)
        for fields in table.values()
        for key, t in fields.items()
        if type(t) is dict and cli.NAME in t
    }
    assert typed == {"phi", "psi", "identities", "sets", "action", "map"}
    assert _name_map_fields() == typed
    gone = re.compile(r"\b(_key_texts|_entries)\b")
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if gone.search(p.read_text())] == []


def test_v_matrix_conversions_live_in_the_tests():
    # every consumer reads a V-matrix's rows, so the helpers that rebuilt a
    # matrix from pairs or read a weight back as a vector are the tests' own
    import helpers

    moved = ["identity_vdist", "pair_set", "pair_map", "right_weight", "weight_vector",
             "coweight_vector"]
    defined = {name.lstrip("_") for m in _modules().values() for name in m.defs}
    assert [name for name in moved if name in defined] == []
    assert all(callable(getattr(helpers, name)) for name in moved)


#: the package's exports: the names of its domain modules and of what they define
EXPORTS = [
    "AdjunctionCertificate", "BUILTIN_QUANTALES", "BudgetExceeded", "CarrierMismatch", "Check",
    "Cocone", "ConstructionError", "DEFAULT_BUDGET", "FiniteQuantale", "INF", "LawvereQuantale",
    "LawvereVerdict", "LogNorm", "MetricSequence", "NcatLawvereVerdict", "NormProfile",
    "NormedCategory", "NormedDistributor", "NormedSet", "PreconditionError", "Report",
    "Sequence", "VCategory", "VDistributor", "VWeightPair", "as_extended_rational", "bool2",
    "bool4", "builtin_quantale", "cauchy_value", "chain3", "chain4", "check_adjunction_cert",
    "colimit_dset", "colimit_nset", "colimit_vlip", "common", "compose_vdist",
    "conjugate_families", "final_structure", "forward_limit_metric", "is_lawvere_complete_ncat",
    "is_representable", "isbell_conjugate_weight", "lawvere_complete_vcat", "lawvere_plus",
    "lawvere_times", "lipschitz_norm", "ncat", "norm_profile", "normed_set", "quantale",
    "seqlim", "split_idempotents_check", "strict_morphisms", "totally_below", "trivial",
    "unit_approximated_from_totally_below", "unit_vcat", "validate_ndist", "validate_quantale",
    "validate_sequence", "validate_vcat", "validate_vdist", "vcat",
]


def test_each_export_is_the_object_its_module_defines():
    assert quantcat.__all__ == EXPORTS
    modules = _modules()
    for name in EXPORTS:
        if name in modules:
            assert getattr(quantcat, name) is sys.modules[f"quantcat.{name}"], name
            continue
        (home,) = [m for m in modules.values() if name in m.defs]
        assert getattr(quantcat, name) is getattr(sys.modules[f"quantcat.{home.name}"], name)
    bound = {}
    exec("from quantcat import *", bound)
    assert [name for name in EXPORTS if name not in bound] == []
    with pytest.raises(AttributeError):
        quantcat.not_an_export


def test_importing_the_package_runs_none_of_its_modules():
    script = "import sys, quantcat\nprint(sorted(m for m in sys.modules if 'quantcat.' in m))\n"
    assert fresh_python(script, "-S") == ("[]\n", "")


def _library_example() -> str:
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the Library example has no python block"
    return match.group(1)


def test_readme_library_example_prints_true():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), "README.md", "exec"), {})
    assert out.getvalue().split() == ["True"]


# ---------------------------------------------------------------------------
# the README states the instance-file format as ``cli.KINDS`` and ``cli.OPS``


def _field_type(t) -> str:
    """A field type of the format as the README writes it."""
    atoms = {id(atom): name.lower() for name, atom in vars(cli).items() if type(atom) is cli._Atom}
    if id(t) in atoms:
        return atoms[id(t)]
    if type(t) is str:
        return "<" + " or ".join(t.split()) + ">"
    if type(t) is set:
        return " or ".join(f'"{value}"' for value in sorted(t))
    if type(t) in (list, tuple):
        return "[" + ", ".join(map(_field_type, t)) + "]"
    if cli.NAME in t:
        return "{name: " + _field_type(t[cli.NAME]) + "}"
    return "{" + ", ".join(f"{key}: {_field_type(u)}" for key, u in t.items()) + "}"


def _readme_table(header: str) -> dict:
    """The rows of the README table whose header row is ``header``."""
    lines = README.read_text().split(header + "\n", 1)[1].splitlines()[1:]
    rows = lines[: lines.index("")]
    cells = [re.fullmatch(r"\| `([^`]+)` \| `([^`]+)` \|", row) for row in rows]
    assert all(cells), rows
    return {cell.group(1): cell.group(2) for cell in cells}


@pytest.mark.parametrize("header, table", [("| kind | fields |", "KINDS"),
                                           ("| op | fields |", "OPS")])
def test_readme_tables_state_the_format(header, table):
    stated = {name: "{" + fields + "}" for name, fields in _readme_table(header).items()}
    assert stated == {name: _field_type(t) for name, t in getattr(cli, table).items()}


def test_readme_states_the_inline_quantale_table():
    assert f"inline tables use\n`{_field_type(cli.TABLE)}`" in README.read_text()
