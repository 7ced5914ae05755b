"""Traced runs: per-layer counts, self times and spans.

The tracer wraps, from outside the program, every public function and
public method (plus ``__init__``) of the layer modules ``quantale``,
``normed_set``, ``vcat``, ``ncat``, ``seqlim`` and ``cli``, and the budget
guard ``common.guard_count``.  Each wrapper replaces the original in every
``quantcat`` module that binds it, so calls through ``from .x import f``
names are traced too.  Generator functions count the items they yield, and
each resumption is timed as a call.

A call's self time is its duration minus the time of the traced calls made
inside it; a layer's self time is the sum over its calls.  Spans
``{id, parent, name, layer, start, end, request}`` are kept in memory and
written as JSONL when the pass ends.  Spans at depth three or less are
always kept; deeper ones only until ``SPAN_CAP`` spans are held.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("quantale", "normed_set", "vcat", "ncat", "seqlim", "cli")
SPAN_CAP = 50_000
ALWAYS_KEPT_DEPTH = 3

#: inclusive-time groups: outermost calls of these functions are summed
INCLUSIVE = {
    "seqlim.validate_sequence": "seqlim.validate_s",
    "seqlim.colimit_nset": "seqlim.colimit_s",
    "seqlim.colimit_dset": "seqlim.colimit_s",
    "seqlim.colimit_vlip": "seqlim.colimit_s",
    "seqlim.verify_normed_colimit": "seqlim.verify_s",
    "cli.load_instance": "cli.parse_s",
    "cli.run_instance": "cli.run_s",
    "cli.machine_report": "cli.report_s",
}

_QUANTALE_OPS = ("tensor", "leq", "join", "meet", "hom", "check")

#: Per-layer metrics of the traced run: (name, unit, what should move it).
#: The last field names the end-to-end metric and workload the layer metric
#: is expected to move, written down before any optimisation is measured.
METRICS = [
    ("quantale.table_ops", "count", "instances_per_s on decide-vcat (trusted-interior kernel); colimit-rational flat"),
    ("quantale.rational_ops", "count", "colimit-rational must stay flat under table-kernel changes"),
    ("quantale.subsets_yielded", "count", "instances_per_s on colimit-probe (closed-form totally_below takes it to ~0)"),
    ("quantale.totally_below_calls", "count", "instances_per_s on colimit-probe"),
    ("quantale.self_s", "s", "instances_per_s on decide-vcat; colimit-rational flat"),
    ("quantale.share", "ratio", "share of traced time in the quantale layer (base: traced time inside main)"),
    ("normed_set.maps_built", "count", "verdict_tail_ms on colimit-probe (probe maps) and decide-ncat (family norms)"),
    ("normed_set.map_norms", "count", "verdict_tail_ms on colimit-probe and decide-ncat"),
    ("normed_set.sets_built", "count", "peak_rss_mb on colimit-probe and decide-ncat (streaming function space)"),
    ("normed_set.self_s", "s", "verdict_tail_ms on colimit-probe and decide-ncat"),
    ("vcat.weight_pairs", "count", "instances_per_s and decided_ratio on decide-vcat (phi-only: |V|^(2n) to |V|^n); decide-ncat flat"),
    ("vcat.adjoint_pairs", "count", "unchanged by a correct search reduction on decide-vcat"),
    ("vcat.adjoint_yield", "ratio", "adjoint_pairs / weight_pairs (base: vcat.weight_pairs); rises on decide-vcat"),
    ("vcat.validate_vdist_calls", "count", "instances_per_s on decide-vcat"),
    ("vcat.compose_calls", "count", "instances_per_s on decide-vcat and colimit-rational"),
    ("vcat.self_s", "s", "instances_per_s on decide-vcat"),
    ("ncat.norm_assignments", "count", "verdict_tail_ms and instances_per_s on decide-ncat (propagated norm constraint)"),
    ("ncat.left_adjoints", "count", "verdict_tail_ms on decide-ncat"),
    ("ncat.assignment_yield", "ratio", "left_adjoints / norm_assignments (base: ncat.norm_assignments); rises on decide-ncat"),
    ("ncat.nat_enumerations", "count", "verdict_tail_ms on decide-ncat (hoisted per-idempotent data)"),
    ("ncat.nat_families", "count", "verdict_tail_ms on decide-ncat"),
    ("ncat.conjugates", "count", "verdict_tail_ms on decide-ncat (hoisted conjugates)"),
    ("ncat.coend_pairs", "count", "verdict_tail_ms on decide-ncat"),
    ("ncat.self_s", "s", "instances_per_s on decide-ncat"),
    ("seqlim.tail_powers_calls", "count", "verdict_tail_ms on colimit-rational (memoised step maps)"),
    ("seqlim.map_norms", "count", "verdict_tail_ms on colimit-rational (memoised norms)"),
    ("seqlim.validate_s", "s", "verdict_tail_ms on colimit-rational"),
    ("seqlim.colimit_s", "s", "verdict_tail_ms on colimit-rational and colimit-probe"),
    ("seqlim.verify_s", "s", "verdict_tail_ms on colimit-probe"),
    ("seqlim.self_s", "s", "verdict_tail_ms on colimit-rational"),
    ("cli.parse_s", "s", "verdict_p50_ms on every workload (parse-time validation raises it)"),
    ("cli.run_s", "s", "instances_per_s on every workload"),
    ("cli.report_s", "s", "verdict_p50_ms on every workload"),
    ("cli.report_bytes", "count", "must not move: the --json bytes are pinned"),
    ("cli.self_s", "s", "verdict_p50_ms on every workload"),
    ("budget.guards", "count", "explains changes in decided_ratio"),
    ("budget.needed", "count", "explains changes in decided_ratio"),
    ("budget.exceeded", "count", "explains changes in decided_ratio (decide-vcat)"),
    ("trace.overhead_ratio", "ratio", "traced pass time / untraced pass time"),
]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)  # qualified name -> calls or resumptions
        self.items = defaultdict(int)  # generator name -> items yielded
        self.extra = defaultdict(int)  # hook counters
        self.self_s = {layer: [0.0] for layer in LAYERS + ("budget",)}
        self.inclusive = defaultdict(float)
        self.active = set()
        self.stack = []  # frames: [child seconds, span id]
        self.spans = []
        self.next_id = 0
        self.request = None
        self.origin = time.perf_counter()

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name, layer, on_call=None, on_result=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, layer)
        tracer, calls = self, self.calls
        layer_self = self.self_s[layer]
        group = INCLUSIVE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if on_call:
                on_call(tracer, args, kwargs)
            stack = tracer.stack
            outermost = group is not None and group not in tracer.active
            if outermost:
                tracer.active.add(group)
            if len(stack) < ALWAYS_KEPT_DEPTH or tracer.next_id < SPAN_CAP:
                tracer.next_id += 1
                span = tracer.next_id
            else:
                span = None
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                layer_self[0] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if outermost:
                    tracer.active.discard(group)
                    tracer.inclusive[group] += duration
                if span is not None:
                    tracer._close_span(span, stack, name, layer, start, end)
            if on_result:
                on_result(tracer, args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name, layer):
        tracer, calls, items = self, self.calls, self.items
        layer_self = self.self_s[layer]
        clock = time.perf_counter

        def resume(gen):
            stack = tracer.stack
            try:
                while True:
                    frame = [0.0, None]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        duration = clock() - start
                        stack.pop()
                        layer_self[0] += duration - frame[0]
                        if stack:
                            stack[-1][0] += duration
                    items[name] += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return resume(fn(*args, **kwargs))

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _close_span(self, span, stack, name, layer, start, end):
        parent = stack[-1][1] if stack else None
        self.spans.append(
            (span, parent, name, layer, start - self.origin, end - self.origin, self.request)
        )

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span, parent, name, layer, start, end, request in self.spans:
                fh.write(json.dumps({
                    "id": span, "parent": parent, "name": name, "layer": layer,
                    "start": round(start, 9), "end": round(end, 9), "request": request,
                }) + "\n")

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap the program's public functions and methods in place."""
        from quantcat import common

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "quantcat"]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"quantcat.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._hooked(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        replaced[common.guard_count] = self._hooked(
            common.guard_count, "budget.guard_count", "budget"
        )
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self._hooked(obj, name, layer))
            elif isinstance(obj, property) and obj.fget is not None:
                wrapped = self._hooked(obj.fget, name, layer)
                setattr(cls, attr, property(wrapped, obj.fset, obj.fdel, obj.__doc__))
            elif isinstance(obj, (staticmethod, classmethod)):
                setattr(cls, attr, type(obj)(self._hooked(obj.__func__, name, layer)))

    def _hooked(self, fn, name, layer):
        return self.wrap(fn, name, layer, _ON_CALL.get(name), _ON_RESULT.get(name))

    # -- results ----------------------------------------------------------------

    def counts(self) -> dict:
        """Every count the pass made: calls, yielded items and hook counters."""
        table = {f"calls:{k}": v for k, v in self.calls.items()}
        table.update({f"items:{k}": v for k, v in self.items.items()})
        table.update({f"extra:{k}": v for k, v in self.extra.items()})
        return dict(sorted(table.items()))

    def times(self) -> dict:
        out = {f"{layer}.self_s": cell[0] for layer, cell in self.self_s.items()}
        out.update(self.inclusive)
        return out


def _guard(tracer, args, kwargs):
    from quantcat.common import guard_count

    bound = inspect.signature(inspect.unwrap(guard_count)).bind(*args, **kwargs)
    needed, budget = bound.arguments["needed"], bound.arguments["budget"]
    tracer.extra["budget.needed"] += needed
    tracer.extra["budget.exceeded"] += needed > budget


def _count_result(key, measure):
    def hook(tracer, args, result):
        tracer.extra[key] += measure(args, result)

    return hook


_ON_CALL = {"budget.guard_count": _guard}
_ON_RESULT = {
    "ncat.enumerate_nat_families": _count_result("ncat.nat_families", lambda a, r: len(r)),
    "ncat.CoendClasses.__init__": _count_result("ncat.coend_pairs", lambda a, r: len(a[0].pairs)),
    "cli.machine_report": _count_result("cli.report_bytes", lambda a, r: len(r.encode())),
}


def layer_metrics(counts: dict, times: dict, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics named in ``METRICS`` from one traced pass."""

    def calls(*names):
        return sum(counts.get(f"calls:{n}", 0) for n in names)

    def items(name):
        return counts.get(f"items:{name}", 0)

    def extra(name):
        return counts.get(f"extra:{name}", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    inside_main = sum(v for k, v in times.items() if k.endswith(".self_s"))
    weight_pairs = items("vcat.enumerate_weight_pairs")
    adjoint_pairs = items("vcat.adjoint_weight_pairs")
    assignments = calls("ncat.idempotent_distributor")
    left_adjoints = calls("ncat.left_adjoint_unit")
    values = {
        "quantale.table_ops": calls(*(f"quantale.FiniteQuantale.{op}" for op in _QUANTALE_OPS)),
        "quantale.rational_ops": calls(*(f"quantale.LawvereQuantale.{op}" for op in _QUANTALE_OPS)),
        "quantale.subsets_yielded": items("quantale.FiniteQuantale.subsets"),
        "quantale.totally_below_calls": calls("quantale.totally_below"),
        "quantale.self_s": times["quantale.self_s"],
        "quantale.share": ratio(times["quantale.self_s"], inside_main),
        "normed_set.maps_built": calls("normed_set.NormedMap.__init__"),
        "normed_set.map_norms": calls("normed_set.map_norm"),
        "normed_set.sets_built": calls("normed_set.NormedSet.__init__"),
        "normed_set.self_s": times["normed_set.self_s"],
        "vcat.weight_pairs": weight_pairs,
        "vcat.adjoint_pairs": adjoint_pairs,
        "vcat.adjoint_yield": ratio(adjoint_pairs, weight_pairs),
        "vcat.validate_vdist_calls": calls("vcat.validate_vdist"),
        "vcat.compose_calls": calls("vcat.compose_vdist"),
        "vcat.self_s": times["vcat.self_s"],
        "ncat.norm_assignments": assignments,
        "ncat.left_adjoints": left_adjoints,
        "ncat.assignment_yield": ratio(left_adjoints, assignments),
        "ncat.nat_enumerations": calls("ncat.enumerate_nat_families"),
        "ncat.nat_families": extra("ncat.nat_families"),
        "ncat.conjugates": calls("ncat.isbell_conjugate_ndist"),
        "ncat.coend_pairs": extra("ncat.coend_pairs"),
        "ncat.self_s": times["ncat.self_s"],
        "seqlim.tail_powers_calls": calls("seqlim.Sequence.tail_powers"),
        "seqlim.map_norms": calls("seqlim.Sequence.map_norm_of"),
        "seqlim.validate_s": times.get("seqlim.validate_s", 0.0),
        "seqlim.colimit_s": times.get("seqlim.colimit_s", 0.0),
        "seqlim.verify_s": times.get("seqlim.verify_s", 0.0),
        "seqlim.self_s": times["seqlim.self_s"],
        "cli.parse_s": times.get("cli.parse_s", 0.0),
        "cli.run_s": times.get("cli.run_s", 0.0),
        "cli.report_s": times.get("cli.report_s", 0.0),
        "cli.report_bytes": extra("cli.report_bytes"),
        "cli.self_s": times["cli.self_s"],
        "budget.guards": calls("budget.guard_count"),
        "budget.needed": extra("budget.needed"),
        "budget.exceeded": extra("budget.exceeded"),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
