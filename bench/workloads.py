"""Seeded instance files for the four benchmark workloads.

Each workload is a fixed list of *slots*.  A slot fixes the shape of one
instance file (carrier, sizes, which tasks run); ``POOL`` variants of a slot
present that shape differently (renamed objects, another listing order, other
random values of the same size).  A seed picks one variant per slot and the
order of the files, so the same seed always gives the same files, while the
work per slot stays comparable across seeds.

Slots are listed from cheap to costly in four groups: a lower group, a
middle group of four slots of one shape, an upper group, and a top group of
four slots of one shape, with three or four more slots in the lower group
than in the upper.  The median of the per-file times pooled over passes then falls
inside the middle shape, and the tail percentile (ten samples beyond it)
inside the top shape, for any run of three or more passes.

Every file carries its expectation: the verdict of each task, which follows
from a theorem or from how the generator built the instance, and reference
values computed independently in ``refs``.  The ``--json`` report of every
pool file that the program decided when the benchmark was written is pinned
by digest in ``pins.json``.

Nothing here imports the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import refs

#: presentation variants per slot; every variant's report digest is pinned
POOL = 8

DEFAULT_PROBE = 3


@dataclass
class Case:
    """One generated instance file with its expected outcome."""

    name: str
    text: str
    verdicts: list  # expected verdict of each task, in order
    checks: list  # (task index, detail key, expected JSON value)

    @property
    def expected_exit(self) -> int:
        return 1 if "fail" in self.verdicts else 0

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


@dataclass
class Workload:
    name: str
    budget: int
    probe: int
    slots: list  # (slot name, build(rng) -> (spec, verdicts, checks))


# ---------------------------------------------------------------------------
# presentation


def _present(rng: random.Random, n: int, letters: str = "pqrsuvwxyz"):
    """Names for n structural objects and the order to list them in."""
    prefix = rng.choice(letters)
    order = list(range(n))
    rng.shuffle(order)
    return [f"{prefix}{i}" for i in range(n)], order


_CHAINS = {
    "bool2": ["0", "1"],
    "chain3": ["0", "m", "1"],
    "chain4": ["0", "a", "b", "1"],
}


def _gapped_chain(names, n, slot_rng):
    """d(i, j) = top for i <= j, else the least gap between j and i.

    Gaps are drawn once per carrier and size; with tensor = min this matrix
    is transitive.
    The all-bottom choice is the order n-chain."""
    gaps = [slot_rng.randrange(len(names) - 1) for _ in range(n - 1)]
    top = len(names) - 1
    return [
        [names[top] if i <= j else names[min(gaps[j:i])] for j in range(n)]
        for i in range(n)
    ]


def _discrete(top, bottom, n):
    return [[top if i == j else bottom for j in range(n)] for i in range(n)]


def _vcat_literal(rng, matrix):
    names, order = _present(rng, len(matrix))
    return {
        "kind": "vcat",
        "objects": [names[i] for i in order],
        "dist": [[matrix[i][j] for j in order] for i in order],
    }


# ---------------------------------------------------------------------------
# decide-vcat


def _space(quantale: str, shape: str, n: int):
    if quantale == "bool4":
        return _discrete("top", "bot", n)
    names = _CHAINS[quantale]
    if shape == "disc":
        return _discrete(names[-1], names[0], n)
    return _gapped_chain(names, n, random.Random(f"{quantale}/{n}"))


def _vcat_decision(quantale: str, shape: str, n: int):
    # Over a meet-chain the unit is totally compact and splits the tensor, so
    # every space is Lawvere complete.  A discrete bool4 space with n >= 2 is
    # not: the weights at the atoms a and b form a non-representable pair.
    verdict = "fail" if quantale == "bool4" else "pass"
    matrix = _space(quantale, shape, n)

    def build(rng):
        spec = {
            "quantale": quantale,
            "objects": {"X": _vcat_literal(rng, matrix)},
            "tasks": [
                {"op": "validate", "target": "X"},
                {"op": "lawvere", "target": "X"},
            ],
        }
        return spec, ["pass", verdict], []

    return build


def _copies(slot, build, n=4):
    """n slots of one shape, for the middle and top cost groups."""
    return [(f"{slot}-{i}", build) for i in range(1, n + 1)]


DECIDE_VCAT = [
    # lower group; the last four exceed the budget at the seed (|V|^(2n) pairs)
    ("b2-chain4", _vcat_decision("bool2", "chain", 4)),
    ("b2-disc4", _vcat_decision("bool2", "disc", 4)),
    ("c3-chain3", _vcat_decision("chain3", "chain", 3)),
    ("b4-disc2", _vcat_decision("bool4", "disc", 2)),
    ("b4-disc3", _vcat_decision("bool4", "disc", 3)),
    ("c3-chain6", _vcat_decision("chain3", "chain", 6)),
    ("c4-chain5", _vcat_decision("chain4", "chain", 5)),
    ("b4-disc5", _vcat_decision("bool4", "disc", 5)),
    ("b2-disc9", _vcat_decision("bool2", "disc", 9)),
    *_copies("c3-disc3", _vcat_decision("chain3", "disc", 3)),
    ("c4-chain3", _vcat_decision("chain4", "chain", 3)),
    ("c3-chain4", _vcat_decision("chain3", "chain", 4)),
    ("b4-disc4", _vcat_decision("bool4", "disc", 4)),
    ("b2-chain6", _vcat_decision("bool2", "chain", 6)),
    ("b2-disc5", _vcat_decision("bool2", "disc", 5)),
    *_copies("c4-disc3", _vcat_decision("chain4", "disc", 3)),
]


# ---------------------------------------------------------------------------
# decide-ncat


def _i_embed_literal(rng, matrix):
    """The one-arrow-per-pair normed category with |x -> y| = X(x, y)."""
    names, order = _present(rng, len(matrix))
    objs = [names[i] for i in order]
    norm = {(names[i], names[j]): matrix[i][j] for i in order for j in order}

    def arrow(x, y):
        return f"{x}>{y}"

    literal = {
        "kind": "ncat",
        "objects": objs,
        "morphisms": [
            {"id": arrow(x, y), "dom": x, "cod": y, "norm": norm[(x, y)]}
            for x in objs
            for y in objs
        ],
        "identities": {x: arrow(x, x) for x in objs},
        "compose": [
            [arrow(y, z), arrow(x, y), arrow(x, z)]
            for x in objs
            for y in objs
            for z in objs
        ],
    }
    return literal, objs, arrow, norm


def _ncat_tasks(name="A"):
    return [
        {"op": "validate", "target": name},
        {"op": "split", "target": name, "strict": True},
        {"op": "lawvere", "target": name},
    ]


def _embedded_decision(quantale: str, shape: str, n: int):
    # i(X) is complete exactly when X is: PASS over the meet-chains, and a
    # clause-2 FAIL (no presentable unit) for a discrete bool4 space.
    verdict = "fail" if quantale == "bool4" else "pass"
    matrix = _space(quantale, shape, n)

    def build(rng):
        literal, _, _, _ = _i_embed_literal(rng, matrix)
        spec = {"quantale": quantale, "objects": {"A": literal}, "tasks": _ncat_tasks()}
        return spec, ["pass", "pass", verdict], []

    return build


def _monoid(quantale: str, split: bool):
    # One object with an idempotent e normed by the unit.  Unsplit, e makes
    # clause 1 fail; the split extension (e = s.r, r.s = 1b) is complete.
    top = _CHAINS[quantale][-1]

    def build(rng):
        p = rng.choice("ABCDEFGH")
        a, b = f"{p}a", f"{p}b"
        one_a, one_b, e, r, s = (f"{p}{m}" for m in ("1a", "1b", "e", "r", "s"))
        if split:
            dom = {one_a: a, one_b: b, e: a, r: a, s: b}
            cod = {one_a: a, one_b: b, e: a, r: b, s: a}
            table = [
                [one_a, one_a, one_a], [one_b, one_b, one_b],
                [e, one_a, e], [one_a, e, e], [e, e, e],
                [r, one_a, r], [one_b, r, r], [s, one_b, s], [one_a, s, s],
                [s, r, e], [r, s, one_b], [r, e, r], [e, s, s],
            ]
            objects, identities = [a, b], {a: one_a, b: one_b}
        else:
            dom = cod = {one_a: a, e: a}
            table = [[one_a, one_a, one_a], [one_a, e, e], [e, one_a, e], [e, e, e]]
            objects, identities = [a], {a: one_a}
        morphisms = list(dom)
        rng.shuffle(morphisms)
        rng.shuffle(table)
        literal = {
            "kind": "ncat",
            "objects": objects,
            "morphisms": [
                {"id": m, "dom": dom[m], "cod": cod[m], "norm": top} for m in morphisms
            ],
            "identities": identities,
            "compose": table,
        }
        spec = {"quantale": quantale, "objects": {"A": literal}, "tasks": _ncat_tasks()}
        verdict = "pass" if split else "fail"
        return spec, ["pass", verdict, verdict], []

    return build


def _representable(quantale: str, n: int):
    # The representable distributors at one object of i(X): by Yoneda the
    # conjugate of A(a, -) has |A(b, a)| = 1 element at every b, and the
    # composition counit with the splitting triple (a, 1a, 1a) is a normed
    # adjunction because norms are submultiplicative.
    matrix = _space(quantale, "chain", n)

    def build(rng):
        literal, objs, arrow, norm = _i_embed_literal(rng, matrix)
        a = rng.choice(objs)

        def elems(pairs):
            return [{"id": arrow(*p), "norm": norm[p]} for p in pairs]

        phi = {
            "kind": "ndist", "category": "A", "variance": "covariant",
            "sets": {b: elems([(a, b)]) for b in objs},
            "action": {arrow(x, y): {arrow(a, x): arrow(a, y)} for x in objs for y in objs},
        }
        psi = {
            "kind": "ndist", "category": "A", "variance": "contravariant",
            "sets": {b: elems([(b, a)]) for b in objs},
            "action": {arrow(x, y): {arrow(y, a): arrow(x, a)} for x in objs for y in objs},
        }
        cert = {
            "kind": "certificate", "phi": "phi", "psi": "psi",
            "eps": [
                {"a": x, "b": y, "map": [[arrow(a, y), arrow(x, a), arrow(x, y)]]}
                for x in objs
                for y in objs
            ],
            "c": a, "u": arrow(a, a), "v": arrow(a, a),
        }
        spec = {
            "quantale": quantale,
            "objects": {"A": literal, "phi": phi, "psi": psi, "cert": cert},
            "tasks": [
                {"op": "validate", "target": "phi"},
                {"op": "validate", "target": "psi"},
                {"op": "isbell", "target": "phi"},
                {"op": "adjoint", "target": "cert", "normed": True},
            ],
        }
        sizes = {b: 1 for b in objs}
        return spec, ["pass", "pass", "info", "pass"], [(2, "sizes", sizes)]

    return build


DECIDE_NCAT = [
    ("monoid-b2", _monoid("bool2", False)),
    ("split-b2", _monoid("bool2", True)),
    ("split-c3", _monoid("chain3", True)),
    ("repr-b2-chain4", _representable("bool2", 4)),
    ("repr-c3-chain4", _representable("chain3", 4)),
    ("i-b4-disc2", _embedded_decision("bool4", "disc", 2)),
    ("i-c4-chain3", _embedded_decision("chain4", "chain", 3)),
    *_copies("i-c3-chain4", _embedded_decision("chain3", "chain", 4)),
    ("i-b2-chain6", _embedded_decision("bool2", "chain", 6)),
    ("i-c4-chain4", _embedded_decision("chain4", "chain", 4)),
    ("i-c3-chain5", _embedded_decision("chain3", "chain", 5)),
    *_copies("i-b2-chain7", _embedded_decision("bool2", "chain", 7)),
]


# ---------------------------------------------------------------------------
# sequences (colimit-rational and colimit-probe)


def _rho_endo(cycles, transients, rng):
    """A tail endomap on 0..m-1 with the given cycle lengths, plus chains of
    the given lengths that run into random cycle points.

    Returns the map, the cycles and the chains (each listed along the map)."""
    endo, cycle_lists, chain_lists, start = {}, [], [], 0
    for length in cycles:
        points = list(range(start, start + length))
        for i, x in enumerate(points):
            endo[x] = points[(i + 1) % length]
        cycle_lists.append(points)
        start += length
    cycle_points = [x for c in cycle_lists for x in c]
    for length in transients:
        points = list(range(start, start + length))
        for x, y in zip(points, points[1:]):
            endo[x] = y
        endo[points[-1]] = rng.choice(cycle_points)
        chain_lists.append(points)
        start += length
    return endo, cycle_lists, chain_lists


class _Rational:
    """Random norms on [0, inf] that grow (in the >= order) along a map."""

    def __init__(self, mode):
        self.mode = mode
        self.carrier = refs.Lawvere(mode)
        self.name = "lawvere-plus" if mode == "additive" else "lawvere-times"

    def fresh(self, rng):
        return Fraction(rng.randint(1, 24), rng.choice((1, 2, 3, 4)))

    def above(self, rng, v):
        """A value whose residual into v is the unit: numerically >= v."""
        if self.mode == "additive":
            return v + Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))
        return v * Fraction(rng.randint(4, 9), 4)

    def below(self, rng, v):
        """A value strictly above v in the order: numerically smaller."""
        return v * Fraction(rng.randint(1, 3), 4)

    def literal(self, v):
        return refs.fmt(v)


class _Chain:
    """Ranks of a meet-chain; norms grow along a map by rank."""

    def __init__(self, name, names):
        self.name = name
        self.carrier = refs.MeetChain(names)
        self.names = names
        self.top = len(names) - 1

    def fresh(self, rng):
        return rng.randint(0, self.top - 1)

    def above(self, rng, v):
        return rng.randint(0, v)

    def below(self, rng, v):
        return self.top  # fresh ranks stay under the top

    def literal(self, v):
        return self.names[v]


def _nset_sequence(carrier, cycles, transients, prefix_sizes, cauchy, tasks):
    """A normed-set sequence with a rho-shaped tail and random prefix maps.

    Tail norms are constant on each cycle and grow along the endomap, so the
    tail map has unit norm and the sequence is Cauchy.  With ``cauchy`` false
    one transient point is normed strictly above its image."""

    def build(rng):
        endo, cycle_lists, chain_lists = _rho_endo(cycles, transients, rng)
        norms = {}
        for points in cycle_lists:
            value = carrier.fresh(rng)
            norms.update((x, value) for x in points)
        for points in chain_lists:
            for x in reversed(points):
                norms[x] = carrier.above(rng, norms[endo[x]])
        if not cauchy:
            x = chain_lists[-1][-1]  # the chain point that enters a cycle
            norms[x] = carrier.below(rng, norms[endo[x]])
        names, order = _present(rng, len(endo), "abcdefgh")
        tail = {
            "object": {
                "elements": [
                    {"id": names[x], "norm": carrier.literal(norms[x])} for x in order
                ]
            },
            "endo": {names[x]: names[endo[x]] for x in order},
        }
        stages = []
        sizes = list(prefix_sizes) + [len(endo)]
        for k, size in enumerate(prefix_sizes):
            elements = [f"s{k}_{i}" for i in range(size)]
            targets = (
                [names[x] for x in order]
                if k + 1 == len(prefix_sizes)
                else [f"s{k + 1}_{i}" for i in range(sizes[k + 1])]
            )
            stages.append({
                "object": {
                    "elements": [
                        {"id": e, "norm": carrier.literal(carrier.fresh(rng))}
                        for e in elements
                    ]
                },
                "step": {e: rng.choice(targets) for e in elements},
            })
        sequence = {"kind": "sequence", "ambient": "nset", "prefix": stages, "tail": tail}
        value = carrier.carrier.format(
            refs.tail_cauchy_value(
                carrier.carrier,
                {names[x]: norms[x] for x in endo},
                {names[x]: names[endo[x]] for x in endo},
            )
        )
        verdict = "pass" if cauchy else "fail"
        spec_tasks, verdicts, checks = [], [], []
        for op in tasks:
            spec_tasks.append({"op": op, "target": "s"})
            verdicts.append("pass" if op == "validate" else verdict)
            if op in ("cauchy", "colimit") and (op == "cauchy" or not cauchy):
                checks.append((len(spec_tasks) - 1, "value", value))
        spec = {"quantale": carrier.name, "objects": {"s": sequence}, "tasks": spec_tasks}
        return spec, verdicts, checks

    return build


def _cycle_metric(m, scale):
    """Points 0..m-1 on a cycle, d(i, j) = scale * cyclic distance."""
    return [[scale * min(abs(i - j), m - abs(i - j)) for j in range(m)] for i in range(m)]


def _rotation(m, shift, prefix_scales):
    # A rotation is an isometry and the prefix maps only shrink distances, so
    # every step has norm 0 (the unit): the sequence is Cauchy, both colimit
    # constructions verify, and the apex is the cycle metric again.
    def build(rng):
        names, order = _present(rng, m, "abcdefgh")
        scale = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))

        def literal(s):
            d = _cycle_metric(m, scale * s)
            return {
                "objects": [names[i] for i in order],
                "dist": [[str(d[i][j]) for j in order] for i in order],
            }

        ident = {names[i]: names[i] for i in order}
        sequence = {
            "kind": "sequence",
            "ambient": "dset",
            "prefix": [{"object": literal(s), "step": ident} for s in prefix_scales],
            "tail": {
                "object": literal(1),
                "endo": {names[i]: names[(i + shift) % m] for i in order},
            },
        }
        spec = {
            "quantale": "lawvere-plus",
            "objects": {"s": sequence},
            "tasks": [
                {"op": "cauchy", "target": "s"},
                {"op": "colimit", "target": "s"},
                {"op": "colimit", "target": "s", "vlip": True},
            ],
        }
        return spec, ["pass", "pass", "pass"], [(0, "value", "0")]

    return build


def _random_matrix(rng, rows, cols):
    return [
        [
            refs.INF if rng.random() < 0.05
            else Fraction(rng.randint(0, 60), rng.choice((1, 2, 3, 4, 6)))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def _discrete_lawvere(objs):
    return [["0" if x == y else "inf" for y in objs] for x in objs]


def _compose(n):
    def build(rng):
        objs = [f"x{i}" for i in range(n)]
        inner = _random_matrix(rng, n, n)
        outer = _random_matrix(rng, n, n)
        expected = [[refs.fmt(v) for v in row] for row in refs.minplus(outer, inner)]

        def vdist(matrix):
            return {
                "kind": "vdist", "source": "X", "target": "X",
                "values": [[refs.fmt(v) for v in row] for row in matrix],
            }

        spec = {
            "quantale": "lawvere-plus",
            "objects": {
                "X": {"kind": "vcat", "objects": objs, "dist": _discrete_lawvere(objs)},
                "inner": vdist(inner),
                "outer": vdist(outer),
            },
            "tasks": [{"op": "compose", "outer": "outer", "inner": "inner"}],
        }
        return spec, ["info"], [(0, "values", expected)]

    return build


def _grid_points(rng, n, prefix):
    cells = rng.sample([(i, j) for i in range(12) for j in range(12)], n)
    step = Fraction(1, rng.choice((1, 2, 3)))
    return {f"{prefix}{k}": (i * step, j * step) for k, (i, j) in enumerate(cells)}


def _l1(points):
    return {
        (a, b): abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
        for a, pa in points.items()
        for b, pb in points.items()
    }


def _vcat_from_dist(points, dist):
    objs = list(points)
    return {"kind": "vcat", "objects": objs, "dist": [[str(dist[(a, b)]) for b in objs] for a in objs]}


def _lipnorm(n_source, n_target):
    def build(rng):
        xs, ys = _grid_points(rng, n_source, "x"), _grid_points(rng, n_target, "y")
        dx, dy = _l1(xs), _l1(ys)
        mapping = {x: rng.choice(list(ys)) for x in xs}
        expected = refs.fmt(refs.lipnorm_multiplicative(dx, dy, mapping))
        spec = {
            "quantale": "lawvere-plus",
            "objects": {"X": _vcat_from_dist(xs, dx), "Y": _vcat_from_dist(ys, dy)},
            "tasks": [
                {"op": "lipnorm", "source": "X", "target": "Y", "map": mapping,
                 "mode": mode}
                for mode in ("multiplicative", "log")
            ],
        }
        return spec, ["info", "info"], [(0, "value", expected)]

    return build


def _metric_sequence(n_points, n_prefix, n_tail):
    def build(rng):
        points = _grid_points(rng, n_points, "m")
        dist = _l1(points)
        names = list(points)
        prefix = [rng.choice(names) for _ in range(n_prefix)]
        tail = rng.sample(names, n_tail)
        candidate = rng.choice(tail)
        value = refs.forward_cauchy_value(dist, tail)
        limit = refs.is_forward_limit(dist, names, tail, candidate)
        spec = {
            "quantale": "lawvere-plus",
            "objects": {
                "X": _vcat_from_dist(points, dist),
                "ms": {
                    "kind": "metric_sequence", "space": "X", "prefix_points": prefix,
                    "tail": {"points": tail, "period": n_tail},
                },
            },
            "tasks": [
                {"op": "cauchy", "target": "ms"},
                {"op": "forward-limit", "target": "ms", "point": candidate},
            ],
        }
        verdicts = ["pass" if value == 0 else "fail", "pass" if limit else "fail"]
        return spec, verdicts, [(0, "value", refs.fmt(value))]

    return build


_PLUS, _TIMES = _Rational("additive"), _Rational("multiplicative")
_SEQ_TASKS = ("validate", "cauchy", "colimit")

COLIMIT_RATIONAL = [
    ("metric-a", _metric_sequence(16, 3, 1)),
    ("metric-b", _metric_sequence(20, 4, 3)),
    ("lipnorm-20", _lipnorm(20, 16)),
    ("nset-plus-nc", _nset_sequence(_PLUS, (4,), (3, 3), (3,), False, _SEQ_TASKS)),
    ("nset-times-nc", _nset_sequence(_TIMES, (3,), (3, 2), (3,), False, _SEQ_TASKS)),
    ("rotation-8", _rotation(8, 2, (3, 2))),
    ("rotation-10", _rotation(10, 5, (4, 3, 2))),
    # validate_sequence is cubic in the window (prefix + transient + period):
    # 14 for the middle group, 21 for the top group
    *_copies("nset-plus-w14", _nset_sequence(_PLUS, (2, 3), (4,), (3,) * 4, True, _SEQ_TASKS), 2),
    *_copies("nset-times-w14", _nset_sequence(_TIMES, (2, 3), (4,), (3,) * 4, True, _SEQ_TASKS), 2),
    ("compose-28", _compose(28)),
    ("compose-30", _compose(30)),
    ("compose-32", _compose(32)),
    *_copies("nset-plus-w21", _nset_sequence(_PLUS, (5,), (8,), (3,) * 8, True, _SEQ_TASKS), 2),
    *_copies("nset-times-w21", _nset_sequence(_TIMES, (5,), (8,), (3,) * 8, True, _SEQ_TASKS), 2),
]


# ---------------------------------------------------------------------------
# colimit-probe


def _inline_chain(n):
    """An n-element meet-chain as an inline quantale table."""
    names = [f"c{i}" for i in range(n)]
    return names, {
        "elements": names,
        "leq": [[i <= j for j in range(n)] for i in range(n)],
        "tensor": [[names[min(i, j)] for j in range(n)] for i in range(n)],
        "unit": names[-1],
    }


def _vlip_chain(n, points, prefix_len):
    # A chain's top is totally below itself, so the vlip hypothesis holds; a
    # tail endomap onto one point makes every map norm the unit (Cauchy), and
    # the one-point apex is a V-category.  The check walks all 2^n subsets.
    def build(rng):
        names, table = _inline_chain(n)
        pts, order = _present(rng, points, "abcdefgh")
        top = len(names) - 1

        def literal():
            d = [[top if i == j else rng.randrange(top) for j in range(points)]
                 for i in range(points)]
            # symmetric and min-transitive: an ultrametric-like matrix
            for i in range(points):
                for j in range(i):
                    d[i][j] = d[j][i] = min(d[j][i], d[i][j])
            for k in range(points):
                for i in range(points):
                    for j in range(points):
                        d[i][j] = max(d[i][j], min(d[i][k], d[k][j]))
            return {
                "objects": [pts[i] for i in order],
                "dist": [[names[d[i][j]] for j in order] for i in order],
            }

        sink = pts[rng.randrange(points)]
        sequence = {
            "kind": "sequence",
            "ambient": "dset",
            "prefix": [
                {"object": literal(), "step": {p: p for p in pts}}
                for _ in range(prefix_len)
            ],
            "tail": {"object": literal(), "endo": {p: sink for p in pts}},
        }
        spec = {
            "quantale": table,
            "objects": {"s": sequence},
            "tasks": [
                {"op": "colimit", "target": "s"},
                {"op": "colimit", "target": "s", "vlip": True},
            ],
        }
        return spec, ["pass", "pass"], []

    return build


_C3 = _Chain("chain3", _CHAINS["chain3"])

COLIMIT_PROBE = [
    ("noncauchy-c3-a", _nset_sequence(_C3, (2,), (2, 2), (2,), False, ("cauchy", "colimit"))),
    ("noncauchy-c3-b", _nset_sequence(_C3, (3,), (3,), (), False, ("cauchy", "colimit"))),
    ("noncauchy-c3-c", _nset_sequence(_C3, (2, 2), (3,), (2,), False, ("cauchy", "colimit"))),
    ("rho-c3-apex3", _nset_sequence(_C3, (3,), (2, 2), (2,), True, _SEQ_TASKS)),
    ("vlip-chain8", _vlip_chain(8, 1, 1)),
    *_copies("rho-c3-apex3b", _nset_sequence(_C3, (3,), (3, 3), (3, 3), True, _SEQ_TASKS)),
    ("vlip-chain9", _vlip_chain(9, 2, 1)),
    ("vlip-chain11", _vlip_chain(11, 1, 1)),
    *_copies("rho-c3-apex4", _nset_sequence(_C3, (4,), (2,), (2,), True, _SEQ_TASKS)),
]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decide-vcat", 65536, DEFAULT_PROBE, DECIDE_VCAT),
        Workload("decide-ncat", 4096, DEFAULT_PROBE, DECIDE_NCAT),
        Workload("colimit-rational", 4096, DEFAULT_PROBE, COLIMIT_RATIONAL),
        Workload("colimit-probe", 4096, DEFAULT_PROBE, COLIMIT_PROBE),
    )
}


# ---------------------------------------------------------------------------
# cases


def build_case(workload: Workload, slot: str, variant: int) -> Case:
    build = dict(workload.slots)[slot]
    spec, verdicts, checks = build(random.Random(f"{workload.name}/{slot}/{variant}"))
    text = json.dumps(spec, indent=1) + "\n"
    return Case(f"{slot}-v{variant}", text, verdicts, checks)


def cases(workload: Workload, seed: int) -> list[Case]:
    """The seed's files: one variant per slot, in a seeded order."""
    rng = random.Random(f"{workload.name}#{seed}")
    chosen = [(slot, rng.randrange(POOL)) for slot, _ in workload.slots]
    rng.shuffle(chosen)
    return [build_case(workload, slot, v) for slot, v in chosen]


def pool(workload: Workload) -> list[Case]:
    """Every file any seed can produce."""
    return [
        build_case(workload, slot, v) for slot, _ in workload.slots for v in range(POOL)
    ]
