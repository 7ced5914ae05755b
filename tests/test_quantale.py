import random
import re
from collections import Counter
from fractions import Fraction
from itertools import chain, product

import pytest
from hypothesis import example, given, strategies as st

from quantcat.common import CarrierMismatch
from quantcat.ncat import NormedCategory
from quantcat.normed_set import NormedSet
from quantcat.quantale import (
    INF,
    FiniteQuantale,
    LawvereQuantale,
    as_extended_rational,
    builtin_quantale,
    chain3,
    lawvere_plus,
    lawvere_times,
    totally_below,
    unit_approximated_from_totally_below,
    validate_quantale,
)
from quantcat.vcat import (
    VCategory,
    VDistributor,
    isbell_conjugate_weight,
    unit_vcat,
)

from helpers import (
    fold_meet_of_homs,
    i_embed,
    join_hom_table,
    left_weight,
    method_validate_quantale,
    pairwise_lattice_tables,
    subsets,
)

# ---------------------------------------------------------------------------
# oracles

RATIONAL_GRID = sorted(
    {Fraction(p, q) for p in range(0, 25) for q in (1, 2, 3, 4, 6, 12)}
)


def oracle_join_lawvere(q, values, candidates):
    """Least upper bound in the >=-order, found by scanning candidates."""
    uppers = [c for c in candidates if all(q.leq(v, c) for v in values)]
    least = [c for c in uppers if all(q.leq(c, u) for u in uppers)]
    assert least, "no candidate upper bound"
    return least[0]


def oracle_bound(q, S, upper=True):
    """Least upper (or greatest lower) bound of S, scanning the carrier;
    None when it does not exist."""
    le = q.leq if upper else (lambda u, v: q.leq(v, u))
    bounds = [c for c in q.carrier() if all(le(s, c) for s in S)]
    best = [c for c in bounds if all(le(c, b) for b in bounds)]
    return best[0] if best else None


def oracle_hom_grid(q, u, v, grid):
    """Largest w on the grid with w ⊗ u ≤ v, in the quantale order."""
    good = [w for w in grid if q.leq(q.tensor(w, u), v)]
    best = [w for w in good if all(q.leq(x, w) for x in good)]
    assert best, "no residual on the grid"
    return best[0]


# ---------------------------------------------------------------------------
# joins


def test_join_two_chain_top_absorbs(q2):
    assert q2.join([q2.el("0"), q2.el("1")]) == q2.el("1")


def test_join_additive_is_numeric_min(qplus):
    # frozen from the order-theoretic oracle over the rational grid
    expected = oracle_join_lawvere(
        qplus, [Fraction(1, 2), Fraction(1, 3)], RATIONAL_GRID + [INF]
    )
    assert expected == Fraction(1, 3)
    assert qplus.join([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 3)


def test_empty_join_is_bottom(q2, q3, qplus, qtimes):
    assert q2.join([]) == q2.bottom == q2.el("0")
    assert q3.join([]) == q3.el("0")
    assert qplus.join([]) is INF
    assert qtimes.join([]) is INF


def test_empty_meet_is_top(q2, qplus):
    assert q2.meet([]) == q2.el("1")
    assert qplus.meet([]) == Fraction(0)


# ---------------------------------------------------------------------------
# residuation


def test_hom_multiplicative_ratio_conventions(qtimes):
    # hom(u, v) is the ratio v/u: 0/0 = 0, a/0 = inf, a/inf = inf/inf = 0
    zero, two = Fraction(0), Fraction(2)
    assert qtimes.hom(zero, zero) == 0  # 0/0
    assert qtimes.hom(zero, two) is INF  # 2/0
    assert qtimes.hom(INF, two) == 0  # 2/inf
    assert qtimes.hom(INF, INF) == 0  # inf/inf
    assert qtimes.hom(two, INF) is INF
    assert qtimes.hom(Fraction(3), Fraction(2)) == Fraction(2, 3)
    # the tensor preserves bottom: u * inf = inf even for u = 0
    assert qtimes.tensor(zero, INF) is INF


def test_hom_two_chain_is_implication(q2):
    assert q2.hom(q2.el("1"), q2.el("0")) == q2.el("0")
    assert q2.hom(q2.el("0"), q2.el("1")) == q2.el("1")


def test_hom_additive_truncated_difference(qplus):
    # frozen from the grid oracle
    assert oracle_hom_grid(qplus, Fraction(1), Fraction(3), RATIONAL_GRID + [INF]) == 2
    assert qplus.hom(Fraction(1), Fraction(3)) == Fraction(2)
    assert qplus.hom(Fraction(3), Fraction(1)) == Fraction(0)
    assert qplus.hom(INF, Fraction(5)) == Fraction(0)
    assert qplus.hom(Fraction(5), INF) is INF
    assert qplus.hom(INF, INF) == Fraction(0)


@given(
    st.fractions(min_value=0, max_value=100, max_denominator=12) | st.just(INF),
    st.fractions(min_value=0, max_value=100, max_denominator=12) | st.just(INF),
    st.fractions(min_value=0, max_value=100, max_denominator=12) | st.just(INF),
)
def test_residuation_adjunction_lawvere(u, v, w):
    for q in (builtin_quantale("lawvere-plus"), builtin_quantale("lawvere-times")):
        # u ⊗ v ≤ w  iff  v ≤ hom(u, w)
        assert q.leq(q.tensor(u, v), w) == q.leq(v, q.hom(u, w))
        # hom(u, v ⊗ u) ≥ v
        assert q.leq(v, q.hom(u, q.tensor(v, u)))


def exhaustive_residuation_adjunction(q):
    for u in q.carrier():
        for v in q.carrier():
            for w in q.carrier():
                assert q.leq(q.tensor(u, v), w) == q.leq(v, q.hom(u, w))


def test_residuation_adjunction_finite(q2, q3, q4chain, q4bool, qluka, q1):
    for q in (q2, q3, q4chain, q4bool, qluka, q1):
        exhaustive_residuation_adjunction(q)


def test_tensor_preserves_joins_exhaustive(q2, q3, q4chain, q4bool, qluka):
    for q in (q2, q3, q4chain, q4bool, qluka):
        for u in q.carrier():
            for S in subsets(q):
                assert q.tensor(u, q.join(S)) == q.join(q.tensor(u, s) for s in S)


def test_lattice_tables_match_oracle(q2, q3, q4chain, q4bool, qluka, q1):
    for q in (q2, q3, q4chain, q4bool, qluka, q1):
        assert q.bottom == oracle_bound(q, ())
        assert q.top == oracle_bound(q, (), upper=False)
        for S in subsets(q):
            assert q.join(S) == oracle_bound(q, S), (q, S)
            assert q.meet(S) == oracle_bound(q, S, upper=False), (q, S)


def two_maximal() -> FiniteQuantale:
    """0 below two incomparable maximal elements a, b: no a ∨ b and no top."""
    return FiniteQuantale(
        ["0", "a", "b"],
        [[True, True, True], [False, True, False], [False, False, True]],
        [["0", "0", "0"], ["0", "a", "0"], ["0", "0", "b"]],
        "a",
    )


def three_atoms() -> FiniteQuantale:
    """Three incomparable elements under a top: no bottom and no binary meets."""
    leq = [[u == v or v == 3 for v in range(4)] for u in range(4)]
    tensor = [["x"] * 4, ["x"] * 4, ["x"] * 4, ["x", "x", "x", "t"]]
    return FiniteQuantale(["x", "y", "z", "t"], leq, tensor, "t")


def test_non_lattice_tables_follow_the_oracle():
    for q in (two_maximal(), three_atoms()):
        for u in q.carrier():
            for v in q.carrier():
                for op, upper in ((q.join, True), (q.meet, False)):
                    expected = oracle_bound(q, (u, v), upper)
                    if expected is None:
                        with pytest.raises(ValueError, match="does not exist"):
                            op([u, v])
                    else:
                        assert op([u, v]) == expected


def test_non_lattice_missing_extremes_raise():
    q = two_maximal()
    assert q.join([]) == q.bottom == q.el("0")
    with pytest.raises(ValueError, match="no top element"):
        q.meet([])
    q = three_atoms()
    assert q.meet([]) == q.top == q.el("t")
    with pytest.raises(ValueError, match="no bottom element"):
        q.join([])


def test_hom_table_matches_join_over_carrier(qluka, qabove):
    # the residual table against hom's defining join over the carrier; where
    # a non-lattice table has no such join, hom raises that join's error
    tables = [builtin_quantale(name) for name in FINITE_BUILTINS]
    tables += [qluka, qabove, two_maximal(), three_atoms()]
    missing = set()
    for q in tables:
        for u in q.carrier():
            for v in q.carrier():
                below = [w for w in q.carrier() if q.leq(q.tensor(w, u), v)]
                try:
                    expected = q.join(below)
                except ValueError as exc:
                    assert q.hom_table[u][v] is None, (q, u, v)
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        q.hom(u, v)
                    missing.add(str(exc))
                else:
                    assert q.hom(u, v) == q.hom_table[u][v] == expected, (q, u, v)
    assert missing == {
        "join does not exist (not a lattice)",
        "carrier has no bottom element",
    }


def test_validate_non_lattice_witnesses():
    # pinned: the last missing pair in row-major order, or "empty" when only
    # the bottom (top) is missing; the validator stops after these checks
    for q, joins, meets in (
        (two_maximal(), "(2, 1)", "('empty',)"),
        (three_atoms(), "('empty',)", "(2, 1)"),
    ):
        report = validate_quantale(q)
        assert [(c.name, c.ok, c.witness) for c in report.checks] == [
            ("order-reflexive", True, None),
            ("order-antisymmetric", True, None),
            ("order-transitive", True, None),
            ("lattice-joins", False, joins),
            ("lattice-meets", False, meets),
        ]


# ---------------------------------------------------------------------------
# validation


def diamond_m3() -> FiniteQuantale:
    """The non-distributive lattice M3 with tensor = meet: a ∧ (b ∨ c) = a
    but (a ∧ b) ∨ (a ∧ c) = bot."""
    names = ["bot", "a", "b", "c", "top"]
    leq = [[u == v or u == 0 or v == 4 for v in range(5)] for u in range(5)]
    tensor = [
        [u if u == v or v == 4 else v if u == 4 else 0 for v in range(5)]
        for u in range(5)
    ]
    return FiniteQuantale(names, leq, tensor, "top")


def join_as_tensor() -> FiniteQuantale:
    """The two-chain with tensor = join and unit 0: binary joins are
    preserved but the empty one is not, since 1 ⊗ 0 = 1."""
    return FiniteQuantale(
        ["0", "1"], [[True, True], [False, True]], [["0", "1"], ["1", "1"]], "0"
    )


def test_binary_distributivity_matches_subset_oracle(qluka):
    tables = [builtin_quantale(name) for name in FINITE_BUILTINS]
    tables += [qluka, diamond_m3(), join_as_tensor()]
    for q in tables:
        oracle = all(
            q.tensor(u, q.join(S)) == q.join(q.tensor(u, s) for s in S)
            for u in q.carrier()
            for S in subsets(q)
        )
        checks = {c.name: c.ok for c in validate_quantale(q).checks}
        assert checks["tensor-join-distributive"] == oracle, q
    for q in (diamond_m3(), join_as_tensor()):
        failed = [c.name for c in validate_quantale(q).failures()]
        assert failed == ["tensor-join-distributive"], q


def test_validate_builtin_tables():
    for name in ("bool2", "chain3", "chain4", "bool4", "one"):
        assert validate_quantale(builtin_quantale(name)).ok, name


def test_validate_three_chain_meet(q3):
    report = validate_quantale(q3)
    assert report.ok


def test_validate_wrong_unit_fails():
    # 3-chain with tensor = meet but declared unit m: m ⊗ 1 = m != 1
    good = chain3()
    bad = FiniteQuantale(
        good.names,
        [[good.leq(u, v) for v in good.carrier()] for u in good.carrier()],
        [[good.tensor(u, v) for v in good.carrier()] for u in good.carrier()],
        "m",
    )
    report = validate_quantale(bad)
    assert not report.ok
    assert any("tensor-unit" == c.name for c in report.failures())


def test_validate_broken_order_reports_witness():
    q = FiniteQuantale(
        ["x", "y"], [[False, True], [False, True]], [["x", "x"], ["x", "y"]], "y"
    )
    report = validate_quantale(q)
    bad = [c for c in report.failures() if c.name == "order-reflexive"]
    assert bad and bad[0].witness == "x"


def random_table(rng) -> FiniteQuantale:
    """A seeded table of size 1–5: a fifth have an arbitrary order relation,
    the rest a random poset, a lattice or not; the tensor is an arbitrary
    table (most are not commutative), a symmetrised one, or, on half the
    lattices, the meet."""
    n = rng.randint(1, 5)
    if rng.random() < 0.2:
        leq = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
    else:
        rank = rng.sample(range(n), n)
        leq = [[i == j or rank[i] < rank[j] and rng.random() < 0.6 for j in range(n)]
               for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    leq[i][j] = leq[i][j] or leq[i][k] and leq[k][j]
    tensor = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.3:
        tensor = [[tensor[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    names = [f"e{i}" for i in range(n)]
    q = FiniteQuantale(names, leq, tensor, rng.randrange(n))
    lattice = q._top is not None and None not in chain(*q.meet_table)
    if lattice and rng.random() < 0.5:
        q = FiniteQuantale(names, leq, q.meet_table, q.top)
    return q


def test_validate_and_hom_table_match_their_oracles(qluka, qabove):
    tables = [builtin_quantale(name) for name in FINITE_BUILTINS]
    tables += [qluka, qabove, two_maximal(), three_atoms(), diamond_m3(), join_as_tensor()]
    rng = random.Random(17)
    tables += [random_table(rng) for _ in range(2400)]
    failed, passed = Counter(), 0
    for q in tables:
        report = [(c.name, c.ok, c.witness) for c in validate_quantale(q).checks]
        assert report == [
            (c.name, c.ok, c.witness) for c in method_validate_quantale(q).checks
        ], q
        assert q.hom_table == join_hom_table(q), q
        assert (q.join_table, q.meet_table, q._bottom, q._top) == pairwise_lattice_tables(q), q
        failed.update(name for name, ok, _ in report if not ok)
        passed += all(ok for _, ok, _ in report)
    # the sweep fails every check somewhere, and passes all of them elsewhere
    assert set(failed) == {
        "order-reflexive", "order-antisymmetric", "order-transitive",
        "lattice-joins", "lattice-meets", "tensor-commutative",
        "tensor-associative", "tensor-unit", "tensor-join-distributive",
    }, failed
    assert passed > 100


def test_validate_reads_the_tables_only(monkeypatch, qluka):
    calls = Counter()
    for method in ("leq", "tensor", "join", "meet", "hom"):
        def counted(self, *args, _method=method, _original=getattr(FiniteQuantale, method)):
            calls[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(FiniteQuantale, method, counted)
    tables = [builtin_quantale(name) for name in FINITE_BUILTINS]
    tables += [qluka, two_maximal(), three_atoms(), diamond_m3(), join_as_tensor()]
    for q in tables:
        validate_quantale(q)
    assert not calls
    method_validate_quantale(qluka)
    assert calls["leq"] and calls["tensor"] and calls["join"]


def _outcome(f, *args):
    """f(*args), or the type and text of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def two_atoms_under_top() -> FiniteQuantale:
    """a, b incomparable under a top 1, with w ⊗ 1 = w and w ⊗ u = 1
    otherwise: hom(1, a) = a and hom(1, b) = b exist, their meet does not."""
    leq = [[u == v or v == 2 for v in range(3)] for u in range(3)]
    tensor = [[w if u == 2 else 2 for u in range(3)] for w in range(3)]
    return FiniteQuantale(["a", "b", "1"], leq, tensor, "1")


def test_finite_meet_of_homs_matches_the_method_fold(qluka):
    # every pair list of length 0–3; tables with no top, a missing residual
    # or a missing meet raise what the fold raises, at the same pair
    tables = [builtin_quantale(name) for name in FINITE_BUILTINS]
    tables += [qluka, two_maximal(), three_atoms(), two_atoms_under_top()]
    raised = set()
    for q in tables:
        pairs = list(product(q.carrier(), repeat=2))
        for k in range(4):
            for chosen in product(pairs, repeat=k):
                expected = _outcome(fold_meet_of_homs, q, chosen)
                assert _outcome(q.meet_of_homs, iter(chosen)) == expected, (q, chosen)
                if isinstance(expected, tuple):
                    raised.add(expected)
    assert raised == {
        (ValueError, "carrier has no top element"),
        (ValueError, "carrier has no bottom element"),
        (ValueError, "join does not exist (not a lattice)"),
        (ValueError, "meet does not exist (not a lattice)"),
    }


# 0, INF, small fractions, and numerators or denominators around 10^50
LAWVERE_VALUES = st.one_of(
    st.just(Fraction(0)),
    st.just(INF),
    st.fractions(min_value=0, max_value=20, max_denominator=12),
    st.builds(lambda n, d: Fraction(10**50 + n, d),
              st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(lambda n, d: Fraction(n, 10**50 + d),
              st.integers(0, 10**6), st.integers(-10**6, 10**6)),
)


@given(
    st.sampled_from(["additive", "multiplicative"]),
    st.lists(st.tuples(LAWVERE_VALUES, LAWVERE_VALUES), max_size=6),
)
@example("additive", [])
@example("multiplicative", [(Fraction(0), Fraction(0)), (Fraction(0), INF)])
@example("multiplicative", [(Fraction(2), Fraction(1)), (INF, INF), (Fraction(0), Fraction(0))])
@example("additive", [(Fraction(1, 3), INF), (INF, Fraction(1))])
def test_lawvere_meet_of_homs_matches_the_method_fold(mode, pairs):
    q = LawvereQuantale(mode)
    got, expected = q.meet_of_homs(iter(pairs)), fold_meet_of_homs(q, pairs)
    assert type(got) is type(expected) and got == expected


@given(st.lists(LAWVERE_VALUES, max_size=6))
@example([Fraction(1, 2), Fraction(2, 4), Fraction(1, 3), Fraction(1, 3)])
@example([Fraction(0), Fraction(0, 5)])
def test_lawvere_join_and_meet_are_the_first_min_and_max(values):
    # join is the first numeric least value (min), meet the first greatest
    # (max) or INF; a meet of zeros may return the top
    for q in (lawvere_plus(), lawvere_times()):
        assert q.join(iter(values)) is min((v for v in values if v is not INF), default=INF)
        got = q.meet(iter(values))
        if any(v is INF for v in values):
            assert got is INF
        else:
            expected = max(values, default=Fraction(0))
            assert got == expected and (got is expected or got == 0)


def test_carrier_mismatch_errors(q2, qplus):
    with pytest.raises(CarrierMismatch):
        q2.el("does-not-exist")
    with pytest.raises(CarrierMismatch):
        q2.check(7)
    with pytest.raises(CarrierMismatch):
        qplus.check(-1)
    with pytest.raises(CarrierMismatch):
        qplus.check(0.5)


# Every constructor that checks its values, as a function storing one raw
# value over q and reading back what it stored.
STORING_CONSTRUCTORS = {
    "NormedSet": lambda q, raw: NormedSet(q, {"x": raw}).norm("x"),
    "i_embed": lambda q, raw: i_embed(q, raw).norm("*"),
    "VCategory": lambda q, raw: VCategory(q, ["x"], [[raw]]).d("x", "x"),
    "VDistributor": lambda q, raw: VDistributor(unit_vcat(q), unit_vcat(q), [[raw]]).at("*", "*"),
    "NormedCategory": lambda q, raw: NormedCategory(
        q, ["a"], ["1"], {"1": "a"}, {"1": "a"}, {"a": "1"}, {("1", "1"): "1"},
        {"1": raw},
    ).norm["1"],
    "FiniteQuantale.unit": lambda q, raw: FiniteQuantale(
        q.names,
        [[q.leq(u, v) for v in q.carrier()] for u in q.carrier()],
        [[q.tensor(u, v) for v in q.carrier()] for u in q.carrier()],
        raw,
    ).unit,
    "FiniteQuantale.tensor": lambda q, raw: FiniteQuantale(
        q.names,
        [[q.leq(u, v) for v in q.carrier()] for u in q.carrier()],
        [[raw if (u, v) == (0, 0) else q.tensor(u, v) for v in q.carrier()]
         for u in q.carrier()],
        q.unit,
    ).tensor(0, 0),
}
FINITE_ONLY = {"FiniteQuantale.unit", "FiniteQuantale.tensor"}


@pytest.mark.parametrize("ctor", sorted(STORING_CONSTRUCTORS))
def test_constructors_store_canonical_values(ctor, q2, qplus):
    store = STORING_CONSTRUCTORS[ctor]
    for raw, expected in (("1", 1), ("0", 0), (1, 1), (0, 0)):
        stored = store(q2, raw)
        assert stored == expected and type(stored) is int, (raw, stored)
    if ctor in FINITE_ONLY:
        return
    for raw, expected in (
        ("1/2", Fraction(1, 2)), (3, Fraction(3)), (" 7/3 ", Fraction(7, 3)),
        (Fraction(2), Fraction(2)),
    ):
        stored = store(qplus, raw)
        assert stored == expected and type(stored) is Fraction, (raw, stored)
    for raw in ("inf", "INF", INF):
        assert store(qplus, raw) is INF


@pytest.mark.parametrize("ctor", sorted(STORING_CONSTRUCTORS))
def test_constructors_reject_foreign_values(ctor, q2, qplus):
    store = STORING_CONSTRUCTORS[ctor]
    for raw in ("nope", 2, -1, True, 0.5, None, Fraction(1)):
        with pytest.raises(CarrierMismatch):
            store(q2, raw)
    if ctor in FINITE_ONLY:
        return
    for raw in (-1, "-1/2", 0.5, True, None):
        with pytest.raises(CarrierMismatch):
            store(qplus, raw)


def test_lawvere_times_results_stay_exact():
    q = builtin_quantale("lawvere-times")
    X = VCategory(
        q,
        ["a", "b", "c"],
        [[0, "1/2", "inf"], [3, "0", "2/3"], ["inf", 1, Fraction(0)]],
    )
    values = [v for row in X.rows for v in row]
    homs = [q.hom(u, v) for u in values for v in values]
    joins = [q.join([u, v]) for u in homs for v in values]
    conjugate = isbell_conjugate_weight(left_weight(X, {"a": 2, "b": "1/3", "c": "inf"}))
    results = homs + joins + [v for (v,) in conjugate.rows] + [q.join([]), q.join(homs)]
    assert all(r is INF or type(r) is Fraction for r in results)
    assert not any(isinstance(r, float) for r in results)
    assert q.hom(Fraction(1, 2), Fraction(3)) == Fraction(6)


def test_parse_rules(q2, qplus):
    with pytest.raises(CarrierMismatch):
        q2.parse(1)  # numerals never coerce in finite carriers
    assert qplus.parse("1/2") == Fraction(1, 2)
    assert qplus.parse(3) == Fraction(3)
    assert qplus.parse("inf") is INF
    with pytest.raises(CarrierMismatch):
        qplus.parse(0.5)
    assert as_extended_rational("7/3") == Fraction(7, 3)


# ---------------------------------------------------------------------------
# totally below


def test_totally_below_two_chain(q2):
    # the empty set join-covers bottom, so nothing is totally below bottom
    assert not totally_below(q2, q2.el("0"), q2.el("0"))
    assert totally_below(q2, q2.el("0"), q2.el("1"))
    # frozen by exhausting S ⊆ {0,1} with join 1: every such S contains 1
    assert totally_below(q2, q2.el("1"), q2.el("1"))


def test_totally_below_chain3_and_bool4(q3, q4bool):
    assert totally_below(q3, q3.el("1"), q3.el("1"))
    # top ≤ a ∨ b but neither member is above top
    assert not totally_below(q4bool, q4bool.el("top"), q4bool.el("top"))


def test_totally_below_rejects_lawvere(qplus):
    with pytest.raises(ValueError):
        totally_below(qplus, Fraction(0), Fraction(0))


def test_totally_below_needs_no_budget():
    # 2^13 subsets exceed the default budget of 4096; the closed form does not
    # enumerate them.  On a chain u ⋘ v iff u ≤ v and v is not the bottom.
    n = 13
    q = FiniteQuantale(
        [f"c{i}" for i in range(n)],
        [[i <= j for j in range(n)] for i in range(n)],
        [[min(i, j) for j in range(n)] for i in range(n)],
        n - 1,
    )
    for u in q.carrier():
        for v in q.carrier():
            assert totally_below(q, u, v) == (q.leq(u, v) and v != q.bottom)
    assert unit_approximated_from_totally_below(q)


def oracle_totally_below(q, u, v):
    """Every subset whose join dominates v has a member above u."""
    return all(
        any(q.leq(u, s) for s in S) for S in subsets(q) if q.leq(v, q.join(S))
    )


FINITE_BUILTINS = ("bool2", "chain3", "chain4", "bool4", "one")


def test_totally_below_matches_subset_oracle(qluka):
    for q in [builtin_quantale(name) for name in FINITE_BUILTINS] + [qluka]:
        for u in q.carrier():
            for v in q.carrier():
                assert totally_below(q, u, v) == oracle_totally_below(q, u, v), (
                    q, u, v,
                )


def test_unit_approximated(q2, q3, q4bool, q1):
    assert unit_approximated_from_totally_below(q2)
    assert unit_approximated_from_totally_below(q3)
    assert unit_approximated_from_totally_below(q1)
    # every join-cover of top in the Boolean diamond contains top or both
    # atoms, so a ⋘ top and b ⋘ top; their join is top
    assert totally_below(q4bool, q4bool.el("a"), q4bool.el("top"))
    assert unit_approximated_from_totally_below(q4bool)


def test_builtin_registry_unknown():
    with pytest.raises(ValueError):
        builtin_quantale("nope")


def test_builtin_quantales_are_built_once():
    for name in FINITE_BUILTINS + ("lawvere-plus", "lawvere-times"):
        assert builtin_quantale(name) is builtin_quantale(name)


# ---------------------------------------------------------------------------
# parsing extended rationals


def fraction_str_parse(x):
    """The string path of ``as_extended_rational`` without the ``int`` fast
    path: everything but INF and exponent notation goes to
    ``Fraction(str)``, and a string it rejects is a ``CarrierMismatch``
    naming the value (the strings drawn here are short enough to echo)."""
    s = x.strip().lower()
    if s in ("inf", "infinity", "∞", "oo"):
        return INF
    if "e" in s:
        raise CarrierMismatch(f"exponent notation is not accepted: {x!r}")
    try:
        value = Fraction(s)
    except ValueError:
        raise CarrierMismatch(f"malformed numeral: {x!r}") from None
    if value < 0:
        raise CarrierMismatch(f"negative value outside [0, inf]: {x!r}")
    return value


def parse_outcome(parse, x):
    try:
        value = parse(x)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


@given(st.text(alphabet="0123456789/ .e-+_٣", max_size=6))
@example("7/3")
@example(" 10/4 ")
@example("007/014")
@example("1/0")
@example("0/0")
@example("٣/2")
@example("1_0")
@example("3/")
@example("-1/2")
@example("1e2/3")
@example(" 1E5 ")
@example("²")
def test_int_fast_path_accepts_and_rejects_like_fraction_str(x):
    expected = parse_outcome(fraction_str_parse, x)
    got = parse_outcome(as_extended_rational, x)
    if expected[0] is ZeroDivisionError:
        assert got == (CarrierMismatch, f"zero denominator: {x!r}")
    else:
        assert got == expected


@pytest.mark.parametrize("raw", ["1/0", "0/0", " 3/0 ", "1/00", "1_0/0"])
def test_zero_denominator_is_a_carrier_mismatch(qplus, qtimes, raw):
    for q in (qplus, qtimes):
        with pytest.raises(CarrierMismatch, match="zero denominator"):
            q.parse(raw)


def test_a_numeral_too_long_to_write_back_is_rejected_while_parsing():
    # each digit run is under the limit; the reduced value is 6000 digits
    # over 10^3000, which could not be written back
    with pytest.raises(CarrierMismatch) as exc:
        as_extended_rational("1" * 3000 + "." + "1" * 3000)
    assert str(exc.value) == "numeral too long: 6000 digits (at most 4300 per integer)"
    fits = "1" * 2150 + "." + "1" * 2150
    assert as_extended_rational(fits) == Fraction(fits)


def test_format_checks_only_what_is_not_a_fraction(qplus):
    assert [qplus.format(v) for v in (INF, Fraction(3, 6), "2/4", 3, "inf")] == [
        "inf", "1/2", "1/2", "3", "inf",
    ]
    for raw in (-1, "-1/2", object(), 0.5):
        with pytest.raises(CarrierMismatch):
            qplus.format(raw)


# ---------------------------------------------------------------------------
# the matrix composition hook


def lawvere_matrices(rng, shape, pool):
    """Random rows (n×m) and cols (p×m) over ``pool``, plus the same pair
    with an INF row, an INF column, a zero row and a zero column spliced in
    where the shape has them."""
    n, m, p = shape
    rows = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
    cols = [[rng.choice(pool) for _ in range(m)] for _ in range(p)]
    yield rows, cols
    if n > 1 and p > 1:
        yield [[INF] * m] + rows[1:], cols[:-1] + [[INF] * m]
        yield rows[:-1] + [[Fraction(0)] * m], [[Fraction(0)] * m] + cols[1:]


def test_compose_matrices_match_the_fold_on_extended_rationals(qplus, qtimes):
    import random

    from helpers import join_of_tensors

    rng = random.Random(12)
    pools = [
        [Fraction(a, d) for a in (1, 5, 7, 13) for d in range(1, 13)],
        [Fraction(0), INF] + [Fraction(a, d) for a in range(4) for d in (1, 2, 3, 12)],
        [INF, Fraction(0), Fraction(1)],
        [INF],
        [Fraction(1, 3)],
    ]
    shapes = [
        (1, 1, 1), (2, 3, 4), (4, 3, 2), (3, 1, 3), (1, 5, 1), (5, 5, 5),
        (9, 7, 1), (1, 7, 9), (9, 1, 7), (2, 0, 3), (0, 2, 3), (3, 2, 0), (0, 0, 0),
    ]
    for q in (qplus, qtimes):
        for pool in pools:
            for shape in shapes:
                for rows, cols in lawvere_matrices(rng, shape, pool):
                    got = q.compose_matrices(rows, cols)
                    assert got == join_of_tensors(q, rows, cols), (q, rows, cols)
                    assert all(v is INF or type(v) is Fraction for row in got for v in row)
                    assert [len(row) for row in got] == [shape[2]] * shape[0]


def test_compose_matrices_keep_zero_times_inf_infinite(qtimes, qplus):
    zero = Fraction(0)
    assert qtimes.compose_matrices([[zero]], [[INF]]) == [[INF]]
    assert qtimes.compose_matrices([[zero, INF]], [[INF, zero]]) == [[INF]]
    assert qtimes.compose_matrices([[zero, INF]], [[Fraction(7, 3), zero]]) == [[zero]]
    # an empty middle category: every entry is the bottom
    assert qplus.compose_matrices([[], []], [[]]) == [[INF], [INF]]


def workload_matrix(rng, n, m):
    """An n×m matrix drawn as the benchmark's compose files draw theirs:
    a/d with a ≤ 60 and d ∈ {1, 2, 3, 4, 6}, and INF at about 5%."""
    return [
        [
            INF if rng.random() < 0.05
            else Fraction(rng.randint(0, 60), rng.choice((1, 2, 3, 4, 6)))
            for _ in range(m)
        ]
        for _ in range(n)
    ]


def test_compose_matrices_match_the_fold_on_32x32x32(qplus):
    from helpers import join_of_tensors

    rng = random.Random(27)
    for _ in range(2):
        rows, cols = workload_matrix(rng, 32, 32), workload_matrix(rng, 32, 32)
        assert qplus.compose_matrices(rows, cols) == join_of_tensors(qplus, rows, cols)


def test_compose_matrices_match_the_fold_at_the_top_of_the_scaled_range(qplus):
    """With N the largest numerator, two entries N scale to a sum of exactly
    inf − 1, the largest finite field, and INF + INF fills a field to 2·inf;
    neither may carry into or borrow from the next field."""
    from helpers import join_of_tensors
    from quantcat.quantale import _scaled

    N = Fraction(7)
    rng = random.Random(30)
    pool = [N, N, Fraction(7, 2), Fraction(5, 3), INF, INF]
    for n, m, p in [(4, 3, 5), (6, 6, 6), (3, 8, 2)]:
        rows = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
        cols = [[rng.choice(pool) for _ in range(m)] for _ in range(p)]
        rows[0], cols[0] = [N] * m, [N] * m  # N + N at every middle object
        rows[-1][0], cols[-1][0] = INF, INF
        _, inf, (scaled, _) = _scaled(rows, cols)
        assert 2 * max(v for line in scaled for v in line if v < inf) == inf - 1
        got = qplus.compose_matrices(rows, cols)
        assert got == join_of_tensors(qplus, rows, cols), (rows, cols)
        assert got[0][0] == 2 * N


def test_compose_matrices_build_one_fraction_per_distinct_entry(qplus, monkeypatch):
    import quantcat.quantale as quantale

    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    rng = random.Random(31)
    rows, cols = workload_matrix(rng, 32, 32), workload_matrix(rng, 32, 32)
    monkeypatch.setattr(quantale, "Fraction", counted)
    got = qplus.compose_matrices(rows, cols)
    entries = list(chain(*got))
    distinct = set(entries)
    assert len(distinct) < len(entries)
    assert len({id(v) for v in entries}) == len(distinct)
    assert len(built) == len(distinct - {INF})


# denominators whose lcm passes 2^64 as soon as two of the large ones meet,
# so the packed fields grow past 100 bits
WIDE_DENOMINATORS = (1, 3, 2**61 - 1, (2**31 - 1) * (2**61 - 1), 2**89 - 1)
WIDE_VALUES = st.one_of(
    st.just(INF),
    st.builds(Fraction, st.integers(0, 10**30), st.sampled_from(WIDE_DENOMINATORS)),
)


@given(
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 6),
    st.lists(WIDE_VALUES, min_size=72, max_size=72),
)
@example(2, 2, 2, [Fraction(1, 2**61 - 1), Fraction(10**30, 2**89 - 1), INF] * 24)
def test_compose_matrices_match_the_fold_on_wide_denominators(n, m, p, values):
    from helpers import join_of_tensors

    q = lawvere_plus()
    rows = [values[m * x:m * (x + 1)] for x in range(n)]
    cols = [values[36 + m * z:36 + m * (z + 1)] for z in range(p)]
    got = q.compose_matrices(rows, cols)
    assert got == join_of_tensors(q, rows, cols)
    assert all(v is INF or type(v) is Fraction for row in got for v in row)
    assert [len(row) for row in got] == [p] * n


@pytest.mark.parametrize("name", FINITE_BUILTINS)
def test_compose_matrices_match_the_fold_on_every_2x2_pair(name):
    from itertools import product

    from helpers import join_of_tensors

    q = builtin_quantale(name)
    matrices = [[list(v[:2]), list(v[2:])] for v in product(q.carrier(), repeat=4)]
    for rows in matrices:
        for cols in matrices:
            assert q.compose_matrices(rows, cols) == join_of_tensors(q, rows, cols)
    assert q.compose_matrices([[], []], [[]]) == [[q.bottom], [q.bottom]]


# ---------------------------------------------------------------------------
# the transitivity hook


def near_metrics(rng, q, n, pool):
    """A square matrix over the extended rationals from points on a line
    (rational a, distance |a − b|, in additive mode; integer a, distance
    2^|a − b|, in multiplicative mode; either way the triangle law holds),
    with one entry redrawn from ``pool``: the first failing triple, if any,
    lies anywhere in the scan."""
    additive = q.mode == "additive"
    points = [
        Fraction(rng.randrange(12), rng.choice((1, 2, 3, 5, 7)) if additive else 1)
        for _ in range(n)
    ]
    matrix = [
        [abs(a - b) if additive else Fraction(2 ** int(abs(a - b))) for b in points]
        for a in points
    ]
    if n:
        matrix[rng.randrange(n)][rng.randrange(n)] = rng.choice(pool)
    return matrix


def test_first_intransitive_matches_the_scan_on_extended_rationals(qplus, qtimes):
    import random

    from helpers import scan_first_intransitive

    rng = random.Random(15)
    pools = [
        [INF, Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)],
        [INF, Fraction(0)] + [Fraction(a, d) for a in (1, 5, 7, 13, 40) for d in (1, 4, 6, 7, 9)],
        [INF, Fraction(0)],
        [Fraction(10**30, 7), Fraction(1, 10**12), INF],
    ]
    failing = 0
    for q in (qplus, qtimes):
        for pool in pools:
            for n in range(7):
                for reflexive in (False, True):
                    for _ in range(40):
                        matrix = [
                            [q.unit if i == j and reflexive else rng.choice(pool)
                             for j in range(n)]
                            for i in range(n)
                        ]
                        for m in (matrix, near_metrics(rng, q, n, pool)):
                            expected = scan_first_intransitive(q, m)
                            assert q.first_intransitive(m) == expected, (q, m)
                            failing += expected is not None
    assert failing > 1000  # the draws reach failures as well as passes


@pytest.mark.parametrize("name", FINITE_BUILTINS)
def test_first_intransitive_matches_the_scan_on_every_small_table(name):
    from itertools import product

    from helpers import scan_first_intransitive

    q = builtin_quantale(name)
    for n in range(3):
        for v in product(q.carrier(), repeat=n * n):
            matrix = [list(v[i * n:(i + 1) * n]) for i in range(n)]
            assert q.first_intransitive(matrix) == scan_first_intransitive(q, matrix)


def test_first_intransitive_reads_the_tensor_in_law_order(qluka):
    import random

    from helpers import scan_first_intransitive

    # u ⊗ v = u is not commutative: the law reads matrix[j][k] ⊗ matrix[i][j]
    left = FiniteQuantale(["0", "1", "2"], [[i <= j for j in range(3)] for i in range(3)],
                          [[u] * 3 for u in range(3)], "2")
    rng = random.Random(4)
    for q in (qluka, left):
        for n in (3, 4, 5):
            for _ in range(300):
                matrix = [[rng.choice(q.carrier()) for _ in range(n)] for _ in range(n)]
                assert q.first_intransitive(matrix) == scan_first_intransitive(q, matrix)


def test_additive_triangle_law_runs_on_integers(qplus, monkeypatch):
    from quantcat.quantale import LawvereQuantale

    def no_fraction_fold(*args):
        raise AssertionError("the additive triangle law folded Fractions")

    monkeypatch.setattr(LawvereQuantale, "tensor", no_fraction_fold)
    monkeypatch.setattr(LawvereQuantale, "leq", no_fraction_fold)
    third, half = Fraction(1, 3), Fraction(1, 2)
    metric = [[Fraction(0), third, INF], [third, Fraction(0), half], [INF, half, Fraction(0)]]
    assert qplus.first_intransitive(metric) == (0, 1, 2)  # 1/2 + 1/3 < inf
    metric[0][2] = metric[2][0] = Fraction(5, 6)
    assert qplus.first_intransitive(metric) is None
    metric[0][2] = Fraction(6, 7)
    assert qplus.first_intransitive(metric) == (0, 1, 2)
    assert qplus.first_intransitive([]) is None
    assert qplus.first_intransitive([[INF]]) is None
