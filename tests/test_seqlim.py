import functools
import json
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from quantcat import seqlim
from quantcat.cli import load_instance, main
from quantcat.common import BudgetExceeded, ConstructionError, PreconditionError
from quantcat.ncat import conjugate_families
from quantcat.normed_set import NormedSet
from quantcat.quantale import INF, FiniteQuantale, LawvereQuantale, builtin_quantale
from quantcat.seqlim import (
    Cocone,
    LogNorm,
    MetricSequence,
    Sequence,
    cauchy_value,
    colimit_dset,
    colimit_nset,
    colimit_vlip,
    forward_cauchy_value,
    forward_limit_metric,
    lip_norm,
    lipschitz_norm,
    norm_profile,
    validate_sequence,
)
from quantcat.vcat import (
    VCategory,
    isbell_conjugate_weight,
    validate_vcat,
)

from conftest import lukasiewicz3
from helpers import (
    brute_c2b_check,
    c1_ncat_scan,
    c1_sets_scan,
    eventual_image_fixpoint,
    transformation_monoid,
    unrolled_quotient,
    brute_composite_norms,
    brute_c2b_reduction,
    brute_colimit_dset,
    brute_colimit_nset,
    c2b_reduction_check,
    fold_isbell_vector,
    fold_lip_norm,
    fold_map_norm,
    fold_nat_norm,
    is_symmetric,
    nat_family,
    representable_cov,
    split_monoid_cat,
    NormedMap,
    forward_cauchy_metric,
    i_embed_cat,
    is_cauchy,
    isbell_conjugate_coweight,
    left_weight,
    map_norm,
    tail_norm,
    _c2b_probe_check,
    _c2b_sets,
    cocone_commutes,
    counted_colimits,
    coweight_vector,
    right_weight,
    weight_vector,
    verify_normed_colimit,
)

# ---------------------------------------------------------------------------
# helpers


def const_nset_sequence(q, norms, endo=None, prefix=()):
    T = NormedSet(q, dict(norms))
    endo = endo or {x: x for x in T.elements}
    prefix_objects = [NormedSet(q, dict(p)) for p in prefix]
    steps = []
    chain = prefix_objects + [T]
    for i in range(len(prefix_objects)):
        src, tgt = chain[i], chain[i + 1]
        steps.append({x: x for x in src.elements})
    return Sequence("nset", prefix_objects, steps, T, endo)


def two_point_space(q, d, names=("x", "y")):
    a, b = names
    return VCategory(q, [a, b], [[q.unit, d], [d, q.unit]])


# ---------------------------------------------------------------------------
# profiles and the Cauchy condition


def test_norm_profile_identity_tail(q2):
    s = const_nset_sequence(q2, {"p": "1"})
    prof = norm_profile(s)
    assert prof.transient == 0 and prof.period == 1
    assert prof.tail_norms == (q2.el("1"),)
    assert tail_norm(prof, 17) == q2.el("1")


def test_norm_profile_idempotent_tail(q3):
    s = const_nset_sequence(q3, {"a": "1", "b": "1"}, endo={"a": "a", "b": "a"})
    prof = norm_profile(s)
    assert prof.transient == 1 and prof.period == 1
    assert len(prof.tail_norms) == 2


def test_is_cauchy_all_unit_steps(q2, q3):
    for q in (q2, q3):
        s = const_nset_sequence(q, {"p": q.unit})
        assert is_cauchy(s)


def test_is_cauchy_tail_dominates_prefix(q2):
    s = const_nset_sequence(
        q2, {"p": "1"}, prefix=[{"p": "0"}, {"p": "0"}]
    )
    assert is_cauchy(s)  # prefix norms do not matter


def test_not_cauchy_norm_dropping_tail(q2):
    # the endomap sends a unit-normed element onto a bottom-normed one
    s = const_nset_sequence(q2, {"a": "1", "b": "0"}, endo={"a": "b", "b": "b"})
    assert not is_cauchy(s)
    assert cauchy_value(s) == q2.el("0")


def test_validate_sequence(q2):
    s = const_nset_sequence(q2, {"p": "1"}, prefix=[{"p": "0"}])
    assert validate_sequence(s).ok


# ---------------------------------------------------------------------------
# normed-set colimits


def _checks(report):
    return [(c.name, c.ok, c.witness) for c in report.checks]


def _sequence_in(ambient, q3):
    if ambient == "nset":
        # two prefix stages and a tail with transient 1 and period 2
        stage = NormedSet(q3, {"p": "m", "r": "1"})
        T = NormedSet(q3, {"a": "1", "b": "m", "c": "1"})
        return Sequence(
            "nset", [stage, stage], [{"p": "p", "r": "r"}, {"p": "a", "r": "b"}],
            T, {"a": "b", "b": "c", "c": "b"},
        )
    if ambient == "dset":
        X = two_point_space(q3, "m")
        return Sequence(
            "dset", [X], [{"x": "y", "y": "x"}], X, {"x": "y", "y": "y"},
            norm_quantale=lukasiewicz3("m"),
        )
    return Sequence("ncat", ["b"], ["s"], "a", "e", category=split_monoid_cat(q3))


@pytest.mark.parametrize("ambient", ["nset", "dset", "ncat"])
def test_validate_sequence_computes_no_map_norm(q3, monkeypatch, ambient):
    s = _sequence_in(ambient, q3)
    calls = []
    for name in ("map_norm_of", "tail_powers"):
        method = getattr(Sequence, name)

        def counted(self, *args, _method=method, _name=name):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(Sequence, name, counted)
    report = validate_sequence(s)
    assert calls == []
    monkeypatch.undo()
    assert _checks(report) == _checks(brute_composite_norms(s))


@pytest.mark.parametrize("window", [None, 7])
def test_validate_sequence_norms_each_step_map_once(q3, monkeypatch, window):
    # the window oracle norms each window pair once (W = 5 by default);
    # validate_sequence norms none and reports the oracle's checks
    s = _sequence_in("nset", q3)
    calls = []
    norm_of = Sequence.map_norm_of

    def counted(self, *args):
        calls.append(args)
        return norm_of(self, *args)

    monkeypatch.setattr(Sequence, "map_norm_of", counted)
    report = validate_sequence(s)
    assert report.ok
    assert calls == []
    oracle = brute_composite_norms(s, window)
    assert oracle.ok
    W = window or 5
    assert len(calls) == W * (W + 1) // 2
    assert _checks(report) == _checks(oracle)


def test_brute_composite_norms_holds_on_fixture_sequences():
    data = os.path.join(os.path.dirname(__file__), "data")
    seen = 0
    for name in sorted(os.listdir(data)):
        inst = load_instance(os.path.join(data, name))
        for kind, value in inst.objects.values():
            if kind == "sequence":
                seen += 1
                oracle = brute_composite_norms(value)
                assert oracle.ok, name
                assert _checks(validate_sequence(value)) == _checks(oracle), name
    assert seen >= 6


LAWVERE_GRID = ("0", "1/3", "1/2", "1", "2", "5/2", "inf")


def _residuation_carriers():
    for name in ("bool2", "chain3", "chain4", "bool4", "one"):
        q = builtin_quantale(name)
        yield name, q, list(q.carrier())
    luka = lukasiewicz3()
    yield "lukasiewicz3", luka, list(luka.carrier())
    for name in ("lawvere-plus", "lawvere-times"):
        q = builtin_quantale(name)
        yield name, q, [q.parse(v) for v in LAWVERE_GRID]


def test_residuation_composes_homs():
    # the premise of the composite-norm lemma: hom(v,w) ⊗ hom(u,v) ≤ hom(u,w)
    for name, q, values in _residuation_carriers():
        for u, v, w in product(values, repeat=3):
            assert q.leq(q.tensor(q.hom(v, w), q.hom(u, v)), q.hom(u, w)), (name, u, v, w)


def _random_sequence(rng, ambient, q, values, odot=None):
    """A prefix of up to two stages and a tail of one to three elements,
    every norm or distance and every map drawn at random."""

    def stage(size):
        elems = [f"e{i}" for i in range(size)]
        if ambient == "nset":
            return NormedSet(q, {x: rng.choice(values) for x in elems}, elems)
        return VCategory(q, elems, [[rng.choice(values) for y in elems] for x in elems])

    def elements(obj):
        return obj.elements if ambient == "nset" else obj.objects

    chain = [stage(rng.randint(1, 3)) for _ in range(rng.randint(0, 2) + 1)]
    steps = [
        {x: rng.choice(elements(tgt)) for x in elements(src)}
        for src, tgt in zip(chain, chain[1:])
    ]
    T = chain[-1]
    endo = {x: rng.choice(elements(T)) for x in elements(T)}
    if ambient == "nset":
        return Sequence("nset", chain[:-1], steps, T, endo)
    return Sequence("dset", chain[:-1], steps, T, endo, norm_quantale=odot)


def test_brute_composite_norms_holds_on_random_sequences():
    rng = random.Random(13)
    configs = [
        (ambient, q, values, None)
        for _, q, values in _residuation_carriers()
        for ambient in ("nset", "dset")
    ]
    q3 = builtin_quantale("chain3")
    configs.append(("dset", q3, list(q3.carrier()), lukasiewicz3("m")))
    for ambient, q, values, odot in configs:
        for _ in range(20):
            s = _random_sequence(rng, ambient, q, values, odot)
            oracle = brute_composite_norms(s)
            assert oracle.ok, (ambient, q, odot)
            assert _checks(validate_sequence(s)) == _checks(oracle)


def test_map_norms_fold_the_hook_and_no_quantale_method(monkeypatch):
    # map_norm, lip_norm, Sequence.map_norm_of, the family norms of
    # conjugate_families and the Isbell conjugates fold meet_of_homs, calling
    # no hom or meet method of either quantale class, and equal the method
    # folds of their definitions
    rng = random.Random(18)
    q3 = builtin_quantale("chain3")
    configs = [(q, values, None) for _, q, values in _residuation_carriers()]
    configs.append((q3, list(q3.carrier()), lukasiewicz3("m")))
    cases = []
    for q, values, odot in configs:
        for _ in range(10):
            s = _random_sequence(rng, "nset", q, values)
            d = _random_sequence(rng, "dset", q, values, odot)
            X = d.tail_object
            A = i_embed_cat(X)
            a, b = (rng.choice(X.objects) for _ in range(2))
            Phi, Psi = representable_cov(A, a), representable_cov(A, b)
            vec = {x: rng.choice(values) for x in X.objects}
            cases.append((s, d, Phi, Psi, b, vec))
    calls = Counter()
    for cls in (FiniteQuantale, LawvereQuantale):
        for method in ("hom", "meet"):
            def counted(self, *args, _key=(cls.__name__, method), _original=getattr(cls, method)):
                calls[_key] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, method, counted)
    norms = [
        (
            map_norm(NormedMap(s.tail_object, s.tail_object, s.tail_endo)),
            s.map_norm_of(s.tail_endo, s.tail_object, s.tail_object),
            lip_norm(d.norm_quantale, d.tail_object, d.tail_object, d.tail_endo),
            d.map_norm_of(d.tail_endo, d.tail_object, d.tail_object),
            conjugate_families(Phi, b),
            coweight_vector(isbell_conjugate_weight(left_weight(d.tail_object, vec))),
            weight_vector(isbell_conjugate_coweight(right_weight(d.tail_object, vec))),
        )
        for s, d, Phi, Psi, b, vec in cases
    ]
    assert not calls
    for (s, d, Phi, Psi, b, vec), got in zip(cases, norms):
        T, X = s.tail_object, d.tail_object
        step_norm = fold_map_norm(NormedMap(T, T, s.tail_endo))
        lip = fold_lip_norm(d.norm_quantale, X, X, d.tail_endo)
        families = got[4]
        assert len(families) == 1  # Yoneda: one family per morphism b -> a
        assert got == (
            step_norm, step_norm, lip, lip,
            [(key, fold_nat_norm(Phi, Psi, nat_family(Phi, key))) for key, _ in families],
            fold_isbell_vector(X, vec, weight=True), fold_isbell_vector(X, vec, weight=False),
        )
    assert set(calls) == {(cls, m) for cls in ("FiniteQuantale", "LawvereQuantale")
                          for m in ("hom", "meet")}


def test_colimit_constant_sequence(q2):
    s = const_nset_sequence(q2, {"a": "1", "b": "0"})
    apex, gamma = colimit_nset(s)
    assert len(apex) == 2
    assert sorted(q2.format(apex.norm(c)) for c in apex) == ["0", "1"]
    assert verify_normed_colimit(s, gamma).ok


def test_colimit_point_norm_recovers_tail_value(q3):
    # one-point stages normed m, m, then 1 forever: the colimit point gets 1
    s = const_nset_sequence(
        q3, {"p": "1"}, prefix=[{"p": "m"}, {"p": "m"}]
    )
    apex, gamma = colimit_nset(s)
    assert len(apex) == 1
    assert apex.norm(apex.elements[0]) == q3.el("1")
    assert verify_normed_colimit(s, gamma).ok


def test_colimit_merges_tail_orbit(q3):
    s = const_nset_sequence(q3, {"a": "1", "b": "m"}, endo={"a": "a", "b": "a"})
    assert is_cauchy(s)
    apex, gamma = colimit_nset(s)
    assert len(apex) == 1
    only = apex.elements[0]
    assert apex.norm(only) == q3.join([q3.el("1"), q3.el("m")])
    assert verify_normed_colimit(s, gamma).ok


def test_colimit_rejects_non_cauchy(q2):
    s = const_nset_sequence(q2, {"a": "1", "b": "0"}, endo={"a": "b", "b": "b"})
    with pytest.raises(PreconditionError) as err:
        colimit_nset(s)
    assert err.value.value == q2.el("0")


def test_colimit_periodic_tail(q2):
    # a two-cycle: classes follow the orbit structure, one class per cycle slot
    s = const_nset_sequence(q2, {"a": "1", "b": "1"}, endo={"a": "b", "b": "a"})
    apex, gamma = colimit_nset(s)
    assert len(apex) == 2
    assert len(gamma.tail) == 2
    assert verify_normed_colimit(s, gamma).ok


def test_candidate_with_bottom_norms_fails_c2a(q2):
    s = const_nset_sequence(q2, {"p": "1"})
    apex, gamma = colimit_nset(s)
    squashed = NormedSet(q2, {c: "0" for c in apex.elements}, apex.elements)
    bad = Cocone(squashed, gamma.prefix, gamma.tail)
    report = verify_normed_colimit(s, bad)
    assert not report.ok
    assert any(c.name == "C2a" for c in report.failures())


def test_candidate_with_inflated_norms_fails_c2b(q2):
    s = const_nset_sequence(q2, {"p": "0"})
    apex, gamma = colimit_nset(s)
    assert apex.norm(apex.elements[0]) == q2.el("0")
    inflated = NormedSet(q2, {c: "1" for c in apex.elements}, apex.elements)
    bad = Cocone(inflated, gamma.prefix, gamma.tail)
    report = verify_normed_colimit(s, bad)
    assert not report.ok
    assert any(c.name.startswith("C2b") for c in report.failures())


def test_candidate_wrong_carrier_fails_c1(q2):
    s = const_nset_sequence(q2, {"a": "1", "b": "1"})
    apex, gamma = colimit_nset(s)
    # collapse both classes onto one apex point
    one = NormedSet(q2, {"z": "1"})
    squash = Cocone(
        one,
        [dict.fromkeys(p, "z") for p in gamma.prefix],
        [dict.fromkeys(t, "z") for t in gamma.tail],
    )
    report = verify_normed_colimit(s, squash)
    assert not report.ok
    assert any(c.name.startswith("C1") for c in report.failures())


def test_c2b_probe_agrees_with_reduction(q2, q3):
    fixtures = [
        const_nset_sequence(q2, {"a": "1", "b": "0"}),
        const_nset_sequence(q3, {"a": "1", "b": "m"}, endo={"a": "a", "b": "a"}),
    ]
    for s in fixtures:
        apex, gamma = colimit_nset(s)
        report = verify_normed_colimit(s, gamma)
        assert report.ok == c2b_reduction_check(s, gamma)
        # and a broken candidate disagrees on both routes identically
        inflated = NormedSet(
            s.quantale, {c: s.quantale.unit for c in apex.elements}, apex.elements
        )
        bad = Cocone(inflated, gamma.prefix, gamma.tail)
        bad_probe = any(
            c.name.startswith("C2b") for c in verify_normed_colimit(s, bad).failures()
        )
        assert bad_probe == (not c2b_reduction_check(s, bad))


def test_colimit_over_lawvere_plus(qplus):
    T = NormedSet(qplus, {"a": Fraction(1, 2), "b": Fraction(2)})
    s = Sequence("nset", [], [], T, {"a": "a", "b": "b"})
    assert is_cauchy(s)
    apex, gamma = colimit_nset(s)
    report = verify_normed_colimit(s, gamma)
    assert report.ok
    assert any("exact reduction" in c.name for c in report.checks)


# ---------------------------------------------------------------------------
# normed-category ambient verification


def test_ncat_colimit_of_idempotent_splits(q2):
    A = split_monoid_cat(q2)
    s = Sequence("ncat", [], [], "a", "e", category=A)
    assert is_cauchy(s)
    gamma = Cocone("b", [], ["r"])
    report = verify_normed_colimit(s, gamma)
    assert report.ok


def test_ncat_wrong_apex_fails_c1(q2):
    A = split_monoid_cat(q2)
    s = Sequence("ncat", [], [], "a", "e", category=A)
    gamma = Cocone("a", [], ["e"])
    report = verify_normed_colimit(s, gamma)
    assert not report.ok
    assert any(c.name.startswith("C1") for c in report.failures())


# ---------------------------------------------------------------------------
# distance-set colimits


def test_colimit_dset_constant_space(q2):
    X = two_point_space(q2, q2.el("1"))
    s = Sequence("dset", [], [], X, {p: p for p in X.objects})
    apex, gamma = colimit_dset(s)
    assert len(apex.objects) == 2
    vals = sorted(q2.format(apex.d(a, b)) for a in apex.objects for b in apex.objects)
    expected = sorted(q2.format(X.d(a, b)) for a in X.objects for b in X.objects)
    assert vals == expected
    assert verify_normed_colimit(s, gamma).ok


def test_colimit_dset_shrinking_distances(qplus, qtimes):
    # distances 1/2, 1/4 on the prefix, then 0 on the tail
    mk = lambda d: two_point_space(qplus, d)
    prefix = [mk(Fraction(1, 2)), mk(Fraction(1, 4))]
    tail = mk(Fraction(0))
    ident = {"x": "x", "y": "y"}
    s = Sequence("dset", prefix, [dict(ident), dict(ident)], tail, dict(ident),
                 norm_quantale=qtimes)
    assert is_cauchy(s)
    apex, gamma = colimit_dset(s)
    labels = apex.objects
    assert len(labels) == 2
    assert apex.d(labels[0], labels[1]) == Fraction(0)
    assert verify_normed_colimit(s, gamma).ok


def test_colimit_vlip_finite(q3):
    X = two_point_space(q3, q3.el("m"))
    s = Sequence("dset", [], [], X, {p: p for p in X.objects})
    apex, gamma = colimit_vlip(s)
    assert validate_vcat(apex).ok
    assert is_symmetric(apex)


def test_colimit_vlip_lawvere_mixed(qplus, qtimes):
    mk = lambda d: two_point_space(qplus, d)
    s = Sequence(
        "dset", [mk(Fraction(1, 2))], [{"x": "x", "y": "y"}], mk(Fraction(1, 4)),
        {"x": "x", "y": "y"}, norm_quantale=qtimes,
    )
    apex, gamma = colimit_vlip(s)
    assert validate_vcat(apex).ok
    assert is_symmetric(apex)


def test_colimit_vlip_specializes_to_single_quantale(q3):
    X = two_point_space(q3, q3.el("m"))
    s = Sequence("dset", [], [], X, {p: p for p in X.objects})
    apex_two, _ = colimit_vlip(s)
    apex_one, _ = colimit_dset(s)
    assert apex_two.rows == apex_one.rows


def test_vlip_hypothesis_rejection(q4bool, monkeypatch):
    # force a failing hypothesis by pretending the unit is not approximated
    import quantcat.seqlim as seqlim_mod

    X = two_point_space(q4bool, q4bool.el("a"))
    s = Sequence("dset", [], [], X, {p: p for p in X.objects})
    monkeypatch.setattr(
        seqlim_mod, "unit_approximated_from_totally_below", lambda q: False
    )
    with pytest.raises(PreconditionError):
        colimit_vlip(s)


def test_pair_colimit_is_square_of_point_colimit(q3):
    # the distance-set colimit's pair quotient matches the tensor square
    X = two_point_space(q3, q3.el("m"))
    endo = {"x": "x", "y": "x"}
    s = Sequence("dset", [], [], X, endo)
    apex, gamma = colimit_dset(s)

    pairs = [(a, b) for a in X.objects for b in X.objects]
    P = NormedSet(q3, {(a, b): X.d(a, b) for (a, b) in pairs}, pairs)
    pair_endo = {(a, b): (endo[a], endo[b]) for (a, b) in pairs}
    ds = Sequence("nset", [], [], P, pair_endo)
    pair_apex, pair_gamma = colimit_nset(ds)
    # explicit bijection: class of (a, b) corresponds to (class a, class b)
    mapping = {}
    for (a, b) in pairs:
        key = pair_gamma.tail[0][(a, b)]
        val = (gamma.tail[0][a], gamma.tail[0][b])
        assert mapping.setdefault(key, val) == val
    assert len(set(mapping.values())) == len(pair_apex)
    assert len(pair_apex) == len(apex.objects) ** 2
    for key, (ca, cb) in mapping.items():
        assert pair_apex.norm(key) == apex.d(ca, cb)


# ---------------------------------------------------------------------------
# Lipschitz norms


def test_lipschitz_identity(qplus):
    X = two_point_space(qplus, Fraction(1))
    ident = {p: p for p in X.objects}
    assert lipschitz_norm(X, X, ident, "multiplicative") <= 1
    assert lipschitz_norm(X, X, ident, "log").is_zero()


def test_lipschitz_doubling(qplus):
    X = two_point_space(qplus, Fraction(1))
    Y = two_point_space(qplus, Fraction(2), names=("x'", "y'"))
    f = {"x": "x'", "y": "y'"}
    assert lipschitz_norm(X, Y, f, "multiplicative") == Fraction(2)
    log = lipschitz_norm(X, Y, f, "log")
    assert log.exponent() == Fraction(1)


def test_lipschitz_collapse(qplus):
    X = two_point_space(qplus, Fraction(3))
    Y = VCategory(qplus, ["z"], [[Fraction(0)]])
    f = {"x": "z", "y": "z"}
    # 0/3 = 0 and 0/0 = 0: nothing contributes
    assert lipschitz_norm(X, Y, f, "multiplicative") == Fraction(0)


def test_lipschitz_odot_mode(q3):
    X = two_point_space(q3, q3.el("m"))
    val = lipschitz_norm(X, X, {p: p for p in X.objects}, "odot", q_odot=q3)
    assert q3.leq(q3.unit, val)


def _bounded_exponent(ratio, base):
    """The exponent by trying roots of degree 1 to 24 only."""
    for den in range(1, 25):
        power = ratio**den
        if power.denominator == 1:
            n, num_exp = power.numerator, 0
            while n % base == 0:
                n //= base
                num_exp += 1
            if n == 1:
                return Fraction(num_exp, den)
    return None


def test_log_norm_exponent_matches_bounded_roots_where_they_answer():
    for base in range(2, 21):
        for ratio in range(2, 300):
            assert LogNorm(ratio, base).exponent() == _bounded_exponent(
                Fraction(ratio), base
            ), (ratio, base)


@pytest.mark.parametrize("c", [2, 3, 6, 10])
def test_log_norm_exponent_of_rational_powers(c):
    # c^p against base c^q is (c^q)^(p/q), whatever the size of q
    for p in range(1, 40):
        for q in range(1, 40):
            assert LogNorm(Fraction(c) ** p, c**q).exponent() == Fraction(p, q)


def test_log_norm_exponent_of_non_powers_and_huge_powers():
    assert LogNorm(Fraction(12), 18).exponent() is None
    assert LogNorm(Fraction(18), 12).exponent() is None
    assert LogNorm(Fraction(3, 2), 2).exponent() is None
    assert LogNorm(Fraction(2), 2**25).exponent() == Fraction(1, 25)
    assert LogNorm(Fraction(2) ** 100000, 2).exponent() == 100000


def test_log_norm_algebra():
    assert LogNorm(Fraction(1, 2)).is_zero()
    assert LogNorm(Fraction(8)).exponent() == Fraction(3)
    assert LogNorm(Fraction(2) ** 5 / Fraction(1)).exponent() == Fraction(5)
    assert LogNorm(INF).is_infinite()
    assert LogNorm(Fraction(3)).exponent() is None  # tagged exact expression
    assert LogNorm(Fraction(1, 3)) == LogNorm(Fraction(1, 2))  # both norm zero
    # square root of 2 as a ratio: exponent 1/2
    assert LogNorm(Fraction(2)).exponent() == Fraction(1)


# ---------------------------------------------------------------------------
# metric sequences


def chain_ordered_space(q2):
    pts = ["0", "1", "2"]
    order = [["1" if i <= j else "0" for j in range(len(pts))] for i in range(len(pts))]
    return VCategory(q2, pts, order)


def test_forward_limit_eventually_constant(qplus):
    X = two_point_space(qplus, Fraction(1))
    ms = MetricSequence(X, ["y"], ["x"])
    assert forward_cauchy_metric(ms)
    assert forward_limit_metric(ms, "x")
    assert not forward_limit_metric(ms, "y")


def test_forward_limit_in_ordered_chain(q2):
    X = chain_ordered_space(q2)
    ms = MetricSequence(X, ["0", "1"], ["2"])
    assert forward_cauchy_metric(ms)
    assert forward_limit_metric(ms, "2")
    assert not forward_limit_metric(ms, "1")


def test_alternating_sequence_not_forward_cauchy(qplus):
    X = two_point_space(qplus, Fraction(1))
    ms = MetricSequence(X, [], ["x", "y"])
    assert forward_cauchy_value(ms) == Fraction(1)
    assert not forward_cauchy_metric(ms)


def test_norm_profile_pure_prefix(q2):
    # the tail degenerates to the identity on the last object: a finite table
    s = const_nset_sequence(q2, {"p": "1"}, prefix=[{"p": "0"}, {"p": "1"}])
    prof = norm_profile(s)
    assert prof.n0 == 2
    assert prof.transient == 0 and prof.period == 1
    assert tail_norm(prof, 0) == q2.el("1")


def test_lipschitz_ratio_modes_reject_finite_carriers(q2):
    X = two_point_space(q2, q2.el("0"))
    with pytest.raises(ValueError):
        lipschitz_norm(X, X, {p: p for p in X.objects}, "multiplicative")


def test_colimit_transient_plus_two_cycle(q2):
    # t: a -> b -> c -> b has transient 1 and period 2; the germs of a and c
    # agree (they meet at b one step on) while b stays out of phase forever
    T = NormedSet(q2, {"a": "1", "b": "1", "c": "1"})
    s = Sequence("nset", [], [], T, {"a": "b", "b": "c", "c": "b"})
    apex, gamma = colimit_nset(s)
    assert len(apex) == 2
    g0 = gamma.tail[0]
    assert g0["a"] == g0["c"] != g0["b"]
    assert len(gamma.tail) == 2
    g1 = gamma.tail[1]
    assert g1["b"] == g0["a"] and g1["a"] == g1["c"] == g0["b"]
    assert verify_normed_colimit(s, gamma).ok


def _germ_classes_oracle(s, horizon_stage):
    """Independent colimit-class oracle: push every element of every stage
    up to a common late stage and group by the value there."""

    def compose_to(n, l, x):
        for i in range(n, l):
            x = s.step_at(i)[x]
        return x

    powers, transient, period = s.tail_powers
    late = horizon_stage + transient + 2 * period
    groups = {}
    for n in range(horizon_stage):
        for x in s._elements(s.object_at(n)):
            groups.setdefault(compose_to(n, late, x), []).append((n, x))
    return {frozenset(members) for members in groups.values()}


def test_set_colimit_matches_germ_oracle(q2, q3):
    fixtures = [
        const_nset_sequence(q2, {"a": "1", "b": "1", "c": "1"},
                            endo={"a": "b", "b": "c", "c": "b"}),
        const_nset_sequence(q3, {"a": "1", "b": "m"}, endo={"a": "a", "b": "a"},
                            prefix=[{"a": "m", "b": "m"}]),
        const_nset_sequence(q2, {"a": "1", "b": "1"}, endo={"a": "b", "b": "a"}),
    ]
    for s in fixtures:
        quot = s.quotient
        horizon = s.n0 + quot.period
        got = {}
        for n, comp in enumerate(quot.gamma):
            for x, label in comp.items():
                got.setdefault(label, []).append((n, x))
        assert {frozenset(m) for m in got.values()} == _germ_classes_oracle(
            s, horizon
        )


def _cauchy_value_oracle(s):
    """Direct evaluation of the stage-indexed join of step-norm meets.

    The inner meet is constant once the start stage reaches the tail, so the
    join needs starts up to the first tail stage only; each window must be
    wide enough that every distinct iterate norm of the tail endomorphism
    appears (transient plus period beyond the tail start).
    """
    q = s.norm_quantale
    powers, transient, period = s.tail_powers
    far = s.n0 + transient + 2 * period + 1

    def step_map(m, n):
        acc = {x: x for x in s._elements(s.object_at(m))}
        for i in range(m, n):
            step = s.step_at(i)
            acc = {x: step[y] for x, y in acc.items()}
        return acc

    best = None
    for N in range(s.n0 + 1):
        inner = q.meet(
            s.map_norm_of(step_map(m, n), s.object_at(m), s.object_at(n))
            for m in range(N, far)
            for n in range(m, far)
        )
        best = inner if best is None else q.join([best, inner])
    return best


def test_cauchy_value_matches_window_oracle(q2, q3):
    fixtures = [
        const_nset_sequence(q2, {"p": "1"}, prefix=[{"p": "0"}]),
        const_nset_sequence(q2, {"a": "1", "b": "0"}, endo={"a": "b", "b": "b"}),
        const_nset_sequence(q3, {"a": "1", "b": "m"}, endo={"a": "a", "b": "a"}),
        const_nset_sequence(q2, {"a": "1", "b": "1"}, endo={"a": "b", "b": "a"}),
    ]
    for s in fixtures:
        assert cauchy_value(s) == _cauchy_value_oracle(s)


# ---------------------------------------------------------------------------
# colimit apexes and (C2b) against the window-join oracles

BIG_BUDGET = 10**6


def _all_nset_sequences(q, max_tail):
    """Every normed-set sequence with an empty prefix and a tail of at most
    ``max_tail`` elements: all norm functions, all endomaps."""
    carrier = list(q.carrier())
    for n in range(max_tail + 1):
        elems = ["a", "b", "c"][:n]
        for norms in product(carrier, repeat=n):
            T = NormedSet(q, dict(zip(elems, norms)), elems)
            for image in product(elems, repeat=n):
                yield Sequence("nset", [], [], T, dict(zip(elems, image)))


def _all_dset_sequences(q, max_tail, odot=None):
    """Every distance-set sequence with a one-stage prefix (the same points,
    the identity step) and a tail of at most ``max_tail`` points."""
    carrier = list(q.carrier())
    for n in range(1, max_tail + 1):
        elems = ["x", "y"][:n]
        for values in product(carrier, repeat=n * n):
            T = VCategory(q, elems, [values[i * n:(i + 1) * n] for i in range(n)])
            for image in product(elems, repeat=n):
                yield Sequence(
                    "dset", [T], [{x: x for x in elems}], T,
                    dict(zip(elems, image)), norm_quantale=odot,
                )


def _window_cocone(s, apex):
    quot = s.quotient
    return Cocone(
        apex,
        [quot.gamma[n] for n in range(s.n0)],
        [quot.gamma[s.n0 + r] for r in range(quot.period)],
    )


def _c2b(s, gamma, probe_bound, budget=BIG_BUDGET):
    report = verify_normed_colimit(s, gamma, probe_bound=probe_bound, budget=budget)
    (check,) = [c for c in report.checks if c.name.startswith("C2b")]
    return check.name, check.ok, check.witness


def _with_oracle(s, gamma, bounds=(1, 2, 3)):
    """The cocone with ``brute_c2b_check``'s (name, ok, witness) at each
    probe bound."""
    return gamma, {b: brute_c2b_check(s, gamma, b, BIG_BUDGET) for b in bounds}


@functools.cache
def _nset_c2b_cases(qname, max_tail):
    """(s, [(gamma, oracle)]) for every sequence of ``_all_nset_sequences``
    and every candidate apex norm assignment on its window quotient, so
    that failing witnesses are compared as well as passes."""
    q = builtin_quantale(qname)
    cases = []
    for s in _all_nset_sequences(q, max_tail):
        labels = s.quotient.labels
        cases.append((s, [
            _with_oracle(s, _window_cocone(s, NormedSet(q, dict(zip(labels, values)), labels)))
            for values in product(list(q.carrier()), repeat=len(labels))
        ]))
    return cases


@functools.cache
def _dset_c2b_cases(qname, odot, every_candidate):
    """(s, [(gamma, oracle)]) for every sequence of ``_all_dset_sequences``.
    Over chain3 the candidates are the window-join apex and the all-top
    apex, which fails (C2b) wherever the tail does not reach top, and the
    oracle runs at bounds 1-2 only (bound 3 takes some 20 s per family)."""
    q = builtin_quantale(qname)
    qn = lukasiewicz3("m") if odot else None
    carrier = list(q.carrier())
    cases = []
    for s in _all_dset_sequences(q, 2, qn):
        labels, dist = brute_colimit_dset(s)
        n = len(labels)
        candidates = (
            [[values[i * n:(i + 1) * n] for i in range(n)]
             for values in product(carrier, repeat=n * n)]
            if every_candidate
            else [dist, [[q.top] * n] * n]
        )
        cases.append((s, [
            _with_oracle(
                s,
                _window_cocone(s, VCategory(q, labels, candidate)),
                (1, 2, 3) if every_candidate else (1, 2),
            )
            for candidate in candidates
        ]))
    return cases


@pytest.mark.parametrize("qname, max_tail", [("bool2", 3), ("chain3", 2)])
def test_colimit_nset_apex_matches_window_join(qname, max_tail):
    for s in _all_nset_sequences(builtin_quantale(qname), max_tail):
        labels, norms = brute_colimit_nset(s)
        if not is_cauchy(s):
            with pytest.raises(PreconditionError):
                colimit_nset(s)
            continue
        apex, _ = colimit_nset(s)
        assert apex.elements == tuple(labels)
        assert apex.norms == norms


@pytest.mark.parametrize("qname, max_tail", [("bool2", 3), ("chain3", 2)])
def test_c2b_nset_matches_per_component_oracle(qname, max_tail):
    outcomes = set()
    for s, candidates in _nset_c2b_cases(qname, max_tail):
        for gamma, oracle in candidates:
            for bound in (1, 2, 3):
                got = _c2b(s, gamma, bound)
                assert got == oracle[bound]
                outcomes.add(got[1])
            assert c2b_reduction_check(s, gamma) == brute_c2b_reduction(s, gamma)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "qname, odot, every_candidate",
    [("bool2", False, True), ("chain3", False, False), ("chain3", True, False)],
)
def test_colimit_dset_and_c2b_match_pair_oracle(qname, odot, every_candidate):
    outcomes = set()
    for s, candidates in _dset_c2b_cases(qname, odot, every_candidate):
        labels, dist = brute_colimit_dset(s)
        if is_cauchy(s):
            apex, _ = colimit_dset(s)
            assert apex.objects == tuple(labels)
            assert apex.rows == dist
        else:
            with pytest.raises(PreconditionError):
                colimit_dset(s)
        for gamma, oracle in candidates:
            for bound in (1, 2):
                got = _c2b(s, gamma, bound)
                assert got == oracle[bound]
                outcomes.add(got[1])
            assert c2b_reduction_check(s, gamma) == brute_c2b_reduction(s, gamma)
    assert outcomes == {True, False}


_C2B_FAMILIES = {
    "nset-bool2": lambda: _nset_c2b_cases("bool2", 3),
    "nset-chain3": lambda: _nset_c2b_cases("chain3", 2),
    "dset-bool2": lambda: _dset_c2b_cases("bool2", False, True),
    "dset-chain3": lambda: _dset_c2b_cases("chain3", False, False),
    "dset-chain3-odot": lambda: _dset_c2b_cases("chain3", True, False),
}


@pytest.mark.parametrize("family", sorted(_C2B_FAMILIES))
def test_c2b_probe_lemma(family):
    # the probe oracle fails at B ≥ 2 iff some |a| ≰ |a|_H; at B = 1 the
    # reduction's pass still implies a pass, but some cocones pass while
    # the reduction fails (over bool2: apex {a: 1, b: 0}, H {a: 0, b: 1})
    reductions, b1_gaps = set(), 0
    for s, candidates in _C2B_FAMILIES[family]():
        for gamma, oracle in candidates:
            holds = c2b_reduction_check(s, gamma)
            reductions.add(holds)
            assert all(oracle[b][1] == holds for b in oracle if b >= 2)
            if holds:
                assert oracle[1][1]
            elif oracle[1][1]:
                b1_gaps += 1
    assert reductions == {True, False}
    assert b1_gaps > 0


def _cycling_norms(q, n):
    """n elements normed by the carrier values in turn."""
    carrier = list(q.carrier())
    return {x: carrier[i % len(carrier)] for i, x in enumerate("abcd"[:n])}


def _parity_cocones():
    """Per carrier and apex size 0-4: the colimit cocone, which passes,
    and the all-top apex and the apex with its H norms reversed, which fail
    at B ≥ 2; the reversed apex has the join of H, so it passes at B = 1."""
    for qname in ("bool2", "chain3"):
        q = builtin_quantale(qname)
        for n in range(5):
            s = const_nset_sequence(q, _cycling_norms(q, n))
            apex, gamma = colimit_nset(s)
            labels = apex.elements
            yield s, gamma
            for norms in (
                [q.top] * n,
                [apex.norm(c) for c in reversed(labels)],
            ):
                if norms != [apex.norm(c) for c in labels]:
                    yield s, Cocone(
                        NormedSet(q, dict(zip(labels, norms)), labels),
                        gamma.prefix,
                        gamma.tail,
                    )


def _outcome(check, *args):
    try:
        return check(*args)
    except BudgetExceeded as exc:
        return exc.what, exc.needed, exc.budget, exc.skipped


def test_c2b_budget_parity_with_oracle():
    seen = set()
    for s, gamma in _parity_cocones():
        size = s.norm_quantale.size
        n = len(gamma.apex)
        for bound in (1, 2, 3):
            largest = max(sum(size**k for k in range(1, bound + 1)), bound**n)
            for budget in range(1, largest + 2):
                got = _outcome(_c2b, s, gamma, bound, budget)
                assert got == _outcome(brute_c2b_check, s, gamma, bound, budget)
                # a verdict's ok, or the guard that fired
                seen.add(got[1] if isinstance(got[1], bool) else got[0])
    assert seen == {
        True,
        False,
        "probe normed sets up to size 1",
        "probe normed sets up to size 2",
        "probe normed sets up to size 3",
        "probe maps out of the apex",
    }


@pytest.mark.parametrize("passing", [True, False])
def test_c2b_probe_check_builds_no_probe_sets_or_maps(passing, monkeypatch):
    q = builtin_quantale("chain3")
    s = const_nset_sequence(q, _cycling_norms(q, 4))
    apex, gamma = colimit_nset(s)
    if not passing:
        top = NormedSet(q, dict.fromkeys(apex.elements, q.top), apex.elements)
        gamma = Cocone(top, gamma.prefix, gamma.tail)
    sets = _c2b_sets(s, gamma)
    built = []
    for cls in (NormedSet, NormedMap):
        def counted(self, *args, _init=cls.__init__, _cls=cls):
            built.append(_cls.__name__)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    ok, witness = _c2b_probe_check(q, *sets, 3, BIG_BUDGET)
    assert ok == passing and (witness is None) == passing
    assert built == []
    # the counter sees the probes and maps the per-component oracle builds
    brute_c2b_check(s, gamma, 3, BIG_BUDGET)
    assert {"NormedSet", "NormedMap"} <= set(built)


# ---------------------------------------------------------------------------
# the colimit task's report against the verifier, on canonical cocones


def _canonical_cocone(s, vlip=False):
    """The cocone the ``colimit`` task builds on s, or None when it rejects s."""
    build = colimit_nset if s.kind == "nset" else colimit_vlip if vlip else colimit_dset
    try:
        return build(s)[1]
    except (PreconditionError, ConstructionError):
        return None


def _data_colimit_cocones():
    """(s, gamma) for each ``colimit`` task of tests/data that builds a cocone."""
    data = os.path.join(os.path.dirname(__file__), "data")
    for name in sorted(os.listdir(data)):
        inst = load_instance(os.path.join(data, name))
        for task in inst.tasks:
            if task["op"] == "colimit":
                s = inst.objects[task["target"]][1]
                if s.kind != "ncat":
                    gamma = _canonical_cocone(s, task.get("vlip"))
                    if gamma is not None:
                        yield s, gamma


def _report_outcome(report_of, *args):
    return _outcome(
        lambda *args: [(c.name, c.ok, c.witness) for c in report_of(*args).checks],
        *args,
    )


def _assert_report_matches_verifier(s, gamma):
    """The report's checks equal the verifier's at probe bounds 1-4, at every
    budget from 1 to the largest guard + 1 where the verifier decides.  The
    report enumerates no probe, so it takes no budget and always decides;
    the verifier decides at the largest guard.  Returns the verifier's
    outcomes: (C2b)'s name, or the guard that stopped it."""
    q, n = s.norm_quantale, len(_c2b_sets(s, gamma)[0])
    outcomes = set()
    for bound in (1, 2, 3, 4):
        largest = max(sum(q.size**k for k in range(1, bound + 1)), bound**n) if q.is_finite else 0
        got = _report_outcome(seqlim.colimit_report, s, gamma, bound)
        assert isinstance(got, list)
        assert _report_outcome(verify_normed_colimit, s, gamma, bound, largest + 1) == got
        for budget in range(1, largest + 2):
            expected = _report_outcome(verify_normed_colimit, s, gamma, bound, budget)
            assert isinstance(expected, tuple) or expected == got
            outcomes.add(expected[0] if isinstance(expected, tuple) else got[-1][0])
    return outcomes


def test_colimit_report_matches_verifier_on_data_tasks():
    cases = list(_data_colimit_cocones())
    assert len(cases) == 8
    outcomes = set()
    for s, gamma in cases:
        outcomes |= _assert_report_matches_verifier(s, gamma)
    assert outcomes == {
        "C2b (exact reduction)",
        *(f"C2b (probe bound {b})" for b in (1, 2, 3, 4)),
        *(f"probe normed sets up to size {b}" for b in (1, 2, 3, 4)),
        "probe maps out of the apex",
    }


_REPORT_FAMILIES = {
    "nset-bool2": lambda: _all_nset_sequences(builtin_quantale("bool2"), 3),
    "nset-chain3": lambda: _all_nset_sequences(builtin_quantale("chain3"), 2),
    "dset-bool2": lambda: _all_dset_sequences(builtin_quantale("bool2"), 2),
    "dset-chain3": lambda: _all_dset_sequences(builtin_quantale("chain3"), 2),
    "dset-chain3-odot": lambda: _all_dset_sequences(
        builtin_quantale("chain3"), 2, lukasiewicz3("m")
    ),
    "parity": lambda: dict.fromkeys(s for s, _ in _parity_cocones()),
}


@pytest.mark.parametrize("family", sorted(_REPORT_FAMILIES))
def test_colimit_report_matches_verifier_on_exhaustive_families(family):
    # the sequences of the exhaustive (C2b) families and of the budget-parity
    # cocones, each with the cocone the colimit task builds
    built = 0
    for s in _REPORT_FAMILIES[family]():
        gamma = _canonical_cocone(s)
        if gamma is not None:
            _assert_report_matches_verifier(s, gamma)
            built += 1
    assert built > 0


def test_cauchy_and_colimit_tasks_share_one_norm_profile(monkeypatch, tmp_path, capsys):
    calls = []
    profile = seqlim.norm_profile

    def counted(s):
        calls.append(s)
        return profile(s)

    monkeypatch.setattr(seqlim, "norm_profile", counted)
    with open(os.path.join(os.path.dirname(__file__), "data", "sequence.json")) as fh:
        instance = json.load(fh)
    instance["tasks"] = [
        {"op": "cauchy", "target": "s"},
        {"op": "colimit", "target": "s"},
        {"op": "colimit", "target": "s"},
    ]
    f = tmp_path / "shared.json"
    f.write_text(json.dumps(instance), encoding="utf-8")
    assert main([str(f), "--json"]) == 0
    assert len(calls) == 1


def test_colimit_task_builds_one_quotient_and_one_tail_cycle(monkeypatch, capsys):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        seqlim, "_build_quotient", counting("quotient", seqlim._build_quotient)
    )
    monkeypatch.setattr(
        Sequence, "_iterate_tail", counting("tail_powers", Sequence._iterate_tail)
    )
    data = os.path.join(os.path.dirname(__file__), "data", "sequence.json")
    with open(data) as fh:
        ops = [task["op"] for task in json.load(fh)["tasks"]]
    assert ops.count("colimit") == 1
    assert main([data, "--json"]) == 0
    assert counts == {"quotient": 1, "tail_powers": 1}


# ---------------------------------------------------------------------------
# colimit classes and (C1) against the unrolled oracles


def _exact(quot):
    return quot.labels, [list(comp.items()) for comp in quot.gamma], quot.period


def _bool2_nset_shapes():
    """Every bool2 normed-set sequence, all norms 1, with a tail of 0-4
    elements and 0-2 prefix stages of two elements: 22 069 sequences."""
    q = builtin_quantale("bool2")
    stage = NormedSet(q, {"p": "1", "q": "1"}, ["p", "q"])
    for n in range(5):
        elems = list("abcd"[:n])
        T = NormedSet(q, dict.fromkeys(elems, "1"), elems)
        for image in product(elems, repeat=n):
            endo = dict(zip(elems, image))
            yield Sequence("nset", [], [], T, endo)
            for last in product(elems, repeat=2):
                into_tail = dict(zip("pq", last))
                yield Sequence("nset", [stage], [into_tail], T, endo)
                for first in product("pq", repeat=2):
                    yield Sequence(
                        "nset", [stage, stage], [dict(zip("pq", first)), into_tail], T, endo
                    )


def test_quotient_matches_unrolled_oracle_on_every_small_nset_sequence():
    count = 0
    for s in _bool2_nset_shapes():
        assert _exact(s.quotient) == _exact(unrolled_quotient(s))
        count += 1
    assert count == 22069


@pytest.mark.parametrize("qname", ["bool2", "chain3"])
def test_quotient_matches_unrolled_oracle_on_dset_sequences(qname):
    for s in _all_dset_sequences(builtin_quantale(qname), 2):
        assert _exact(s.quotient) == _exact(unrolled_quotient(s))


def test_ncat_sequence_has_no_set_quotient(q2):
    s = Sequence("ncat", [], [], "a", "e", category=split_monoid_cat(q2))
    with pytest.raises(ValueError, match="a normed-category stage has no element set"):
        s.quotient


@pytest.mark.parametrize("points", [2, 3])
def test_eventual_image_is_the_transient_power_image(q2, points):
    # E = {f . t^T : f in A(*, *)} equals the fixpoint of (- . t) for every
    # tail endomap t, and (C1) matches the fixpoint oracle on every cocone
    # of tail length 1 or 2 that commutes
    M = transformation_monoid(q2, points)
    checked = set()
    for t in M.morphisms:
        s = Sequence("ncat", [], [], "*", t, category=M)
        powers, transient, _ = s.tail_powers
        E = {M.table[f, powers[transient]] for f in M.morphisms}
        assert E == eventual_image_fixpoint(M.morphisms, lambda f: M.table[f, t])
        for g in M.morphisms:
            for tail in ([g], [M.table[g, t], g]):
                gamma = Cocone("*", [], tail)
                if not cocone_commutes(s, gamma)[0]:
                    continue
                (check,) = [
                    c for c in verify_normed_colimit(s, gamma).checks
                    if c.name.startswith("C1")
                ]
                assert (check.name, check.ok, check.witness) == c1_ncat_scan(s, gamma)
                checked.add(check.ok)
    assert checked == {True, False}


def _random_commuting_cocone(rng, s, length):
    """A cocone of the given tail length built to commute: its first tail
    component is constant on the orbits of t^length on an eventual image
    of the tail, and every other component follows from it."""
    t, elems = s.tail_endo, list(s.tail_object.elements)

    def power(k):
        m = {x: x for x in elems}
        for _ in range(k):
            m = {x: t[y] for x, y in m.items()}
        return m

    apex_elems = ["u", "v", "w"][: rng.randint(1, 3)]
    apex = NormedSet(s.quantale, dict.fromkeys(apex_elems, "1"), apex_elems)
    settle = power(length * len(elems))  # its image is fixed by t^length
    cycle = power(length)
    value = {}
    for x in elems:
        e = settle[x]
        if e not in value:
            v = rng.choice(apex_elems)
            while e not in value:
                value[e], e = v, cycle[e]
    first = {x: value[settle[x]] for x in elems}
    tail = [first] + [
        {x: first[y] for x, y in power(length - r).items()} for r in range(1, length)
    ]
    prefix = [None] * s.n0
    after = first
    for n in reversed(range(s.n0)):
        after = prefix[n] = {x: after[y] for x, y in s.prefix_steps[n].items()}
    return Cocone(apex, prefix, tail)


def test_commuting_cocones_factor_through_the_quotient():
    rng = random.Random(1905)
    q = builtin_quantale("bool2")
    commuting = longer = 0
    for _ in range(3000):
        elems = list("abcd"[: rng.randint(1, 4)])
        T = NormedSet(q, dict.fromkeys(elems, "1"), elems)
        stages = [
            NormedSet(q, dict.fromkeys(names, "1"), names)
            for names in (list("pqr"[: rng.randint(1, 3)]) for _ in range(rng.randint(0, 2)))
        ]
        targets = [list(S.elements) for S in stages[1:]] + [elems]
        steps = [
            {x: rng.choice(tgt) for x in S.elements} for S, tgt in zip(stages, targets)
        ]
        s = Sequence("nset", stages, steps, T, {x: rng.choice(elems) for x in elems})
        period = s.tail_powers[2]
        length = rng.choice([n for n in range(1, 6) if n != period])
        gamma = _random_commuting_cocone(rng, s, length)
        if rng.random() < 0.25:  # a near miss, which may still commute
            comp = rng.choice(gamma.prefix + gamma.tail)
            comp[rng.choice(list(comp))] = rng.choice(list(gamma.apex.elements))
        if not cocone_commutes(s, gamma)[0]:
            continue
        commuting += 1
        longer += length > period
        oracle = c1_sets_scan(s, gamma)
        assert oracle[0] == ("C1-factors-through-quotient", True, None)
        got = [
            (c.name, c.ok, c.witness)
            for c in verify_normed_colimit(s, gamma).checks
            if c.name.startswith("C1")
        ]
        assert got == oracle
    assert commuting > 2000 and longer > 500


@pytest.mark.parametrize(
    "broken, message",
    [
        (lambda tail: {**tail, "b": "zz"}, "stage 0 component: image 'zz' of 'b' not in the target"),
        (lambda tail: {"a": tail["a"]}, "stage 0 component: no image for 'b'"),
        (lambda tail: {**tail, "z": tail["a"]}, "stage 0 component: 'z' is not a stage element"),
    ],
)
def test_malformed_cocone_components_are_value_errors(q2, broken, message):
    s = const_nset_sequence(q2, {"a": "1", "b": "0"})
    apex, gamma = colimit_nset(s)
    bad = Cocone(apex, gamma.prefix, [broken(gamma.tail[0])])
    with pytest.raises(ValueError) as err:
        verify_normed_colimit(s, bad)
    assert str(err.value) == message


def test_malformed_prefix_component_names_its_stage(q2):
    s = const_nset_sequence(q2, {"a": "1"}, prefix=[{"a": "1"}])
    apex, gamma = colimit_nset(s)
    bad = Cocone(apex, [{"a": "zz"}], gamma.tail)
    with pytest.raises(ValueError, match="stage 0 component: image 'zz' of 'a'"):
        verify_normed_colimit(s, bad)
    bad = Cocone(apex, gamma.prefix, [{}])
    with pytest.raises(ValueError, match="stage 1 component: no image for 'a'"):
        verify_normed_colimit(s, bad)


def test_a_sequence_that_is_not_cauchy_fails_both_colimit_tasks_alike(capsys, monkeypatch):
    # odot.json: ``swap`` and ``merge`` are Cauchy and build one apex each for
    # their two colimit tasks; the raise of ``stretch`` is not kept
    calls = counted_colimits(monkeypatch)
    assert main([os.path.join(os.path.dirname(__file__), "data", "odot.json"), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c for c in calls if c in ("built", "raised")] == ["built", "built", "raised", "raised"]
    stretch = [t["details"] for t in report["tasks"]
               if t["op"] == "colimit" and t["target"] == "stretch"]
    assert stretch == [{"rejected": "sequence is not Cauchy: expression value m", "value": "m"}] * 2
