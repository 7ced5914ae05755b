import os
import random
from collections import Counter
from itertools import product
from math import gcd

import pytest

from quantcat.common import BudgetExceeded, Check, PreconditionError
from quantcat.cli import load_instance
from quantcat.ncat import (
    AdjunctionCertificate,
    NormedCategory,
    NormedDistributor,
    check_adjunction_cert,
    conjugate_families,
    idempotent_distributor_sets,
    idempotent_inputs,
    is_lawvere_complete_ncat,
    split_idempotents_check,
    strict_morphisms,
    unit_class,
    validate_category,
    validate_ndist,
)
from quantcat.normed_set import NormedSet
from quantcat.quantale import builtin_quantale
from quantcat.vcat import (
    VCategory,
    isbell_conjugate_weight,
    lawvere_complete_vcat,
    matrix_weights,
)

from helpers import (
    NormedFunctor,
    all_vcategories,
    bool4_split_witness_vcat,
    brute_lawvere_ncat,
    brute_left_adjoints,
    check_normed_retract,
    coend_unit,
    coweight_vector,
    cyclic_action,
    cyclic_cat,
    enumerate_nat_families,
    filtered_norm_assignments,
    has_presentable_unit,
    i_embed_cat,
    i_embed_weight,
    idempotent_conjugate_sets,
    idempotent_distributor,
    idempotent_inputs_oracle,
    idempotent_unit_class,
    is_representable_ndist,
    isbell_conjugate_ndist,
    left_adjoint_unit,
    left_weight,
    monoid_cat,
    nat_family,
    nat_key,
    nat_norm,
    nat_transformations,
    ordered_pair_vcat,
    representable_certificate,
    representable_contra,
    representable_cov,
    scan_preserves_composition,
    scan_validate_ndist,
    split_monoid_cat,
    strict_subcategory,
    sup_change_of_base,
    transformation_monoid,
    validate_ncat,
    validate_nfunctor,
    without_unit_criterion,
)

# ---------------------------------------------------------------------------
# category validation


def test_validate_monoid(q2):
    assert validate_ncat(monoid_cat(q2, "1", "1")).ok
    assert validate_ncat(monoid_cat(q2, "1", "0")).ok


def test_validate_split_monoid(q2):
    assert validate_ncat(split_monoid_cat(q2)).ok


def test_validate_i_embed(q2, q3, qplus):
    for q, X in ((q2, ordered_pair_vcat(q2)), (q3, ordered_pair_vcat(q3))):
        assert validate_ncat(i_embed_cat(X)).ok


def test_validate_ncat_identity_norm_failure(q2):
    bad = monoid_cat(q2, "0", "1")
    report = validate_ncat(bad)
    assert not report.ok
    assert any(c.name == "identity-norms" for c in report.failures())


def test_validate_ncat_submultiplicative_failure(q3):
    # |e| = 1 but |e.e| would need 1 ⊗ 1 = 1 ≤ |e|; force |e.e| = |e| = m fails
    # via a three-morphism variant: here simply |1| = 1, |e| = 1 and composite
    # e.e = e keeps norm 1, fine; instead drop e's norm below its square.
    class_ = monoid_cat(q3, "1", "m")
    assert validate_ncat(class_).ok  # m ⊗ m = m ≤ m holds
    # a genuinely failing table: |e| = 1 with a forced composite of norm m
    table = {
        ("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "f",
        ("1", "f"): "f", ("f", "1"): "f", ("e", "f"): "f", ("f", "e"): "f",
        ("f", "f"): "f",
    }
    bad = NormedCategory(
        q3, ["a"], ["1", "e", "f"],
        {m: "a" for m in ("1", "e", "f")},
        {m: "a" for m in ("1", "e", "f")},
        {"a": "1"}, table,
        {"1": "1", "e": "1", "f": "m"},
    )
    report = validate_ncat(bad)
    assert not report.ok
    assert any(c.name == "composition-submultiplicative" for c in report.failures())


def test_validate_nfunctor(q2):
    A = monoid_cat(q2, "1", "1")
    F = NormedFunctor(A, A, {"a": "a"}, {"1": "1", "e": "e"})
    assert validate_nfunctor(F).ok
    B = monoid_cat(q2, "1", "0")
    G = NormedFunctor(A, B, {"a": "a"}, {"1": "1", "e": "e"})
    report = validate_nfunctor(G)
    assert not report.ok  # |e| may not drop from 1 to 0
    assert any(c.name == "norm-increase" for c in report.failures())


# ---------------------------------------------------------------------------
# change of base


def test_strict_subcategory_all_unit_norms(q2):
    A = split_monoid_cat(q2)
    assert set(strict_subcategory(A).morphisms) == set(A.morphisms)


def test_strict_subcategory_drops_low_norms(q2):
    A = monoid_cat(q2, "1", "0")
    assert strict_subcategory(A).morphisms == ("1",)


def test_strict_subcategory_of_i_embed_recovers_order(q2):
    X = ordered_pair_vcat(q2)
    A0 = strict_subcategory(i_embed_cat(X))
    # morphisms kept are exactly the pairs at unit level
    assert set(A0.morphisms) == {
        (x, y) for x in X.objects for y in X.objects if q2.leq(q2.unit, X.d(x, y))
    }


def test_sup_change_of_base_round_trip(q2, q3, q4bool):
    for q in (q2, q3, q4bool):
        X = ordered_pair_vcat(q)
        assert sup_change_of_base(i_embed_cat(X)) == X


def test_sup_change_of_base_parallel_pair(q2):
    # two parallel arrows with norms 0 and 1 join to 1
    table = {
        ("1a", "1a"): "1a", ("1b", "1b"): "1b",
        ("f", "1a"): "f", ("1b", "f"): "f",
        ("g", "1a"): "g", ("1b", "g"): "g",
    }
    A = NormedCategory(
        q2, ["a", "b"], ["1a", "1b", "f", "g"],
        {"1a": "a", "1b": "b", "f": "a", "g": "a"},
        {"1a": "a", "1b": "b", "f": "b", "g": "b"},
        {"a": "1a", "b": "1b"}, table,
        {"1a": "1", "1b": "1", "f": "0", "g": "1"},
    )
    sX = sup_change_of_base(A)
    assert sX.d("a", "b") == q2.el("1")
    assert sX.d("b", "a") == q2.el("0")  # empty hom-set joins to bottom


# ---------------------------------------------------------------------------
# distributors, ends, coends


def test_validate_representables(q2, q3):
    for q in (q2, q3):
        A = split_monoid_cat(q) if q is q2 else i_embed_cat(ordered_pair_vcat(q))
        for a in A.objects:
            assert validate_ndist(representable_cov(A, a)).ok
            assert validate_ndist(representable_contra(A, a)).ok


def test_validate_ndist_reports_norm_failure(q2):
    A = monoid_cat(q2, "1", "1")
    # one-element set with the identity action everywhere is functorial, but
    # |e| = 1 needs the action of e to be unit-normed; force a norm drop
    sets = {"a": NormedSet(q2, {"p": "1", "q": "0"})}
    action = {"1": {"p": "p", "q": "q"}, "e": {"p": "q", "q": "q"}}
    Phi = NormedDistributor(A, True, sets, action)
    report = validate_ndist(Phi)
    assert not report.ok
    assert any(c.name == "action-normed" for c in report.failures())


def _small_categories(q):
    return [
        monoid_cat(q, q.unit, q.bottom),
        split_monoid_cat(q),
        transformation_monoid(q, 2),
        i_embed_cat(ordered_pair_vcat(q)),
    ]


def _random_ndist(rng, A):
    q = A.quantale
    values = list(q.carrier())
    sets = {}
    for a in A.objects:
        names = [f"{a}{i}" for i in range(rng.randint(1, 2))]
        sets[a] = NormedSet(q, {x: rng.choice(values) for x in names}, names)
    covariant = rng.random() < 0.5
    action = {}
    for h in A.morphisms:
        src, tgt = (A.dom[h], A.cod[h]) if covariant else (A.cod[h], A.dom[h])
        action[h] = {x: rng.choice(sets[tgt].elements) for x in sets[src].elements}
    return NormedDistributor(A, covariant, sets, action)


def _checks(report):
    return [(c.name, c.ok, c.witness) for c in report.checks]


@pytest.mark.parametrize("qname", ["bool2", "chain3"])
def test_validate_ndist_matches_the_pair_scan_and_normed_maps(qname):
    q = builtin_quantale(qname)
    rng = random.Random(qname)
    outcomes = Counter()
    for A in _small_categories(q):
        dists = [rep(A, a) for a in A.objects for rep in (representable_cov, representable_contra)]
        dists += [_random_ndist(rng, A) for _ in range(150)]
        for Phi in dists:
            got = _checks(validate_ndist(Phi))
            assert got == _checks(scan_validate_ndist(Phi))
            outcomes.update((name, ok) for name, ok, _ in got)
    assert all(outcomes[(name, ok)] for name in ("action-functorial", "action-normed")
               for ok in (True, False))


def _split_endofunctor(A, s_image):
    """The endofunctor of ``split_monoid_cat`` fixing every object and
    every morphism but s."""
    mor_map = {f: f for f in A.morphisms} | {"s": s_image}
    return NormedFunctor(A, A, {a: a for a in A.objects}, mor_map)


def test_nfunctor_off_its_endpoints_skips_composition(q2):
    # s: b → a sent to r: a → b; F(s)∘F(r) would be r∘r, not in the table
    A = split_monoid_cat(q2)
    report = validate_nfunctor(_split_endofunctor(A, "r"))
    assert _checks(report) == [
        ("totality", True, None),
        ("endpoint-compatibility", False, "s"),
        ("preserves-identities", True, None),
        ("norm-increase", True, None),
    ]


def test_nfunctor_image_outside_the_target_fails_totality(q2):
    A = split_monoid_cat(q2)
    report = validate_nfunctor(_split_endofunctor(A, "zz"))
    assert _checks(report) == [("totality", False, None)]
    moved = NormedFunctor(A, A, {"a": "a", "b": "zz"}, {f: f for f in A.morphisms})
    assert _checks(validate_nfunctor(moved)) == [("totality", False, None)]


def test_preserves_composition_matches_the_pair_scan():
    q = builtin_quantale("chain3")
    rng = random.Random(7)
    B = transformation_monoid(q, 2)
    outcomes = set()
    for A in _small_categories(q):
        for _ in range(100):
            F = NormedFunctor(
                A, B, dict.fromkeys(A.objects, "*"),
                {f: rng.choice(B.morphisms) for f in A.morphisms},
            )
            (check,) = [c for c in validate_nfunctor(F).checks
                        if c.name == "preserves-composition"]
            bad = scan_preserves_composition(F)
            assert (check.ok, check.witness) == (bad is None, bad)
            outcomes.add(check.ok)
    assert outcomes == {True, False}


def test_coend_single_class_one_object(q3):
    A = NormedCategory(
        q3, ["a"], ["1"], {"1": "a"}, {"1": "a"}, {"a": "1"},
        {("1", "1"): "1"}, {"1": "1"},
    )
    Phi = representable_cov(A, "a")
    Psi = representable_contra(A, "a")
    coend = coend_unit(Psi, Phi)
    assert len(coend.classes) == 1
    assert coend.class_norm(("a", "1", "1")) == q3.tensor(q3.unit, q3.unit)


def test_coend_monoid_merge(q2):
    A = monoid_cat(q2, "1", "1")
    Phi = representable_cov(A, "a")
    Psi = representable_contra(A, "a")
    coend = coend_unit(Psi, Phi)
    # the generator with h = e merges (v, e.u) with (v.e, u)
    assert coend.rep_of(("a", "1", "e")) == coend.rep_of(("a", "e", "1"))
    # class norms join member norms
    for rep, members in coend.classes.items():
        q = q2
        assert coend.norms[rep] == q.join(
            q.tensor(Psi.sets[a].norm(v), Phi.sets[a].norm(u))
            for (a, v, u) in members
        )


def test_nat_transformations_contains_identity(q2):
    A = monoid_cat(q2, "1", "1")
    Phi = representable_cov(A, "a")
    nats = nat_transformations(Phi, Phi)
    identity_key = nat_key(Phi, {"a": {"1": "1", "e": "e"}})
    assert identity_key in nats.elements
    assert q2.leq(q2.unit, nats.norm(identity_key))


def test_nat_transformations_yoneda(q2, q3):
    # Nat(repr(a), Φ) matches Φ(a) elementwise with equal norms
    for q in (q2, q3):
        A = i_embed_cat(ordered_pair_vcat(q))
        for a in A.objects:
            Ra = representable_cov(A, a)
            for target_obj in A.objects:
                Phi = representable_cov(A, target_obj)
                nats = nat_transformations(Ra, Phi)
                assert len(nats) == len(Phi.sets[a])
                assert sorted(
                    q.format(nats.norm(t)) for t in nats.elements
                ) == sorted(q.format(Phi.sets[a].norm(u)) for u in Phi.sets[a])


def test_nat_transformations_empty_source(q3):
    A = monoid_cat(q3, "1", "1")
    empty = NormedDistributor(
        A, True, {"a": NormedSet(q3, {})}, {"1": {}, "e": {}}
    )
    Phi = representable_cov(A, "a")
    nats = nat_transformations(empty, Phi)
    assert len(nats) == 1
    assert nats.norm(nats.elements[0]) == q3.top


def test_normed_yoneda_norm_equality(q2, q3):
    for q in (q2, q3):
        A = i_embed_cat(ordered_pair_vcat(q))
        for a in A.objects:
            Ra = representable_cov(A, a)
            for tgt in A.objects:
                Phi = representable_cov(A, tgt)
                for u in Phi.sets[a]:
                    alpha = {
                        x: {f: Phi.action[f][u] for f in A.hom(a, x)}
                        for x in A.objects
                    }
                    assert nat_norm(Ra, Phi, alpha) == Phi.sets[a].norm(u)


def test_isbell_ndist_yoneda(q2):
    A = split_monoid_cat(q2)
    for a in A.objects:
        Phi = representable_cov(A, a)
        PhiVee = isbell_conjugate_ndist(Phi)
        Ra_contra = representable_contra(A, a)
        for b in A.objects:
            assert len(PhiVee.sets[b]) == len(Ra_contra.sets[b])
            assert sorted(
                q2.format(PhiVee.sets[b].norm(t)) for t in PhiVee.sets[b]
            ) == sorted(
                q2.format(Ra_contra.sets[b].norm(u)) for u in Ra_contra.sets[b]
            )


def test_isbell_ndist_matches_vlevel_on_i_images(q3, q4bool):
    for q in (q3, q4bool):
        X = ordered_pair_vcat(q)
        NA = i_embed_cat(X)
        for vec_x in list(q.carrier())[:2]:
            for vec_y in list(q.carrier())[:2]:
                vec = {"x": vec_x, "y": vec_y}
                phi = left_weight(X, vec)
                from quantcat.vcat import validate_vdist

                if not validate_vdist(phi).ok:
                    continue
                Phi = i_embed_weight(vec, NA)
                PhiVee = isbell_conjugate_ndist(Phi)
                vlevel = coweight_vector(isbell_conjugate_weight(phi))
                for a in X.objects:
                    S = PhiVee.sets[a]
                    assert len(S) == 1
                    assert S.norm(S.elements[0]) == vlevel[a]


def test_counit_automatism(q2, q3):
    # |β| ⊗ |w| ≤ |β_b(w)| for all enumerated conjugate elements
    for q in (q2, q3):
        A = i_embed_cat(ordered_pair_vcat(q))
        for a in A.objects:
            Phi = representable_cov(A, a)
            PhiVee = isbell_conjugate_ndist(Phi)
            for b in A.objects:
                for beta_key in PhiVee.sets[b]:
                    fam = nat_family(Phi, beta_key)
                    bnorm = PhiVee.sets[b].norm(beta_key)
                    for z in A.objects:
                        for w in Phi.sets[z]:
                            lhs = q.tensor(bnorm, Phi.sets[z].norm(w))
                            rhs = A.norm[fam[z][w]]
                            assert q.leq(lhs, rhs)


# ---------------------------------------------------------------------------
# the Isbell conjugate by propagation from generators

DATA = os.path.join(os.path.dirname(__file__), "data")

#: the largest brute product the oracle comparison enumerates
ORACLE_BUDGET = 20000


def _generator_count(Phi, a):
    """∏ |A(a, dom x)| over the generators x of Φ, read as the elements that
    no earlier element reaches (the greedy walk of the generator lemma picks
    the same ones, since an orbit contains the orbits of its elements)."""
    A = Phi.category
    elements = [(b, x) for b in A.objects for x in Phi.sets[b]]
    count = 1
    for i, (b, x) in enumerate(elements):
        if not any(
            (A.cod[h], Phi.action[h][y]) == (b, x)
            for c, y in elements[:i]
            for h in A.morphisms
            if A.dom[h] == c
        ):
            count *= len(A.hom(a, b))
    return count


def _brute_count(Phi, a):
    A = Phi.category
    count = 1
    for b in A.objects:
        count *= len(A.hom(a, b)) ** len(Phi.sets[b])
    return count


def _brute_conjugate(Phi, a, budget):
    Ra = representable_cov(Phi.category, a)
    return [
        (nat_key(Phi, fam), nat_norm(Phi, Ra, fam))
        for fam in enumerate_nat_families(Phi, Ra, budget)
    ]


def _cyclic_cases(q):
    """Z/n (n ≤ 6) on free and non-free cycles, elements in both orders; the
    multiples of s are normed k, so an element's norm may vary with its
    residue mod gcd(s, d) and with its cycle."""
    carrier = list(q.carrier())
    for n in range(1, 7):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for s in divisors:
            A = cyclic_cat(q, n, s)
            shapes = [[d] for d in divisors] + [[n, d] for d in divisors]
            for orbits in shapes + [[d, n] for d in divisors[:-1]]:

                def norm(i, r, _orbits=orbits):
                    return carrier[(i + r % gcd(s, _orbits[i])) % len(carrier)]

                for reverse in (False, True):
                    yield cyclic_action(A, orbits, norm, reverse)


def _oracle_cases(q2, q3):
    """Every fixture ndist; the representables of ``i_embed_cat`` over every
    bool2 and chain3 V-category up to 3 objects; the Φ_e of the endomaps of 2
    points under every norm assignment, and of 3 points normed k; the
    representables of the monoids; and ``_cyclic_cases``."""
    for name in sorted(os.listdir(DATA)):
        inst = load_instance(os.path.join(DATA, name))
        for kind, value in inst.objects.values():
            if kind == "ndist" and value.covariant:
                yield value
    for q in (q2, q3):
        for n in range(1, 4):
            for X in all_vcategories(q, "xyz"[:n], budget=3 ** 9):
                A = i_embed_cat(X)
                yield from (representable_cov(A, x) for x in A.objects)
    for q in (q2, q3):
        for n in (2, 3):
            A = transformation_monoid(q, n)
            for e in A.idempotents():
                if n == 3:
                    yield idempotent_distributor(A, e, dict.fromkeys(A.morphisms, q.unit))
                    continue
                flat = [f for b in A.objects for f in idempotent_distributor_sets(A, e)[b]]
                for values in filtered_norm_assignments(A, e):
                    yield idempotent_distributor(A, e, dict(zip(flat, values)))
        for A in (monoid_cat(q, q.unit, q.unit), split_monoid_cat(q)):
            yield from (representable_cov(A, x) for x in A.objects)
        yield from _cyclic_cases(q)


def test_conjugate_families_equal_the_brute_product(q2, q3):
    # the same families in the same order with the same norms, and the guard
    # prices the generator values: it raises at one below that count
    compared = Counter()
    for Phi in _oracle_cases(q2, q3):
        A = Phi.category
        assert A.report.ok and validate_ndist(Phi).ok
        for a in A.objects:
            if _brute_count(Phi, a) > ORACLE_BUDGET:
                compared["skipped"] += 1
                continue
            expected = _brute_conjugate(Phi, a, ORACLE_BUDGET)
            needed = _generator_count(Phi, a)
            assert conjugate_families(Phi, a, needed) == expected, (Phi, a)
            with pytest.raises(BudgetExceeded) as exc:
                conjugate_families(Phi, a, needed - 1)
            assert (exc.value.what, exc.value.needed) == (
                "natural-transformation enumeration", needed)
            compared["cases"] += 1
            compared["families"] += len(expected)
            compared["priced below the brute product"] += needed < _brute_count(Phi, a)
    assert compared["cases"] > 700 and compared["priced below the brute product"] > 50, compared


def test_cyclic_actions_price_one_value_per_orbit(q2, q3):
    # Z/6 on itself, on two free orbits and on Z/3 ⊔ Z/6: a generator per
    # orbit, priced at 6, 36 and 36 where the component functions number
    # 6^6, 6^12 and 6^9
    carrier = list(q3.carrier())
    regular = cyclic_action(cyclic_cat(q3, 6, 2), [6], lambda i, r: carrier[r % 2], True)
    assert _generator_count(regular, "o") == 6
    families = conjugate_families(regular, "o")
    assert families == _brute_conjugate(regular, "o", 6 ** 6)
    # the generator is the first declared element, (0, 5), and τ_k sends it to k
    assert [key for key, _ in families] == [
        (tuple(str((r + 1 + k) % 6) for r in reversed(range(6))),) for k in range(6)
    ]
    assert len({norm for _, norm in families}) == 2

    A = cyclic_cat(q2, 6)

    def unit(i, r):
        return q2.unit

    two = cyclic_action(A, [6, 6], unit, reverse=True)
    assert _generator_count(two, "o") == 36 and len(conjugate_families(two, "o")) == 36
    # a cycle of 3 maps into the free orbit by no family: 3 + τ(x) ≠ τ(x)
    mixed = cyclic_action(A, [3, 6], unit)
    assert _generator_count(mixed, "o") == 36 and conjugate_families(mixed, "o") == []


# ---------------------------------------------------------------------------
# certificates


def test_representable_certificate_passes_normed(q2, q3):
    for q in (q2, q3):
        A = split_monoid_cat(q) if q is q2 else i_embed_cat(ordered_pair_vcat(q))
        for a in A.objects:
            cert = representable_certificate(A, a)
            assert check_adjunction_cert(cert, normed=True).ok


def test_phi_e_certificate_plain_but_not_normed(q2):
    # the unsplit idempotent with norm below the unit: the plain adjunction
    # data checks out, the normed layer rejects it
    A = monoid_cat(q2, "1", "0")
    Phi = idempotent_distributor(A, "e", {"e": "1"})
    data = left_adjoint_unit(Phi)
    assert data.plain and not data.normed
    c, u, v_key = data.triple
    eps = {}
    for a in A.objects:
        for b in A.objects:
            table = {}
            for y in Phi.sets[b]:
                for x_key in data.conjugate.sets[a]:
                    fam = nat_family(Phi, x_key)
                    table[(y, x_key)] = fam[b][y]
            eps[(a, b)] = table
    cert = AdjunctionCertificate(Phi, data.conjugate, eps, c, u, v_key)
    assert check_adjunction_cert(cert, normed=False).ok
    report = check_adjunction_cert(cert, normed=True)
    assert not report.ok
    assert any(c_.name == "unit-class-normed" for c_ in report.failures())


def test_normed_certificate_with_broken_naturality_has_no_unit_check(q2):
    A = split_monoid_cat(q2)
    cert = representable_certificate(A, "a")
    table = dict(cert.eps[("a", "a")])
    table[("e", "1a")] = "1a"  # ε(e, 1a) = e∘1a should be e
    broken = AdjunctionCertificate(
        cert.phi, cert.psi, {**cert.eps, ("a", "a"): table}, cert.c, cert.u, cert.v
    )
    report = check_adjunction_cert(broken, normed=True)
    assert "counit-natural-in-target" in [c.name for c in report.failures()]
    assert [c.name for c in report.checks] == [
        "counit-shape", "counit-natural-in-target", "counit-natural-in-source",
        "splitting-through-v", "splitting-through-u", "counit-normed",
    ]


def test_certificate_over_a_non_category_is_a_precondition(q2):
    # a∘a = b, a∘b = a, b∘a = b: (a∘a)∘a = b but a∘(a∘a) = a
    ms = ["1", "a", "b"]
    table = {("1", m): m for m in ms} | {(m, "1"): m for m in ms}
    table |= {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
    A = NormedCategory(
        q2, ["x"], ms, dict.fromkeys(ms, "x"), dict.fromkeys(ms, "x"), {"x": "1"},
        table, dict.fromkeys(ms, "1"),
    )
    point = {"x": NormedSet(q2, {"p": "1"})}
    action = {m: {"p": "p"} for m in ms}
    Phi = NormedDistributor(A, True, point, action)
    Psi = NormedDistributor(A, False, point, action)
    cert = AdjunctionCertificate(Phi, Psi, {("x", "x"): {("p", "p"): "1"}}, "x", "p", "p")
    for normed in (False, True):
        with pytest.raises(PreconditionError) as caught:
            check_adjunction_cert(cert, normed=normed)
        assert caught.value.value is A.report
        assert [c.name for c in A.report.failures()] == ["associativity"]
    with pytest.raises(PreconditionError) as caught:
        left_adjoint_unit(Phi)
    assert caught.value.value is A.report


def test_certificate_needs_a_covariant_phi_and_a_contravariant_psi(q2):
    wrong = "covariant phi with a contravariant psi over one category"
    cert = representable_certificate(split_monoid_cat(q2), "a")
    for phi, psi in ((cert.phi, cert.phi), (cert.psi, cert.psi), (cert.psi, cert.phi)):
        swapped = AdjunctionCertificate(phi, psi, cert.eps, cert.c, cert.u, cert.v)
        with pytest.raises(ValueError, match=wrong):
            check_adjunction_cert(swapped)
    other = representable_contra(split_monoid_cat(q2), "a")
    with pytest.raises(ValueError, match=wrong):
        check_adjunction_cert(
            AdjunctionCertificate(cert.phi, other, cert.eps, cert.c, cert.u, cert.v)
        )


def test_broken_counit_naturality_reported(q2):
    A = split_monoid_cat(q2)
    cert = representable_certificate(A, "a")
    # swap two outputs in one counit table
    key_ab = ("a", "a")
    table = dict(cert.eps[key_ab])
    keys = list(table.keys())
    if len(keys) >= 2:
        table[keys[0]], table[keys[1]] = table[keys[1]], table[keys[0]]
    broken = AdjunctionCertificate(
        cert.phi, cert.psi, {**cert.eps, key_ab: table}, cert.c, cert.u, cert.v
    )
    report = check_adjunction_cert(broken, normed=False)
    assert not report.ok


# ---------------------------------------------------------------------------
# retracts and presentable units


def test_representable_is_normed_retract(q2):
    A = split_monoid_cat(q2)
    for a in A.objects:
        assert check_normed_retract(representable_cov(A, a)) is not None


def test_phi_e_retract_when_split_in_strict_part(q2):
    A = split_monoid_cat(q2)
    Phi = idempotent_distributor(
        A, "e", {f: "1" for b in A.objects for f in
                 __import__("quantcat.ncat", fromlist=["x"]).idempotent_distributor_sets(A, "e")[b]}
    )
    witness = check_normed_retract(Phi)
    assert witness is not None


def test_phi_e_no_normed_retract_when_norm_low(q2):
    A = monoid_cat(q2, "1", "0")
    for n_e in ("0", "1"):
        Phi = idempotent_distributor(A, "e", {"e": n_e})
        assert check_normed_retract(Phi) is None


def test_has_presentable_unit_representable(q2, q3):
    for q in (q2, q3):
        A = split_monoid_cat(q) if q is q2 else i_embed_cat(ordered_pair_vcat(q))
        for a in A.objects:
            ok, witness = has_presentable_unit(representable_cov(A, a))
            assert ok and witness is not None


def test_has_presentable_unit_precondition(q2):
    A = monoid_cat(q2, "1", "0")
    Phi = idempotent_distributor(A, "e", {"e": "1"})
    with pytest.raises(PreconditionError):
        has_presentable_unit(Phi)


def test_i_image_presentable_iff_pointwise_witness(q4bool):
    # adjoint weight with witness mass split between the atoms: left adjoint
    # at the normed level but no presentable unit
    q = q4bool
    X = bool4_split_witness_vcat(q)
    NA = i_embed_cat(X)
    vec = {"x1": q.el("a"), "x2": q.el("b")}
    Phi = i_embed_weight(vec, NA)
    data = left_adjoint_unit(Phi)
    assert data.plain and data.normed  # unit class norm a ∨ b = top
    ok, _ = has_presentable_unit(Phi)
    assert not ok
    # contrast: a representable-shaped vector has the witness
    good = i_embed_weight({"x1": q.el("top"), "x2": q.el("bot")}, NA)
    ok2, witness = has_presentable_unit(good)
    assert ok2


def test_retract_route_agrees_with_unit_route(q2, q4bool):
    fixtures = []
    A1 = monoid_cat(q2, "1", "0")
    fixtures.append(idempotent_distributor(A1, "e", {"e": "1"}))
    fixtures.append(representable_cov(A1, "a"))
    A2 = split_monoid_cat(q2)
    for a in A2.objects:
        fixtures.append(representable_cov(A2, a))
    NA = i_embed_cat(bool4_split_witness_vcat(q4bool))
    fixtures.append(i_embed_weight({"x1": q4bool.el("a"), "x2": q4bool.el("b")}, NA))
    fixtures.append(i_embed_weight({"x1": q4bool.el("top"), "x2": q4bool.el("bot")}, NA))
    for Phi in fixtures:
        retract = check_normed_retract(Phi) is not None
        data = left_adjoint_unit(Phi)
        unit_route = data.normed and has_presentable_unit(Phi)[0] if data.normed else False
        assert retract == unit_route


# ---------------------------------------------------------------------------
# idempotent splitting and completeness


def test_split_idempotents_monoid_rejected(q2):
    A = monoid_cat(q2, "1", "1")
    ok, witness = split_idempotents_check(A, A.morphisms)
    assert not ok and witness == "e"


def test_split_idempotents_extension_accepted(q2):
    A = split_monoid_cat(q2)
    ok, _ = split_idempotents_check(A, A.morphisms)
    assert ok


def test_split_idempotents_poset(q2):
    # a poset as a category has only identity idempotents
    X = ordered_pair_vcat(q2)
    A0 = strict_subcategory(i_embed_cat(X))
    ok, _ = split_idempotents_check(A0, A0.morphisms)
    assert ok


def test_lawvere_ncat_validates_each_category_once(q2, monkeypatch):
    from quantcat import ncat

    A = split_monoid_cat(q2)
    broken = monoid_cat(q2, "0", "1")  # the identity is normed below the unit
    expected = validate_ncat(broken)
    assert [c.name for c in expected.failures()] == ["identity-norms"]
    calls = Counter()
    for name in ("validate_category", "norm_checks"):
        def counted(*args, _fn=getattr(ncat, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(ncat, name, counted)
    assert is_lawvere_complete_ncat(A) == is_lawvere_complete_ncat(A)
    assert calls == {"validate_category": 1, "norm_checks": 1}
    for _ in range(2):
        with pytest.raises(PreconditionError) as info:
            is_lawvere_complete_ncat(broken)
        # the precondition carries the failed report, the oracle's checks
        assert info.value.value is broken.ncat_report
        assert info.value.value == expected
    assert calls == {"validate_category": 2, "norm_checks": 2}


def test_lawvere_ncat_monoid_unit_norm_fails_clause1(q2):
    A = monoid_cat(q2, "1", "1")
    verdict = is_lawvere_complete_ncat(A)
    assert not verdict.complete
    assert verdict.clause == 1 and verdict.certificate == "e"


def test_lawvere_ncat_monoid_low_norm_complete(q2):
    # the strict part is trivial and no normed left adjoint needs e
    verdict = is_lawvere_complete_ncat(monoid_cat(q2, "1", "0"))
    assert verdict.complete


def test_lawvere_ncat_split_monoid_complete(q2):
    assert is_lawvere_complete_ncat(split_monoid_cat(q2)).complete


def test_lawvere_ncat_trivial_quantale_reduces_to_idempotents(q1):
    A_bad = monoid_cat(q1, "k", "k")
    assert not is_lawvere_complete_ncat(A_bad).complete
    A_good = split_monoid_cat(q1)
    assert is_lawvere_complete_ncat(A_good).complete


def test_lawvere_ncat_bool4_crafted_clause2(q4bool):
    X = bool4_split_witness_vcat(q4bool)
    verdict = is_lawvere_complete_ncat(i_embed_cat(X))
    assert not verdict.complete and verdict.clause == 2
    e, norms = verdict.certificate
    # the certificate independently fails the presentable-unit scan
    NA = i_embed_cat(X)
    Phi = idempotent_distributor(NA, e, {f: norms[f] for f in norms})
    data = left_adjoint_unit(Phi)
    assert data.normed
    from helpers import presentable_unit_scan

    ok, _ = presentable_unit_scan(data)
    assert not ok


def test_corollary_round_trip(q2, q3):
    for q in (q2, q3):
        for X in (ordered_pair_vcat(q), VCategory(q, ["x"], [[q.unit]])):
            v_level = lawvere_complete_vcat(X).complete
            n_level = is_lawvere_complete_ncat(i_embed_cat(X)).complete
            assert v_level == n_level


def test_corollary_round_trip_negative(q4bool):
    X = bool4_split_witness_vcat(q4bool)
    assert not lawvere_complete_vcat(X).complete
    assert not is_lawvere_complete_ncat(i_embed_cat(X)).complete


def test_is_representable_ndist(q2):
    A = split_monoid_cat(q2)
    for a in A.objects:
        found = is_representable_ndist(representable_cov(A, a))
        assert found is not None
    A1 = monoid_cat(q2, "1", "0")
    Phi = idempotent_distributor(A1, "e", {"e": "1"})
    assert is_representable_ndist(Phi) is None


def test_isbell_with_empty_component(q2):
    # an empty value at one object constrains the conjugate only through
    # naturality; components elsewhere survive (one arrow a -> b, none back)
    A = NormedCategory(
        q2,
        ["a", "b"],
        ["1a", "1b", "f"],
        {"1a": "a", "1b": "b", "f": "a"},
        {"1a": "a", "1b": "b", "f": "b"},
        {"a": "1a", "b": "1b"},
        {("1a", "1a"): "1a", ("1b", "1b"): "1b", ("f", "1a"): "f", ("1b", "f"): "f"},
        {"1a": "1", "1b": "1", "f": "1"},
    )
    sets = {"a": NormedSet(q2, {}), "b": NormedSet(q2, {"w": "1"})}
    action = {"1a": {}, "f": {}, "1b": {"w": "w"}}
    Phi = NormedDistributor(A, True, sets, action)
    assert validate_ndist(Phi).ok
    PhiVee = isbell_conjugate_ndist(Phi)
    # at a: the single component {w} -> hom(a, b) = {f} exists and is natural
    assert len(PhiVee.sets["a"]) == 1
    assert len(PhiVee.sets["b"]) == 1


def test_lawvere_ncat_budget_reports_skipped(q4bool):
    from quantcat.common import BudgetExceeded

    # the low-norm variant: its strict part is trivial, so clause 1 passes
    # and the enumeration itself hits the budget
    A = monoid_cat(q4bool, "top", "bot")
    with pytest.raises(BudgetExceeded) as err:
        is_lawvere_complete_ncat(A, budget=3)
    assert err.value.skipped is not None


def _coend_partition_oracle(Psi, Phi):
    """Naive fixpoint closure over the generator pairs, independent of the
    disjoint-set implementation."""
    A = Phi.category
    pairs = [
        (a, v, u)
        for a in A.objects
        for v in Psi.sets[a]
        for u in Phi.sets[a]
    ]
    groups = {p: {p} for p in pairs}
    relations = []
    for h in A.morphisms:
        a, b = A.dom[h], A.cod[h]
        for u in Phi.sets[a]:
            for v in Psi.sets[b]:
                relations.append(
                    ((b, v, Phi.action[h][u]), (a, Psi.action[h][v], u))
                )
    changed = True
    while changed:
        changed = False
        for left, right in relations:
            if groups[left] is not groups[right]:
                merged = groups[left] | groups[right]
                for member in merged:
                    groups[member] = merged
                changed = True
    return {frozenset(g) for g in groups.values()}


def test_coend_matches_closure_oracle(q2, q4bool):
    fixtures = []
    A1 = monoid_cat(q2, "1", "1")
    fixtures.append((representable_contra(A1, "a"), representable_cov(A1, "a")))
    NA = i_embed_cat(bool4_split_witness_vcat(q4bool))
    Phi = i_embed_weight({"x1": q4bool.el("a"), "x2": q4bool.el("b")}, NA)
    fixtures.append((isbell_conjugate_ndist(Phi), Phi))
    A2 = split_monoid_cat(q2)
    fixtures.append((representable_contra(A2, "b"), representable_cov(A2, "a")))
    for Psi, Phi_ in fixtures:
        coend = coend_unit(Psi, Phi_)
        expected = _coend_partition_oracle(Psi, Phi_)
        got = {frozenset(members) for members in coend.classes.values()}
        assert got == expected
        q = Phi_.quantale
        for members in expected:
            rep = coend.rep_of(next(iter(members)))
            assert coend.norms[rep] == q.join(
                q.tensor(Psi.sets[a].norm(v), Phi_.sets[a].norm(u))
                for (a, v, u) in members
            )


# ---------------------------------------------------------------------------
# the decision against its brute-force oracle


def _decision_outcome(decide, A, budget):
    """(complete, clause, certificate), or the fields of the error raised."""
    try:
        verdict = decide(A, budget=budget)
    except BudgetExceeded as exc:
        return ("budget", exc.what, exc.needed, exc.budget, exc.skipped)
    except Exception as exc:  # noqa: BLE001 - the two must fail alike
        return (type(exc).__name__, str(exc))
    return (verdict.complete, verdict.clause, verdict.certificate)


def _differential_fixtures(q1, q2, q3, q4chain, q4bool, qluka, qabove):
    for q, max_objects in (
        (q2, 3), (q3, 2), (q4chain, 2), (q4bool, 2), (qluka, 2), (qabove, 2)
    ):
        for n in range(max_objects + 1):
            for X in all_vcategories(q, [f"o{i}" for i in range(n)], budget=10**6):
                yield i_embed_cat(X)
    for q in (q2, q3, q4bool, qabove):
        for one in q.carrier():
            for e in q.carrier():
                yield monoid_cat(q, one, e)
    for q in (q1, q2, q3, q4chain, q4bool, qluka, qabove):
        yield split_monoid_cat(q)


def test_lawvere_ncat_matches_brute_force(q1, q2, q3, q4chain, q4bool, qluka, qabove):
    outcomes = set()
    for A in _differential_fixtures(q1, q2, q3, q4chain, q4bool, qluka, qabove):
        expected = _decision_outcome(brute_lawvere_ncat, A, 4096)
        assert _decision_outcome(is_lawvere_complete_ncat, A, 4096) == expected, A
        outcomes.add(expected[:2] if expected[0] in (True, False) else expected[0])
    # every branch of the decision is exercised
    assert {(True, None), (False, 1), (False, 2), "PreconditionError"} <= outcomes


def test_theorem_path_equals_the_search(
    q1, q2, q3, q4chain, q4bool, qluka, qabove, monkeypatch
):
    fixtures = list(_differential_fixtures(q1, q2, q3, q4chain, q4bool, qluka, qabove))
    # bool4 and the trivial quantale keep the search on the decision's path
    assert {A.quantale.unit_criterion for A in fixtures} == {True, False}
    theorem = [_decision_outcome(is_lawvere_complete_ncat, A, 4096) for A in fixtures]
    without_unit_criterion(monkeypatch)
    search = [_decision_outcome(is_lawvere_complete_ncat, A, 4096) for A in fixtures]
    assert search == theorem


def test_norm_assignments_match_filtered_product(
    q1, q2, q3, q4chain, q4bool, qluka, qabove
):
    for A in _differential_fixtures(q1, q2, q3, q4chain, q4bool, qluka, qabove):
        for e in A.idempotents():
            flat, D, _, _ = idempotent_inputs(A, e)
            got = [x for x, _ in matrix_weights(A.quantale, D, [()] * len(flat))]
            assert got == list(filtered_norm_assignments(A, e))


def test_i_embedded_idempotent_poses_the_vcategory_problem(q2, q3):
    # at (a, a), Φ_e is A(a, -): D_e = X, N = Xᵀ and the unit class is the
    # diagonal, the inputs the V-category decision searches with
    idempotents = 0
    for q, max_objects in ((q2, 3), (q3, 2)):
        for n in range(max_objects + 1):
            for X in all_vcategories(q, [f"o{i}" for i in range(n)], budget=10**6):
                A = i_embed_cat(X)
                D = [[X.d(x, y) for y in X.objects] for x in X.objects]
                for e in A.idempotents():
                    a = A.dom[e]
                    assert e == (a, a)
                    flat, D_e, N, M = idempotent_inputs(A, e)
                    assert flat == [(a, b) for b in X.objects]
                    assert D_e == D
                    assert N == [list(column) for column in zip(*D)]
                    assert M == [(i, i) for i in range(n)]
                    idempotents += 1
    assert idempotents > 100  # 115 idempotents


def test_strict_split_is_the_split_check_of_the_strict_part(
    q1, q2, q3, q4chain, q4bool, qluka, qabove
):
    outcomes = set()
    for A in _differential_fixtures(q1, q2, q3, q4chain, q4bool, qluka, qabove):
        if A.ncat_report.ok:
            A0 = strict_subcategory(A)
            expected = split_idempotents_check(A0, A0.morphisms)
            assert A.strict_split == expected
            assert strict_morphisms(A) == frozenset(A0.morphisms)
            outcomes.add(expected[0])
    assert outcomes == {True, False}


def test_lawvere_ncat_budget_fields_match_brute_force(q1, q2, q4bool):
    # where the decision searches, the assignment-count guard fires before
    # any assignment is enumerated, as the oracle's does
    A = monoid_cat(q4bool, "top", "bot")
    expected = _decision_outcome(brute_lawvere_ncat, A, 3)
    assert expected[:2] == ("budget", "norm assignments |V|^2 at idempotent '1'")
    assert _decision_outcome(is_lawvere_complete_ncat, A, 3) == expected
    cases = [
        # the oracle enumerates the conjugate's natural families; the
        # decision reads the conjugate's closed form and counts none
        (split_monoid_cat(q1), 3, "natural-transformation enumeration"),
        # under the criterion the decision enumerates no assignment
        (split_monoid_cat(q2), 4, "norm assignments |V|^3 at idempotent '1a'"),
    ]
    for A, budget, what in cases:
        assert _decision_outcome(brute_lawvere_ncat, A, budget)[:2] == ("budget", what)
        got = _decision_outcome(is_lawvere_complete_ncat, A, budget)
        assert got[0] in (True, False)
        assert got == _decision_outcome(brute_lawvere_ncat, A, 4096)


def _clause_two_categories(q1, q2, q3, q4chain, q4bool, qluka, qabove):
    """Every fixture ncat (the categories of its ndists included), the
    transformation monoids of 2 and 3 points over bool2, chain3 and bool4,
    and ``_differential_fixtures``: the categories among them."""
    for name in sorted(os.listdir(DATA)):
        inst = load_instance(os.path.join(DATA, name))
        for kind, value in inst.objects.values():
            if kind in ("ncat", "ndist"):
                yield value if kind == "ncat" else value.category
    for q in (q2, q3, q4bool):
        for n in (2, 3):
            yield transformation_monoid(q, n)
    for A in _differential_fixtures(q1, q2, q3, q4chain, q4bool, qluka, qabove):
        if A.report.ok:
            yield A


def test_idempotent_inputs_equal_the_closed_forms(
    q1, q2, q3, q4chain, q4bool, qluka, qabove
):
    # Φ_e's elements read once give the same D_e, N and unit-class members
    # as the closed forms that each read them
    idempotents = 0
    for A in _clause_two_categories(q1, q2, q3, q4chain, q4bool, qluka, qabove):
        for e in A.idempotents():
            assert idempotent_inputs(A, e) == idempotent_inputs_oracle(A, e), (A, e)
            idempotents += 1
    assert idempotents > 350  # 383 idempotents


def test_clause_two_guards_at_one_below_their_count(
    q1, q2, q3, q4chain, q4bool, qluka, qabove, monkeypatch
):
    # the search prices each idempotent's |V|^|Φ_e| assignments in
    # declaration order: at one below an idempotent's count the first
    # idempotent past the budget raises, naming it and what is left, unless
    # an earlier idempotent already failed clause (2)
    without_unit_criterion(monkeypatch)
    raised = Counter()
    for A in _clause_two_categories(q1, q2, q3, q4chain, q4bool, qluka, qabove):
        if not A.ncat_report.ok or not A.strict_split[0]:
            continue
        full = _decision_outcome(is_lawvere_complete_ncat, A, 4096)
        if full[0] == "budget":
            continue
        q, idems = A.quantale, list(A.idempotents())
        sizes = [sum(map(len, idempotent_distributor_sets(A, e).values())) for e in idems]
        counts = [q.size ** k for k in sizes]
        failed_at = idems.index(full[2][0]) if full[1] == 2 else len(idems)
        for needed in sorted(set(counts)):
            budget = needed - 1
            r = next(i for i, count in enumerate(counts) if count > budget)
            expected = full if failed_at < r else (
                "budget",
                f"norm assignments |V|^{sizes[r]} at idempotent {idems[r]!r}",
                counts[r],
                budget,
                f"{len(idems) - r} idempotents, {counts[r]} assignments",
            )
            assert _decision_outcome(is_lawvere_complete_ncat, A, budget) == expected, A
            raised[expected[0]] += 1
    assert raised["budget"] > 100  # 139 guards


def test_left_adjoint_unit_norm_is_the_coend_class_norm(q2, q4bool):
    NA = i_embed_cat(bool4_split_witness_vcat(q4bool))
    fixtures = [
        i_embed_weight({"x1": q4bool.el("a"), "x2": q4bool.el("b")}, NA),
        representable_cov(split_monoid_cat(q2), "a"),
        idempotent_distributor(monoid_cat(q2, "1", "0"), "e", {"e": "1"}),
    ]
    for Phi in fixtures:
        data = left_adjoint_unit(Phi)
        assert data.plain
        c, u, v_key = data.triple
        assert data.unit_norm == coend_unit(data.conjugate, Phi).class_norm((c, v_key, u))


def _evaluation_certificate(Phi, conjugate, c, u, v_key):
    """The evaluation counit ε(y, x) = x_b(y) with the triple (c, u, v)."""
    A = Phi.category
    eps = {
        (a, b): {
            (y, x_key): nat_family(Phi, x_key)[b][y]
            for y in Phi.sets[b]
            for x_key in conjugate.sets[a]
        }
        for a in A.objects
        for b in A.objects
    }
    return AdjunctionCertificate(Phi, conjugate, eps, c, u, v_key)


def test_unit_class_closed_form_matches_distributor_calculus(
    q1, q2, q3, q4chain, q4bool, qluka, qabove
):
    idempotents = 0
    for A in _differential_fixtures(q1, q2, q3, q4chain, q4bool, qluka, qabove):
        if not validate_ncat(A).ok:
            continue
        q = A.quantale
        for e in A.idempotents():
            a = A.dom[e]
            elems = idempotent_distributor_sets(A, e)
            flat, D, N, members = idempotent_inputs(A, e)
            conj_cf = idempotent_conjugate_sets(A, e)
            idempotents += 1
            for values, conj in matrix_weights(q, D, N):
                Phi = idempotent_distributor(A, e, dict(zip(flat, values)))
                conjugate = isbell_conjugate_ndist(Phi)

                def key(y):  # the natural family w ↦ w∘y of the closed form
                    return nat_key(
                        Phi, {x: {w: A.table[w, y] for w in elems[x]} for x in A.objects}
                    )

                # the conjugate's elements are the families of the y with e∘y = y
                for c in A.objects:
                    keys = [key(y) for y in conj_cf[c]]
                    assert len(set(keys)) == len(keys) == len(conjugate.sets[c]), (A, e)
                    assert set(keys) == set(conjugate.sets[c].elements), (A, e)
                # (a, e, e) satisfies both splitting equations
                cert = _evaluation_certificate(Phi, conjugate, a, e, key(e))
                report = {c.name: c.ok for c in check_adjunction_cert(cert).checks}
                assert report["splitting-through-v"] and report["splitting-through-u"]
                # the unit class is the coend class of (a, e, e), and the
                # search of the general path presents the same class
                coend = coend_unit(conjugate, Phi)
                expected = set(coend.class_members((a, key(e), e)))
                closed = idempotent_unit_class(A, e)
                assert {(x, key(y), w) for x, y, w in closed} == expected, (A, e)
                data = left_adjoint_unit(Phi)
                assert set(data.unit_class) == expected
                # the conjugate-norm terms of each member y, on positions of flat
                ys = list(dict.fromkeys(y for _, y, _ in closed))
                assert [(flat.index(w), ys.index(y)) for _, y, w in closed] == members
                for j, y in enumerate(ys):
                    norm = q.meet(q.hom(values[i], row[j]) for i, row in enumerate(N))
                    assert norm == conjugate.sets[A.dom[y]].norm(key(y)), (A, e, y)
                    assert conj[j] == norm, (A, e, y)
    assert idempotents > 250  # 283 idempotents in the valid fixtures


def _certificates(A, budget=4096):
    """(certificate, None) for every representable certificate of A, then
    (certificate, ``left_adjoint_unit`` data) for the evaluation certificate
    of every plain left adjoint Φ_e, up to the first budget guard."""
    for a in A.objects:
        yield representable_certificate(A, a), None
    try:
        for _, _, Phi, data in brute_left_adjoints(A, budget):
            if data.plain:
                yield _evaluation_certificate(Phi, data.conjugate, *data.triple), data
    except BudgetExceeded:
        return


def _brute_unit_class(cert):
    """The members and norm of the class of (c, v, u) in the union-find
    coend."""
    coend = coend_unit(cert.psi, cert.phi)
    key = (cert.c, cert.v, cert.u)
    return coend.class_members(key), coend.class_norm(key)


def test_unit_class_matches_the_union_find_on_every_valid_certificate(
    q1, q2, q3, q4chain, q4bool, qluka, qabove
):
    fixtures = list(_differential_fixtures(q1, q2, q3, q4chain, q4bool, qluka, qabove))
    fixtures += [transformation_monoid(q2, n) for n in (2, 3)]
    checked = 0
    for A in fixtures:
        if not A.report.ok:
            continue
        for cert, data in _certificates(A):
            assert check_adjunction_cert(cert).ok
            members, norm = _brute_unit_class(cert)
            got = unit_class(cert.phi, cert.psi, cert.eps, cert.c, cert.u)
            assert got == members, (A, cert.c, cert.u)
            if data is not None:
                assert (data.unit_class, data.unit_norm) == (members, norm)
            checked += 1
    assert checked > 2000  # 2196 certificates


def _perturbed(rng, cert):
    """``cert`` after one to three random edits, each one of: a counit
    entry, the splitting triple, an action entry of Φ or Ψ, or the norms of
    Φ or Ψ at one object."""
    A = cert.phi.category
    q = A.quantale
    phi, psi, eps, c, u, v = cert.phi, cert.psi, dict(cert.eps), cert.c, cert.u, cert.v
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(5)
        if edit == 0:
            a, b = rng.choice(list(eps))
            if eps[(a, b)]:
                table = dict(eps[(a, b)])
                table[rng.choice(list(table))] = rng.choice(A.hom(a, b))
                eps[(a, b)] = table
        elif edit == 1:
            c = rng.choice([b for b in A.objects if len(phi.sets[b]) and len(psi.sets[b])])
            u = rng.choice(phi.sets[c].elements)
            v = rng.choice(psi.sets[c].elements)
        else:
            D = phi if edit == 2 else psi if edit == 3 else rng.choice((phi, psi))
            sets, action = dict(D.sets), {h: dict(D.action[h]) for h in A.morphisms}
            if edit == 4:
                a = rng.choice(A.objects)
                S = D.sets[a]
                norms = {x: rng.choice(list(q.carrier())) for x in S}
                sets[a] = NormedSet(q, norms, S.elements)
            else:
                h = rng.choice(A.morphisms)
                src, tgt = D._action_shape(h)
                if len(src):
                    action[h][rng.choice(src.elements)] = rng.choice(tgt.elements)
            D2 = NormedDistributor(A, D.covariant, sets, action)
            phi, psi = (D2, psi) if D is phi else (phi, D2)
    return AdjunctionCertificate(phi, psi, eps, c, u, v)


def test_unit_class_matches_the_union_find_on_perturbed_certificates(
    q1, q2, q3, q4chain, q4bool, qluka, qabove
):
    fixtures = _differential_fixtures(q1, q2, q3, q4chain, q4bool, qluka, qabove)
    wide = [
        A for A in fixtures
        if validate_ncat(A).ok
        and any(len(A.hom(a, b)) >= 2 for a in A.objects for b in A.objects)
    ]
    assert len(wide) == 21
    rng = random.Random(20)
    outcomes = Counter()
    for A in wide:
        q = A.quantale
        certs = [cert for cert, _ in _certificates(A)]
        for _ in range(500):
            original = rng.choice(certs)
            cert = _perturbed(rng, original)
            report = check_adjunction_cert(cert, normed=True)
            names = [c.name for c in report.checks]
            if not all(c.ok for c in report.checks if c.name not in (
                "counit-normed", "unit-class-normed"
            )):
                assert "unit-class-normed" not in names
                outcomes["plain check failed"] += 1
                continue
            # the plain checks imply Φ is a functor (the unit-class lemma)
            assert validate_ndist(cert.phi).checks[:2] == [
                Check("action-identities", True), Check("action-functorial", True)
            ]
            members, norm = _brute_unit_class(cert)
            assert unit_class(cert.phi, cert.psi, cert.eps, cert.c, cert.u) == members
            (unit,) = [c for c in report.checks if c.name == "unit-class-normed"]
            assert (unit.ok, unit.witness) == (q.leq(q.unit, norm), f"class norm {q.format(norm)}")
            moved = (cert.eps, cert.c, cert.u, cert.v, cert.phi.action, cert.psi.action) != (
                original.eps, original.c, original.u, original.v,
                original.phi.action, original.psi.action,
            )
            outcomes["changed" if moved else "norms only"] += 1
            outcomes[f"unit-class-normed {unit.ok}"] += 1
    # of 10 500: 4 604 fail a plain check, 304 pass changed, 5 592 pass
    # with at most their norms edited; 2 109 unit classes normed, 3 787 not
    assert min(outcomes.values()) > 250, outcomes


def test_lawvere_builds_no_distributors(q2, monkeypatch):
    # the i-b2-chain7 shape: the order 7-chain over bool2, i-embedded
    import helpers
    from collections import Counter

    from quantcat import ncat

    n = 7
    X = VCategory(
        q2,
        [f"p{i}" for i in range(n)],
        [["1" if i <= j else "0" for j in range(n)] for i in range(n)],
    )
    A = i_embed_cat(X)
    calls = Counter()
    init = NormedDistributor.__init__

    def counted_init(self, *args):
        calls["NormedDistributor"] += 1
        init(self, *args)

    monkeypatch.setattr(NormedDistributor, "__init__", counted_init)
    for name in ("isbell_conjugate_ndist", "coend_unit", "idempotent_distributor"):
        home = ncat if hasattr(ncat, name) else helpers
        def counted(*args, _fn=getattr(home, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        for module in (ncat, helpers):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    verdict = is_lawvere_complete_ncat(A)
    assert verdict.complete
    assert calls == Counter()
    # the counters see the oracle's distributors, conjugates and coends
    assert repr(brute_lawvere_ncat(A)) == repr(verdict)
    assert set(calls) == {
        "NormedDistributor", "isbell_conjugate_ndist", "coend_unit", "idempotent_distributor"
    }


def _validation_outcome(validate, A):
    """Every check's (name, ok, witness), or the error the scan raised."""
    try:
        return [(c.name, c.ok, c.witness) for c in validate(A).checks]
    except Exception as exc:  # noqa: BLE001 - the two must fail alike
        return (type(exc).__name__, str(exc))


def _hand_broken(q2):
    """(category, the check it fails) for tables no fixture breaks."""
    one = ["1a", "1b", "e"]
    full = {(g, f): g if f in ("1a", "1b") else f for g in one for f in one}
    full[("e", "e")] = "1b"  # e∘e lands on b: every pair stays in the table
    bad_endpoint = NormedCategory(
        q2, ["a", "b"], one, {"1a": "a", "1b": "b", "e": "a"},
        {"1a": "a", "1b": "b", "e": "a"}, {"a": "1a", "b": "1b"}, full,
        {m: "1" for m in one},
    )
    ms = ["1", "a", "b"]
    table = {("1", m): m for m in ms} | {(m, "1"): m for m in ms}
    table |= {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
    non_associative = NormedCategory(
        q2, ["x"], ms, {m: "x" for m in ms}, {m: "x" for m in ms}, {"x": "1"},
        table, {m: "1" for m in ms},
    )
    # only the composable pairs, as an instance file lists them: e∘e off
    # its endpoints, once onto 1b and once onto a name that is no morphism
    composable = {("1a", "1a"): "1a", ("1b", "1b"): "1b", ("e", "1a"): "e", ("1a", "e"): "e"}
    off_endpoints = [
        NormedCategory(
            q2, ["a", "b"], one, {"1a": "a", "1b": "b", "e": "a"},
            {"1a": "a", "1b": "b", "e": "a"}, {"a": "1a", "b": "1b"},
            composable | {("e", "e"): ee}, {m: "1" for m in one},
        )
        for ee in ("1b", "zz")
    ]
    # x → y → z at the unit with x → z at the bottom: not transitive
    not_transitive = VCategory(
        q2, ["x", "y", "z"], [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]]
    )
    return [
        (bad_endpoint, "composition-endpoints"),
        *((A, "composition-endpoints") for A in off_endpoints),
        (non_associative, "associativity"),
        (i_embed_cat(not_transitive), "composition-submultiplicative"),
        (monoid_cat(q2, "0", "1"), "identity-norms"),
    ]


def test_indexed_validation_names_the_unindexed_first_witness(
    q1, q2, q3, q4chain, q4bool, qluka, qabove
):
    from helpers import unindexed_validate_ncat

    broken = _hand_broken(q2)
    for A, check in broken:
        failed = [c.name for c in unindexed_validate_ncat(A).failures()]
        assert check in failed, (check, failed)
    fixtures = list(_differential_fixtures(q1, q2, q3, q4chain, q4bool, qluka, qabove))
    for A in fixtures + [A for A, _ in broken]:
        expected = _validation_outcome(unindexed_validate_ncat, A)
        assert _validation_outcome(validate_ncat, A) == expected, A


def _magmas_with_identity(q2):
    """Every composition table on one object x with morphisms 1, a, b and 1
    the identity (81 tables, most of them not associative), alone and with a
    thin object y reached by r: x → y, listed before or after x's morphisms;
    h with codomain y receives no hom-set of two morphisms."""
    ms = ["1", "a", "b"]
    for products in product(ms, repeat=4):
        table = {("1", m): m for m in ms} | {(m, "1"): m for m in ms}
        table |= dict(zip([("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")], products))
        yield NormedCategory(
            q2, ["x"], ms, {m: "x" for m in ms}, {m: "x" for m in ms}, {"x": "1"},
            table, {m: "1" for m in ms},
        )
        wide = table | {("r", m): "r" for m in ms} | {("1y", "r"): "r", ("1y", "1y"): "1y"}
        dom = {m: "x" for m in ms} | {"r": "x", "1y": "y"}
        cod = {m: "x" for m in ms} | {"r": "y", "1y": "y"}
        for morphisms in (ms + ["r", "1y"], ["r", "1y"] + ms):
            yield NormedCategory(
                q2, ["x", "y"], morphisms, dom, cod, {"x": "1", "y": "1y"}, wide,
                {m: "1" for m in morphisms},
            )


def _path_with_two_diagonals(q2):
    """f: v → w, g: w → y, h: y → x with (h∘g)∘f = p and h∘(g∘f) = p' ≠ p:
    A(v, x) is the one hom-set of two morphisms, and h's domain y receives
    none."""
    ends = {
        "f": ("v", "w"), "g": ("w", "y"), "h": ("y", "x"), "k": ("v", "y"),
        "m": ("w", "x"), "p": ("v", "x"), "p'": ("v", "x"),
    } | {"1" + o: (o, o) for o in "vwyx"}
    table = {("g", "f"): "k", ("h", "g"): "m", ("h", "k"): "p'", ("m", "f"): "p"}
    for f, (a, b) in ends.items():
        table |= {(f, "1" + a): f, ("1" + b, f): f}
    return NormedCategory(
        q2, list("vwyx"), list(ends), {f: a for f, (a, _) in ends.items()},
        {f: b for f, (_, b) in ends.items()}, {o: "1" + o for o in "vwyx"}, table,
        {f: "1" for f in ends},
    )


def test_associativity_skip_names_the_unskipped_first_witness(q2):
    from helpers import unindexed_validate_ncat

    failures = Counter()
    broken = [A for A, _ in _hand_broken(q2)] + [_path_with_two_diagonals(q2)]
    for A in broken + list(_magmas_with_identity(q2)):
        expected = _validation_outcome(unindexed_validate_ncat, A)
        assert _validation_outcome(validate_ncat, A) == expected, A
        failures.update(c.name for c in validate_ncat(A).failures())
    assert failures["associativity"] > 100


def test_associativity_scan_visits_no_triple_of_a_thin_category(q3):
    # the composition table is read once per composable pair (endpoints) and
    # twice per morphism (identity laws), and never for a triple
    class CountingTable(dict):
        reads = 0

        def __getitem__(self, key):
            CountingTable.reads += 1
            return super().__getitem__(key)

    n = 4
    X = VCategory(
        q3,
        [f"p{i}" for i in range(n)],
        [["1" if i <= j else "m" for j in range(n)] for i in range(n)],
    )
    A = i_embed_cat(X)
    A.table = CountingTable(A.table)
    assert validate_category(A).ok
    assert CountingTable.reads == n ** 3 + 2 * n ** 2
