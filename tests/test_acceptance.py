"""Acceptance suite: one test per criterion, each printing a verdict line.

Expected values tagged as derived were computed with the independent oracles
defined below (brute-force searches, ratio suprema over exact rationals)
before being asserted against the library.
"""

import random
from fractions import Fraction

from quantcat.ncat import is_lawvere_complete_ncat, split_idempotents_check
from quantcat.normed_set import NormedSet
from quantcat.quantale import (
    INF,
    bool2,
    bool4,
    builtin_quantale,
    chain3,
    chain4,
    lawvere_plus,
    lawvere_times,
    trivial,
    unit_approximated_from_totally_below,
    validate_quantale,
)
from quantcat.seqlim import (
    Sequence,
    colimit_nset,
    colimit_vlip,
    lipschitz_norm,
)
from quantcat.vcat import (
    VCategory,
    is_representable,
    lawvere_complete_vcat,
    unit_vcat,
    validate_vcat,
)

from helpers import (
    adjoint_weight_pairs,
    all_vcategories,
    brute_left_adjoints,
    i_embed_cat,
    idempotent_distributor,
    is_cauchy,
    is_representable_ndist,
    left_adjoint_unit,
    monoid_cat,
    object_lower,
    object_upper,
    ordered_pair_vcat,
    presentable_unit_scan,
    split_monoid_cat,
    strict_subcategory,
    subsets,
    verify_normed_colimit,
)

BUNDLED_FINITE = ("bool2", "chain3", "chain4", "bool4")


def announce(criterion: int, ok: bool) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------
# 1. quantale kernel


def test_criterion_1_quantale_kernel():
    ok = True
    for name in BUNDLED_FINITE:
        q = builtin_quantale(name)
        ok &= validate_quantale(q).ok
        for u in q.carrier():
            for v in q.carrier():
                for w in q.carrier():
                    ok &= q.leq(q.tensor(u, v), w) == q.leq(v, q.hom(u, w))
        for u in q.carrier():
            for S in subsets(q):
                ok &= q.tensor(u, q.join(S)) == q.join(q.tensor(u, s) for s in S)
    qt = lawvere_times()
    zero, three = Fraction(0), Fraction(3)
    ok &= qt.hom(zero, zero) == Fraction(0)  # 0/0 = 0
    ok &= qt.hom(zero, three) is INF  # 3/0 = inf
    ok &= qt.hom(INF, three) == Fraction(0)  # 3/inf = 0
    ok &= qt.hom(INF, INF) == Fraction(0)  # inf/inf = 0
    announce(1, ok)


# ---------------------------------------------------------------------------
# 2. V-level Lawvere completeness


def _vcats_up_to(q, max_objects):
    yield VCategory(q, [], [])
    for n in range(1, max_objects + 1):
        yield from all_vcategories(q, [f"o{i}" for i in range(n)], budget=10**6)


def test_criterion_2_vlevel_completeness():
    q2 = bool2()
    ok = True
    for X in _vcats_up_to(q2, 3):
        ok &= lawvere_complete_vcat(X, budget=10**6).complete
    q1 = trivial()
    for n in range(0, 4):
        X = VCategory(
            q1, [f"o{i}" for i in range(n)], [["k"] * n for _ in range(n)]
        )
        ok &= lawvere_complete_vcat(X).complete == (n > 0)
    announce(2, ok)


# ---------------------------------------------------------------------------
# 3. representability criterion vs brute force


def _fixture_vcats(q):
    yield unit_vcat(q)
    yield ordered_pair_vcat(q)
    yield VCategory(
        q, ["x", "y"], [[q.unit, q.bottom], [q.bottom, q.unit]]
    )
    carrier = list(q.carrier())
    mid = carrier[len(carrier) // 2]
    yield VCategory(
        q,
        ["x", "y", "z"],
        [[q.unit, mid, mid], [q.bottom, q.unit, mid], [q.bottom, q.bottom, q.unit]],
    )


def test_criterion_3_representability_equivalence():
    ok = True
    for qname in ("one", "bool2", "chain3"):
        q = builtin_quantale(qname)
        for X in _fixture_vcats(q):
            assert validate_vcat(X).ok
            for phi, psi in adjoint_weight_pairs(X, budget=10**6):
                witness = is_representable(phi, psi)
                brute = [
                    a
                    for a in X.objects
                    if object_lower(X, a) == phi and object_upper(X, a) == psi
                ]
                ok &= (witness is not None) == bool(brute)
                if witness is not None:
                    ok &= witness in brute
    announce(3, ok)


# ---------------------------------------------------------------------------
# 4. idempotent splitting and the two degenerate carriers


def _ncat_fixtures(q):
    fixtures = [
        monoid_cat(q, q.unit, q.unit),
        split_monoid_cat(q),
        i_embed_cat(ordered_pair_vcat(q)),
        i_embed_cat(unit_vcat(q)),
    ]
    if q.size > 1:
        fixtures.append(monoid_cat(q, q.unit, q.bottom))
    return fixtures


def test_criterion_4_idempotent_splitting():
    q2 = bool2()
    M, S = monoid_cat(q2, "1", "1"), split_monoid_cat(q2)
    ok_mon, witness = split_idempotents_check(M, M.morphisms)
    ok = not ok_mon and witness == "e"
    ok_split, _ = split_idempotents_check(S, S.morphisms)
    ok &= ok_split
    for q in (trivial(), bool2()):
        for A in _ncat_fixtures(q):
            A0 = strict_subcategory(A)
            strict_ok, _ = split_idempotents_check(A0, A0.morphisms)
            ok &= is_lawvere_complete_ncat(A).complete == strict_ok
    announce(4, ok)


# ---------------------------------------------------------------------------
# 5. completeness decision coherence


def _enumerated_left_adjoints(A, budget=10**6):
    for _, _, Phi, data in brute_left_adjoints(A, budget):
        if data.normed:
            yield Phi, data


def test_criterion_5_theorem_coherence():
    q2, q3, q4 = bool2(), chain3(), bool4()
    fixtures = [
        monoid_cat(q2, "1", "0"),
        split_monoid_cat(q2),
        i_embed_cat(ordered_pair_vcat(q2)),
        i_embed_cat(ordered_pair_vcat(q3)),
        i_embed_cat(
            VCategory(q4, ["x1", "x2"], [["top", "bot"], ["bot", "top"]])
        ),
        monoid_cat(q2, "1", "1"),
    ]
    ok = True
    for A in fixtures:
        verdict = is_lawvere_complete_ncat(A, budget=10**6)
        if verdict.complete:
            for Phi, data in _enumerated_left_adjoints(A):
                ok &= is_representable_ndist(Phi) is not None
        elif verdict.clause == 1:
            A0 = strict_subcategory(A)
            strict_ok, bad = split_idempotents_check(A0, A0.morphisms)
            ok &= not strict_ok and bad == verdict.certificate
        else:
            e, named = verdict.certificate
            norms = {f: A.quantale.el(v) for f, v in named.items()}
            Phi = idempotent_distributor(A, e, norms)
            data = left_adjoint_unit(Phi, 10**6)
            ok &= data.normed
            presentable, _ = presentable_unit_scan(data)
            ok &= not presentable
    announce(5, ok)


# ---------------------------------------------------------------------------
# 6. round trip through the one-arrow embedding


def test_criterion_6_round_trip():
    ok = True
    for qname in ("one", "bool2", "chain3"):
        q = builtin_quantale(qname)
        for X in _fixture_vcats(q):
            v_level = lawvere_complete_vcat(X, budget=10**6).complete
            n_level = is_lawvere_complete_ncat(i_embed_cat(X), budget=10**6).complete
            ok &= v_level == n_level
    announce(6, ok)


# ---------------------------------------------------------------------------
# 7. normed-set colimits of generated sequences


def _random_nset_sequence(rng, q):
    size = rng.randint(1, 3)
    elems = [f"e{i}" for i in range(size)]
    if q.is_finite:
        carrier = list(q.carrier())
        norms = {x: rng.choice(carrier) for x in elems}
    else:
        norms = {x: Fraction(rng.randint(0, 6), rng.randint(1, 4)) for x in elems}
    T = NormedSet(q, norms, elems)
    endo = {x: rng.choice(elems) for x in elems}
    prefix = []
    steps = []
    for _ in range(rng.randint(0, 2)):
        p_norms = (
            {x: rng.choice(list(q.carrier())) for x in elems}
            if q.is_finite
            else {x: Fraction(rng.randint(0, 6), rng.randint(1, 4)) for x in elems}
        )
        prefix.append(NormedSet(q, p_norms, elems))
        steps.append({x: rng.choice(elems) for x in elems})
    return Sequence("nset", prefix, steps, T, endo)


def test_criterion_7_nset_colimits():
    rng = random.Random(7)
    quantales = [builtin_quantale(n) for n in BUNDLED_FINITE] + [lawvere_plus()]
    cauchy_found = 0
    ok = True
    attempts = 0
    while cauchy_found < 20 and attempts < 4000:
        attempts += 1
        s = _random_nset_sequence(rng, quantales[attempts % len(quantales)])
        if not is_cauchy(s):
            continue
        cauchy_found += 1
        apex, gamma = colimit_nset(s)
        ok &= verify_normed_colimit(s, gamma, probe_bound=3, budget=10**6).ok
    ok &= cauchy_found >= 20

    non_cauchy = 0
    q2 = bool2()
    for i in range(8):
        # a norm-dropping tail: the unit-normed element collapses onto bottom
        elems = ["hi", "lo", f"x{i % 2}"]
        T = NormedSet(q2, {"hi": "1", "lo": "0", f"x{i % 2}": "0"}, elems)
        endo = {"hi": "lo", "lo": "lo", f"x{i % 2}": "lo"}
        s = Sequence("nset", [], [], T, endo)
        if not is_cauchy(s):
            non_cauchy += 1
    ok &= non_cauchy >= 5
    announce(7, ok)


# ---------------------------------------------------------------------------
# 8. Lipschitz colimits of generated V-category sequences


def _random_vcat_sequence(rng, q_tensor, q_odot, symmetric):
    size = rng.randint(1, 3)
    pts = [f"p{i}" for i in range(size)]
    carrier = list(q_tensor.carrier())
    for _ in range(60):
        rows = [[q_tensor.unit] * size for _ in pts]
        for i in range(size):
            for j in range(size):
                if symmetric and j < i:
                    rows[i][j] = rows[j][i]
                elif i != j:
                    rows[i][j] = rng.choice(carrier)
        X = VCategory(q_tensor, pts, rows)
        if validate_vcat(X).ok:
            endo = {x: rng.choice(pts) for x in pts}
            return Sequence("dset", [], [], X, endo, norm_quantale=q_odot)
    return None


def _lukasiewicz_on_chain3_lattice():
    """A second tensor on the three-chain lattice: u ⊗ v = max(u + v - 1, 0)."""
    from quantcat.quantale import FiniteQuantale

    names = ["0", "m", "1"]
    rank = {"0": 0, "m": 1, "1": 2}
    leq = [[rank[u] <= rank[v] for v in names] for u in names]
    tensor = [[names[max(rank[u] + rank[v] - 2, 0)] for v in names] for u in names]
    return FiniteQuantale(names, leq, tensor, "1")


def test_criterion_8_vlip_colimits():
    rng = random.Random(8)
    configs = [
        (bool2(), bool2()),
        (chain3(), chain3()),
        (chain4(), chain4()),
        (bool4(), bool4()),
        # mixed: meet-chain distances, Lukasiewicz norms on the same lattice
        (chain3(), _lukasiewicz_on_chain3_lattice()),
    ]
    ok = all(unit_approximated_from_totally_below(qo) for _, qo in configs)
    found = 0
    attempts = 0
    symmetric_checked = 0
    mixed_checked = 0
    while found < 10 and attempts < 2000:
        attempts += 1
        q_tensor, q_odot = configs[attempts % len(configs)]
        symmetric = attempts % 2 == 0
        s = _random_vcat_sequence(rng, q_tensor, q_odot, symmetric)
        if s is None or not is_cauchy(s):
            continue
        found += 1
        if q_tensor != q_odot:
            mixed_checked += 1
        apex, gamma = colimit_vlip(s)
        ok &= validate_vcat(apex).ok
        if symmetric:
            symmetric_checked += 1
            ok &= all(
                apex.d(a, b) == apex.d(b, a)
                for a in apex.objects
                for b in apex.objects
            )
    ok &= found >= 10 and symmetric_checked >= 3 and mixed_checked >= 1
    announce(8, ok)


# ---------------------------------------------------------------------------
# 9. Lipschitz norms against the ratio oracle


def _ratio(num: Fraction, den: Fraction):
    """The display conventions: 0/0 = 0, a/0 = inf, a/inf = inf/inf = 0."""
    if den is INF:
        return Fraction(0)
    if num is INF:
        return INF if den is not INF else Fraction(0)
    if den == 0:
        return Fraction(0) if num == 0 else INF
    return num / den


def _sup_ratio_oracle(X, Y, mapping):
    best = Fraction(0)
    for x in X.objects:
        for xp in X.objects:
            r = _ratio(Y.d(mapping[x], mapping[xp]), X.d(x, xp))
            if r is INF:
                return INF
            if r > best:
                best = r
    return best


def _random_metric_space(rng, q, size):
    pts = {f"m{i}": (Fraction(rng.randint(0, 8), 2), Fraction(rng.randint(0, 8), 2))
           for i in range(size)}
    names = list(pts)
    rows = [[abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1]) for b in names]
            for a in names]
    return VCategory(q, names, rows)


def test_criterion_9_lipschitz_norms():
    rng = random.Random(9)
    q = lawvere_plus()
    ok = True
    for _ in range(50):
        X = _random_metric_space(rng, q, rng.randint(1, 4))
        Y = _random_metric_space(rng, q, rng.randint(1, 4))
        mapping = {x: rng.choice(list(Y.objects)) for x in X.objects}
        got = lipschitz_norm(X, Y, mapping, "multiplicative")
        expected = _sup_ratio_oracle(X, Y, mapping)
        if expected is INF:
            ok &= got is INF
        else:
            ok &= got == expected
    for _ in range(10):
        X = _random_metric_space(rng, q, rng.randint(1, 4))
        ident = {x: x for x in X.objects}
        ok &= lipschitz_norm(X, X, ident, "log").is_zero()
        target = rng.choice(list(X.objects))
        const = {x: target for x in X.objects}
        ok &= lipschitz_norm(X, X, const, "log").is_zero()
    announce(9, ok)
