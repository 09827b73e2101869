import pytest

from radcube.complexes import ChainWindow, direct_sum_windows, periodic_window
from radcube.errors import InputError
from radcube.modules import (
    RModuleMap,
    cyclic_presentation,
    k_presentation,
    resolve,
)
from radcube.rings import build_from_quadrics
from radcube.theorems import (
    check_observation,
    check_theorem_A,
    check_theorem_C,
    classify_theorem_B,
    exceptionality,
    expand_rational_series,
    lemma_checks,
    poly_mul,
)


def longdiv_oracle(num, den, n):
    """Independent rational-series oracle via fractions (exact)."""
    from fractions import Fraction

    coeffs = []
    for i in range(n + 1):
        acc = Fraction(num[i] if i < len(num) else 0)
        for j in range(1, i + 1):
            dj = den[j] if j < len(den) else 0
            acc -= dj * coeffs[i - j]
        coeffs.append(acc / den[0])
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


@pytest.fixture
def alternating(R4):
    return periodic_window(R4, ["x - z", "x + z"], -3, 3)


# -- series ------------------------------------------------------------------


def test_expand_examples():
    assert expand_rational_series([1], [1, -2, 1], 4) == (1, 2, 3, 4, 5)
    assert expand_rational_series([2, -1], [1, -2], 3) == (2, 3, 6, 12)
    assert expand_rational_series([1], [1], 3) == (1, 0, 0, 0)


def test_expand_against_longdiv():
    cases = [([1], [1, -3, 2], 8), ([2, -3, 1], [1, -3, 2], 6), ([5], [-1, 2], 5)]
    for num, den, n in cases:
        assert (
            expand_rational_series(num, den, n).coefficients
            == longdiv_oracle(num, den, n)
        )


def test_expand_guards():
    with pytest.raises(InputError):
        expand_rational_series([1], [0, 1], 3)
    with pytest.raises(InputError):
        expand_rational_series([1], [2, 1], 3)


def test_poly_mul():
    assert poly_mul([1, -1], [1, -2]) == [1, -3, 2]
    assert poly_mul([1, 1], [1, 3, 2]) == [1, 4, 5, 2]


# -- Theorem A ----------------------------------------------------------------


def test_theorem_A_flagship(R4, alternating):
    v = check_theorem_A(R4, alternating, 4)
    assert v.hypothesis_met
    names = {c.name.split(":")[0]: c for c in v.checks}
    assert names["a"].passed and names["b"].passed
    assert names["c"].actual == (1, 3, 7, 15, 31)
    assert names["c'"].passed
    assert names["d"].passed
    assert names["d"].actual == (2, 3, 6, 12, 24)
    assert v.passed


def test_theorem_A_gorenstein_refused(R1):
    w = periodic_window(R1, ["x"], -2, 2)
    v = check_theorem_A(R1, w, 4)
    assert not v.hypothesis_met
    assert any("Gorenstein" in n for n in v.notes)
    assert v.checks == ()


def test_theorem_A_socle_witness(RS):
    # Any window over this ring must fail verification; part (a) still
    # evaluates and reports the socle witness, cross-flagged.
    w = periodic_window(RS, ["y"], -2, 2)
    v = check_theorem_A(RS, w, 4)
    assert not v.hypothesis_met
    assert any("homology nonzero" in n or "d o d" in n for n in v.notes)
    a = v.checks[0]
    assert a.passed is False
    assert "y" in a.note


# -- Theorem B ----------------------------------------------------------------


def test_theorem_B_type_I(R4, alternating):
    v = classify_theorem_B(R4, alternating)
    assert v.hypothesis_met and v.type == "I"
    assert v.a == 1
    assert v.passed
    lengths = v.checks[1].actual
    assert set(lengths.values()) == {3}  # a*e = 3


def test_theorem_B_type_II_fixture(R4):
    betti, diffs = resolve(R4, k_presentation(R4), 3, "k")
    res_window = ChainWindow(R4, 0, list(betti.betti), diffs)
    per = periodic_window(R4, ["x - z", "x + z"], 0, 3)
    summed = direct_sum_windows(per, res_window)
    v = classify_theorem_B(R4, summed)
    assert v.type == "II"
    assert v.kappa_window == -1
    inc = [c for c in v.checks if "strictly increase" in c.name][0]
    assert inc.passed
    assert v.passed


def test_theorem_B_gorenstein_refused(R1):
    v = classify_theorem_B(R1, periodic_window(R1, ["x"], -2, 2))
    assert not v.hypothesis_met


# -- Theorem C ----------------------------------------------------------------


def test_theorem_C_full(R4, alternating):
    v = check_theorem_C(R4, alternating)
    assert v.hypothesis_met
    assert v.equal_ranks
    assert v.h_window == tuple(range(-2, 3))
    assert all(status == "held" for _, status in v.implications)
    assert v.closure_full
    assert v.passed


def test_theorem_C_rank_two(R4, alternating):
    doubled = direct_sum_windows(alternating, alternating)
    v = check_theorem_C(R4, doubled)
    assert v.equal_ranks
    assert set(doubled.ranks) == {2}
    assert all(status == "held" for _, status in v.implications)
    assert v.passed


def test_theorem_C_violation_fixture():
    # Isolated dual-homology defect over the (1,2,2) ring F5[x,y]/(xy):
    # entries (x+y, x, y, x+y) give h = (0, 1, 0) at the interior
    # positions, so the middle implication is violated; the primal side
    # fails d o d = 0 and the verdict cross-flags it.
    ring = build_from_quadrics(5, ["x", "y"], ["x*y"])
    inv = ring.invariants()
    assert (inv.e, inv.s, inv.r) == (2, 2, 2) and not inv.gorenstein
    diffs = [
        RModuleMap.from_entries(ring, [[ent]]) for ent in ["x + y", "x", "y", "x + y"]
    ]
    w = ChainWindow(ring, 0, [1, 1, 1, 1, 1], diffs)
    v = check_theorem_C(ring, w)
    assert not v.hypothesis_met  # cross-flagged: not a real acyclic window
    assert any("d o d" in n for n in v.notes)
    assert v.h_window == (1, 3)
    statuses = dict(v.implications)
    assert statuses[2] == "violated"


# -- exceptionality -----------------------------------------------------------


def test_exceptionality_k_flagship(R4):
    rep = exceptionality(R4, k_presentation(R4), 4)
    assert rep.hypothesis_met
    assert rep.betti[:5] == (1, 3, 7, 15, 31)
    assert rep.exceptional_on_range
    assert rep.chain_identities_hold and rep.iff_agrees
    assert rep.k_series is not None and rep.k_series.passed
    assert rep.passed


def test_exceptionality_cyclic(R4):
    rep = exceptionality(R4, cyclic_presentation(R4, "x + z"), 4)
    assert rep.hypothesis_met
    # beta_1 = e*beta_0 - rank mM: 1 = 3*1 - 2, and chain identities hold.
    assert rep.betti[:5] == (1, 1, 1, 1, 1)
    assert rep.exceptional_on_range and rep.iff_agrees
    assert rep.passed


def test_exceptionality_socle_guard(RS):
    rep = exceptionality(RS, k_presentation(RS), 3)
    assert not rep.hypothesis_met
    assert any("Soc" in n for n in rep.notes)


def test_exceptionality_m2m_guard(R4):
    # M = R/(y) has m^2 M != 0 (xz survives): hypothesis not met.
    rep = exceptionality(R4, cyclic_presentation(R4, "y"), 3)
    assert not rep.hypothesis_met
    assert any("m^2 M" in n for n in rep.notes)


# -- lemma checks --------------------------------------------------------------


def test_lemma_checks_flagship(R4):
    rep = lemma_checks(R4, cyclic_presentation(R4, "x + z"), 4)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["beta_0(E_1) = e(r-1)"].actual == 3
    assert by_name["l(E_1) = (r-1)(1+e+r)"].actual == 6
    assert by_name["rank_k mE_1 = r^2 - 1"].actual == 3
    series = by_name["[I_R] = [(r-et+t^2)/(1-et+rt^2)] to degree n"]
    assert series.actual == (2, 3, 6, 12, 24)
    assert rep.passed


def test_lemma_checks_resolves_and_realizes_m_once(R4, count_calls):
    pres = cyclic_presentation(R4, "x + z")
    calls = count_calls(["resolve", "coker_realize"], lambda args: args[1] is pres)
    rep = lemma_checks(R4, pres, 4)
    assert any(c.name.startswith("Ext^5 = 0 implies") for c in rep.checks)
    assert calls == {"resolve": 1, "coker_realize": 1}


def test_lemma_checks_skips_dual_length(R4):
    rep = lemma_checks(R4, k_presentation(R4), 4)
    dual = [c for c in rep.checks if c.name.startswith("dual length")][0]
    assert dual.passed is None
    assert "Ext^1" in dual.note


def test_lemma_checks_gorenstein(R1):
    rep = lemma_checks(R1, cyclic_presentation(R1, "x"), 4)
    dual = [c for c in rep.checks if c.name.startswith("dual length")][0]
    assert dual.passed  # mu^1 = 0 branch: l(M^*) = 1*2 - 1*0 = 2
    assert any("Gorenstein" in n for n in rep.notes)
    assert rep.passed


# -- observation ----------------------------------------------------------------


def test_observation_flagship(R4):
    rep = check_observation(R4, cyclic_presentation(R4, "x + z"), 4)
    assert rep.hypothesis_met
    flat = rep.checks[0]
    assert flat.passed and flat.actual == (1, 1, 1, 1, 1)
    assert rep.passed


def test_observation_gorenstein_guard(R1):
    rep = check_observation(R1, k_presentation(R1), 4)
    assert not rep.hypothesis_met
    assert any("Gorenstein" in n for n in rep.notes)


def test_observation_depth_guard(R4):
    rep = check_observation(R4, cyclic_presentation(R4, "x + z"), 2)
    assert not rep.hypothesis_met
    assert any("n >= 3" in n for n in rep.notes)


def betti_shape_ok(seq):
    """Decreasing, then flat, then strictly increasing (either part empty)."""
    n = 0
    while n + 1 < len(seq) and seq[n + 1] < seq[n]:
        n += 1
    m = n
    while m + 1 < len(seq) and seq[m + 1] == seq[m]:
        m += 1
    return all(seq[i + 1] > seq[i] for i in range(m, len(seq) - 1)), n, m


def test_betti_window_shape():
    # Over rings with Soc = m^2 and e >= 1 + r, Betti windows of modules
    # with m^2 M = 0 are decreasing-flat-increasing; with e > 1 + r the
    # flat part has length at most 2.
    import random

    from radcube.modules import coker_realize, cyclic_presentation

    rng = random.Random(14)
    checked = 0
    while checked < 12:
        e = rng.randint(2, 4)
        npairs = e * (e + 1) // 2
        s = rng.randint(1, min(e - 1, 3))
        quadrics = [
            [rng.randrange(5) for _ in range(npairs)] for _ in range(npairs - s)
        ]
        try:
            ring = build_from_quadrics(5, [f"x{i+1}" for i in range(e)], quadrics)
        except Exception:
            continue
        inv = ring.invariants()
        if not inv.soc_eq_msq or inv.e < 1 + inv.r:
            continue
        vec = [0] + [rng.randrange(5) for _ in range(ring.dim - 1)]
        if not any(vec):
            continue
        pres = cyclic_presentation(ring, ring.element(vec))
        if coker_realize(ring, pres).y_ops.any():
            continue  # m^2 M != 0: hypothesis not met
        betti, _ = resolve(ring, pres, 6)
        ok, n, m = betti_shape_ok(betti.betti)
        assert ok, (inv.e, inv.r, betti.betti)
        if inv.e > 1 + inv.r:
            assert m - n <= 1, (inv.e, inv.r, betti.betti)
        checked += 1


def test_theorem_C_length_bookkeeping(R4, alternating):
    # On an equal-rank window with vanishing dual homology around l, the
    # kernel and image of the dual differentials both have length a*e.
    from radcube.complexes import homology_of_dual
    from radcube.linalg import rank as krank
    from radcube.modules import dual_map

    a, e = 1, 3
    dual = homology_of_dual(R4, alternating)
    for i in range(alternating.lo + 1, alternating.hi + 1):
        ker_len = dual.ker_star_lengths[i]
        im_len = krank(dual_map(alternating.diff(i)).k_matrix())
        assert ker_len == a * e
        assert im_len == a * e
        assert ker_len + im_len == alternating.rank(i - 1) * R4.dim


def test_betti_recursion_identity(R4):
    # Coefficients of 1/((1-t)(1-rt)) satisfy c_i = (r+1)c_{i-1} - r c_{i-2}.
    r = 2
    series = expand_rational_series([1], poly_mul([1, -1], [1, -r]), 8).coefficients
    betti, _ = resolve(R4, k_presentation(R4), 8, "k")
    assert tuple(betti.betti) == series
    for i in range(2, 9):
        assert series[i] == (r + 1) * series[i - 1] - r * series[i - 2]
