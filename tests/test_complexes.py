import pytest

from radcube.complexes import (
    ChainWindow,
    cokernels,
    construct_from_module,
    direct_sum_windows,
    homology_of_dual,
    periodic_window,
    verify_window,
)
from radcube.errors import ConstructionRefused, InputError
from radcube.modules import (
    RModuleMap,
    cyclic_presentation,
    ext_dims,
    k_presentation,
    minimal_presentation,
    resolve,
)


@pytest.fixture
def alternating_window(R4):
    # ... -> A_2 --x+z--> A_1 --x-z--> A_0 --x+z--> ... (degree parity fixed)
    return periodic_window(R4, ["x - z", "x + z"], -3, 3)


@pytest.fixture
def periodic_x_window(R1):
    return periodic_window(R1, ["x"], -3, 3)


def test_window_shape_validation(R1):
    d = cyclic_presentation(R1, "x")
    with pytest.raises(InputError):
        ChainWindow(R1, 0, [1, 2], [d])
    with pytest.raises(InputError):
        ChainWindow(R1, 0, [1, 1], [])


def test_verify_periodic(R1, periodic_x_window):
    rep = verify_window(R1, periodic_x_window)
    assert rep.composition_zero
    assert rep.minimal
    assert rep.homology == {i: 0 for i in range(-2, 3)}
    assert rep.acyclic_on_window


def test_verify_alternating(R4, alternating_window):
    rep = verify_window(R4, alternating_window)
    assert rep.composition_zero
    assert rep.acyclic_on_window


def test_verify_composition_violation(R1):
    w = periodic_window(R1, ["x", "y"], 0, 2)
    rep = verify_window(R1, w)
    assert not rep.composition_zero
    assert rep.composition_violations[0][0] == 1
    assert not rep.acyclic_on_window


def test_dual_homology_alternating(R4, alternating_window):
    rep = homology_of_dual(R4, alternating_window)
    assert all(v == 0 for v in rep.h.values())
    assert rep.zero_set == tuple(range(-2, 3))
    assert set(rep.ker_star_lengths.values()) == {3}


def test_dual_homology_periodic(R1, periodic_x_window):
    rep = homology_of_dual(R1, periodic_x_window)
    assert all(v == 0 for v in rep.h.values())


def test_dual_homology_detects_ext(R4):
    # Resolution of k laid out as a window, padded by zero on the left:
    # not acyclic at the edge, and h^i recovers dim Ext^i(k, R).
    betti, diffs = resolve(R4, k_presentation(R4), 4, "k")
    ranks = [0] + list(betti.betti[:5])
    zero_edge = RModuleMap.zeros(R4, 0, 1)
    w = ChainWindow(R4, -1, ranks, [zero_edge] + diffs[:4])
    rep = verify_window(R4, w)
    assert rep.homology[0] == 1  # H_0 = k survives: not acyclic
    dual = homology_of_dual(R4, w)
    mu = ext_dims(R4, k_presentation(R4), 4)
    assert dual.h[0] == mu[0] == 2
    assert dual.h[1] == mu[1] == 3
    assert dual.h[2] == mu[2] == 6


def test_cokernels_alternating(R4, alternating_window):
    rep = cokernels(R4, alternating_window)
    assert rep.kappa_window is None
    for s in rep.summaries:
        assert (s.length, s.s, s.b) == (3, 2, 1)
        assert not s.k_summand
        assert s.length == s.s + s.b


def test_cokernels_periodic_length(R1, periodic_x_window):
    rep = cokernels(R1, periodic_x_window)
    for s in rep.summaries:
        assert s.length == 2  # a*e with a=1, e=2


def test_cokernels_engineered_k_summand(R4):
    # Direct sum of the exact-zero-divisor window with a truncated
    # resolution of k: the cokernel at the left edge acquires a k-summand.
    n = 3
    betti, diffs = resolve(R4, k_presentation(R4), n, "k")
    res_window = ChainWindow(R4, 0, list(betti.betti), diffs)
    per = periodic_window(R4, ["x - z", "x + z"], 0, n)
    summed = direct_sum_windows(per, res_window)
    rep = cokernels(R4, summed)
    flags = {s.position: s.k_summand for s in rep.summaries}
    assert flags[0] and not flags[1] and not flags[2]
    assert rep.kappa_window == -1
    # Interior homology still vanishes: both summands are exact inside.
    assert verify_window(R4, summed).acyclic_on_window


def test_cokernels_requires_minimal(R1):
    w = periodic_window(R1, ["x"], 0, 2)
    bad = ChainWindow(R1, 0, [1, 1, 1], [w.diff(1), RModuleMap.from_entries(R1, [["1"]])])
    with pytest.raises(InputError):
        cokernels(R1, bad)


# -- construction -------------------------------------------------------------


def test_construct_exact_zero_divisor(R4):
    res = construct_from_module(R4, cyclic_presentation(R4, "x + z"), 5)
    w = res.window
    assert (w.lo, w.hi) == (-5, 5)
    assert w.ranks == [1] * 11
    assert res.report.acyclic_on_window
    assert all(v == 0 for v in res.dual.h.values())
    assert res.minimal


def test_construct_gorenstein_cyclic(R1):
    res = construct_from_module(R1, cyclic_presentation(R1, "x"), 5)
    assert res.window.ranks == [1] * 11
    assert res.report.acyclic_on_window
    assert all(v == 0 for v in res.dual.h.values())


def test_construct_complete_resolution_of_k(R1):
    res = construct_from_module(R1, k_presentation(R1), 5)
    assert res.window.ranks == [6, 5, 4, 3, 2, 1, 1, 2, 3, 4, 5]
    assert res.report.acyclic_on_window
    assert all(v == 0 for v in res.dual.h.values())
    assert res.minimal


def test_construct_refuses_nonvanishing_ext(R4):
    with pytest.raises(ConstructionRefused, match="Ext\\^1 != 0 \\(dim 3\\)"):
        construct_from_module(R4, k_presentation(R4), 3)


def test_construct_refuses_free(R1):
    with pytest.raises(ConstructionRefused, match="free"):
        construct_from_module(R1, RModuleMap.zeros(R1, 1, 0), 3)


def test_construct_negative_side_dualizes_back(R4):
    pres = cyclic_presentation(R4, "x + z")
    res = construct_from_module(R4, pres, 3)
    _, diffs = resolve(R4, pres, 3)
    from radcube.modules import dual_map

    for j in range(-2, 1):
        assert res.window.diff(j) == dual_map(diffs[-j])
    # Cokernel of the dual differential at the junction is M^* data:
    # coker(d_1 of the dual side) has the generators of M^*.
    from radcube.modules import star

    mstar, gen = star(R4, pres)
    assert res.window.diff(1) == gen


@pytest.mark.parametrize(
    "ring_name, module, n, ranks, nullspaces",
    [("R1", None, 5, 13, 11), ("R4", "x + z", 8, 19, 17)],
)
def test_construct_eliminates_each_k_matrix_once(
    request, count_calls, ring_name, module, n, ranks, nullspaces
):
    # The Ext check, the verification and the dual homology share their
    # ranks: the dualized half holds the resolution's own maps' duals.
    ring = request.getfixturevalue(ring_name)
    pres = k_presentation(ring) if module is None else cyclic_presentation(ring, module)
    calls = count_calls(["rank", "nullspace"])
    construct_from_module(ring, pres, n)
    assert calls == {"rank": ranks, "nullspace": nullspaces}


def test_construct_length_rank_nullity(R4):
    # l(Ker d_i^T) + l(Im d_i^T) = b_{i-1} * length(R) at every degree,
    # with the kernel length taken from the dual-homology report.
    res = construct_from_module(R4, cyclic_presentation(R4, "x + z"), 4)
    w = res.window
    from radcube.linalg import rank as krank
    from radcube.modules import dual_map

    for i in range(w.lo + 1, w.hi + 1):
        im_len = krank(dual_map(w.diff(i)).k_matrix())
        assert res.dual.ker_star_lengths[i] + im_len == w.rank(i - 1) * R4.dim


def test_construct_matches_cokernel_ext(R4):
    # Dual homology at position j equals dim Ext^h(C_{j-h}, R) computed
    # from a fresh resolution of the realized cokernel.
    res = construct_from_module(R4, cyclic_presentation(R4, "x + z"), 3)
    w = res.window
    from radcube.modules import coker_realize

    for j in w.interior:
        for h in (1, 2):
            pos = j - h
            if not (w.lo <= pos <= w.hi - 1):
                continue
            c = coker_realize(R4, w.diff(pos + 1))
            ext = ext_dims(R4, minimal_presentation(c), h + 1)
            assert res.dual.h[j] == ext[h]
