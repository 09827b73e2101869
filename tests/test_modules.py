import itertools
import random

import numpy as np
import pytest

from radcube.errors import InputError
from radcube.linalg import Mat, nullspace, rank, solve_matrix
from radcube.modules import (
    RModuleMap,
    coker_realize,
    cyclic_presentation,
    dual_map,
    ext_dims,
    free_kmodule,
    has_k_summand,
    k_presentation,
    matlis_dual,
    minimal_presentation,
    minimalize,
    resolve,
    star,
    submodule_realize,
    syzygy_step,
)


def brute_annihilator_dim(ring, f):
    """Oracle: enumerate the whole ring and count solutions of f*v = 0."""
    count = 0
    for coeffs in itertools.product(range(ring.p), repeat=ring.dim):
        v = np.array(coeffs, dtype=np.int64)
        if not ring.mult_vec(f.vec, v).any():
            count += 1
    d = 0
    while ring.p**d < count:
        d += 1
    assert ring.p**d == count
    return d


def span_dim(ring, vecs):
    return rank(Mat(ring.field, np.stack(vecs, axis=1)))


# -- minimalize ------------------------------------------------------------


def test_minimalize_unit_entry(R1):
    pres = RModuleMap.from_entries(R1, [["1"]])
    out = minimalize(pres)
    assert (out.nrows, out.ncols) == (0, 0)


def test_minimalize_already_minimal(R1):
    pres = RModuleMap.from_entries(R1, [["x"]])
    assert minimalize(pres) == pres


def test_minimalize_single_pivot(R1):
    pres = RModuleMap.from_entries(R1, [["1", "x"], ["y", "u1"]])
    out = minimalize(pres)
    assert (out.nrows, out.ncols) == (1, 1)
    assert out.is_zero()  # u1 - y*x = 0
    # Cokernel of the 1x1 zero map is R itself.
    assert coker_realize(R1, out).dim == R1.dim


# -- coker_realize ----------------------------------------------------------


def test_coker_r_mod_x(R1):
    m = coker_realize(R1, cyclic_presentation(R1, "x"))
    assert m.dim == 2
    assert m.msub_dim == 1
    assert m.gens == 1
    assert m.check() == []


def test_coker_r4_exact_zero_divisor(R4):
    m = coker_realize(R4, cyclic_presentation(R4, "x + z"))
    assert m.dim == 3
    assert m.msub_dim == 2
    assert m.socle_dim == 2
    assert not has_k_summand(m)
    assert m.check() == []


def test_coker_free(R1):
    m = coker_realize(R1, RModuleMap.zeros(R1, 1, 0))
    assert m.dim == R1.dim
    assert m.gens == 1


def test_coker_requires_minimal(R1):
    with pytest.raises(InputError):
        coker_realize(R1, RModuleMap.from_entries(R1, [["1"]]))


# -- syzygy_step ------------------------------------------------------------


def test_syzygy_of_x(R1):
    f = cyclic_presentation(R1, "x")
    assert brute_annihilator_dim(R1, R1.gen("x")) == 2
    g = syzygy_step(R1, f)
    assert (g.nrows, g.ncols) == (1, 1)
    assert g.entry(0, 0) == R1.gen("x")


def test_syzygy_of_exact_zero_divisor(R4):
    f = cyclic_presentation(R4, "x + z")
    assert brute_annihilator_dim(R4, R4.element("x + z")) == 3
    g = syzygy_step(R4, f)
    assert (g.nrows, g.ncols) == (1, 1)
    # The canonical generator spans the same line as x - z.
    entry = g.entry(0, 0).vec
    target = R4.element("x - z").vec
    assert span_dim(R4, [entry, target]) == 1


def test_syzygy_of_injective(R1):
    f = RModuleMap.from_entries(R1, [["1"]])
    g = syzygy_step(R1, f)
    assert (g.nrows, g.ncols) == (1, 0)


# -- resolve ---------------------------------------------------------------


def test_resolve_k_complete_intersection(R1):
    betti, diffs = resolve(R1, k_presentation(R1), 4, "k")
    assert betti.betti == (1, 2, 3, 4, 5)
    for d in diffs:
        assert d.is_minimal()
    # Consecutive differentials compose to zero.
    for a, b in zip(diffs, diffs[1:]):
        assert a.compose(b).is_zero()


def test_resolve_periodic(R4):
    betti, diffs = resolve(R4, cyclic_presentation(R4, "x + z"), 4)
    assert betti.betti == (1, 1, 1, 1, 1)
    # Period two: d1 = d3 and d2 = d4 as matrices.
    assert diffs[0].arr.tolist() == diffs[2].arr.tolist()
    assert diffs[1].arr.tolist() == diffs[3].arr.tolist()


def test_resolve_k_flagship(R4):
    betti, _ = resolve(R4, k_presentation(R4), 3, "k")
    assert betti.betti == (1, 3, 7, 15)


def test_resolve_rejects_nonminimal(R1):
    with pytest.raises(InputError):
        resolve(R1, RModuleMap.from_entries(R1, [["1"]]), 2)


def test_resolve_rejects_redundant_columns(R1):
    # [x x]: minimal entries but redundant columns; the syzygy picks up a
    # unit coordinate, which must refuse rather than corrupt Betti numbers,
    # also at n = 1, where beta_1 = 2 would otherwise be reported.
    pres = RModuleMap.from_entries(R1, [["x", "x"]])
    for n in (1, 2):
        with pytest.raises(InputError, match="minimally generate"):
            resolve(R1, pres, n)


def test_resolve_zero_steps(R4):
    betti, diffs = resolve(R4, k_presentation(R4), 0)
    assert betti.betti == (1,)
    assert diffs == []


def test_resolve_negative_rejected(R4):
    with pytest.raises(InputError):
        resolve(R4, k_presentation(R4), -1)


# -- duals -----------------------------------------------------------------


def test_dual_map_transpose(R1):
    f = k_presentation(R1)
    ft = dual_map(f)
    assert (ft.nrows, ft.ncols) == (2, 1)
    assert dual_map(ft) == f
    g = cyclic_presentation(R1, "x")
    assert dual_map(g) == g


def test_ext_k_self_injective(R1):
    assert ext_dims(R1, k_presentation(R1), 4) == [1, 0, 0, 0]


def test_ext_cyclic_gorenstein(R1):
    assert ext_dims(R1, cyclic_presentation(R1, "x"), 5) == [2, 0, 0, 0, 0]


def test_ext_exact_zero_divisor(R4):
    assert ext_dims(R4, cyclic_presentation(R4, "x + z"), 5) == [3, 0, 0, 0, 0]


def test_ext_requires_positive_depth(R4):
    with pytest.raises(InputError):
        ext_dims(R4, k_presentation(R4), 0)


# -- k-summand detection -----------------------------------------------------


def test_k_summand_on_k(R1):
    k = coker_realize(R1, k_presentation(R1))
    assert k.dim == 1
    assert has_k_summand(k)


def test_k_summand_on_free(R1, R4):
    for ring in (R1, R4):
        assert not has_k_summand(free_kmodule(ring, 1))


def test_k_summand_on_cokernel(R4):
    assert not has_k_summand(coker_realize(R4, cyclic_presentation(R4, "x + z")))


# -- Matlis duality -----------------------------------------------------------


def test_matlis_dual_gorenstein_self_dual(R1):
    e = matlis_dual(free_kmodule(R1, 1))
    assert e.dim == R1.dim
    assert e.gens == 1
    betti, _ = resolve(R1, minimal_presentation(e), 3)
    free_betti, _ = resolve(R1, RModuleMap.zeros(R1, 1, 0), 3)
    assert betti.betti == free_betti.betti == (1, 0, 0, 0)


def test_matlis_dual_k(R1):
    k = coker_realize(R1, k_presentation(R1))
    kd = matlis_dual(k)
    assert kd.dim == 1 and kd.gens == 1


def test_matlis_dual_type(R4):
    e = matlis_dual(free_kmodule(R4, 1))
    assert e.gens == R4.invariants().r == 2


def test_matlis_involution(R1, R4, RS):
    for ring in (R1, R4, RS):
        m = coker_realize(ring, cyclic_presentation(ring, "x"))
        mvv = matlis_dual(matlis_dual(m))
        assert mvv.dim == m.dim
        assert np.array_equal(mvv.x_ops, m.x_ops)
        assert np.array_equal(mvv.y_ops, m.y_ops)


def test_bass_numbers_two_ways(R4):
    mu = ext_dims(R4, k_presentation(R4), 5)
    e = matlis_dual(free_kmodule(R4, 1))
    betti, _ = resolve(R4, minimal_presentation(e), 4, "E(k)")
    assert mu == list(betti.betti)
    assert mu[0] == R4.invariants().r


# -- star ---------------------------------------------------------------------


def test_star_exact_zero_divisor(R4):
    mstar, gen = star(R4, cyclic_presentation(R4, "x + z"))
    assert mstar.dim == 3
    assert (gen.nrows, gen.ncols) == (1, 1)
    assert span_dim(R4, [gen.entry(0, 0).vec, R4.element("x - z").vec]) == 1


def test_star_k(R1):
    mstar, gen = star(R1, k_presentation(R1))
    assert mstar.dim == 1
    assert gen.ncols == 1


def test_star_free(R1):
    mstar, gen = star(R1, RModuleMap.zeros(R1, 1, 0))
    assert mstar.dim == R1.dim
    assert gen.ncols == 1
    assert not gen.is_minimal()  # R^* = R is free: generator is a unit


@pytest.mark.parametrize(
    "make",
    [
        lambda R: cyclic_presentation(R, "x + z"),
        k_presentation,
        lambda R: syzygy_step(R, k_presentation(R)),
    ],
    ids=["x + z", "k", "syzygy of k"],
)
def test_submodule_realize_reads_coordinates(R4, make):
    # Reading each action off the identity rows of the kernel basis agrees
    # with solving basis @ X = image by elimination.
    pres = make(R4)
    b = pres.nrows
    kernel, free = nullspace(dual_map(pres).k_matrix())
    m = submodule_realize(R4, b, kernel, free)
    for op, act in zip(R4.basis_operators(), m.all_ops()):
        image = Mat(R4.field, np.kron(np.eye(b, dtype=np.int64), op) @ kernel.a)
        assert np.array_equal(solve_matrix(kernel, image).a, act)


def test_submodule_realize_rejects_unclosed_span(R4):
    # span{x} in R is not an ideal of R4: z * x = xz lies outside it.
    x_only = Mat(R4.field, R4.element("x").vec.reshape(-1, 1))
    with pytest.raises(InputError, match="does not span an R-submodule"):
        submodule_realize(R4, 1, x_only, [1])


# -- identities across the engine ---------------------------------------------


def test_length_identity_on_resolutions(R1, R4, RS):
    for ring in (R1, R4, RS):
        _, diffs = resolve(ring, k_presentation(ring), 4, "k")
        for d in diffs:
            m = coker_realize(ring, d)
            assert m.dim == m.msub_dim + m.gens


def test_dual_length_identity(R1, R4):
    # l(M^*) = r*l(M) - beta_0(M)*mu^1 whenever Ext^1(M, R) = 0.
    mu1_r4 = ext_dims(R4, k_presentation(R4), 2)[1]
    assert mu1_r4 == 3
    m = coker_realize(R4, cyclic_presentation(R4, "x + z"))
    mstar, _ = star(R4, cyclic_presentation(R4, "x + z"))
    assert ext_dims(R4, cyclic_presentation(R4, "x + z"), 2)[1] == 0
    assert mstar.dim == 2 * m.dim - m.gens * mu1_r4  # 3 = 2*3 - 1*3

    mu1_r1 = ext_dims(R1, k_presentation(R1), 2)[1]
    assert mu1_r1 == 0
    m1 = coker_realize(R1, cyclic_presentation(R1, "x"))
    m1star, _ = star(R1, cyclic_presentation(R1, "x"))
    assert m1star.dim == 1 * m1.dim - m1.gens * mu1_r1  # 2


def test_socle_neq_msq_strictly_increasing(RS):
    betti, _ = resolve(RS, k_presentation(RS), 6, "k")
    seq = betti.betti
    assert all(seq[i + 1] > seq[i] for i in range(1, len(seq) - 1))


def test_minimal_presentation_roundtrip(R1, R4):
    for ring, entry in ((R1, "x"), (R4, "x + z")):
        m = coker_realize(ring, cyclic_presentation(ring, entry))
        pres = minimal_presentation(m)
        m2 = coker_realize(ring, pres)
        assert (m2.dim, m2.gens, m2.socle_dim) == (m.dim, m.gens, m.socle_dim)
        b1, _ = resolve(ring, cyclic_presentation(ring, entry), 3)
        b2, _ = resolve(ring, pres, 3)
        assert b1.betti == b2.betti


def test_random_cyclic_consistency(R4):
    rng = random.Random(7)
    for _ in range(6):
        vec = [0] + [rng.randrange(5) for _ in range(R4.dim - 1)]
        if not any(vec):
            continue
        pres = cyclic_presentation(R4, R4.element(vec))
        _, diffs = resolve(R4, pres, 4)
        for a, b in zip(diffs, diffs[1:]):
            assert a.compose(b).is_zero()
        for d in diffs:
            m = coker_realize(R4, d)
            assert m.dim == m.msub_dim + m.gens
            assert m.check() == []
