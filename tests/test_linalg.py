import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radcube.linalg import Mat, PrimeField, nullspace_basis, pivots, rank, rref, solve

F5 = PrimeField(5)
F7 = PrimeField(7)


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(2**31)
    assert PrimeField(2).p == 2
    assert PrimeField(2147483647).p == 2147483647  # Mersenne prime below 2^31


def test_rref_rank_one():
    r = rref(Mat(F5, [[1, 2], [2, 4]]))
    assert r.rank == 1
    assert r.pivots == (0,)
    assert r.matrix.a.tolist() == [[1, 2], [0, 0]]


def test_rref_identity():
    r = rref(Mat(F7, np.eye(3, dtype=np.int64)))
    assert r.rank == 3
    assert r.pivots == (0, 1, 2)


def test_rref_zero():
    r = rref(Mat(F5, np.zeros((2, 3), dtype=np.int64)))
    assert r.rank == 0
    assert r.pivots == ()


def test_nullspace_examples():
    b = nullspace_basis(Mat(F5, [[1, 2]]))
    assert b.a.tolist() == [[3], [1]]
    assert nullspace_basis(Mat(F5, np.eye(2, dtype=np.int64))).cols == 0
    b = nullspace_basis(Mat(F5, [[0, 0]]))
    assert b.a.tolist() == [[1, 0], [0, 1]]


def test_solve_examples():
    x = solve(Mat(F5, np.eye(2, dtype=np.int64)), [3, 4])
    assert x.tolist() == [3, 4]
    assert solve(Mat(F5, [[1, 2], [2, 4]]), [1, 3]) is None
    x = solve(Mat(F5, [[1, 2], [2, 4]]), [1, 2])
    assert x.tolist() == [1, 0]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(Mat(F5, [[1, 2]]), [1, 2])


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        Mat(F5, [[1]]) @ Mat(F7, [[1]])


def test_empty_shapes():
    assert rref(Mat(F5, np.zeros((0, 3), dtype=np.int64))).rank == 0
    assert nullspace_basis(Mat(F5, np.zeros((0, 3), dtype=np.int64))).cols == 3
    assert nullspace_basis(Mat(F5, np.zeros((3, 0), dtype=np.int64))).cols == 0
    x = solve(Mat(F5, np.zeros((0, 2), dtype=np.int64)), [])
    assert x.tolist() == [0, 0]


def _reference_rref(a: np.ndarray, p: int) -> tuple[list[list[int]], list[int]]:
    """Textbook Gauss-Jordan in plain Python ints, independent of numpy."""
    m = [[int(v) % p for v in row] for row in a.tolist()]
    ncols = a.shape[1]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        # Row r is zero left of column c, so updates start there.
        for j in range(len(m)):
            f = m[j][c]
            if j != r and f:
                m[j][c:] = [(x - f * y) % p for x, y in zip(m[j][c:], m[r][c:])]
        pivots.append(c)
        r += 1
    return m, pivots


def _elimination_cases():
    """Seeded dense, low-rank, filling-in sparse and resolution k-matrices."""
    from radcube.catalog import CATALOG
    from radcube.modules import k_presentation, resolve

    rng = np.random.default_rng(20260810)
    for p in (2, 3, 5, 13, 101, 2**31 - 1):
        for rows, cols in [(40, 250), (250, 40), (97, 193), (130, 130)]:
            for low_rank in (False, True):
                a = rng.integers(0, p, size=(rows, cols)).astype(np.int64)
                if low_rank:
                    k = max(1, min(rows, cols) // 3)
                    # Python-int product: exact even where int64 would overflow.
                    a = np.array(
                        (
                            rng.integers(0, p, (rows, k)).astype(object)
                            @ rng.integers(0, p, (k, cols)).astype(object)
                        )
                        % p,
                        dtype=np.int64,
                    )
                yield a, p
    # Sparse matrices that fill in part-way, so elimination starts sparse
    # and finishes dense.
    for p in (5, 2**31 - 1):
        for shape in [(60, 120), (100, 100), (80, 200)]:
            mask = rng.random(shape) < 0.08
            yield (mask * rng.integers(1, p, shape)).astype(np.int64), p
    # k-matrices of a real resolution, zero rows and columns intact; then
    # the same sparsity pattern with random entries modulo 2^31 - 1.
    ring = CATALOG["R4"].ring()
    _, diffs = resolve(ring, k_presentation(ring), 5, "k")
    for f in diffs:
        km = f.k_matrix().a
        for a in (km, km.T):
            yield a, ring.p
            big = np.where(a != 0, rng.integers(1, 2**31 - 1, size=a.shape), 0)
            yield big.astype(np.int64), 2**31 - 1


def test_blocked_elimination_matches_reference():
    # The elimination kernel must emit the canonical RREF bit for bit, and
    # its forward-only mode the same pivots, for every admitted prime.
    from radcube.linalg import _rref_array

    for a, p in _elimination_cases():
        before = a.copy()
        red, piv = _rref_array(a, p)
        ref, ref_pivots = _reference_rref(a, p)
        assert np.array_equal(a, before)  # the input is left untouched
        assert piv == ref_pivots
        assert red.tolist() == ref
        assert _rref_array(a, p, reduce=False)[1] == ref_pivots
        assert pivots(Mat(PrimeField(p), a)) == tuple(ref_pivots)
        assert rank(Mat(PrimeField(p), a)) == len(ref_pivots)


def _reference_product(a: np.ndarray, b: np.ndarray, p: int) -> list[list[int]]:
    """Schoolbook matrix product in plain Python ints, reduced mod p."""
    cols = b.T.tolist()
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a.tolist()]


def _product_cases():
    """Seeded operand pairs of every kind, on both sides of the 1 << 14
    size gate above which products are cut down to the nonzero support."""
    rng = np.random.default_rng(20261018)
    shapes = [
        (7, 9, 5),
        (16, 511, 16),  # a.size + b.size = 16352, just below the gate
        (16, 512, 16),  # exactly 1 << 14
        (40, 400, 30),
    ]
    for p in (5, 65521, 2**31 - 1):
        for rows, inner, cols in shapes:
            a = rng.integers(0, p, (rows, inner))
            b = rng.integers(0, p, (inner, cols))
            yield a, b, p  # dense
            # Every entry p - 1: dot products reach inner * (p-1)^2, above
            # 2^53 and, at p = 2^31 - 1, above 2^63 before reduction.
            yield np.full_like(a, p - 1), np.full_like(b, p - 1), p
            # Sparse, with zero rows and columns on both sides, and inner
            # indices nonzero on one side only.
            sa = np.where(rng.random(a.shape) < 0.05, a, 0)
            sb = np.where(rng.random(b.shape) < 0.05, b, 0)
            sa[rng.random(rows) < 0.3] = 0
            sa[:, rng.random(inner) < 0.3] = 0
            sb[rng.random(inner) < 0.3] = 0
            sb[:, rng.random(cols) < 0.3] = 0
            yield sa, sb, p
            # Nonzero operands whose supports miss each other: zero product.
            half = inner // 2
            da, db = a.copy(), b.copy()
            da[:, half:] = 0
            db[:half] = 0
            yield da, db, p
            yield np.zeros_like(a), np.zeros_like(b), p
        yield rng.integers(0, p, (3, 0)), rng.integers(0, p, (0, 4)), p
    # Above the gate at p = 65521 with an inner dimension long enough that
    # the float64 product would no longer be exact (inner * (p-1)^2 > 2^53).
    p = 65521
    inner = (1 << 53) // (p - 1) ** 2 + 8
    yield rng.integers(p - 1024, p, (1, inner)), rng.integers(p - 1024, p, (inner, 1)), p


def test_matmul_matches_reference():
    for a, b, p in _product_cases():
        f = PrimeField(p)
        prod = Mat(f, a) @ Mat(f, b)
        assert prod.shape == (a.shape[0], b.shape[1])
        assert prod.a.dtype == np.int64
        assert prod.a.tolist() == _reference_product(a, b, p)


def test_matmul_limbs_across_chunks():
    # At p = 2^31 - 1 an inner dimension above 2^15 takes two chunks of the
    # 16-bit limb product; entries near p - 1 and low limbs near 2^16 - 1.
    p = 2**31 - 1
    rng = np.random.default_rng(20261019)
    inner = (1 << 15) + 5
    a = rng.integers(p - 4096, p, (2, inner))
    b = (rng.integers(0x7FF0, 0x7FFF, (inner, 3)) << 16) + rng.integers(0xF000, 0x10000, (inner, 3))
    f = PrimeField(p)
    assert (Mat(f, a) @ Mat(f, b)).a.tolist() == _reference_product(a, b, p)


def test_composes_to_zero_witness():
    # A pair that fails to compose to zero names the ring entry holding the
    # row-major first nonzero of the k-matrix product, below the size gate
    # (d_2, d_3) and above it (d_4, d_5).
    from radcube.catalog import CATALOG
    from radcube.modules import RModuleMap, k_presentation, resolve

    ring = CATALOG["R4"].ring()
    _, diffs = resolve(ring, k_presentation(ring), 5, "k")
    for i in (1, 3):
        f, g = diffs[i], diffs[i + 1]
        assert f.composes_to_zero(g) == (True, None)
        arr = g.arr.copy()
        arr[g.nrows // 2, g.ncols // 3, 1] += 1  # add x1 to one entry
        arr[g.nrows - 1, g.ncols - 1, 2] += 1  # and x2 to another
        bad = RModuleMap(ring, arr)
        ref = _reference_product(f.k_matrix().a, bad.k_matrix().a, ring.p)
        r, c = next((r, c) for r, row in enumerate(ref) for c, v in enumerate(row) if v)
        ok, witness = f.composes_to_zero(bad)
        assert not ok
        assert witness == (r // ring.dim, c // ring.dim)
        assert f.compose(bad).arr[witness].any()


small_primes = st.sampled_from([2, 3, 5, 7, 13])


@st.composite
def random_matrix(draw):
    p = draw(small_primes)
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    data = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    arr = np.array(data, dtype=np.int64).reshape(rows, cols)
    return Mat(PrimeField(p), arr)


@settings(max_examples=200, deadline=None)
@given(random_matrix())
def test_rref_idempotent(m):
    r = rref(m)
    again = rref(r.matrix)
    assert again.matrix == r.matrix
    assert again.pivots == r.pivots


@settings(max_examples=200, deadline=None)
@given(random_matrix())
def test_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())
    assert rank(m) == rref(m).rank


@settings(max_examples=200, deadline=None)
@given(random_matrix())
def test_rank_nullity(m):
    basis = nullspace_basis(m)
    assert m.cols == rref(m).rank + basis.cols
    if basis.cols:
        # The basis really lies in the kernel and is independent.
        prod = m @ basis
        assert not prod.a.any()
        assert rank(basis) == basis.cols


@settings(max_examples=200, deadline=None)
@given(random_matrix(), st.data())
def test_solve_exact(m, data):
    p = m.field.p
    x_true = np.array(
        data.draw(st.lists(st.integers(0, p - 1), min_size=m.cols, max_size=m.cols)),
        dtype=np.int64,
    )
    b = (m.a @ x_true) % p if m.cols else np.zeros(m.rows, dtype=np.int64)
    x = solve(m, b)
    assert x is not None
    assert np.array_equal((m.a @ x) % p if m.cols else b, b)
