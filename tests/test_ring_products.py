"""Ring products against Python-int contractions of the structure constants.

Every product with `mult_tensor()` goes through `RingPresentation.operator`
and `linalg._matmul_mod`; these tests compare each of them with plain
Python-int sums, which cannot overflow, at a small, a 16-bit and the
largest admitted prime.
"""

import re
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from radcube.modules import RModuleMap, _apply_blockwise, k_presentation, minimalize, resolve
from radcube.rings import RingPresentation, build_from_quadrics, parse_element

PRIMES = (5, 65521, 2**31 - 1)
SRC = Path(__file__).resolve().parents[1] / "src" / "radcube"


@st.composite
def rings(draw):
    """A random ring over one of PRIMES with e <= 3; c need not span V2."""
    p = draw(st.sampled_from(PRIMES))
    e = draw(st.integers(1, 3))
    s = draw(st.integers(1, e * (e + 1) // 2))
    entry = st.integers(0, p - 1) | st.just(p - 1)
    c = np.zeros((e, e, s), dtype=np.int64)
    for i in range(e):
        for j in range(i, e):
            c[i, j] = c[j, i] = draw(st.lists(entry, min_size=s, max_size=s))
    return RingPresentation(p, e, s, c)


def vectors(ring, shape):
    entry = st.integers(0, ring.p - 1) | st.just(ring.p - 1)
    size = int(np.prod(shape, dtype=np.int64))
    return st.lists(entry, min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=np.int64).reshape(shape)
    )


def ref_op(ring, u):
    """op[c][b] = sum_a u[a] T[a][b][c] mod p, in Python ints."""
    t, d = ring.mult_tensor().tolist(), ring.dim
    u = [int(x) for x in u]
    return [[sum(u[a] * t[a][b][c] for a in range(d)) % ring.p for b in range(d)] for c in range(d)]


def ref_mul(ring, u, v):
    op = ref_op(ring, u)
    return [sum(x * int(y) for x, y in zip(row, v)) % ring.p for row in op]


def ref_minimalize(ring, arr):
    """minimalize's row and column elimination in Python ints, as
    (rows, cols, entries in row-major order)."""
    p, d = ring.p, ring.dim
    rows = [[[int(x) for x in entry] for entry in row] for row in arr]
    ncols = arr.shape[1]
    while True:
        units = [(i, j) for i, row in enumerate(rows) for j, a in enumerate(row) if a[0]]
        if not units:
            return len(rows), ncols, [x for row in rows for entry in row for x in entry]
        ncols -= 1
        i, j = units[0]
        u = rows[i][j]
        inv0 = pow(u[0], -1, p)
        n = [0] + [x * inv0 % p for x in u[1:]]
        n2 = ref_mul(ring, n, n)
        uinv = [inv0 * ((k == 0) - n[k] + n2[k]) % p for k in range(d)]
        factors = [ref_mul(ring, rows[k][j], uinv) for k in range(len(rows))]
        rows = [
            [
                [(x - y) % p for x, y in zip(rows[k][jj], ref_mul(ring, factors[k], rows[i][jj]))]
                for jj in range(ncols + 1)
                if jj != j
            ]
            for k in range(len(rows))
            if k != i
        ]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_operator_single_and_stacked(data):
    ring = data.draw(rings())
    u = data.draw(vectors(ring, (ring.dim,)))
    v = data.draw(vectors(ring, (ring.dim,)))
    assert ring.operator(u).tolist() == ref_op(ring, u)
    assert ring.mult_vec(u, v).tolist() == ref_mul(ring, u, v)
    stack = data.draw(vectors(ring, (2, 3, ring.dim)))
    ops = ring.operator(stack)
    assert ops.shape == (2, 3, ring.dim, ring.dim)
    assert ops.tolist() == [[ref_op(ring, w) for w in row] for row in stack]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_k_matrix_and_compose(data):
    ring = data.draw(rings())
    d = ring.dim
    b0, b1, b2 = (data.draw(st.integers(1, 3)) for _ in range(3))
    f = RModuleMap(ring, data.draw(vectors(ring, (b0, b1, d))))
    g = RModuleMap(ring, data.draw(vectors(ring, (b1, b2, d))))
    k = f.k_matrix().a
    for i in range(b0):
        for j in range(b1):
            assert k[i * d : (i + 1) * d, j * d : (j + 1) * d].tolist() == ref_op(ring, f.arr[i, j])
    expect = [
        [
            [sum(x) % ring.p for x in zip(*(ref_mul(ring, f.arr[i, j], g.arr[j, c]) for j in range(b1)))]
            for c in range(b2)
        ]
        for i in range(b0)
    ]
    assert f.compose(g).arr.tolist() == expect


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_minimalize_and_apply_blockwise(data):
    ring = data.draw(rings())
    d = ring.dim
    b0, b1 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    arr = data.draw(vectors(ring, (b0, b1, d)))
    out = minimalize(RModuleMap(ring, arr))
    assert (out.nrows, out.ncols, out.arr.reshape(-1).tolist()) == ref_minimalize(ring, arr)
    vecs = data.draw(vectors(ring, (b0 * d, 2)))
    op = ring.operator(data.draw(vectors(ring, (d,))))
    got = _apply_blockwise(op, vecs, b0, d, ring.p)
    for blk in range(b0):
        for col in range(2):
            v = vecs[blk * d : (blk + 1) * d, col]
            want = [sum(int(x) * int(y) for x, y in zip(row, v)) % ring.p for row in op]
            assert got[blk * d : (blk + 1) * d, col].tolist() == want


def test_large_prime_square_and_scalars():
    p = 2**31 - 1
    r = build_from_quadrics(p, ["x", "y", "z"], ["x*y", "y^2", "z^2", "x^2 + x*z"])
    a = parse_element(r, "2147483000*x")
    assert str(a * a) == "2147065038*u1"
    assert a * 2**33 == parse_element(r, "2147481059*x")
    assert a * 2**70 == parse_element(r, f"{2147483000 * 2**70 % p}*x")


def test_large_prime_ring_resolves_exactly():
    # Three quadrics over F_(2^31-1) in x1^2, x1x2, x1x3, x2^2, x2x3, x3^2;
    # int64 overflow in the ring products once gave (1, 3, 6, 10, 21).
    rows = [
        [335058059, 1279588297, 1333702663, 1239486616, 593209934, 812595822],
        [720926873, 665372632, 803879578, 762022810, 1947314051, 2142247798],
        [1967433236, 709434520, 2026182402, 1079048009, 1284829173, 987667299],
    ]
    ring = build_from_quadrics(2**31 - 1, ["x1", "x2", "x3"], rows)
    betti, _ = resolve(ring, k_presentation(ring), 4)
    assert betti.betti == (1, 3, 7, 16, 37)


def test_contractions_only_in_linalg():
    pattern = re.compile(r"\b(np|numpy)\.(einsum|tensordot|dot|matmul)\b")
    found = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linalg.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert found == [], "products with the structure constants belong in linalg._matmul_mod"
