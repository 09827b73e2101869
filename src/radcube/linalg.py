"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p); the prime
lives in a shared :class:`PrimeField` context so that mixing moduli is
detected instead of silently producing garbage.  All outputs are canonical:
`rref` returns the unique reduced row-echelon form, `nullspace_basis` reads
its basis off the RREF (free variables in increasing column order, free
variable set to 1), and `solve` zeroes the free variables.  Downstream
computations are therefore reproducible bit for bit.

Matrices are stored densely, but every elimination (rref, pivots, rank,
nullspace, solve, solve_matrix) runs through one sparse-aware kernel,
`_rref_array`: it works on the nonzero entries only and switches to dense
row updates once the rows still to be reduced have filled in, so the very
sparse k-matrices of resolutions cost little more than their nonzeros.
Products work on the nonzero support too: large operands are multiplied
only on the rows, columns and inner indices that can carry a nonzero.  The
intended problem sizes are desk scale (up to a few thousand rows/columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "PrimeField",
    "Mat",
    "RrefResult",
    "rref",
    "rank",
    "pivots",
    "nullspace",
    "nullspace_basis",
    "solve",
    "solve_matrix",
]


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; bases {2,3,5,7} cover all n < 3.2e9,
    # which includes the admitted range p < 2**31.
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p, shared as context by every matrix of one computation."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not (2 <= p < 2**31):
            raise InputError(f"modulus must be an integer in [2, 2^31), got {p!r}")
        if not _is_prime(p):
            raise InputError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, -1, self.p)

    def asarray(self, data) -> np.ndarray:
        """Reduce arbitrary integer array data into [0, p) as int64."""
        arr = np.asarray(data, dtype=np.int64)
        return np.mod(arr, self.p)


class Mat:
    """An immutable rows x cols matrix over a fixed prime field."""

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, data):
        self.field = field
        a = field.asarray(data)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {a.shape}")
        a.setflags(write=False)
        self.a = a

    @classmethod
    def _reduced(cls, field: PrimeField, a: np.ndarray) -> "Mat":
        """Wrap a 2-d int64 array without re-reducing it.

        Only for arrays already in [0, p) by construction (elimination
        output, transposes and products of matrices, and arrays the caller
        has just reduced mod p), never for data from outside.
        """
        m = cls.__new__(cls)
        a.setflags(write=False)
        m.field = field
        m.a = a
        return m

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Mat":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def transpose(self) -> "Mat":
        return Mat._reduced(self.field, self.a.T)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise ValueError("matrices over different prime fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        return Mat._reduced(self.field, _matmul_mod(self.a, other.a, self.field.p))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self) -> str:
        return f"Mat(p={self.field.p}, {self.a.tolist()})"


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # Like elimination, products work on the nonzero support.  Large
    # operands are cut down to the block that can hold nonzeros: the inner
    # indices where a has a nonzero column and b a nonzero row, the rows of
    # a and the columns of b that are nonzero there.  Small operands skip
    # the cut, whose fancy indexing would cost more than it saves.  The
    # block is multiplied by a float64 GEMM, exact while accumulants stay
    # below 2**53, and otherwise in int64 (_matmul_int64).
    if a.size + b.size < 1 << 14:
        return _matmul_int64(a, b, p)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    ks = np.flatnonzero(a.any(axis=0) & b.any(axis=1))
    a = a[:, ks]
    b = b[ks]
    rs = np.flatnonzero(a.any(axis=1))
    cs = np.flatnonzero(b.any(axis=0))
    a = a[rs]
    b = b[:, cs]
    if (p - 1) ** 2 * ks.size < 1 << 53:
        block = np.mod(a.astype(np.float64) @ b.astype(np.float64), p).astype(np.int64)
    else:
        block = _matmul_int64(a, b, p)
    out[np.ix_(rs, cs)] = block
    return out


def _matmul_int64(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # int64 products are exact as long as the accumulated dot products stay
    # below 2**63.  When p is too large for that, b is split into 16-bit
    # limbs, b = hi * 2**16 + lo: each term a * lo is below 2**47 (a * hi
    # below 2**46), so a chunk of 2**15 inner indices sums either limb
    # product exactly, and two products per chunk replace one per index.
    inner = a.shape[1]
    if inner * (p - 1) ** 2 < 2**62:
        return np.mod(a @ b, p)
    hi, lo = np.divmod(b, 1 << 16)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(0, inner, 1 << 15):
        ks = slice(k, k + (1 << 15))
        out = np.mod(out + (np.mod(a[:, ks] @ hi[ks], p) << 16) + a[:, ks] @ lo[ks], p)
    return out


@dataclass(frozen=True)
class RrefResult:
    matrix: Mat
    rank: int
    pivots: tuple[int, ...]


# The sparse phase hands over to the dense phase at the first pivot whose
# update would touch more than _DENSE_WORK entries while the rows still
# open are at least 1/_DENSE_FILL full: from there on one vectorized update
# per pivot beats entry-by-entry dict arithmetic.
_DENSE_WORK = 2048
_DENSE_FILL = 8


def _rref_array(a: np.ndarray, p: int, reduce: bool = True) -> tuple[np.ndarray, list[int]]:
    """The elimination kernel: row-reduce `a` over F_p; `a` is not modified.

    `a` holds integers in [0, p).  Returns an int64 array of the shape of
    `a` in [0, p) and the pivot columns.  With `reduce` the array is the
    unique RREF; without, each pivot clears only the rows still open below
    it, which yields the same pivot columns (hence the rank) at less cost,
    and the array is a row-echelon form that depends on the elimination
    order.

    This is structured Gaussian elimination in the style of
    LaMacchia-Odlyzko.  Columns are taken left to right.  The sparse phase
    keeps only the nonzero entries, as a dict per row plus the set of rows
    holding each column, so zero rows and columns never enter the loop and
    a row update touches only the nonzero columns of the pivot row; of the
    rows that can hold a column's pivot the sparsest is chosen, which
    keeps fill-in low.  If the rows still open fill in, the remaining
    columns are finished in a dense int64 array, updating only the nonzero
    columns of each pivot row.  The sparse phase computes in Python ints;
    in the dense phase every product of two entries is below
    (p-1)^2 < 2^62, so both are exact for every admitted prime p < 2^31.
    The RREF is unique, so neither the pivot choice nor the phase switch
    can change the output.
    """
    rows, cols = a.shape
    out = np.zeros((rows, cols), dtype=np.int64)
    # The flat nonzero positions of the mask are several times faster to
    # find than nonzero(a) on the 2-d array.
    nz_rows, nz_cols = np.divmod((a != 0).ravel().nonzero()[0], max(cols, 1))
    entries: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}
    for i, j, v in zip(nz_rows.tolist(), nz_cols.tolist(), a[nz_rows, nz_cols].tolist()):
        entries.setdefault(i, {})[j] = v
        holders.setdefault(j, set()).add(i)
    order = sorted(holders)
    open_rows = set(entries)  # rows that hold no pivot yet
    pivots: list[int] = []
    pivot_rows: list[int] = []
    start = len(order)  # where the dense phase takes over
    for k, c in enumerate(order):
        if not open_rows:
            break
        col = holders[c]
        cand = col & open_rows
        if not cand:
            continue
        i = min(cand, key=lambda h: len(entries[h]))
        row = entries[i]
        targets = [h for h in (col if reduce else cand) if h != i]
        if len(targets) * len(row) > _DENSE_WORK and _DENSE_FILL * sum(
            len(entries[h]) for h in open_rows
        ) >= len(open_rows) * (len(order) - k):
            start = k
            break
        pv = row[c]
        if pv != 1:
            inv = pow(pv, -1, p)
            row = entries[i] = {j: v * inv % p for j, v in row.items()}
        items = list(row.items())
        for h in targets:
            target = entries[h]
            f = target[c]
            for j, v in items:
                w = target.get(j)
                if w is None:
                    target[j] = -f * v % p
                    holders[j].add(h)
                elif w := (w - f * v) % p:
                    target[j] = w
                else:
                    del target[j]
                    holders[j].discard(h)
        open_rows.discard(i)
        pivots.append(c)
        pivot_rows.append(i)
    flat: list[int] = []
    vals = []
    for r, i in enumerate(pivot_rows):
        flat += [r * cols + j for j in entries[i]]
        vals += entries[i].values()
    out.put(flat, vals)
    if start == len(order):
        return out, pivots
    # Dense phase on the columns order[start:], which hold every entry of
    # the open rows and every entry a later pivot can change.
    tail = order[start:]
    pos = {j: t for t, j in enumerate(tail)}
    done = len(pivot_rows) if reduce else 0
    keep = pivot_rows[:done] + sorted(open_rows)
    ri, ci, vals = [], [], []
    for r, h in enumerate(keep):
        for j, v in entries[h].items():
            if j in pos:
                ri.append(r)
                ci.append(pos[j])
                vals.append(v)
    d = np.zeros((len(keep), len(tail)), dtype=np.int64)
    d[ri, ci] = vals
    is_open = np.arange(len(keep)) >= done
    new_rows: list[int] = []
    for t in range(len(tail)):
        if len(new_rows) == len(keep) - done:
            break
        nz = np.flatnonzero(d[:, t])
        cand = nz[is_open[nz]]
        if cand.size == 0:
            continue
        i = int(cand[0])
        nzc = t + np.flatnonzero(d[i, t:])
        pv = int(d[i, t])
        if pv != 1:
            d[i, nzc] = d[i, nzc] * pow(pv, -1, p) % p
        hit = nz if reduce else cand
        hit = hit[hit != i]
        if hit.size:
            block = np.ix_(hit, nzc)
            d[block] = (d[block] - np.outer(d[hit, t], d[i, nzc])) % p
        is_open[i] = False
        pivots.append(tail[t])
        new_rows.append(i)
    r0 = len(pivot_rows)
    out[np.ix_(range(r0 - done, r0 + len(new_rows)), tail)] = d[list(range(done)) + new_rows]
    return out, pivots


def rref(m: Mat) -> RrefResult:
    """Unique reduced row-echelon form, with rank and pivot columns."""
    a, pivots = _rref_array(m.a, m.field.p)
    return RrefResult(Mat._reduced(m.field, a), len(pivots), tuple(pivots))


def pivots(m: Mat) -> tuple[int, ...]:
    """Pivot columns of m, the same as rref(m).pivots, from forward-only
    elimination (no back-substitution, no reduced matrix)."""
    return tuple(_rref_array(m.a, m.field.p, reduce=False)[1])


def rank(m: Mat) -> int:
    """Rank over F_p: the number of pivot columns."""
    return len(pivots(m))


def nullspace(m: Mat) -> tuple[Mat, list[int]]:
    """Canonical kernel basis plus the free-column index of each vector.

    For each free (non-pivot) column c, in increasing order, the basis
    vector has 1 in coordinate c, the negated RREF entries in the pivot
    coordinates, and 0 elsewhere.
    """
    p = m.field.p
    n = m.cols
    red, pivots = _rref_array(m.a, p)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    if free:
        basis[free, np.arange(len(free))] = 1
        if pivots:
            basis[pivots] = (-red[: len(pivots)][:, free]) % p
    return Mat._reduced(m.field, basis), free


def nullspace_basis(m: Mat) -> Mat:
    """Basis of ker(m) as matrix columns, read off the RREF (see nullspace)."""
    return nullspace(m)[0]


def solve(m: Mat, b) -> np.ndarray | None:
    """Canonical solution of m @ x = b (free variables zero), or None.

    Raises ValueError on a length mismatch between b and the rows of m.
    """
    p = m.field.p
    bv = m.field.asarray(b).reshape(-1)
    if bv.shape[0] != m.rows:
        raise ValueError(f"rhs length {bv.shape[0]} != rows {m.rows}")
    aug = np.concatenate([m.a, bv[:, None]], axis=1)
    red, pivots = _rref_array(aug, p)
    if pivots and pivots[-1] == m.cols:
        return None  # pivot in the rhs column: inconsistent
    x = np.zeros(m.cols, dtype=np.int64)
    for r_i, pc in enumerate(pivots):
        x[pc] = red[r_i, m.cols]
    return x


def solve_matrix(m: Mat, rhs: Mat) -> Mat | None:
    """Columnwise canonical solve of m @ X = rhs; None if any column fails."""
    if m.field != rhs.field:
        raise ValueError("matrices over different prime fields")
    if rhs.rows != m.rows:
        raise ValueError(f"rhs rows {rhs.rows} != rows {m.rows}")
    p = m.field.p
    aug = np.concatenate([m.a, rhs.a], axis=1)
    red, pivots = _rref_array(aug, p)
    if pivots and pivots[-1] >= m.cols:
        return None
    x = np.zeros((m.cols, rhs.cols), dtype=np.int64)
    for r_i, pc in enumerate(pivots):
        x[pc] = red[r_i, m.cols :]
    return Mat._reduced(m.field, x)
