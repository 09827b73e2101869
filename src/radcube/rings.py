"""Graded artinian local rings k + V1 + V2 with cube-zero radical.

A ring here is a standard graded algebra R = k + V1 + V2 over a prime field
k = F_p, where V1 has basis x_1..x_e, V2 has basis u_1..u_s, products of
degree-1 elements are given by structure constants

    x_i * x_j = sum_t c[i][j][t] * u_t,

and every product of total degree >= 3 vanishes.  The maximal ideal is
m = V1 + V2, so m^2 = V2 (the structure constants are required to span V2)
and m^3 = 0.  Elements are coefficient vectors of length 1 + e + s split as
(constant, degree-1 part, degree-2 part).  Every ring product is one exact
product with the structure constants (`RingPresentation.operator`), so ring
arithmetic is exact for every admitted prime p < 2^31.

Principal invariants: the embedding dimension e = dim m/m^2, the socle
dimension r = dim (0:m), the length 1 + e + s, and whether Soc R = m^2
(equivalent to r = s) or the ring is Gorenstein (r = 1).

Only equicharacteristic rings are representable this way: a structure-
constant presentation over the residue field exists exactly when k is a
retract of the ring.  This is a documented limitation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParseError
from .linalg import Mat, PrimeField, _matmul_mod, nullspace_basis, rank, rref

__all__ = [
    "RingPresentation",
    "RingElement",
    "RingInvariants",
    "build_from_quadrics",
]


class RingPresentation:
    """A ring k + V1 + V2 given by structure constants over F_p.

    Treat instances as immutable; every derived computation caches on the
    instance and all higher layers rely on value semantics.
    """

    def __init__(
        self,
        p: int,
        e: int,
        s: int,
        c,
        var_names: list[str] | None = None,
        y_names: list[str] | None = None,
        y_monomials: list[tuple[int, int]] | None = None,
    ):
        self.field = PrimeField(p)
        self.p = p
        if e < 1:
            raise InputError(f"need at least one degree-1 generator, got e={e}")
        if s < 1:
            raise InputError("m^2 = 0 excluded: need s >= 1")
        self.e = e
        self.s = s
        arr = self.field.asarray(c)
        if arr.shape != (e, e, s):
            raise InputError(f"structure constants must have shape ({e},{e},{s}), got {arr.shape}")
        arr.setflags(write=False)
        self.c = arr
        self.var_names = list(var_names) if var_names else [f"x{i+1}" for i in range(e)]
        self.y_names = list(y_names) if y_names else [f"u{t+1}" for t in range(s)]
        if len(self.var_names) != e or len(set(self.var_names)) != e:
            raise InputError("variable names must be distinct and match e")
        if len(self.y_names) != s or len(set(self.y_names)) != s:
            raise InputError("degree-2 basis names must be distinct and match s")
        if set(self.var_names) & set(self.y_names):
            raise InputError("degree-1 and degree-2 basis names overlap")
        self.y_monomials = list(y_monomials) if y_monomials else None
        self.dim = 1 + e + s
        self._mult_tensor: np.ndarray | None = None

    # -- basic structure -------------------------------------------------

    @property
    def basis_names(self) -> list[str]:
        return ["1"] + self.var_names + self.y_names

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingPresentation)
            and other.p == self.p
            and other.e == self.e
            and other.s == self.s
            and bool(np.array_equal(other.c, self.c))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.s, self.c.tobytes()))

    def __repr__(self) -> str:
        return f"RingPresentation(p={self.p}, e={self.e}, s={self.s}, vars={self.var_names})"

    def describe(self) -> str:
        """One-line description, with quadric-monomial labels when known."""
        if self.y_monomials:
            labels = [
                f"{self.y_names[t]}={self._monomial_str(i, j)}"
                for t, (i, j) in enumerate(self.y_monomials)
            ]
            return f"F_{self.p}[{', '.join(self.var_names)}], deg-2 basis {', '.join(labels)}"
        return f"F_{self.p} algebra with e={self.e}, s={self.s}"

    def _monomial_str(self, i: int, j: int) -> str:
        if i == j:
            return f"{self.var_names[i]}^2"
        return f"{self.var_names[i]}*{self.var_names[j]}"

    def mult_tensor(self) -> np.ndarray:
        """T[a,b,:] = coefficients of basis[a] * basis[b]; shape (dim,)*3."""
        if self._mult_tensor is None:
            d, e = self.dim, self.e
            t = np.zeros((d, d, d), dtype=np.int64)
            t[0] = t[:, 0] = np.eye(d, dtype=np.int64)
            t[1 : 1 + e, 1 : 1 + e, 1 + e :] = self.c
            t.setflags(write=False)
            self._mult_tensor = t
        return self._mult_tensor

    def basis_operators(self) -> np.ndarray:
        """Multiplication operators of x_1..x_e, u_1..u_s; shape (e+s, D, D)."""
        return self.mult_tensor()[1:].transpose(0, 2, 1)

    # -- elements --------------------------------------------------------

    def element(self, data) -> "RingElement":
        """Build an element from a coefficient vector or an expression string."""
        if isinstance(data, str):
            return parse_element(self, data)
        vec = self.field.asarray(data).reshape(-1)
        if vec.shape[0] != self.dim:
            raise InputError(f"element vector must have length {self.dim}, got {vec.shape[0]}")
        return RingElement(self, vec)

    def zero(self) -> "RingElement":
        return RingElement(self, np.zeros(self.dim, dtype=np.int64))

    def one(self) -> "RingElement":
        v = np.zeros(self.dim, dtype=np.int64)
        v[0] = 1
        return RingElement(self, v)

    def gen(self, name: str) -> "RingElement":
        names = self.basis_names
        if name not in names:
            raise InputError(f"unknown basis name {name!r}; have {names}")
        v = np.zeros(self.dim, dtype=np.int64)
        v[names.index(name)] = 1
        return RingElement(self, v)

    def mult_vec(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Coefficients of u * v: operator(u) @ v."""
        return _matmul_mod(self.operator(u), np.asarray(v)[:, None], self.p)[:, 0]

    def operator(self, vec: np.ndarray) -> np.ndarray:
        """Multiplication matrices (..., dim, dim) of elements (..., dim): one
        product with the structure constants, exact for every admitted prime."""
        vec, d = np.asarray(vec), self.dim
        t = self.mult_tensor().transpose(0, 2, 1).reshape(d, d * d)
        return _matmul_mod(vec.reshape(-1, d), t, self.p).reshape(vec.shape + (d,))

    def mult(self, a: "RingElement", b: "RingElement") -> "RingElement":
        if a.ring is not self and a.ring != self:
            raise InputError("element does not belong to this ring")
        if b.ring is not self and b.ring != self:
            raise InputError("element does not belong to this ring")
        return RingElement(self, self.mult_vec(a.vec, b.vec))

    # -- validation and invariants ----------------------------------------

    def validate(self) -> list[str]:
        """Check presentation invariants; return human-readable violations."""
        issues: list[str] = []
        if self.s < 1:
            issues.append("m^2 = 0 excluded: s must be >= 1")
        if np.any(self.c < 0) or np.any(self.c >= self.p):
            issues.append("structure constants not reduced mod p")
        sym = np.array_equal(self.c, np.swapaxes(self.c, 0, 1))
        if not sym:
            bad = np.argwhere(self.c != np.swapaxes(self.c, 0, 1))[0]
            i, j, t = (int(v) for v in bad)
            issues.append(
                f"not commutative: c[{i}][{j}][{t}] != c[{j}][{i}][{t}]"
            )
        pairs = [(i, j) for i in range(self.e) for j in range(i, self.e)]
        span = np.array([self.c[i, j] for (i, j) in pairs], dtype=np.int64)
        if rank(Mat(self.field, span.reshape(len(pairs), self.s))) < self.s:
            issues.append("structure constants do not span V2 (m^2 smaller than declared)")
        return issues

    def invariants(self) -> "RingInvariants":
        """Socle, type, length, Gorenstein/Soc=m^2 flags.

        The socle is computed inside m = V1 + V2: V2 is always annihilated
        by m, and a degree-1 element lies in the socle exactly when all its
        products with the x_i vanish, i.e. when it is in the kernel of the
        pairing V1 -> Hom(V1, V2).
        """
        # Rows (i, t) over columns j: coefficient of u_t in x_i * x_j.
        pairing = np.transpose(self.c, (0, 2, 1)).reshape(self.e * self.s, self.e)
        ker = nullspace_basis(Mat(self.field, pairing))
        deg1_socle = ker.a  # e x (r - s)
        r = self.s + deg1_socle.shape[1]
        basis: list[RingElement] = []
        for col in range(deg1_socle.shape[1]):
            v = np.zeros(self.dim, dtype=np.int64)
            v[1 : 1 + self.e] = deg1_socle[:, col]
            basis.append(RingElement(self, v))
        for t in range(self.s):
            v = np.zeros(self.dim, dtype=np.int64)
            v[1 + self.e + t] = 1
            basis.append(RingElement(self, v))
        return RingInvariants(
            e=self.e,
            s=self.s,
            r=r,
            length=self.dim,
            socle_basis=tuple(basis),
            soc_eq_msq=(r == self.s),
            gorenstein=(r == 1),
            hilbert=(1, self.e, self.s),
        )


class RingElement:
    """An element of a RingPresentation, stored as its coefficient vector."""

    __slots__ = ("ring", "vec")

    def __init__(self, ring: RingPresentation, vec: np.ndarray):
        self.ring = ring
        vec = np.asarray(vec, dtype=np.int64)
        vec.setflags(write=False)
        self.vec = vec

    def _check(self, other: "RingElement") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise InputError("operands live in different rings")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, (self.vec + other.vec) % self.ring.p)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, (self.vec - other.vec) % self.ring.p)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, (-self.vec) % self.ring.p)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.ring.mult(self, other)
        return RingElement(self.ring, self.vec * (int(other) % self.ring.p) % self.ring.p)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and bool(np.array_equal(self.vec, other.vec))
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.vec.tobytes()))

    def is_zero(self) -> bool:
        return not self.vec.any()

    def in_m(self) -> bool:
        return int(self.vec[0]) == 0

    def inverse(self) -> "RingElement":
        """Inverse of a unit: a = a0(1+n) with n nilpotent gives
        a^{-1} = a0^{-1} (1 - n + n^2)."""
        ring = self.ring
        a0 = int(self.vec[0])
        if a0 == 0:
            raise InputError("element is not a unit")
        inv0 = ring.field.inv(a0)
        n = (self.vec * inv0) % ring.p
        n = n.copy()
        n[0] = 0
        n2 = ring.mult_vec(n, n)
        one = np.zeros(ring.dim, dtype=np.int64)
        one[0] = 1
        return RingElement(ring, (inv0 * (one - n + n2)) % ring.p)

    def __str__(self) -> str:
        names = self.ring.basis_names
        terms = []
        for idx in range(self.ring.dim):
            cf = int(self.vec[idx])
            if cf == 0:
                continue
            if idx == 0:
                terms.append(str(cf))
            elif cf == 1:
                terms.append(names[idx])
            else:
                terms.append(f"{cf}*{names[idx]}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"<{self} in F_{self.ring.p} ring>"


@dataclass(frozen=True)
class RingInvariants:
    e: int
    s: int
    r: int
    length: int
    socle_basis: tuple
    soc_eq_msq: bool
    gorenstein: bool
    hilbert: tuple[int, int, int]


# -- expression parsing ---------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[*^+\-()])|(\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        num, name, op, junk = m.groups()
        col = m.start(m.lastindex) + 1
        if junk is not None:
            raise ParseError(f"unexpected character {junk!r}", col=col)
        if num is not None:
            tokens.append(("int", int(num), col))
        elif name is not None:
            tokens.append(("name", name, col))
        else:
            tokens.append(("op", "^" if op == "**" else op, col))
        pos = m.end()
    return tokens


def _split_terms(tokens, text_len: int):
    """Split a tokenized +/- expression into (sign, factor-list) terms."""
    terms = []
    sign = 1
    current: list = []
    start_col = 1
    expecting = True
    for kind, val, col in tokens:
        if kind == "op" and val in "+-":
            if expecting and val == "-":
                sign = -sign
                continue
            if expecting:
                continue
            terms.append((sign, current, start_col))
            sign = 1 if val == "+" else -1
            current = []
            expecting = True
            continue
        if expecting:
            start_col = col
            expecting = False
        current.append((kind, val, col))
    if current:
        terms.append((sign, current, start_col))
    elif not terms:
        raise ParseError("empty expression", col=text_len or 1)
    return terms


def _term_factors(factors, col):
    """Reduce a factor list (dropping '*') to (coefficient, [name, power])."""
    coeff = 1
    names: list[tuple[str, int, int]] = []
    i = 0
    while i < len(factors):
        kind, val, fcol = factors[i]
        if kind == "op" and val == "*":
            i += 1
            continue
        if kind == "int":
            coeff *= val
            i += 1
            continue
        if kind == "name":
            power = 1
            if i + 2 < len(factors) and factors[i + 1][:2] == ("op", "^"):
                if factors[i + 2][0] != "int":
                    raise ParseError("exponent must be an integer", col=factors[i + 2][2])
                power = factors[i + 2][1]
                i += 3
            elif i + 1 < len(factors) and factors[i + 1][:2] == ("op", "^"):
                raise ParseError("dangling '^'", col=factors[i + 1][2])
            else:
                i += 1
            names.append((val, power, fcol))
            continue
        raise ParseError(f"unexpected token {val!r} in term", col=fcol)
    return coeff, names


def parse_quadric(text: str, var_names: list[str], p: int) -> np.ndarray:
    """Parse a homogeneous quadratic form into monomial coefficients.

    Monomials x_i x_j with i <= j are ordered graded-lex (row-major upper
    triangle); the returned vector is reduced mod p.
    """
    e = len(var_names)
    index = {n: i for i, n in enumerate(var_names)}
    pairs = [(i, j) for i in range(e) for j in range(i, e)]
    pair_pos = {pr: k for k, pr in enumerate(pairs)}
    out = np.zeros(len(pairs), dtype=np.int64)
    for sign, factors, col in _split_terms(_tokenize(text), len(text)):
        coeff, names = _term_factors(factors, col)
        degree = sum(pw for (_, pw, _) in names)
        if degree != 2:
            raise ParseError(f"term is not quadratic (degree {degree})", col=col)
        idxs: list[int] = []
        for nm, pw, ncol in names:
            if nm not in index:
                raise ParseError(f"unknown variable {nm!r}", col=ncol)
            idxs.extend([index[nm]] * pw)
        i, j = sorted(idxs)
        out[pair_pos[(i, j)]] = (out[pair_pos[(i, j)]] + sign * coeff % p) % p
    return out


def parse_element(ring: RingPresentation, text: str) -> RingElement:
    """Parse a linear combination of 1, the x's and the u's."""
    names = ring.basis_names
    index = {n: i for i, n in enumerate(names)}
    vec = np.zeros(ring.dim, dtype=np.int64)
    for sign, factors, col in _split_terms(_tokenize(text), len(text)):
        coeff, nms = _term_factors(factors, col)
        if len(nms) == 0:
            vec[0] = (vec[0] + sign * coeff % ring.p) % ring.p
            continue
        if len(nms) > 1 or nms[0][1] != 1:
            raise ParseError(
                "entries must be linear combinations of basis names "
                "(no products or powers)",
                col=col,
            )
        nm, _, ncol = nms[0]
        if nm not in index:
            raise ParseError(f"unknown basis name {nm!r}", col=ncol)
        vec[index[nm]] = (vec[index[nm]] + sign * coeff % ring.p) % ring.p
    return RingElement(ring, vec)


def build_from_quadrics(p: int, var_names: list[str], quadrics: list[str]) -> RingPresentation:
    """Quotient of the quadratic truncation F_p[x_1..x_e] by quadric relations.

    V2 is Sym^2(V1) modulo the span of the quadrics.  Its basis is the set
    of non-pivot monomials of the RREF of the quadric coefficient matrix in
    graded-lex order, so the presentation is reproducible; each product
    x_i x_j is rewritten in that basis via the RREF rows.  Degree-3 parts
    vanish by the grading truncation.
    """
    field = PrimeField(p)
    e = len(var_names)
    if e == 0:
        raise InputError("need at least one variable")
    if len(set(var_names)) != e:
        raise InputError("duplicate variable names")
    pairs = [(i, j) for i in range(e) for j in range(i, e)]
    rows = []
    for q in quadrics:
        if isinstance(q, str):
            rows.append(parse_quadric(q, list(var_names), p))
        else:
            rows.append(field.asarray(q).reshape(len(pairs)))
    coeff = (
        np.stack(rows, axis=0) if rows else np.zeros((0, len(pairs)), dtype=np.int64)
    )
    res = rref(Mat(field, coeff))
    red = res.matrix.a
    pivots = list(res.pivots)
    nonpiv = [k for k in range(len(pairs)) if k not in set(pivots)]
    s = len(nonpiv)
    if s == 0:
        raise InputError("m^2 = 0 excluded: the quadrics span all of Sym^2(V1)")
    nonpiv_pos = {k: t for t, k in enumerate(nonpiv)}
    c = np.zeros((e, e, s), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        if k in nonpiv_pos:
            c[i, j, nonpiv_pos[k]] = 1
        else:
            l = pivots.index(k)
            for t, k2 in enumerate(nonpiv):
                c[i, j, t] = (-int(red[l, k2])) % p
        c[j, i] = c[i, j]
    y_monomials = [pairs[k] for k in nonpiv]
    return RingPresentation(
        p, e, s, c, var_names=list(var_names), y_monomials=y_monomials
    )
