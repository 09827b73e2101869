"""Finitely generated modules: presentations, resolutions, duals, Ext.

A module is handled in two forms.

* As a presentation: an :class:`RModuleMap` is a matrix of ring elements
  describing a map R^{b1} -> R^{b0} between free modules (columns act on
  column vectors); the module is its cokernel.  A map is *minimal* when
  every entry lies in the maximal ideal.

* As an explicit k-realization: a :class:`KModule` is a finite-dimensional
  k-space together with the multiplication operators of the degree-1 and
  degree-2 ring generators.  Length, rank_k(mM), socle and minimal
  generator count are read off these operators.

The free module R^b over a ring of k-dimension D is identified with k^{bD}
by the generator-major ordering: coordinate u*D + w is the w-th ring basis
vector sitting on the u-th free generator.  Under this identification a
module map becomes a block matrix whose (i, j) block is multiplication by
the (i, j) entry, and kernels of module maps are plain nullspaces.

All generator choices are canonical: kernels use the RREF nullspace basis
and minimal generators are picked greedily (in basis order) over the
already-spanned submodule m*K, so resolutions, Betti tables and every
derived matrix are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import Mat, RrefResult, nullspace, nullspace_basis, pivots, rank, rref
from .rings import RingElement, RingPresentation, parse_element

__all__ = [
    "RModuleMap",
    "KModule",
    "BettiTable",
    "minimalize",
    "prune_zero_columns",
    "coker_realize",
    "syzygy_step",
    "resolve",
    "dual_map",
    "ext_dims",
    "ext_from_diffs",
    "has_k_summand",
    "k_summand_multiplicity",
    "matlis_dual",
    "star",
    "minimal_presentation",
    "free_kmodule",
    "k_presentation",
    "cyclic_presentation",
]


class RModuleMap:
    """A b0 x b1 matrix over the ring, as the map R^{b1} -> R^{b0}."""

    __slots__ = ("ring", "arr", "_kmat", "_krank", "_kdrank", "_ktrank", "_dual")

    def __init__(self, ring: RingPresentation, arr):
        self.ring = ring
        a = ring.field.asarray(arr)
        if a.ndim != 3 or a.shape[2] != ring.dim:
            raise InputError(
                f"entry grid must have shape (rows, cols, {ring.dim}), got {a.shape}"
            )
        a.setflags(write=False)
        self.arr = a
        self._kmat: Mat | None = None
        # Memos of rank K(f), K(f^T) and K(f)^T, written only by this map's
        # methods; _dual is the map this one is the dual() of, if any.
        self._krank = self._kdrank = self._ktrank = None
        self._dual: RModuleMap | None = None

    def dual(self) -> "RModuleMap":
        """Hom(f, R), the transpose matrix R^{b0} -> R^{b1}, linked back to f
        (f.dual().dual() is f) so that the pair shares rank K(f^T)."""
        if self._dual is not None:
            return self._dual
        g = RModuleMap(self.ring, np.transpose(self.arr, (1, 0, 2)))
        g._dual = self
        return g

    def kernel(self) -> tuple[Mat, list[int]]:
        """nullspace(k_matrix()), not kept; memoizes the rank it implies."""
        kernel, free = nullspace(self.k_matrix())
        self._krank = kernel.rows - kernel.cols
        return kernel, free

    def k_rank(self) -> int:
        """rank of k_matrix(); memoized, and filled for free by kernel()."""
        if self._krank is None:
            f = self._dual
            self._krank = f.dual_rank() if f is not None else rank(self.k_matrix())
        return self._krank

    def dual_rank(self) -> int:
        """rank of K(f^T), the k-matrix of dual(); memoized.  A cached K(f) is
        ranked with its D x D blocks moved to transposed positions: K(f^T)."""
        if self._dual is not None:
            return self._dual.k_rank()
        if self._kdrank is None:
            if self._kmat is None:
                self._kdrank = rank(self.dual().k_matrix())
            else:
                b0, b1, d = self.arr.shape
                kt = self._kmat.a.reshape(b0, d, b1, d).transpose(2, 1, 0, 3)
                self._kdrank = rank(Mat._reduced(self.ring.field, kt.reshape(b1 * d, b0 * d)))
        return self._kdrank

    def kt_rank(self) -> int:
        """rank of the transposed k-matrix, computed by its own elimination."""
        if self._ktrank is None:
            self._ktrank = rank(self.k_matrix().transpose())
        return self._ktrank

    def kt_rref(self) -> RrefResult:
        """rref of the transposed k-matrix, not kept; memoizes its rank."""
        res = rref(self.k_matrix().transpose())
        self._ktrank = res.rank
        return res

    @classmethod
    def from_entries(cls, ring: RingPresentation, rows) -> "RModuleMap":
        """Build from a nested list of entries (strings or RingElements)."""
        data = []
        for row in rows:
            out = []
            for entry in row:
                if isinstance(entry, str):
                    entry = parse_element(ring, entry)
                if not isinstance(entry, RingElement):
                    entry = ring.element(entry)
                out.append(entry.vec)
            data.append(out)
        if not data:
            return cls.zeros(ring, 0, 0)
        return cls(ring, np.array(data, dtype=np.int64))

    @classmethod
    def zeros(cls, ring: RingPresentation, rows: int, cols: int) -> "RModuleMap":
        return cls(ring, np.zeros((rows, cols, ring.dim), dtype=np.int64))

    @property
    def nrows(self) -> int:
        """Target rank b0."""
        return self.arr.shape[0]

    @property
    def ncols(self) -> int:
        """Source rank b1."""
        return self.arr.shape[1]

    def entry(self, i: int, j: int) -> RingElement:
        return RingElement(self.ring, self.arr[i, j])

    def is_minimal(self) -> bool:
        """True when every entry lies in m (no unit entries)."""
        return not self.arr[:, :, 0].any()

    def is_zero(self) -> bool:
        return not self.arr.any()

    def k_matrix(self) -> Mat:
        """The underlying k-linear map (b0*D) x (b1*D); cached."""
        if self._kmat is None:
            ring = self.ring
            d = ring.dim
            b0, b1 = self.nrows, self.ncols
            blocks = np.einsum("ijA,Abc->ijcb", self.arr, ring.mult_tensor()) % ring.p
            self._kmat = Mat._reduced(
                ring.field, np.transpose(blocks, (0, 2, 1, 3)).reshape(b0 * d, b1 * d)
            )
        return self._kmat

    def compose(self, other: "RModuleMap") -> "RModuleMap":
        """Matrix product self @ other over the ring."""
        if self.ring != other.ring:
            raise InputError("maps over different rings")
        if self.ncols != other.nrows:
            raise InputError(
                f"shape mismatch: ({self.nrows},{self.ncols}) o ({other.nrows},{other.ncols})"
            )
        if self.ncols == 0 or self.nrows == 0 or other.ncols == 0:
            return RModuleMap.zeros(self.ring, self.nrows, other.ncols)
        t = self.ring.mult_tensor()
        prod = (
            np.einsum("ijA,jkB,ABc->ikc", self.arr, other.arr, t, optimize=True)
            % self.ring.p
        )
        return RModuleMap(self.ring, prod)

    def composes_to_zero(self, other: "RModuleMap"):
        """(True, None) if self o other = 0, else (False, (row, col)).

        Checked on the cached k-matrices (K(f o g) = K(f) K(g)); much
        cheaper than forming the ring-matrix product for large maps.
        """
        if self.ncols == 0 or self.nrows == 0 or other.ncols == 0:
            return True, None
        prod = (self.k_matrix() @ other.k_matrix()).a
        if not prod.any():
            return True, None
        d = self.ring.dim
        i, j = np.argwhere(prod)[0]
        return False, (int(i) // d, int(j) // d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RModuleMap)
            and self.ring == other.ring
            and self.arr.shape == other.arr.shape
            and bool(np.array_equal(self.arr, other.arr))
        )

    def __repr__(self) -> str:
        return f"RModuleMap({self.nrows}x{self.ncols} over F_{self.ring.p}, e={self.ring.e})"


def dual_map(f: RModuleMap) -> RModuleMap:
    """Hom(f, R): the transpose matrix R^{b0} -> R^{b1}, as f.dual()."""
    return f.dual()


def _apply_blockwise(op: np.ndarray, vecs: np.ndarray, b: int, d: int, p: int) -> np.ndarray:
    """Apply the block-diagonal lift of op (D x D) to columns of k^{bD}."""
    if vecs.shape[1] == 0 or b == 0:
        return np.zeros_like(vecs)
    v3 = vecs.reshape(b, d, vecs.shape[1])
    return (np.einsum("cw,bwd->bcd", op, v3) % p).reshape(b * d, vecs.shape[1])


class KModule:
    """Explicit k-realization of a module: basis plus action operators."""

    __slots__ = ("ring", "x_ops", "y_ops", "_msub", "_socle", "_msub_rank")

    def __init__(self, ring: RingPresentation, x_ops, y_ops):
        self.ring = ring
        x = ring.field.asarray(x_ops)
        y = ring.field.asarray(y_ops)
        d = x.shape[1] if x.ndim == 3 else 0
        if x.shape != (ring.e, d, d) or y.shape != (ring.s, d, d):
            raise InputError(
                f"need action stacks of shape ({ring.e},d,d) and ({ring.s},d,d), "
                f"got {x.shape} and {y.shape}"
            )
        x.setflags(write=False)
        y.setflags(write=False)
        self.x_ops = x
        self.y_ops = y
        self._msub: Mat | None = None
        self._socle: Mat | None = None
        self._msub_rank: int | None = None

    @property
    def dim(self) -> int:
        """Length of the module as a k-space."""
        return self.x_ops.shape[1]

    def all_ops(self) -> np.ndarray:
        return np.concatenate([self.x_ops, self.y_ops], axis=0)

    def m_image(self) -> Mat:
        """Columns spanning m*M (not reduced to a basis)."""
        if self._msub is None:
            ops = self.all_ops()
            self._msub = Mat(
                self.ring.field,
                np.concatenate(list(ops), axis=1)
                if len(ops)
                else np.zeros((self.dim, 0), dtype=np.int64),
            )
        return self._msub

    @property
    def msub_dim(self) -> int:
        """rank_k of m*M; memoized (k_summand_multiplicity fills it for free)."""
        if self._msub_rank is None:
            self._msub_rank = rank(self.m_image())
        return self._msub_rank

    def k_summand_multiplicity(self) -> int:
        """dim_k Soc(M)/(Soc(M) n mM), the number of k-summands split off, as
        rank [m*M | socle basis] - rank(mM); one elimination gives both, and
        msub_dim memoizes rank(mM)."""
        soc = self.socle_basis()
        mm = self.m_image()
        if soc.cols == 0:
            return 0
        combined = Mat._reduced(self.ring.field, np.concatenate([mm.a, soc.a], axis=1))
        piv = pivots(combined)
        self._msub_rank = sum(1 for c in piv if c < mm.cols)
        return len(piv) - self._msub_rank

    @property
    def gens(self) -> int:
        """Minimal generator count beta_0 = dim - rank_k(mM) (Nakayama)."""
        return self.dim - self.msub_dim

    def socle_basis(self) -> Mat:
        if self._socle is None:
            ops = self.all_ops()
            stacked = (
                np.concatenate(list(ops), axis=0)
                if len(ops)
                else np.zeros((0, self.dim), dtype=np.int64)
            )
            self._socle = nullspace_basis(Mat(self.ring.field, stacked))
        return self._socle

    @property
    def socle_dim(self) -> int:
        return self.socle_basis().cols

    def check(self) -> list[str]:
        """Verify the action-operator axioms; return violations."""
        issues = []
        p = self.ring.p
        e, s = self.ring.e, self.ring.s
        x, y = self.x_ops, self.y_ops
        for i in range(e):
            for j in range(i, e):
                left = x[i] @ x[j] % p
                if not np.array_equal(left, x[j] @ x[i] % p):
                    issues.append(f"x{i+1} and x{j+1} actions do not commute")
                comb = np.tensordot(self.ring.c[i, j], y, axes=(0, 0)) % p if s else 0
                if not np.array_equal(left, comb):
                    issues.append(
                        f"x{i+1}*x{j+1} action disagrees with structure constants"
                    )
        for t in range(s):
            for i in range(e):
                if (y[t] @ x[i] % p).any() or (x[i] @ y[t] % p).any():
                    issues.append(f"u{t+1}*x{i+1} action nonzero (m^3 = 0 violated)")
            for t2 in range(s):
                if (y[t] @ y[t2] % p).any():
                    issues.append(f"u{t+1}*u{t2+1} action nonzero (m^4 = 0 violated)")
        return issues

    def __repr__(self) -> str:
        return f"KModule(dim={self.dim}, gens={self.gens} over F_{self.ring.p})"


def free_kmodule(ring: RingPresentation, b: int) -> KModule:
    """R^b as an explicit KModule."""
    ops = ring.basis_operators()
    eye = np.eye(b, dtype=np.int64)
    x = np.stack([np.kron(eye, ops[i]) for i in range(ring.e)]) if b else np.zeros(
        (ring.e, 0, 0), dtype=np.int64
    )
    y = np.stack(
        [np.kron(eye, ops[ring.e + t]) for t in range(ring.s)]
    ) if b else np.zeros((ring.s, 0, 0), dtype=np.int64)
    return KModule(ring, x, y)


def has_k_summand(m: KModule) -> bool:
    """True iff some socle element lies outside m*M (Soc M not in mM).

    Over an artinian local ring this is the classical split-off test for a
    k-summand: if v is in Soc(M) \\ mM, extend v to a minimal generating
    set; the surjection M -> M/(other generators + mM) restricted to Rv is
    an isomorphism k = Rv -> k (v is annihilated by m), so Rv splits off.
    Conversely a summand k = Rv has v in Soc(M) and, by Nakayama, v
    outside mM.
    """
    return k_summand_multiplicity(m) > 0


def k_summand_multiplicity(m: KModule) -> int:
    """dim_k Soc(M)/(Soc(M) n mM), as m.k_summand_multiplicity()."""
    return m.k_summand_multiplicity()


def matlis_dual(m: KModule) -> KModule:
    """Hom_k(M, k) with transposed actions; swaps generators and socle."""
    return KModule(
        m.ring,
        np.transpose(m.x_ops, (0, 2, 1)),
        np.transpose(m.y_ops, (0, 2, 1)),
    )


def minimalize(pres: RModuleMap) -> RModuleMap:
    """Remove unit entries by row/column elimination.

    Repeatedly pivots on an entry with a nonzero constant term (scan order
    row-major), clearing its column with row operations and deleting the
    pivot row and column; the cokernel is preserved up to isomorphism.
    Terminates with every entry in m.
    """
    ring = pres.ring
    arr = pres.arr.copy()
    t = ring.mult_tensor()
    while True:
        units = np.argwhere(arr[:, :, 0] != 0)
        if units.size == 0:
            break
        i, j = (int(v) for v in units[0])
        u = RingElement(ring, arr[i, j])
        uinv = u.inverse().vec
        # Row operations: row_k -= (entry_kj * u^{-1}) * row_i for k != i.
        factors = np.einsum("kA,B,ABc->kc", arr[:, j, :], uinv, t) % ring.p
        update = np.einsum("kA,jB,ABc->kjc", factors, arr[i, :, :], t) % ring.p
        arr = (arr - update) % ring.p
        # Column operations would now only touch row i, which is deleted.
        arr = np.delete(np.delete(arr, i, axis=0), j, axis=1)
    return RModuleMap(ring, arr)


def prune_zero_columns(pres: RModuleMap) -> RModuleMap:
    """Drop identically zero columns (trivially redundant relations)."""
    keep = [j for j in range(pres.ncols) if pres.arr[:, j, :].any()]
    if len(keep) == pres.ncols:
        return pres
    return RModuleMap(pres.ring, pres.arr[:, keep, :])


def _module_generators(
    ring: RingPresentation, b: int, kernel: Mat, free: list[int]
) -> RModuleMap:
    """Minimal generating matrix of the submodule of R^b spanned by kernel.

    The columns of `kernel` must span an R-submodule K (e.g. the kernel of
    a module map).  Generators lift a basis of K/mK, chosen greedily in the
    given column order against the span of m*K; the greedy set is exactly
    the RREF pivot selection on [m*K | K].

    `free` gives the canonical free-coordinate rows of the basis (the rows
    carrying its identity block, as nullspace returns them), so the
    selection runs in kernel coordinates: m*K lies inside K, its coordinate
    vectors are read off those rows, and left-multiplying [m*K | K] by the
    injective basis does not change which columns are pivots.
    """
    d = ring.dim
    if kernel.cols == 0 or b == 0:
        return RModuleMap.zeros(ring, b, 0)
    ops = ring.basis_operators()
    mk_parts = [
        _apply_blockwise(ops[i], kernel.a, b, d, ring.p) for i in range(len(ops))
    ]
    mk = np.concatenate(mk_parts, axis=1) if mk_parts else np.zeros(
        (b * d, 0), dtype=np.int64
    )
    # Kept until return: freeing it before pivots doubled a window check's page faults.
    mk_coords = mk[free, :]
    eye = np.eye(kernel.cols, dtype=np.int64)
    stacked = Mat._reduced(ring.field, np.concatenate([mk_coords, eye], axis=1))
    chosen = [c - mk.shape[1] for c in pivots(stacked) if c >= mk.shape[1]]
    cols = kernel.a[:, chosen]
    # Column j reshaped (b, D) is the j-th generator as a ring-element vector.
    arr = np.transpose(cols.reshape(b, d, len(chosen)), (0, 2, 1))
    return RModuleMap(ring, arr)


def syzygy_step(ring: RingPresentation, f: RModuleMap) -> RModuleMap:
    """Minimal generating matrix G: R^c -> R^{b1} of Ker f."""
    if f.ring != ring:
        raise InputError("map does not live over the given ring")
    kernel, free = f.kernel()
    return _module_generators(ring, f.ncols, kernel, free)


@dataclass(frozen=True)
class BettiTable:
    module: str
    betti: tuple[int, ...]

    def __iter__(self):
        return iter(self.betti)


def resolve(
    ring: RingPresentation, pres: RModuleMap, n: int, module_name: str = "M"
) -> tuple[BettiTable, list[RModuleMap]]:
    """Minimal free resolution to homological degree n.

    Returns the Betti numbers beta_0..beta_n and the differentials
    d_1 = pres, d_{i+1} = syzygy_step(d_i).  The input must be a minimal
    presentation; if its columns fail to minimally generate the image the
    first syzygy acquires unit entries and the computation refuses, for
    every n >= 1, rather than report wrong Betti numbers.
    """
    if n < 0:
        raise InputError(f"resolution length must be >= 0, got {n}")
    if not pres.is_minimal():
        raise InputError("presentation has unit entries; apply minimalize first")
    diffs: list[RModuleMap] = []
    if n >= 1:
        diffs.append(pres)
        # d_2 is computed even for n = 1: only the first syzygy shows
        # whether beta_1 = pres.ncols.
        for _ in range(2, max(n, 2) + 1):
            nxt = syzygy_step(ring, diffs[-1])
            if not nxt.is_minimal():
                raise InputError(
                    "presentation columns do not minimally generate the image; "
                    "Betti numbers would be overstated"
                )
            diffs.append(nxt)
        del diffs[n:]
    betti = (pres.nrows,) + tuple(d.ncols for d in diffs)
    return BettiTable(module_name, betti), diffs


def ext_from_diffs(ring: RingPresentation, diffs: list[RModuleMap]) -> list[int]:
    """dim_k Ext^i(M, R) for i = 0..len(diffs)-1 from a resolution d_1, d_2, ...

    The one dual-homology formula, also behind homology_of_dual: entry i
    is dim_k ker(d_{i+1}^T)/im(d_i^T), the nullity of d_{i+1}^T minus the
    rank of d_i^T (with d_0^T = 0).  Ext^0 = dim_k Hom(M, R) = dim_k M^*.
    """
    dual_rank = [0] + [f.dual_rank() for f in diffs]
    return [
        f.nrows * ring.dim - dual_rank[i + 1] - dual_rank[i]
        for i, f in enumerate(diffs)
    ]


def ext_dims(ring: RingPresentation, pres: RModuleMap, n: int) -> list[int]:
    """dim_k Ext^i(M, R) for i = 0..n-1: ext_from_diffs on resolve(..., n)."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    return ext_from_diffs(ring, resolve(ring, pres, n)[1])


def coker_realize(ring: RingPresentation, pres: RModuleMap) -> KModule:
    """Realize M = R^{b0}/im(pres) as an explicit KModule.

    Requires a minimal presentation so that the distinguished generator
    count b0 equals beta_0 of the cokernel.
    """
    if pres.ring != ring:
        raise InputError("presentation does not live over the given ring")
    if not pres.is_minimal():
        raise InputError("presentation has unit entries; apply minimalize first")
    b = pres.nrows
    d = ring.dim
    # The quotient basis is the non-pivot coordinates of the RREF of K^T.
    res = pres.kt_rref()
    piv = list(res.pivots)
    nonpiv = sorted(set(range(b * d)) - set(piv))
    dm = len(nonpiv)
    red = np.zeros((dm, b * d), dtype=np.int64)
    red[np.arange(dm), nonpiv] = 1
    red[:, piv] = (-res.matrix.a[: len(piv), nonpiv].T) % ring.p
    ops = ring.basis_operators()
    nops = len(ops)
    nonpiv_arr = np.array(nonpiv, dtype=np.int64)
    us, ws = np.divmod(nonpiv_arr, d) if dm else (np.zeros(0, int), np.zeros(0, int))
    red_mat = Mat._reduced(ring.field, red)
    # One GEMM for all operators: stack their basis images side by side.
    cols = np.zeros((b * d, nops * dm), dtype=np.int64)
    if dm:
        rows = (us[None, :] * d + np.arange(d)[:, None]).astype(np.int64)
        for oi, op in enumerate(ops):
            cols[rows, oi * dm + np.arange(dm)[None, :]] = op[:, ws]
    batched = (red_mat @ Mat._reduced(ring.field, cols)).a
    induced = np.stack(
        [batched[:, oi * dm : (oi + 1) * dm] for oi in range(nops)]
    ) if nops else np.zeros((0, dm, dm), dtype=np.int64)
    return KModule(ring, induced[: ring.e], induced[ring.e :])


def submodule_realize(
    ring: RingPresentation, b: int, basis: Mat, free: list[int]
) -> KModule:
    """Realize the R-submodule of R^b spanned k-linearly by basis columns.

    The span must be closed under the ring action (e.g. the kernel of a
    module map); actions are re-expressed in the given basis.  `free` lists
    the rows carrying the basis's identity block (as returned by
    nullspace), so a vector of the span has its coordinates in those rows.
    """
    d = ring.dim
    dm = basis.cols
    ops = ring.basis_operators()
    induced = np.zeros((len(ops), dm, dm), dtype=np.int64)
    for oi, op in enumerate(ops):
        image = _apply_blockwise(op, basis.a, b, d, ring.p)
        coords = image[free, :]
        if not np.array_equal((basis @ Mat._reduced(ring.field, coords)).a, image):
            raise InputError("basis does not span an R-submodule")
        induced[oi] = coords
    return KModule(ring, induced[: ring.e], induced[ring.e :])


def star(
    ring: RingPresentation, pres: RModuleMap
) -> tuple[KModule, RModuleMap]:
    """M^* = Hom(M, R) as Ker(pres^T) in R^{b0}, plus its generator matrix.

    Returns the realized dual module and the minimal generating matrix
    G: R^c -> R^{b0} of the kernel; c = beta_0(M^*) and the length of M^*
    is the k-nullity of pres^T.
    """
    if not pres.is_minimal():
        raise InputError("presentation has unit entries; apply minimalize first")
    kernel, free = pres.dual().kernel()
    gen = _module_generators(ring, pres.nrows, kernel, free)
    mstar = submodule_realize(ring, pres.nrows, kernel, free)
    return mstar, gen


def minimal_presentation(m: KModule, name: str = "M") -> RModuleMap:
    """A minimal presentation matrix of an explicitly realized module.

    Generators are the greedy complement of m*M among the standard basis
    vectors (RREF pivot selection on [m*M | I]); relations are the minimal
    generators of the kernel of the induced cover R^b -> M.
    """
    ring = m.ring
    d = ring.dim
    dm = m.dim
    mm = m.m_image().a
    stacked = Mat._reduced(
        ring.field, np.concatenate([mm, np.eye(dm, dtype=np.int64)], axis=1)
    )
    gens_idx = [c - mm.shape[1] for c in pivots(stacked) if c >= mm.shape[1]]
    b = len(gens_idx)
    ops_full = np.concatenate(
        [np.eye(dm, dtype=np.int64)[None], m.x_ops, m.y_ops], axis=0
    )
    cover = np.transpose(ops_full[:, :, gens_idx], (1, 2, 0)).reshape(dm, b * d)
    kernel, free = nullspace(Mat(ring.field, cover))
    pres = _module_generators(ring, b, kernel, free)
    assert pres.is_minimal(), "cover kernel contained a unit: generators not minimal"
    return pres


def k_presentation(ring: RingPresentation) -> RModuleMap:
    """The minimal presentation [x_1 ... x_e] of the residue field."""
    arr = np.zeros((1, ring.e, ring.dim), dtype=np.int64)
    for i in range(ring.e):
        arr[0, i, 1 + i] = 1
    return RModuleMap(ring, arr)


def cyclic_presentation(ring: RingPresentation, f) -> RModuleMap:
    """Presentation [f] of R/(f) for a single element f of m."""
    if isinstance(f, str):
        f = parse_element(ring, f)
    if not f.in_m():
        raise InputError("R/(f) needs f in m; a unit entry presents the zero module")
    return RModuleMap(ring, f.vec.reshape(1, 1, ring.dim))
