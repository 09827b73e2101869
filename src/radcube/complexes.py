"""Finite windows of complexes of free modules, duality, and splicing.

Index conventions, fixed once for the whole package:

* A window W covers degrees lo..hi and stores the differentials
  d_i : A_i -> A_{i-1} for lo < i <= hi.  Writing ranks under positions::

      position:   hi   hi-1  ...   lo+1   lo
                 A_hi -----> ... ------> A_lo
                       d_hi       d_{lo+1}

* Homology at an interior position i (lo < i < hi) is
  ker d_i / im d_{i+1}; the window is "acyclic on window" when every
  interior homology vanishes.  No claim is ever made outside the window.

* The dual complex has maps running the other way; its homology at i is
  H_i = ker(d_{i+1}^T) / im(d_i^T), computable for lo < i < hi: the
  formula of Ext^i(M, R), read off modules.ext_from_diffs for both.

* A window memoizes its own analysis: `w.report()` is verify_window and
  `w.dual()` is homology_of_dual, each computed on first use, so the CLI
  and the theorem checks share one verification and one dual homology.

* Splicing a module M with vanishing Ext^i(M, R) for i > 0 produces the
  window (resolution of M^*, connecting map, dualized resolution of M)::

      ... -> Q_1 -> Q_0 --G--> P_0^T -> P_1^T -> ...
      degree:  2     1          0        -1

  with P_0^T in degree 0, where P is the minimal resolution of M, Q the
  minimal resolution of M^* = Hom(M, R), and the connecting map G sends
  the generators of Q_0 onto M^* viewed inside P_0^T.  The dualized half
  holds P's own maps' dual()s, which share their memoized ranks with P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionRefused, InputError
from .modules import (
    RModuleMap,
    coker_realize,
    ext_from_diffs,
    has_k_summand,
    resolve,
    star,
    syzygy_step,
)

__all__ = [
    "ChainWindow",
    "WindowReport",
    "HomologyReport",
    "CokernelSummary",
    "CokernelsReport",
    "ConstructionResult",
    "verify_window",
    "homology_of_dual",
    "cokernels",
    "construct_from_module",
    "direct_sum_windows",
    "periodic_window",
]


class ChainWindow:
    """A contiguous slice A_lo..A_hi of a complex of free modules."""

    def __init__(self, ring, lo: int, ranks, diffs):
        if len(ranks) < 2:
            raise InputError("a window needs at least two positions (lo < hi)")
        self.ring = ring
        self.lo = int(lo)
        self.hi = self.lo + len(ranks) - 1
        self.ranks = [int(b) for b in ranks]
        diffs = list(diffs)
        if len(diffs) != len(ranks) - 1:
            raise InputError(
                f"window over [{self.lo},{self.hi}] needs {len(ranks)-1} "
                f"differentials, got {len(diffs)}"
            )
        for k, d in enumerate(diffs):
            i = self.lo + 1 + k
            if d.ring != ring:
                raise InputError(f"differential at degree {i} lives over another ring")
            if (d.nrows, d.ncols) != (self.rank(i - 1), self.rank(i)):
                raise InputError(
                    f"differential at degree {i} has shape {d.nrows}x{d.ncols}, "
                    f"expected {self.rank(i-1)}x{self.rank(i)}"
                )
        self.diffs = diffs
        self._report: WindowReport | None = None
        self._dual: HomologyReport | None = None

    def report(self) -> WindowReport:
        """verify_window of this window; computed once."""
        if self._report is None:
            self._report = verify_window(self.ring, self)
        return self._report

    def dual(self) -> HomologyReport:
        """homology_of_dual of this window; computed once."""
        if self._dual is None:
            self._dual = homology_of_dual(self.ring, self)
        return self._dual

    def rank(self, i: int) -> int:
        if not (self.lo <= i <= self.hi):
            raise InputError(f"position {i} outside window [{self.lo},{self.hi}]")
        return self.ranks[i - self.lo]

    def diff(self, i: int) -> RModuleMap:
        """The differential d_i : A_i -> A_{i-1}, defined for lo < i <= hi."""
        if not (self.lo < i <= self.hi):
            raise InputError(f"no differential at degree {i} in [{self.lo},{self.hi}]")
        return self.diffs[i - self.lo - 1]

    @property
    def positions(self) -> range:
        return range(self.lo, self.hi + 1)

    @property
    def interior(self) -> range:
        return range(self.lo + 1, self.hi)

    def is_minimal(self) -> bool:
        return all(d.is_minimal() for d in self.diffs)

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.ranks)

    def __repr__(self) -> str:
        return f"ChainWindow([{self.lo},{self.hi}], ranks={self.ranks})"


@dataclass(frozen=True)
class WindowReport:
    composition_zero: bool
    composition_violations: tuple
    minimal: bool
    nonminimal_degrees: tuple
    homology: dict
    acyclic_on_window: bool


def verify_window(ring, w: ChainWindow) -> WindowReport:
    """Check d o d = 0, minimality, and interior homology of a window."""
    violations = []
    for i in range(w.lo + 1, w.hi):
        ok, pos = w.diff(i).composes_to_zero(w.diff(i + 1))
        if not ok:
            violations.append((i, pos))
    nonminimal = tuple(
        i for i in range(w.lo + 1, w.hi + 1) if not w.diff(i).is_minimal()
    )
    homology = {}
    for i in w.interior:
        d = w.diff(i)
        homology[i] = d.k_matrix().cols - d.k_rank() - w.diff(i + 1).k_rank()
    acyclic = not violations and all(h == 0 for h in homology.values())
    return WindowReport(
        composition_zero=not violations,
        composition_violations=tuple(violations),
        minimal=not nonminimal,
        nonminimal_degrees=nonminimal,
        homology=homology,
        acyclic_on_window=acyclic,
    )


@dataclass(frozen=True)
class HomologyReport:
    h: dict
    zero_set: tuple
    ker_star_lengths: dict


def homology_of_dual(ring, w: ChainWindow) -> HomologyReport:
    """Homology of the dualized window: H_i = ker(d_{i+1}^T)/im(d_i^T).

    Also reports the lengths of the kernels ker(d_i^T) = (Coker d_i)^*,
    which drive the equal-rank length bookkeeping of the theorem checks.
    """
    dual_h = ext_from_diffs(ring, w.diffs)  # entry j is H_{lo+j}, for j >= 1
    h = {i: dual_h[i - w.lo] for i in w.interior}
    return HomologyReport(
        h=h,
        zero_set=tuple(sorted(i for i, v in h.items() if v == 0)),
        ker_star_lengths={
            i: d.nrows * ring.dim - d.dual_rank() for i, d in enumerate(w.diffs, w.lo + 1)
        },
    )


@dataclass(frozen=True)
class CokernelSummary:
    position: int
    length: int
    s: int
    b: int
    k_summand: bool


@dataclass(frozen=True)
class CokernelsReport:
    summaries: tuple
    kappa_window: int | None


def cokernels(ring, w: ChainWindow) -> CokernelsReport:
    """Realize C_i = Coker d_{i+1} at each computable position of a minimal window.

    kappa_window is the least i in the window such that k is a direct
    summand of C_{i+1}, or None if no such position is visible.
    """
    if not w.is_minimal():
        raise InputError("cokernel bookkeeping needs a minimal window")
    summaries = []
    flags = {}
    for i in range(w.lo, w.hi):
        m = coker_realize(ring, w.diff(i + 1))
        flag = has_k_summand(m)
        flags[i] = flag
        summaries.append(
            CokernelSummary(
                position=i, length=m.dim, s=m.msub_dim, b=w.rank(i), k_summand=flag
            )
        )
    kappa = None
    for i in sorted(flags):
        if flags[i]:
            kappa = i - 1  # k is a summand of C_{i+1} at i+1 = this position
            break
    return CokernelsReport(summaries=tuple(summaries), kappa_window=kappa)


@dataclass(frozen=True)
class ConstructionResult:
    window: ChainWindow
    report: WindowReport
    dual: HomologyReport
    minimal: bool


def construct_from_module(ring, pres: RModuleMap, n: int) -> ConstructionResult:
    """Splice M's dualized resolution with the resolution of M^*.

    Requires Ext^i(M, R) = 0 for 1 <= i <= n+1 (one degree beyond the
    window, so every interior homology claim over [-n, n] is determined);
    refuses with the first nonvanishing degree otherwise.  The result
    records verification and dual-homology reports; minimality of the
    window is equivalent to M^* having no nonzero free direct summand.
    """
    if n < 1:
        raise InputError(f"half-window must be >= 1, got {n}")
    if not pres.is_minimal():
        raise InputError("presentation has unit entries; apply minimalize first")
    if pres.nrows == 0:
        raise ConstructionRefused("construction degenerates: M is the zero module")
    if pres.ncols == 0 or pres.is_zero():
        raise ConstructionRefused("construction degenerates: M is free")
    betti, diffs = resolve(ring, pres, n + 2)
    ext = ext_from_diffs(ring, diffs)
    for i in range(1, n + 2):
        if ext[i] != 0:
            raise ConstructionRefused(f"Ext^{i} != 0 (dim {ext[i]})")
    mstar, connecting = star(ring, pres)
    # Degrees -n..0 carry the dualized resolution of M; degree j holds
    # P_{-j}^T and the differential d_j = (resolution d_{1-j})^T.
    neg_ranks = [betti.betti[i] for i in range(n, -1, -1)]  # b_{-n}..b_0
    neg_diffs = [diffs[-j].dual() for j in range(-n + 1, 1)]  # d_{-n+1}..d_0
    pos_diffs = [connecting]
    for _ in range(2, n + 1):
        pos_diffs.append(syzygy_step(ring, pos_diffs[-1]))
    pos_ranks = [d.ncols for d in pos_diffs]
    window = ChainWindow(
        ring, -n, neg_ranks + pos_ranks, neg_diffs + pos_diffs
    )
    return ConstructionResult(
        window=window,
        report=window.report(),
        dual=window.dual(),
        minimal=window.is_minimal(),
    )


def direct_sum_windows(w1: ChainWindow, w2: ChainWindow) -> ChainWindow:
    """Degreewise direct sum of two windows over the same ring and range."""
    if w1.ring != w2.ring:
        raise InputError("windows over different rings")
    if (w1.lo, w1.hi) != (w2.lo, w2.hi):
        raise InputError("windows cover different ranges")
    ring = w1.ring
    ranks = [w1.rank(i) + w2.rank(i) for i in w1.positions]
    diffs = []
    for i in range(w1.lo + 1, w1.hi + 1):
        a, b = w1.diff(i), w2.diff(i)
        arr = np.zeros(
            (a.nrows + b.nrows, a.ncols + b.ncols, ring.dim), dtype=np.int64
        )
        arr[: a.nrows, : a.ncols] = a.arr
        arr[a.nrows :, a.ncols :] = b.arr
        diffs.append(RModuleMap(ring, arr))
    return ChainWindow(ring, w1.lo, ranks, diffs)


def periodic_window(ring, entries: list, lo: int, hi: int) -> ChainWindow:
    """Rank-1 window with 1x1 differentials cycling through `entries`.

    The entry used at degree i is entries[i mod len(entries)]; handy for
    exact zero-divisor complexes such as (x+z, x-z).
    """
    elems = [ring.element(e) if isinstance(e, (str, list)) else e for e in entries]
    ranks = [1] * (hi - lo + 1)
    diffs = []
    for i in range(lo + 1, hi + 1):
        el = elems[i % len(elems)]
        diffs.append(RModuleMap(ring, el.vec.reshape(1, 1, ring.dim)))
    return ChainWindow(ring, lo, ranks, diffs)
