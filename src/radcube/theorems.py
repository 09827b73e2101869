"""Mechanical verification of the structure theorems on concrete instances.

Three families of checks run against a (ring, window) or (ring, module)
instance, always on the finite window that was actually computed and never
extrapolating to all degrees:

* Theorem A: a non-Gorenstein ring carrying a nonzero minimal acyclic
  window must satisfy (a) Soc R = m^2, (b) e = r+1 and length 2e,
  (c) the residue-field Poincare series is 1/((1-t)(1-rt)) (verified as a
  truncation), (c') the numerical Koszul identity
  P_k(t)*(1+t)(1+rt) = 1 mod t^{N+1}, and, when some dual homology h^n
  vanishes in the window, (d) the Bass series is (r-t)/(1-rt).

* Theorem B: the window is type I (no residue-field summand among the
  cokernels; constant ranks a; every cokernel length a*e) or type II
  (summand first appears at kappa; ranks constant up to kappa and strictly
  increasing afterwards).

* Theorem C: with H = positions where the dual homology vanishes, equal
  ranks force the two-sided implication "h^{l-1} = 0 = h^{l+1} implies
  h^l = 0", and iterating it closes H under two-out-of-three.

Every verdict carries the numeric witnesses for both sides of each
identity, so reports can be re-checked independently.  Unmet hypotheses
are reported as such and never counted as failures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .complexes import ChainWindow, cokernels
from .errors import InputError
from .modules import (
    coker_realize,
    ext_dims,
    ext_from_diffs,
    free_kmodule,
    k_presentation,
    k_summand_multiplicity,
    matlis_dual,
    minimal_presentation,
    resolve,
    star,
    syzygy_step,
)

__all__ = [
    "SeriesTruncation",
    "expand_rational_series",
    "poly_mul",
    "CheckOutcome",
    "TheoremAVerdict",
    "TheoremBVerdict",
    "TheoremCVerdict",
    "ExceptionalityReport",
    "LemmaChecksReport",
    "ObservationReport",
    "check_theorem_A",
    "classify_theorem_B",
    "check_theorem_C",
    "exceptionality",
    "lemma_checks",
    "check_observation",
    "DEFAULT_DEPTH",
]

DEFAULT_DEPTH = 8


@dataclass(frozen=True)
class SeriesTruncation:
    """Exact integer coefficients c_0..c_N of a power-series truncation."""

    coefficients: tuple[int, ...]

    def __iter__(self):
        return iter(self.coefficients)

    def __eq__(self, other):
        if isinstance(other, SeriesTruncation):
            return self.coefficients == other.coefficients
        return tuple(self.coefficients) == tuple(other)


def poly_mul(a, b) -> list[int]:
    """Product of integer polynomials given as coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def expand_rational_series(numerator, denominator, n: int) -> SeriesTruncation:
    """Power-series expansion of numerator/denominator to degree n.

    Polynomials are integer coefficient lists (constant term first).  The
    denominator needs constant term +-1 so the expansion stays integral.
    """
    num = list(numerator)
    den = list(denominator)
    if n < 0:
        raise InputError(f"truncation degree must be >= 0, got {n}")
    if not den or den[0] == 0:
        raise InputError("denominator has zero constant term")
    if den[0] not in (1, -1):
        raise InputError(
            f"denominator constant term must be a unit (+-1) for an integer "
            f"expansion, got {den[0]}"
        )
    coeffs = []
    for i in range(n + 1):
        acc = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * coeffs[i - j]
        coeffs.append(acc * den[0])  # den[0] is +-1, its own inverse
    return SeriesTruncation(tuple(coeffs))


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool | None  # None: not evaluated (hypothesis or data missing)
    expected: object = None
    actual: object = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.passed is not False


def _window_hypotheses(ring, w: ChainWindow):
    """Shared preconditions of the theorem checks: non-Gorenstein ring,
    nonzero minimal window, acyclic on window.

    Returns (hard refusal notes, soft cross-flag notes, invariants, report).
    A Gorenstein ring or a zero window refuses outright; verification
    failures of the window (nonminimal, d o d != 0, homology) are reported
    as unmet hypotheses but the checks still run and are cross-flagged, so
    a bad window shows both its defect and the data computed despite it.
    """
    hard = []
    soft = []
    inv = ring.invariants()
    if inv.gorenstein:
        hard.append("hypothesis not met: R is Gorenstein (r = 1)")
    if w.is_zero():
        hard.append("hypothesis not met: window is the zero complex")
    report = w.report()
    if not report.minimal:
        soft.append(
            f"hypothesis not met: window not minimal at degrees {report.nonminimal_degrees}"
        )
    if not report.composition_zero:
        soft.append(
            f"hypothesis not met: d o d != 0 at {report.composition_violations}"
        )
    elif not report.acyclic_on_window:
        bad = {i: h for i, h in report.homology.items() if h}
        soft.append(f"hypothesis not met: homology nonzero on window at {bad}")
    return hard, soft, inv, report


@dataclass(frozen=True)
class TheoremAVerdict:
    hypothesis_met: bool
    notes: tuple
    checks: tuple  # CheckOutcome for a, b, c, c', d

    @property
    def passed(self) -> bool:
        return self.hypothesis_met and all(c.passed is not False for c in self.checks)


def check_theorem_A(ring, w: ChainWindow, n: int = DEFAULT_DEPTH) -> TheoremAVerdict:
    """Parts (a)-(d) against a ring carrying a verified acyclic window."""
    hard, soft, inv, _ = _window_hypotheses(ring, w)
    if hard:
        return TheoremAVerdict(False, tuple(hard), ())
    r, e = inv.r, inv.e
    out = []
    witness = ""
    if not inv.soc_eq_msq:
        deg1 = [el for el in inv.socle_basis if el.vec[1 : 1 + e].any()]
        witness = f"socle element outside m^2: {deg1[0]}" if deg1 else ""
    out.append(
        CheckOutcome("a: Soc R = m^2", inv.soc_eq_msq, True, inv.soc_eq_msq, witness)
    )
    out.append(
        CheckOutcome(
            "b: e = r+1 and length = 2e",
            e == r + 1 and inv.length == 2 * e,
            (r + 1, 2 * e),
            (e, inv.length),
        )
    )
    dual = w.dual()
    # One resolution of k serves (c) and, one degree deeper, (d).
    depth = n + 1 if dual.zero_set and n >= 0 else n
    betti, diffs = resolve(ring, k_presentation(ring), depth, "k")
    pk = betti.betti[: n + 1]
    expected_c = expand_rational_series([1], poly_mul([1, -1], [1, -r]), n)
    out.append(
        CheckOutcome(
            "c: P_k = 1/((1-t)(1-rt))",
            pk == expected_c.coefficients,
            expected_c.coefficients,
            pk,
        )
    )
    # Koszul consequence: the Hilbert series of the graded ring is
    # H(t) = (1+t)(1+rt) and P_k(t) * H(-t) = 1; checked on the computed
    # Betti numbers with H(-t) = (1-t)(1-rt).
    koszul = poly_mul(list(pk), poly_mul([1, -1], [1, -r]))[: n + 1]
    expected_cp = [1] + [0] * n
    out.append(
        CheckOutcome(
            "c': P_k(t)(1-t)(1-rt) = 1 mod t^{N+1} (Koszul identity, H(-t) form)",
            koszul == expected_cp,
            tuple(expected_cp),
            tuple(koszul),
        )
    )
    if dual.zero_set:
        mu = ext_from_diffs(ring, diffs)
        expected_d = expand_rational_series([r, -1], [1, -r], n)
        out.append(
            CheckOutcome(
                "d: I_R = (r-t)/(1-rt)",
                tuple(mu) == expected_d.coefficients,
                expected_d.coefficients,
                tuple(mu),
                f"enabled by h^n = 0 at n in {dual.zero_set[:3]}...",
            )
        )
    else:
        out.append(
            CheckOutcome(
                "d: I_R = (r-t)/(1-rt)",
                None,
                note="not evaluated: no vanishing dual homology in window",
            )
        )
    return TheoremAVerdict(not soft, tuple(soft), tuple(out))


@dataclass(frozen=True)
class TheoremBVerdict:
    hypothesis_met: bool
    notes: tuple
    type: str | None  # "I" or "II", on window
    kappa_window: int | None
    a: int | None
    checks: tuple

    @property
    def passed(self) -> bool:
        return self.hypothesis_met and all(c.passed is not False for c in self.checks)


def classify_theorem_B(ring, w: ChainWindow) -> TheoremBVerdict:
    """Constant-rank (I) vs growing-rank (II) classification of a window."""
    hard, soft, inv, vrep = _window_hypotheses(ring, w)
    if not vrep.minimal:
        hard = hard + [n for n in soft if "not minimal" in n]
    if hard:
        return TheoremBVerdict(False, tuple(hard), None, None, None, ())
    e = inv.e
    rep = cokernels(ring, w)
    kappa = rep.kappa_window
    checks = []
    if kappa is None:
        a = w.rank(w.lo)
        equal = all(b == a for b in w.ranks)
        checks.append(
            CheckOutcome("I: all ranks equal a", equal, a, tuple(w.ranks))
        )
        lengths = {s.position: s.length for s in rep.summaries}
        ok = all(v == a * e for v in lengths.values())
        checks.append(
            CheckOutcome("I: length(C_i) = a*e", ok, a * e, lengths)
        )
        return TheoremBVerdict(not soft, tuple(soft), "I", None, a, tuple(checks))
    upto = [w.rank(i) for i in w.positions if i <= kappa]
    a = upto[0] if upto else None
    if upto:
        checks.append(
            CheckOutcome(
                "II: ranks equal a for i <= kappa",
                all(b == a for b in upto),
                a,
                tuple(upto),
            )
        )
    else:
        checks.append(
            CheckOutcome(
                "II: ranks equal a for i <= kappa",
                None,
                note="no window position <= kappa",
            )
        )
    inc_pairs = [
        (i, w.rank(i), w.rank(i + 1))
        for i in range(max(kappa, w.lo), w.hi)
    ]
    checks.append(
        CheckOutcome(
            "II: ranks strictly increase for i >= kappa",
            all(b1 > b0 for (_, b0, b1) in inc_pairs),
            "b_{i+1} > b_i",
            tuple(inc_pairs),
        )
    )
    lengths = {
        s.position: s.length for s in rep.summaries if s.position <= kappa
    }
    if lengths and a is not None:
        checks.append(
            CheckOutcome(
                "II: length(C_i) = a*e for i <= kappa",
                all(v == a * e for v in lengths.values()),
                a * e,
                lengths,
            )
        )
    return TheoremBVerdict(not soft, tuple(soft), "II", kappa, a, tuple(checks))


@dataclass(frozen=True)
class TheoremCVerdict:
    hypothesis_met: bool
    notes: tuple
    h_window: tuple
    computable: tuple
    equal_ranks: bool
    implications: tuple  # (l, "held" | "violated" | "vacuous")
    closure: tuple
    closure_full: bool

    @property
    def passed(self) -> bool:
        if not self.hypothesis_met:
            return False
        if not self.equal_ranks:
            return True  # (ii) fails: (iii) is not asserted by the theorem
        return all(status != "violated" for (_, status) in self.implications)


def check_theorem_C(ring, w: ChainWindow) -> TheoremCVerdict:
    """Vanishing-set implications for the dual homology of a window."""
    hard, soft, inv, _ = _window_hypotheses(ring, w)
    if hard:
        return TheoremCVerdict(False, tuple(hard), (), (), False, (), (), False)
    dual = w.dual()
    computable = tuple(w.interior)
    hset = set(dual.zero_set)
    equal_ranks = len(set(w.ranks)) == 1
    implications = []
    for l in computable:
        if l - 1 in computable and l + 1 in computable:
            if l - 1 in hset and l + 1 in hset:
                implications.append((l, "held" if l in hset else "violated"))
            else:
                implications.append((l, "vacuous"))
    closure = set(hset)
    changed = True
    while changed:
        changed = False
        for l in computable:
            if l not in closure and l - 1 in closure and l + 1 in closure:
                closure.add(l)
                changed = True
    return TheoremCVerdict(
        hypothesis_met=not soft,
        notes=tuple(soft),
        h_window=tuple(sorted(hset)),
        computable=computable,
        equal_ranks=equal_ranks,
        implications=tuple(implications),
        closure=tuple(sorted(closure)),
        closure_full=set(computable) <= closure,
    )


@dataclass(frozen=True)
class PerIndexExceptionality:
    index: int
    betti: int
    chain_identity: bool | None  # beta_i = e*beta_{i-1} - r*beta_{i-2} (i >= 2)
    rank_identity: bool  # beta_i = e*beta_{i-1} - rank_k m M_{i-1}
    k_summand: bool
    multiplicity: int


@dataclass(frozen=True)
class ExceptionalityReport:
    hypothesis_met: bool
    notes: tuple
    betti: tuple
    per_index: tuple
    exceptional_on_range: bool
    chain_identities_hold: bool
    iff_agrees: bool
    k_series: CheckOutcome | None

    @property
    def passed(self) -> bool:
        if not self.hypothesis_met:
            return False
        ok = self.iff_agrees and all(
            p.rank_identity == (not p.k_summand) for p in self.per_index
        )
        if self.k_series is not None:
            ok = ok and self.k_series.passed is not False
        return ok


def exceptionality(ring, pres, h: int) -> ExceptionalityReport:
    """Syzygy k-summand flags against the Betti-number identities.

    Checks the equivalence "no k-summand among the first h syzygies iff
    the Betti numbers satisfy beta_1 = e beta_0 - rank_k mM and
    beta_i = e beta_{i-1} - r beta_{i-2}" and, per index, the sharper law
    that beta_i = e beta_{i-1} - rank_k m M_{i-1} holds exactly when M_i
    has no k-summand.
    """
    if h < 1:
        raise InputError(f"need h >= 1, got {h}")
    notes = []
    inv = ring.invariants()
    if not inv.soc_eq_msq:
        notes.append("hypothesis not met: Soc R != m^2")
    m0 = coker_realize(ring, pres)
    if m0.dim == 0:
        notes.append("hypothesis not met: M = 0")
    if m0.y_ops.any():
        notes.append("hypothesis not met: m^2 M != 0")
    if notes:
        return ExceptionalityReport(False, tuple(notes), (), (), False, False, False, None)
    e, r = inv.e, inv.r
    betti, diffs = resolve(ring, pres, h + 1)
    b = betti.betti
    syzygies = [coker_realize(ring, diffs[i]) for i in range(1, h + 1)]  # M_1..M_h
    per = []
    prev = m0
    chain_all = True
    for i in range(1, h + 1):
        mi = syzygies[i - 1]
        mult = k_summand_multiplicity(mi)
        if i == 1:
            chain = b[1] == e * b[0] - m0.msub_dim
        else:
            chain = b[i] == e * b[i - 1] - r * b[i - 2]
        chain_all = chain_all and chain
        rank_form = b[i] == e * b[i - 1] - prev.msub_dim
        per.append(
            PerIndexExceptionality(
                index=i,
                betti=b[i],
                chain_identity=chain,
                rank_identity=rank_form,
                k_summand=mult > 0,
                multiplicity=mult,
            )
        )
        prev = mi
    exceptional = all(not p.k_summand for p in per)
    k_series = None
    if m0.dim == 1:
        expected = expand_rational_series([1], [1, -e, r], h)
        k_series = CheckOutcome(
            "P_k truncation = 1/(1-et+rt^2)",
            tuple(b[: h + 1]) == expected.coefficients,
            expected.coefficients,
            tuple(b[: h + 1]),
        )
    return ExceptionalityReport(
        hypothesis_met=True,
        notes=(),
        betti=b,
        per_index=tuple(per),
        exceptional_on_range=exceptional,
        chain_identities_hold=chain_all,
        iff_agrees=chain_all == exceptional,
        k_series=k_series,
    )


@dataclass(frozen=True)
class LemmaChecksReport:
    checks: tuple
    notes: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)


def lemma_checks(ring, pres, n: int = 4) -> LemmaChecksReport:
    """Numeric verification of the length and Bass-series lemmas on M.

    Runs, with per-item hypothesis gating: the length identity
    l(M) = rank_k mM + beta_0; the dual length identity
    l(M^*) = r l(M) - beta_0 mu^1 (needs Ext^1(M,R) = 0 and m^2 M = 0);
    Ext-vanishing implies no k-summand among the first n syzygies (needs
    Ext^{n+1}(M,R) = 0, n >= 2, R not Gorenstein); and the Bass-series
    bookkeeping through the first syzygy E_1 of E = Matlis dual of R:
    beta_0(E_1) = e(r-1), l(E_1) = (r-1)(1+e+r), rank_k mE_1 = r^2 - 1,
    [I_R]_{<= n} = [(r - et + t^2)/(1 - et + rt^2)]_{<= n}.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    inv = ring.invariants()
    e, r = inv.e, inv.r
    checks: list[CheckOutcome] = []
    notes: list[str] = []
    m0 = coker_realize(ring, pres)
    checks.append(
        CheckOutcome(
            "length: l(M) = rank_k mM + beta_0",
            m0.dim == m0.msub_dim + m0.gens,
            m0.dim,
            m0.msub_dim + m0.gens,
        )
    )
    ext = ext_dims(ring, pres, n + 2)
    # Ext^i(k, R) for i <= n, resolved on first use only.
    k_ext = functools.cache(lambda: ext_dims(ring, k_presentation(ring), n + 1))
    m2m_zero = not m0.y_ops.any()
    if ext[1] == 0 and m2m_zero:
        mstar, _ = star(ring, pres)
        mu1 = k_ext()[1]
        checks.append(
            CheckOutcome(
                "dual length: l(M^*) = r*l(M) - beta_0*mu^1",
                mstar.dim == r * m0.dim - m0.gens * mu1,
                r * m0.dim - m0.gens * mu1,
                mstar.dim,
            )
        )
    else:
        reason = "Ext^1(M,R) != 0" if ext[1] != 0 else "m^2 M != 0"
        checks.append(
            CheckOutcome(
                "dual length: l(M^*) = r*l(M) - beta_0*mu^1",
                None,
                note=f"skipped: {reason}",
            )
        )
    nonfree = not pres.is_zero() and pres.ncols > 0
    if inv.gorenstein:
        notes.append("Bass-series lemma not applicable: R is Gorenstein")
    elif not nonfree:
        notes.append("Bass-series lemma not applicable: M is free")
    elif n < 2 or ext[n + 1] != 0:
        notes.append(
            f"Bass-series lemma hypothesis not met: Ext^{n+1}(M,R) has dim {ext[n+1]}"
        )
    else:
        if m2m_zero:
            rep = exceptionality(ring, pres, n)
            checks.append(
                CheckOutcome(
                    f"Ext^{n+1} = 0 implies no k-summand in first {n} syzygies",
                    rep.hypothesis_met and rep.exceptional_on_range,
                    True,
                    rep.exceptional_on_range if rep.hypothesis_met else rep.notes,
                )
            )
        checks.append(
            CheckOutcome(
                "Soc R = m^2 (forced by Ext vanishing)",
                inv.soc_eq_msq,
                True,
                inv.soc_eq_msq,
            )
        )
        ek = matlis_dual(free_kmodule(ring, 1))
        q = minimal_presentation(ek, "E(k)")
        d2 = syzygy_step(ring, q)
        e1 = coker_realize(ring, d2)
        checks.append(
            CheckOutcome(
                "beta_0(E_1) = e(r-1)", e1.gens == e * (r - 1), e * (r - 1), e1.gens
            )
        )
        checks.append(
            CheckOutcome(
                "l(E_1) = (r-1)(1+e+r)",
                e1.dim == (r - 1) * (1 + e + r),
                (r - 1) * (1 + e + r),
                e1.dim,
            )
        )
        checks.append(
            CheckOutcome(
                "rank_k mE_1 = r^2 - 1",
                e1.msub_dim == r * r - 1,
                r * r - 1,
                e1.msub_dim,
            )
        )
        mu = k_ext()
        expected = expand_rational_series([r, -e, 1], [1, -e, r], n)
        checks.append(
            CheckOutcome(
                "[I_R] = [(r-et+t^2)/(1-et+rt^2)] to degree n",
                tuple(mu) == expected.coefficients,
                expected.coefficients,
                tuple(mu),
            )
        )
    return LemmaChecksReport(tuple(checks), tuple(notes))


@dataclass(frozen=True)
class ObservationReport:
    hypothesis_met: bool
    notes: tuple
    checks: tuple

    @property
    def passed(self) -> bool:
        return self.hypothesis_met and all(c.passed is not False for c in self.checks)


def check_observation(ring, pres, n: int) -> ObservationReport:
    """Three consecutive Ext vanishings force flat Betti numbers and the
    truncated series identities (with the ring structure of Theorem A)."""
    notes = []
    if n < 3:
        notes.append("hypothesis not met: n >= 3 required")
    inv = ring.invariants()
    if inv.gorenstein:
        notes.append("hypothesis not met: R is Gorenstein")
    m0 = coker_realize(ring, pres)
    if m0.dim == 0:
        notes.append("hypothesis not met: M = 0")
    elif m0.y_ops.any():
        notes.append("hypothesis not met: m^2 M != 0")
    if notes:
        return ObservationReport(False, tuple(notes), ())
    betti, diffs = resolve(ring, pres, n + 2)
    ext = ext_from_diffs(ring, diffs)
    for i in (n - 1, n, n + 1):
        if ext[i] != 0:
            notes.append(f"hypothesis not met: Ext^{i}(M,R) has dim {ext[i]}")
    if notes:
        return ObservationReport(False, tuple(notes), ())
    r, e = inv.r, inv.e
    b = betti.betti[: n + 1]
    checks = [
        CheckOutcome(
            "beta_n = ... = beta_0",
            len(set(b)) == 1,
            b[0],
            b,
        ),
        CheckOutcome("a: Soc R = m^2", inv.soc_eq_msq, True, inv.soc_eq_msq),
        CheckOutcome(
            "b: e = r+1 and length = 2e",
            e == r + 1 and inv.length == 2 * e,
            (r + 1, 2 * e),
            (e, inv.length),
        ),
    ]
    k_betti, k_diffs = resolve(ring, k_presentation(ring), n + 1, "k")
    pk = k_betti.betti[: n + 1]
    expected_c = expand_rational_series([1], poly_mul([1, -1], [1, -r]), n)
    checks.append(
        CheckOutcome(
            "c: [P_k] = [1/((1-t)(1-rt))] to degree n",
            pk == expected_c.coefficients,
            expected_c.coefficients,
            pk,
        )
    )
    mu = ext_from_diffs(ring, k_diffs)
    expected_d = expand_rational_series([r, -1], [1, -r], n)
    checks.append(
        CheckOutcome(
            "d: [I_R] = [(r-t)/(1-rt)] to degree n",
            tuple(mu) == expected_d.coefficients,
            expected_d.coefficients,
            tuple(mu),
        )
    )
    return ObservationReport(True, (), tuple(checks))
