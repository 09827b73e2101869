"""Acceptance suite: the checks that gate a release, runnable as library
calls (CLI `selftest`) or through pytest (tests/test_acceptance.py).

Each criterion returns (ok, detail); `run_all` executes all six and
reports one line per criterion.  Everything is exact equality; the
randomized property suite uses a fixed seed so failures are reproducible.
"""

from __future__ import annotations

import random
import time

import numpy as np

from .catalog import CATALOG, verify_catalog
from .complexes import construct_from_module
from .errors import InputError
from .modules import (
    coker_realize,
    cyclic_presentation,
    ext_from_diffs,
    free_kmodule,
    k_presentation,
    k_summand_multiplicity,
    matlis_dual,
    resolve,
)
from .recursion import classify, search_sequences
from .theorems import (
    check_theorem_A,
    check_theorem_C,
    classify_theorem_B,
    expand_rational_series,
    lemma_checks,
    poly_mul,
)

__all__ = ["run_all", "CRITERIA", "random_ring_corpus"]


def _fail(msgs: list[str], cond: bool, msg: str) -> bool:
    if not cond:
        msgs.append(msg)
    return cond


def criterion_1_flagship() -> tuple[bool, str]:
    """R4: invariants, Poincare/Bass series, constructed window, theorems."""
    msgs: list[str] = []
    ring = CATALOG["R4"].ring()
    inv = ring.invariants()
    _fail(
        msgs,
        (inv.e, inv.s, inv.r, inv.length, inv.soc_eq_msq)
        == (3, 2, 2, 6, True)
        and inv.length == 2 * inv.e,
        f"invariants off: {inv}",
    )
    betti, diffs = resolve(ring, k_presentation(ring), 6, "k")
    expected = expand_rational_series([1], poly_mul([1, -1], [1, -2]), 6)
    _fail(
        msgs,
        tuple(betti.betti) == expected.coefficients == (1, 3, 7, 15, 31, 63, 127),
        f"P_k mismatch: {betti.betti} vs {expected.coefficients}",
    )
    mu = ext_from_diffs(ring, diffs[:5])
    expected_mu = expand_rational_series([2, -1], [1, -2], 4)
    _fail(
        msgs,
        tuple(mu) == expected_mu.coefficients == (2, 3, 6, 12, 24),
        f"Bass mismatch: {mu} vs {expected_mu.coefficients}",
    )
    res = construct_from_module(ring, cyclic_presentation(ring, "x + z"), 6)
    _fail(msgs, res.report.acyclic_on_window, "constructed window not acyclic")
    _fail(
        msgs,
        all(v == 0 for v in res.dual.h.values()),
        f"dual homology nonzero: {res.dual.h}",
    )
    _fail(msgs, res.window.ranks == [1] * 13, f"ranks not all 1: {res.window.ranks}")
    vb = classify_theorem_B(ring, res.window)
    _fail(
        msgs,
        vb.hypothesis_met and vb.type == "I" and vb.a == 1 and vb.passed,
        f"theorem B verdict: type={vb.type}, a={vb.a}, notes={vb.notes}",
    )
    lengths = [c for c in vb.checks if c.name.startswith("I: length")][0].actual
    _fail(msgs, set(lengths.values()) == {3}, f"cokernel lengths {lengths} != 3")
    vc = check_theorem_C(ring, res.window)
    _fail(
        msgs,
        vc.hypothesis_met
        and set(vc.h_window) == set(vc.computable)
        and all(s == "held" for _, s in vc.implications)
        and vc.passed,
        f"theorem C verdict: H={vc.h_window}, implications={vc.implications}",
    )
    va = check_theorem_A(ring, res.window, 6)
    _fail(msgs, va.hypothesis_met and va.passed, f"theorem A: {va.notes}")
    return not msgs, "; ".join(msgs) or "invariants, series, window, A/B/C all exact"


def criterion_2_gorenstein() -> tuple[bool, str]:
    """R1: Betti of k, Ext vanishing, both constructions."""
    msgs: list[str] = []
    ring = CATALOG["R1"].ring()
    betti, diffs = resolve(ring, k_presentation(ring), 8, "k")
    _fail(
        msgs,
        tuple(betti.betti) == tuple(range(1, 10)),
        f"beta_i(k) != i+1: {betti.betti}",
    )
    ext = ext_from_diffs(ring, diffs[:7])
    _fail(msgs, ext[0] == 1 and all(v == 0 for v in ext[1:7]), f"Ext(k,R): {ext}")
    res = construct_from_module(ring, cyclic_presentation(ring, "x"), 5)
    _fail(
        msgs,
        res.window.ranks == [1] * 11 and res.report.acyclic_on_window,
        f"R/(x) window: ranks {res.window.ranks}",
    )
    _fail(msgs, all(v == 0 for v in res.dual.h.values()), "R/(x) dual homology nonzero")
    resk = construct_from_module(ring, k_presentation(ring), 5)
    _fail(
        msgs,
        resk.window.ranks == [6, 5, 4, 3, 2, 1, 1, 2, 3, 4, 5],
        f"complete resolution ranks: {resk.window.ranks}",
    )
    _fail(msgs, resk.report.acyclic_on_window, "k-window not acyclic")
    return not msgs, "; ".join(msgs) or "Betti/Ext and both constructions exact"


def criterion_3_socle_guard() -> tuple[bool, str]:
    """RS: socle exceeds m^2 and Betti numbers grow strictly from index 1."""
    msgs: list[str] = []
    ring = CATALOG["RS"].ring()
    inv = ring.invariants()
    _fail(
        msgs,
        not inv.soc_eq_msq and inv.r == 2,
        f"socle invariants off: r={inv.r}, soc_eq_msq={inv.soc_eq_msq}",
    )
    betti, _ = resolve(ring, k_presentation(ring), 8, "k")
    seq = betti.betti
    _fail(
        msgs,
        all(seq[i + 1] > seq[i] for i in range(1, 8)),
        f"Betti not strictly increasing from index 1: {seq}",
    )
    return not msgs, "; ".join(msgs) or f"r=2, Soc != m^2, Betti {seq} strictly increasing"


def criterion_4_recursion_grid() -> tuple[bool, str]:
    """classify vs the bounded forward search on the whole (e, r) grid."""
    msgs: list[str] = []
    for r in range(2, 7):
        for e in range(1, 9):
            found = search_sequences(e, r, 12, 40)
            constant_only = classify(e, r).constant_only
            if constant_only != (len(found) > 0):
                msgs.append(f"(e={e}, r={r}): classifier and oracle disagree")
                continue
            if constant_only and e != r + 1:
                msgs.append(f"(e={e}, r={r}): ConstantOnly but e != r+1")
            for seq in found:
                if len(set(seq)) != 1:
                    msgs.append(f"(e={e}, r={r}): non-constant prefix {seq}")
                if any(
                    seq[i] * seq[i + 2] != seq[i + 1] ** 2
                    for i in range(len(seq) - 2)
                ):
                    msgs.append(f"(e={e}, r={r}): telescoping identity fails on {seq}")
    return not msgs, "; ".join(msgs[:4]) or "grid 2<=r<=6, 1<=e<=8 agrees; constants only"


def random_ring_corpus(seed: int = 20260810, count: int = 100):
    """The fixed random corpus: (ring, [three cyclic presentations]) pairs.

    e is uniform in 1..4 and the degree-2 dimension s uniform in
    [1, min(e, 3)] (realized by that many random quadrics); the cap keeps
    depth-6 resolutions at desk scale, which large-socle rings violate by
    orders of magnitude, while still covering Gorenstein and not, both
    socle regimes, s = e - 1 at every e, and s = e up to e = 3.
    """
    from .rings import build_from_quadrics

    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        e = rng.randint(1, 4)
        npairs = e * (e + 1) // 2
        smax = min(e, 3, npairs) if npairs > 1 else 1
        s_target = rng.randint(1, smax)
        q = npairs - s_target
        quadrics = [
            [rng.randrange(5) for _ in range(npairs)] for _ in range(q)
        ]
        try:
            ring = build_from_quadrics(
                5, [f"x{i+1}" for i in range(e)], quadrics
            )
        except InputError:
            continue
        if ring.s != s_target:
            continue
        mods = []
        for _ in range(3):
            while True:
                vec = [0] + [rng.randrange(5) for _ in range(ring.dim - 1)]
                if any(vec):
                    break
            mods.append(cyclic_presentation(ring, ring.element(vec)))
        corpus.append((ring, mods))
    return corpus


def criterion_5_property_suite() -> tuple[bool, str]:
    """Seeded random corpus: composition, lengths, exceptionality law,
    duality, and rank symmetry, all exact."""
    msgs: list[str] = []
    corpus = random_ring_corpus()
    summand_seen = 0
    clean_seen = 0
    for ring, mods in corpus:
        inv = ring.invariants()
        einv, rinv = inv.e, inv.r
        for pres in mods:
            betti, diffs = resolve(ring, pres, 6)
            b = betti.betti
            # (i) consecutive differentials compose to zero.
            for a, bb in zip(diffs, diffs[1:]):
                if not a.composes_to_zero(bb)[0]:
                    msgs.append(f"{ring}: d o d != 0")
            # (ii)+(iii): realized cokernels against the length identity
            # and the per-index exceptionality law.
            m_first = coker_realize(ring, pres)
            m_prev = m_first
            m2m_zero = not m_first.y_ops.any()
            if m_first.dim != m_first.msub_dim + m_first.gens:
                msgs.append(f"{ring}: length identity fails at M")
            mults = {}
            chain_all = True
            for i in range(1, 6):
                mi = coker_realize(ring, diffs[i])
                if mi.dim != mi.msub_dim + mi.gens:
                    msgs.append(f"{ring}: length identity fails at syzygy {i}")
                if mi.gens != b[i]:
                    msgs.append(f"{ring}: beta_{i} != generator count")
                if inv.soc_eq_msq:
                    mult = k_summand_multiplicity(mi)
                    mults[i] = mult
                    if mult:
                        summand_seen += 1
                    else:
                        clean_seen += 1
                    # rank-form law: beta_i = e*beta_{i-1} - rank_k mM_{i-1}
                    # holds exactly when M_i has no k-summand...
                    if i >= 2 or m2m_zero:
                        holds = b[i] == einv * b[i - 1] - m_prev.msub_dim
                        if holds != (mult == 0):
                            msgs.append(
                                f"{ring}: rank-form law out of step at index {i}"
                            )
                        # ...and the defect is exactly the multiplicity.
                        if b[i] != einv * b[i - 1] - m_prev.msub_dim + mult:
                            msgs.append(f"{ring}: defect != multiplicity at {i}")
                    # chain-form law with both defects, where applicable.
                    if i >= 3 or (i == 2 and m2m_zero):
                        expected = (
                            einv * b[i - 1]
                            - rinv * b[i - 2]
                            + mults.get(i - 1, 0)
                            + mult
                        )
                        if b[i] != expected:
                            msgs.append(
                                f"{ring}: two-defect chain law fails at {i}"
                            )
                    if i == 1:
                        chain = m2m_zero and b[1] == einv * b[0] - m_first.msub_dim
                    else:
                        chain = b[i] == einv * b[i - 1] - rinv * b[i - 2]
                    if i <= 4:
                        chain_all = chain_all and chain
                m_prev = mi
            # conjunction form: all chain identities to depth 4 hold
            # exactly when no syzygy in that range has a k-summand.
            if inv.soc_eq_msq and m2m_zero:
                exceptional = all(mults.get(i, 0) == 0 for i in range(1, 5))
                if chain_all != exceptional:
                    msgs.append(f"{ring}: exceptionality iff fails")
            # (vi) rank symmetry of every intermediate k-matrix; the rank
            # comes from the kernel elimination inside resolve, the
            # transposed rank from the quotient elimination inside
            # coker_realize (the final differential pays for its own).
            for d in diffs:
                if d.k_rank() != d.kt_rank():
                    msgs.append(f"{ring}: rank(K) != rank(K^T)")
            # (iv) Matlis double dual preserves dimensions and actions.
            mdd = matlis_dual(matlis_dual(m_first))
            if mdd.dim != m_first.dim or not np.array_equal(
                mdd.x_ops, m_first.x_ops
            ):
                msgs.append(f"{ring}: Matlis involution broken")
        # (v) the Matlis dual of R has exactly r minimal generators.
        if matlis_dual(free_kmodule(ring, 1)).gens != rinv:
            msgs.append(f"{ring}: beta_0(E(k)) != r")
    detail = (
        f"100 rings x 3 modules: all identities exact "
        f"(k-summand indices: {summand_seen}, clean: {clean_seen})"
    )
    if summand_seen == 0:
        msgs.append("corpus never exercised the k-summand branch")
    return not msgs, "; ".join(msgs[:4]) or detail


def criterion_6_bass_lemma() -> tuple[bool, str]:
    """Bass-series bookkeeping on R4 with M = R/(x+z), depth 4."""
    msgs: list[str] = []
    ring = CATALOG["R4"].ring()
    rep = lemma_checks(ring, cyclic_presentation(ring, "x + z"), 4)
    by_name = {c.name: c for c in rep.checks}
    for name, want in [
        ("beta_0(E_1) = e(r-1)", 3),
        ("l(E_1) = (r-1)(1+e+r)", 6),
        ("rank_k mE_1 = r^2 - 1", 3),
    ]:
        c = by_name.get(name)
        if c is None or c.passed is not True or c.actual != want:
            msgs.append(f"{name}: got {getattr(c, 'actual', 'missing')}")
    series = by_name.get("[I_R] = [(r-et+t^2)/(1-et+rt^2)] to degree n")
    if series is None or series.passed is not True:
        msgs.append(f"Bass series truncation: {getattr(series, 'actual', 'missing')}")
    if not rep.passed:
        msgs.append("lemma check report failed overall")
    return not msgs, "; ".join(msgs) or "E_1 identities 3/6/3 and Bass truncation exact"


CRITERIA = [
    ("1 non-Gorenstein flagship (R4)", criterion_1_flagship, 5.0),
    ("2 Gorenstein suite (R1)", criterion_2_gorenstein, 5.0),
    ("3 socle guard (RS)", criterion_3_socle_guard, 2.0),
    ("4 recursion grid", criterion_4_recursion_grid, 10.0),
    ("5 randomized property suite", criterion_5_property_suite, 60.0),
    ("6 Bass-series lemma (R4)", criterion_6_bass_lemma, 5.0),
]


def run_all(out=print) -> bool:
    """Run the catalog check plus all six criteria; one line each."""
    ok = True
    problems = verify_catalog()
    if problems:
        ok = False
        out(f"[FAIL] catalog self-check: {'; '.join(problems)}")
    else:
        out("[pass] catalog self-check: all entries match recorded invariants")
    for name, fn, budget in CRITERIA:
        t0 = time.time()
        passed, detail = fn()
        dt = time.time() - t0
        status = "pass" if passed else "FAIL"
        timing = f"{dt:.1f}s"
        if dt > budget:
            passed = False
            status = "FAIL"
            detail += f"; exceeded {budget:.0f}s budget"
        out(f"[{status}] criterion {name}: {detail} ({timing})")
        ok = ok and passed
    return ok
