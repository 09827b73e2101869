"""The benchmark's workloads: seeded inputs, jobs and per-job oracles.

`make(name, seed, workdir)` builds a workload's jobs; building them is the
input-generation part of set-up.  A job's `work` drives radcube through a
public entry point (`radcube.cli.main` or a library function) and returns
its output.  `check` compares that output with an oracle that does not come
from the code under test (closed forms, exact identities, exit codes).
`fingerprint` is the output pinned in pins.json; `pin` says whether it is
pinned per seed ("seed"), for every seed ("fixed") or not at all ("none").

Library functions are looked up through their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import radcube.catalog as rcat
import radcube.cli as rcli
import radcube.complexes as rcx
import radcube.fileio as rfio
import radcube.modules as rmod
import radcube.rings as rrings

LARGE_P = 2**31 - 1


@dataclass
class Job:
    name: str
    work: Callable[[], object]
    check: Callable[[object], list[str]]
    fingerprint: Callable[[object], str]
    pin: str = "none"


def make(name: str, seed: int, workdir: str) -> list[Job]:
    if name == "resolve-deep":
        return resolve_deep_jobs()
    if name == "corpus":
        return corpus_jobs(seed)
    if name == "windows":
        return windows_jobs(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = rcli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def series(num: list[int], den: list[int], n: int) -> list[int]:
    """First n coefficients of num/den as a power series (den[0] = 1)."""
    out = []
    for i in range(n):
        c = num[i] if i < len(num) else 0
        c -= sum(den[k] * out[i - k] for k in range(1, min(i, len(den) - 1) + 1))
        out.append(c)
    return out


# -- resolve-deep -----------------------------------------------------------

# (ring, module, steps, beta_0..beta_steps, Ext^0..Ext^steps).  R4: the
# Poincare series of k is 1/((1-t)(1-2t)) and the Bass series (2-t)/(1-2t).
# RS: beta_i = 2^i; its Ext values are the ones the CLI printed when the
# benchmark was written.
RESOLVE_DEEP = [
    ("R4", "R4/k", 7, series([1], [1, -3, 2], 8), series([2, -1], [1, -2], 8)),
    ("RS", "RS/k", 8, [2**i for i in range(9)], [2, 3, 6, 12, 24, 48, 96, 192, 384]),
]


def _resolve_job(ring, module, steps, beta, ext) -> Job:
    def check(out):
        code, text = out
        want = f"beta: {' '.join(map(str, beta))}\next:  {' '.join(map(str, ext))}\n"
        if code != 0:
            return [f"exit code {code}"]
        return [] if text == want else [f"output {text!r} != {want!r}"]

    return Job(
        f"resolve-{ring}",
        lambda: run_cli(["resolve", ring, module, "--steps", str(steps), "--ext"]),
        check,
        lambda out: f"{out[0]} {sha256(out[1])}",
        "fixed",
    )


def resolve_deep_jobs() -> list[Job]:
    return [_resolve_job(*spec) for spec in RESOLVE_DEEP]


# -- corpus -----------------------------------------------------------------

def schedule(rings: int) -> list[tuple]:
    """(p, e, s, ring target, module targets) of each corpus ring, the
    same for every seed.

    Primes alternate between 5 and 2^31 - 1; e cycles through 1..3 within
    each prime and s through min(e, 3), 1, 2, ... within each (p, e), so
    every seed runs the same mix of ring classes and only the coefficients
    change.  With 60 rings the e = 3, s = 3 class holds the slowest tenth of
    the jobs and a little more, so the 90th percentile falls inside a class
    rather than on the edge between two.

    Over F_5 that class also mixes behaviours by chance, which would make
    time and peak memory depend on the seed: about one ring in sixteen has
    quadrics with a linear syzygy (beta_2(k) = 8 instead of 7, faster Betti
    growth, the run's peak memory), and about one cyclic module in six has
    beta_2(M) = 2 instead of 3 (slower growth).  Targets fix the mix: the
    first such ring has beta_2(k) = 8 and three modules with beta_2(M) = 3;
    every other one has beta_2(k) = 7 and module targets 3, 3, 2.

    The classes e = 2, s = 1 and e = 3, s = 2 hold the median job.  Over
    F_5 about one module in seven of the first and one in three of the
    second has a growing resolution (beta_2(M) = 2) and costs 3 to 40 times
    as much as one with beta_i(M) = 1, the behaviour at the large prime; a
    seed that drew a few more of them moved the median job by up to a half.
    So their modules there have beta_2(M) = 1.  Other classes take whatever
    the seed draws (targets None).
    """
    seen: dict[tuple[int, int], int] = {}
    out = []
    for k in range(rings):
        p = 5 if k % 2 == 0 else LARGE_P
        e = (k // 2) % 3 + 1
        n = seen[p, e] = seen.get((p, e), -1) + 1
        s = (n + e - 1) % e + 1
        if p == 5 and (e, s) in ((2, 1), (3, 2)):
            out.append((p, e, s, None, (1, 1, 1)))
        elif (p, e, s) != (5, 3, 3):
            out.append((p, e, s, None, (None,) * 3))
        elif n == 0:
            out.append((p, e, s, 8, (3, 3, 3)))
        else:
            out.append((p, e, s, 7, (3, 3, 2)))
    return out


def beta2(ring, pres) -> int:
    return rmod.resolve(ring, pres, 2)[0].betti[2]


DEPTH = 6
# Draws of f per module target before the ring is drawn again.  Over F_5
# about one e = 2, s = 1 ring in six has no f with beta_2 = 1 at all, and on
# the others nearly every f has it, so that target gives up sooner.
TRIES = {1: 10}
DEFAULT_TRIES = 200


def random_ring(rng: random.Random, p: int, e: int, s: int, target: int | None):
    """A random ring of class (p, e, s); with a target, one with beta_2(k) = target."""
    npairs = e * (e + 1) // 2
    while True:
        quadrics = [[rng.randrange(p) for _ in range(npairs)] for _ in range(npairs - s)]
        ring = rrings.build_from_quadrics(p, [f"x{i + 1}" for i in range(e)], quadrics)
        if ring.s == s and (target is None or beta2(ring, rmod.k_presentation(ring)) == target):
            return ring


def random_cyclic(rng: random.Random, ring, target: int | None):
    """R/(f) for a random f in m; with a target, one with beta_2 = target,
    or None if its TRIES draws miss it (some rings have almost no such f)."""
    for _ in range(TRIES.get(target, DEFAULT_TRIES)):
        vec = [0] + [rng.randrange(ring.p) for _ in range(ring.dim - 1)]
        if any(vec):
            pres = rmod.cyclic_presentation(ring, ring.element(vec))
            if target is None or beta2(ring, pres) == target:
                return pres
    return None


def ring_with_modules(rng: random.Random, p, e, s, ring_target, module_targets):
    """A random ring and one cyclic module per target; a ring on which a
    module target is missed is replaced by a fresh draw."""
    while True:
        ring = random_ring(rng, p, e, s, ring_target)
        mods = [random_cyclic(rng, ring, t) for t in module_targets]
        if None not in mods:
            return ring, mods


def corpus_work(ring, pres) -> dict:
    """Criterion 5's per-module work: resolve to depth 6, realize every
    syzygy, split off k-summands where Soc = m^2, and compare ranks."""
    inv = ring.invariants()
    betti, diffs = rmod.resolve(ring, pres, DEPTH)
    dd_zero = all(a.composes_to_zero(b)[0] for a, b in zip(diffs, diffs[1:]))
    first = rmod.coker_realize(ring, pres)
    dims = [(first.dim, first.msub_dim, first.gens)]
    mults = {}
    for i in range(1, DEPTH):
        mi = rmod.coker_realize(ring, diffs[i])
        if inv.soc_eq_msq:
            mults[i] = rmod.k_summand_multiplicity(mi)
        dims.append((mi.dim, mi.msub_dim, mi.gens))
    twice = rmod.matlis_dual(rmod.matlis_dual(first))
    return {
        "p": ring.p, "e": inv.e, "r": inv.r, "soc_eq_msq": inv.soc_eq_msq,
        "betti": list(betti.betti), "dd_zero": dd_zero, "dims": dims, "mults": mults,
        "m2m_zero": not first.y_ops.any(),
        "ranks": [(d.k_rank(), d.kt_rank()) for d in diffs],
        "matlis": twice.dim == first.dim and bool(np.array_equal(twice.x_ops, first.x_ops)),
        "ek_gens": rmod.matlis_dual(rmod.free_kmodule(ring, 1)).gens,
    }


def corpus_check(rec: dict) -> list[str]:
    """Criterion 5's exact identities on one job's output."""
    msgs = []
    b, e, r, dims, mults = rec["betti"], rec["e"], rec["r"], rec["dims"], rec["mults"]
    if not rec["dd_zero"]:
        msgs.append("d o d != 0")
    for i, (dim, msub, gens) in enumerate(dims):
        if dim != msub + gens:
            msgs.append(f"length identity fails at syzygy {i}")
        if i and gens != b[i]:
            msgs.append(f"beta_{i} != generator count of syzygy {i}")
    if rec["soc_eq_msq"]:
        m2m_zero, chain_all = rec["m2m_zero"], True
        for i in range(1, DEPTH):
            mult, msub_prev = mults[i], dims[i - 1][1]
            if i >= 2 or m2m_zero:
                if (b[i] == e * b[i - 1] - msub_prev) != (mult == 0):
                    msgs.append(f"rank-form law out of step at {i}")
                if b[i] != e * b[i - 1] - msub_prev + mult:
                    msgs.append(f"defect != multiplicity at {i}")
            if i >= 3 or (i == 2 and m2m_zero):
                if b[i] != e * b[i - 1] - r * b[i - 2] + mults.get(i - 1, 0) + mult:
                    msgs.append(f"two-defect chain law fails at {i}")
            if i == 1:
                chain = m2m_zero and b[1] == e * b[0] - dims[0][1]
            else:
                chain = b[i] == e * b[i - 1] - r * b[i - 2]
            if i <= 4:
                chain_all = chain_all and chain
        if m2m_zero and chain_all != all(mults[i] == 0 for i in range(1, 5)):
            msgs.append("exceptionality iff fails")
    if any(kr != ktr for kr, ktr in rec["ranks"]):
        msgs.append("rank(K) != rank(K^T)")
    if not rec["matlis"]:
        msgs.append("Matlis involution broken")
    if rec["ek_gens"] != r:
        msgs.append("beta_0(E(k)) != r")
    return msgs


def corpus_jobs(seed: int, rings: int = 60) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for k, (p, e, s, ring_target, module_targets) in enumerate(schedule(rings)):
        ring, mods = ring_with_modules(rng, p, e, s, ring_target, module_targets)
        for j, pres in enumerate(mods):
            jobs.append(Job(
                f"ring{k:02d}-p{p}-e{e}s{s}-m{j}",
                lambda ring=ring, pres=pres: corpus_work(ring, pres),
                corpus_check,
                lambda rec: " ".join(map(str, rec["betti"])),
                # Large-p outputs are not pinned: int64 arithmetic can
                # overflow at that prime (ROADMAP open item 5).
                "seed" if p == 5 else "none",
            ))
    return jobs


# -- windows ----------------------------------------------------------------

HALF = {"R4/xpz": 8, "R4/xmz": 8, "R1/k": 6}
CHECK_DEPTH = "6"


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _gl2(rng: random.Random, p: int):
    """A random invertible 2x2 matrix over F_p and its inverse."""
    while True:
        g = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(2)], dtype=np.int64)
        det = int(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) % p
        if det:
            adj = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]], dtype=np.int64)
            return g, adj * pow(det, -1, p) % p


def twisted_sum(w1, w2, rng: random.Random):
    """w1 + w2 with a random change of basis g_i in every position:
    d_i becomes g_{i-1} d_i g_i^{-1}, an isomorphic complex."""
    total = rcx.direct_sum_windows(w1, w2)
    ring, p = total.ring, total.ring.p
    gl = {i: _gl2(rng, p) for i in total.positions}
    diffs = []
    for i in range(total.lo + 1, total.hi + 1):
        arr = np.einsum("ac,cbD,bf->afD", gl[i - 1][0], total.diff(i).arr, gl[i][1]) % p
        diffs.append(rmod.RModuleMap(ring, arr))
    return rcx.ChainWindow(ring, total.lo, total.ranks, diffs)


def corrupted(w, rng: random.Random):
    """w with c*y added to the entry of one interior differential.

    The R4 windows have entries a*x + z with a + b = 0 for neighbours, so
    the changed differential composes with either neighbour to c*y*z != 0.
    """
    ring = w.ring
    deg = rng.randrange(w.lo + 2, w.hi)
    diffs = list(w.diffs)
    arr = diffs[deg - w.lo - 1].arr.copy()
    arr[0, 0] = (arr[0, 0] + rng.randrange(1, ring.p) * ring.gen("y").vec) % ring.p
    diffs[deg - w.lo - 1] = rmod.RModuleMap(ring, arr)
    return rcx.ChainWindow(ring, w.lo, w.ranks, diffs)


def windows_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    path = {k: os.path.join(workdir, f"{k.replace('/', '-')}.window") for k in HALF}
    path["sum"] = os.path.join(workdir, "sum.window")
    path["bad"] = os.path.join(workdir, "bad.window")
    r4 = rcat.resolve_ring("R4")
    sum_parts = (rng.choice(["R4/xpz", "R4/xmz"]), rng.choice(["R4/xpz", "R4/xmz"]))
    bad_base = rng.choice(["R4/xpz", "R4/xmz"])
    sum_rng, bad_rng = random.Random(rng.random()), random.Random(rng.random())
    jobs = []

    # The light steps are grouped into two jobs, so that the four R4 checks
    # are more than half of the jobs and the median job is one of them
    # rather than whichever ~10 ms step the machine's noise puts there.
    def construct():
        out = []
        for mod, half in HALF.items():
            code, text = run_cli(["construct", mod.split("/")[0], mod,
                                  "--half-window", str(half), "--out", path[mod]])
            out.append((mod, half, code, text, _read(path[mod])))
        return out

    def construct_ok(out):
        msgs = []
        for mod, half, code, text, window in out:
            if code != 0:
                msgs.append(f"{mod}: exit code {code}")
            if "acyclic on window" not in text or "dual homology zero" not in text:
                msgs.append(f"{mod}: construction not acyclic with zero dual homology")
            if not window.startswith(f"lo = -{half}\nhi = {half}\n"):
                msgs.append(f"{mod}: window range differs from the half-window asked for")
        return msgs

    jobs.append(Job("construct", construct, construct_ok,
                    lambda out: sha256("".join(f"{c} {w}" for _, _, c, _, w in out)), "fixed"))

    def derive_and_roundtrip():
        """The seeded twisted sum and corrupted copy, written to files, then
        render -> parse -> render of every window."""
        ws = [rfio.parse_window(_read(path[m]), r4) for m in sum_parts]
        derived = {"sum": twisted_sum(ws[0], ws[1], sum_rng),
                   "bad": corrupted(rfio.parse_window(_read(path[bad_base]), r4), bad_rng)}
        for key, window in derived.items():
            with open(path[key], "w") as fh:
                fh.write(rfio.render_window(window))
        out = []
        for key in ("R4/xpz", "R4/xmz", "R1/k", "sum", "bad"):
            ring = rcat.resolve_ring(key.split("/")[0] if "/" in key else "R4")
            text = _read(path[key])
            w = rfio.parse_window(text, ring)
            again = rfio.render_window(w)
            w2 = rfio.parse_window(again, ring)
            same = (w2.lo, w2.ranks) == (w.lo, w.ranks) and all(
                a == b for a, b in zip(w.diffs, w2.diffs))
            out.append((key, text, again, same))
        return out

    def derive_ok(out):
        msgs = [f"{key}: render/parse not a round trip"
                for key, text, again, same in out if text != again or not same]
        texts = {key: text for key, text, _, _ in out}
        for key, n in (("sum", 2), ("bad", 1)):
            if "ranks = " + ", ".join([str(n)] * 17) + "\n" not in texts[key]:
                msgs.append(f"{key}: ranks are not all {n}")
        return msgs

    jobs.append(Job("derive-roundtrip", derive_and_roundtrip, derive_ok,
                    lambda out: sha256("".join(again for _, _, again, _ in out)), "seed"))

    for key, want in (("R4/xpz", 0), ("R4/xmz", 0), ("sum", 0), ("bad", 2)):
        report = path[key] + ".json"

        def check_run(key=key, report=report):
            code, text = run_cli(["check", "R4", path[key], "--theorems", "A,B,C",
                                  "--depth", CHECK_DEPTH, "--report", report])
            return code, text, _read(report)

        def check_ok(out, key=key, want=want):
            code, text, rep = out
            msgs = [] if code == want else [f"exit code {code}, expected {want}"]
            doc = json.loads(rep)
            ver = doc["verification"]
            if key == "bad":
                if ver["composition_zero"] or "d o d = 0: NO" not in text:
                    msgs.append("corruption not detected")
                return msgs
            if not (ver["composition_zero"] and ver["minimal"] and ver["acyclic_on_window"]):
                msgs.append("window does not verify")
            if not all(doc["theorems"][t]["hypothesis_met"] for t in "ABC"):
                msgs.append("theorem hypotheses not met")
            return msgs

        jobs.append(Job(
            f"check-{key}", check_run, check_ok,
            lambda out: f"{out[0]} {sha256(out[2])}",
            "seed" if key in ("sum", "bad") else "fixed",
        ))

    def check_r1():
        return run_cli(["check", "R1", path["R1/k"]])

    jobs.append(Job(
        "check-R1/k", check_r1,
        lambda out: [] if out[0] == 2 and "Gorenstein" in out[1] else [
            f"exit code {out[0]}, expected 2 with a Gorenstein note"],
        lambda out: f"{out[0]} {sha256(out[1])}", "fixed",
    ))
    return jobs
