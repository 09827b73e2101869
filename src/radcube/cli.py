"""Command-line front end.

Subcommands::

    radcube ring-info  RING
    radcube resolve    RING MODULE [--steps N] [--ext]
    radcube construct  RING MODULE [--half-window N] [--out FILE]
    radcube check      RING WINDOW [--theorems A,B,C] [--depth N] [--report FILE]
    radcube recursion  --e E --r R [--search L B]
    radcube selftest

RING/MODULE/WINDOW arguments are file paths; RING may also be a catalog
name (R1, R2, R3, R3G, R4, RS) and MODULE a catalog reference NAME/MOD
(for example R4/xpz).  `radcube ring-info --list` shows the catalog.

Exit codes: 0 all checked properties hold; 1 a verified property is
violated (on inputs meeting the hypotheses, this signals an engine bug);
2 invalid input or unmet hypothesis.  The environment variable
RADCUBE_DEPTH overrides the default depth 8 where --steps/--depth are
omitted.  Reports written by --report are JSON with no timestamps, so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .catalog import CATALOG, resolve_module, resolve_ring
from .complexes import construct_from_module
from .errors import ConstructionRefused, InputError, ParseError
from .fileio import parse_window, render_window
from .modules import ext_from_diffs, minimalize, prune_zero_columns, resolve
from .recursion import classify, search_sequences, verify_prefix
from .theorems import check_theorem_A, check_theorem_C, classify_theorem_B

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _default_depth() -> int:
    try:
        return int(os.environ.get("RADCUBE_DEPTH", "8"))
    except ValueError:
        return 8


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()
        }
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


def cmd_ring_info(args) -> int:
    if args.ring == "--list" or args.list:
        for name, entry in sorted(CATALOG.items()):
            print(f"{name:5s} {entry.description}")
            if entry.note:
                print(f"      note: {entry.note}")
            if entry.modules:
                print(f"      modules: {', '.join(sorted(entry.modules))}")
        return EXIT_OK
    ring = resolve_ring(args.ring)
    issues = ring.validate()
    if issues:
        for issue in issues:
            print(f"invalid ring: {issue}", file=sys.stderr)
        return EXIT_INPUT
    inv = ring.invariants()
    print(ring.describe())
    print(f"p          = {ring.p}")
    print(f"e          = {inv.e}")
    print(f"s          = {inv.s}")
    print(f"r          = {inv.r}")
    print(f"length     = {inv.length}")
    print(f"hilbert    = {inv.hilbert}")
    print(f"Soc = m^2  = {'yes' if inv.soc_eq_msq else 'no'}")
    print(f"Gorenstein = {'yes' if inv.gorenstein else 'no'}")
    print("socle basis: " + ", ".join(str(el) for el in inv.socle_basis))
    return EXIT_OK


def cmd_resolve(args) -> int:
    ring = resolve_ring(args.ring)
    pres = resolve_module(args.module, ring)
    if not pres.is_minimal():
        pres = prune_zero_columns(minimalize(pres))
        print("note: presentation had unit entries; minimalized "
              f"to {pres.nrows}x{pres.ncols}")
    n = args.steps if args.steps is not None else _default_depth()
    # Ext^0..Ext^n need d_{n+1}: one resolution, deep enough for both lines.
    betti, diffs = resolve(ring, pres, n + 1 if args.ext and n >= 0 else n)
    print("beta: " + " ".join(str(b) for b in betti.betti[: n + 1]))
    if args.ext:
        dims = ext_from_diffs(ring, diffs)
        print("ext:  " + " ".join(str(v) for v in dims))
    return EXIT_OK


def cmd_construct(args) -> int:
    ring = resolve_ring(args.ring)
    pres = resolve_module(args.module, ring)
    if not pres.is_minimal():
        pres = prune_zero_columns(minimalize(pres))
        print("note: presentation had unit entries; minimalized "
              f"to {pres.nrows}x{pres.ncols}")
    n = args.half_window if args.half_window is not None else _default_depth()
    result = construct_from_module(ring, pres, n)
    text = render_window(result.window)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"window [{result.window.lo},{result.window.hi}] written to {args.out}")
    else:
        sys.stdout.write(text)
    rep, dual = result.report, result.dual
    print(f"ranks: {' '.join(str(b) for b in result.window.ranks)}")
    print(f"minimal: {'yes' if result.minimal else 'NO'}")
    print(
        "acyclic on window"
        if rep.acyclic_on_window
        else f"homology nonzero at {dict((i, h) for i, h in rep.homology.items() if h)}"
    )
    print(
        "dual homology zero on window"
        if all(v == 0 for v in dual.h.values())
        else f"dual homology nonzero at {dict((i, h) for i, h in dual.h.items() if h)}"
    )
    return EXIT_OK


def _print_outcome(c) -> None:
    mark = {True: "pass", False: "FAIL", None: "skip"}[c.passed]
    line = f"  [{mark}] {c.name}"
    if c.passed is False:
        line += f" (expected {c.expected}, got {c.actual})"
    if c.note:
        line += f" -- {c.note}"
    print(line)


def cmd_check(args) -> int:
    ring = resolve_ring(args.ring)
    with open(args.window) as fh:
        window = parse_window(fh.read(), ring)
    depth = args.depth if args.depth is not None else _default_depth()
    wanted = [t.strip().upper() for t in args.theorems.split(",") if t.strip()]
    bad = [t for t in wanted if t not in ("A", "B", "C")]
    if bad:
        print(f"unknown theorem name(s): {', '.join(bad)}", file=sys.stderr)
        return EXIT_INPUT
    vrep = window.report()
    print(
        f"window [{window.lo},{window.hi}] ranks "
        + " ".join(str(b) for b in window.ranks)
    )
    print(
        f"d o d = 0: {'yes' if vrep.composition_zero else 'NO ' + str(vrep.composition_violations)}"
        + f"; minimal: {'yes' if vrep.minimal else 'NO ' + str(vrep.nonminimal_degrees)}"
        + f"; acyclic on window: {'yes' if vrep.acyclic_on_window else 'no'}"
    )
    verdicts = {}
    hypothesis_failed = False
    violation = False
    for name in wanted:
        if name == "A":
            v = check_theorem_A(ring, window, depth)
        elif name == "B":
            v = classify_theorem_B(ring, window)
        else:
            v = check_theorem_C(ring, window)
        verdicts[name] = v
        print(f"theorem {name}:")
        if not v.hypothesis_met:
            hypothesis_failed = True
            for note in v.notes:
                print(f"  {note}")
        if name in ("A", "B"):
            if name == "B" and v.hypothesis_met:
                print(f"  type {v.type} on window; kappa = "
                      f"{v.kappa_window if v.kappa_window is not None else 'none in window'}"
                      f"; a = {v.a}")
            for c in v.checks:
                _print_outcome(c)
            if v.hypothesis_met and not v.passed:
                violation = True
        else:
            if v.hypothesis_met or v.h_window:
                print(f"  H on window = {list(v.h_window)} of computable {list(v.computable)}")
                print(f"  equal ranks: {'yes' if v.equal_ranks else 'no'}")
                for l, status in v.implications:
                    print(f"  implication at {l}: {status}")
                print(
                    "  two-of-three closure fills the window"
                    if v.closure_full
                    else f"  closure reaches {list(v.closure)}"
                )
            if v.hypothesis_met and not v.passed:
                violation = True
    if args.report:
        doc = {
            "ring": args.ring,
            "window": {
                "lo": window.lo,
                "hi": window.hi,
                "ranks": list(window.ranks),
            },
            "verification": _jsonable(vrep),
            "theorems": {name: _jsonable(v) for name, v in verdicts.items()},
        }
        with open(args.report, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}")
    if violation:
        return EXIT_VIOLATION
    if hypothesis_failed:
        return EXIT_INPUT
    return EXIT_OK


def cmd_recursion(args) -> int:
    verdict = classify(args.e, args.r)
    print(f"classify(e={args.e}, r={args.r}) = {verdict.verdict}")
    print(f"  {verdict.certificate}")
    if args.search:
        length, bound = args.search
        found = search_sequences(args.e, args.r, length, bound)
        print(f"search(length={length}, bound={bound}): {len(found)} prefix(es)")
        for seq in found[:10]:
            rep = verify_prefix(args.e, args.r, seq)
            print(f"  {seq} residuals {rep.residuals}")
        if len(found) > 10:
            print(f"  ... and {len(found) - 10} more")
        agree = (len(found) > 0) == verdict.constant_only and all(
            len(set(seq)) == 1 for seq in found
        )
        print("AGREE" if agree else "DISAGREE")
        if not agree:
            return EXIT_VIOLATION
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    return EXIT_OK if run_all() else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radcube",
        description=(
            "Exact homological computations over artinian local rings with "
            "cube-zero radical: invariants, minimal resolutions, Ext, "
            "spliced acyclic windows, structure-theorem checks, and the "
            "rank-recursion classifier."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring-info", help="print ring invariants")
    p.add_argument("ring", nargs="?", default="--list")
    p.add_argument("--list", action="store_true", help="list catalog entries")
    p.set_defaults(fn=cmd_ring_info)

    p = sub.add_parser("resolve", help="Betti table of a presented module")
    p.add_argument("ring")
    p.add_argument("module")
    p.add_argument("--steps", type=int, default=None, help="resolution length")
    p.add_argument("--ext", action="store_true", help="also print Ext^i(M, R) dims")
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("construct", help="splice a doubly infinite window from M")
    p.add_argument("ring")
    p.add_argument("module")
    p.add_argument("--half-window", type=int, default=None)
    p.add_argument("--out", default=None, help="write the window file here")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("check", help="verify structure theorems on a window")
    p.add_argument("ring")
    p.add_argument("window")
    p.add_argument("--theorems", default="A,B,C")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("recursion", help="classify the rank recursion a_i = e*a_{i+1} - r*a_{i+2}")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--search",
        nargs=2,
        type=int,
        metavar=("L", "B"),
        default=None,
        help="also run the bounded prefix search and compare",
    )
    p.set_defaults(fn=cmd_recursion)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, InputError, ConstructionRefused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
