"""In-memory span tracing for the benchmark's traced run.

The tracer wraps radcube's public functions from outside the package: each
wrapped name is replaced in every module that bound it (for example both
`radcube.linalg.rank` and `radcube.modules.rank`), and methods are replaced
on their class.  A call records a span (name, start, end, parent span, job
id, attributes) in memory; `Tracer.write` dumps them as JSON lines when the
run ends.  Nothing inside `src/` changes.

Layers group spans for the per-layer metrics: the elimination entry points
(rref, rank, nullspace, solve, solve_matrix) all count as `linalg.elim`.  A
call made directly inside a span of its own layer gets no span of its own,
and busy time sums only a layer's outermost spans, so no time is counted
twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    job: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, layer: str, fn, attrs=None, skip=None):
        """A traced stand-in for fn.

        attrs(args, result) -> dict adds attributes to the span; skip(args)
        -> True calls fn without a span (used for cache hits).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if (stack and self.spans[stack[-1]].layer == layer) or (
                skip is not None and skip(args)
            ):
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = Span(name, layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.job)
            self.spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer, "job": s.job,
                    "parent": s.parent, "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def outermost(spans: list[Span], key) -> list[int]:
    """Indices of spans with no ancestor sharing key(span)."""
    out = []
    for i, s in enumerate(spans):
        k, p = key(s), s.parent
        while p >= 0 and key(spans[p]) != k:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


# -- what the traced run wraps -------------------------------------------

def _matrix_attrs(args, result):
    entries = nnz = 0
    for a in args:
        arr = getattr(a, "a", a)
        if isinstance(arr, np.ndarray):
            entries += arr.size
            nnz += int(np.count_nonzero(arr))
    return {"entries": entries, "nnz": nnz}


def _matmul_attrs(args, result):
    a, b = args
    return {"madds": a.rows * a.cols * b.cols}


def _kmatrix_attrs(args, result):
    return {"entries": result.a.size}


def _kmatrix_cached(args):
    return getattr(args[0], "_kmat", None) is not None


def _text_in(args, result):
    return {"bytes": len(args[0])}


def _text_out(args, result):
    return {"bytes": len(result)}


# (module, attribute, layer, attrs, skip).  Class attributes are written as
# "Class.method"; the span name is "<module tail>.<attribute>".
TARGETS = [
    ("radcube.linalg", "rref", "linalg.elim", _matrix_attrs, None),
    ("radcube.linalg", "rank", "linalg.elim", _matrix_attrs, None),
    ("radcube.linalg", "nullspace", "linalg.elim", _matrix_attrs, None),
    ("radcube.linalg", "solve", "linalg.elim", _matrix_attrs, None),
    ("radcube.linalg", "solve_matrix", "linalg.elim", _matrix_attrs, None),
    ("radcube.linalg", "Mat.__matmul__", "linalg.matmul", _matmul_attrs, None),
    ("radcube.rings", "build_from_quadrics", "rings.build", None, None),
    ("radcube.fileio", "parse_ring", "rings.build", None, None),
    ("radcube.rings", "RingPresentation.invariants", "rings.invariants", None, None),
    ("radcube.modules", "RModuleMap.k_matrix", "modules.k_matrix", _kmatrix_attrs, _kmatrix_cached),
    ("radcube.modules", "RModuleMap.composes_to_zero", "modules.composes_to_zero", None, None),
    ("radcube.modules", "resolve", "modules.resolve", None, None),
    ("radcube.modules", "syzygy_step", "modules.syzygy_step", None, None),
    ("radcube.modules", "ext_dims", "modules.ext_dims", None, None),
    ("radcube.modules", "coker_realize", "modules.coker_realize", None, None),
    ("radcube.modules", "k_summand_multiplicity", "modules.k_summand_multiplicity", None, None),
    ("radcube.modules", "star", "modules.star", None, None),
    ("radcube.complexes", "verify_window", "complexes.verify_window", None, None),
    ("radcube.complexes", "homology_of_dual", "complexes.homology_of_dual", None, None),
    ("radcube.complexes", "cokernels", "complexes.cokernels", None, None),
    ("radcube.complexes", "construct_from_module", "complexes.construct_from_module", None, None),
    ("radcube.theorems", "check_theorem_A", "theorems.check_theorem_A", None, None),
    ("radcube.theorems", "classify_theorem_B", "theorems.classify_theorem_B", None, None),
    ("radcube.theorems", "check_theorem_C", "theorems.check_theorem_C", None, None),
    ("radcube.fileio", "render_window", "fileio.render_window", _text_out, None),
    ("radcube.fileio", "parse_window", "fileio.parse_window", _text_in, None),
    ("radcube.cli", "main", "cli.main", None, None),
]


def install(tracer: Tracer):
    """Patch every target where it is bound; returns a function that undoes it."""
    undo = []
    loaded = [m for n, m in sorted(sys.modules.items()) if n == "radcube" or n.startswith("radcube.")]
    for modname, attr, layer, attrs, skip in TARGETS:
        owner = sys.modules[modname]
        name = modname.rsplit(".", 1)[-1] + "." + attr.rsplit(".", 1)[-1]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, layer, orig, attrs, skip))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, layer, orig, attrs, skip)
        for mod in loaded:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def uninstall():
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)

    return uninstall


# -- per-layer metrics ----------------------------------------------------

ELIM = "linalg.elim"
CALLS_SELF = [
    "modules.resolve", "modules.syzygy_step", "modules.ext_dims",
    "modules.coker_realize", "modules.k_summand_multiplicity",
    "modules.composes_to_zero", "modules.star",
]
CALLS_BUSY = [
    "complexes.verify_window", "complexes.homology_of_dual",
    "complexes.cokernels", "complexes.construct_from_module",
]
BUSY = [
    "theorems.check_theorem_A", "theorems.classify_theorem_B",
    "theorems.check_theorem_C", "rings.build", "rings.invariants",
]


def layer_metrics(spans: list[Span], run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as {name: (value, unit)}.

    Spans made while building the inputs (job "setup") count only towards
    rings.build, since the corpus builds its rings there.  busy_s sums the
    outermost spans of a layer; self_s subtracts the time child spans cover;
    run_s is the traced round's wall time, which the root spans of the jobs
    are compared against.
    """
    selfs = self_times(spans)
    outer = set(outermost(spans, lambda s: s.layer))
    by_layer: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s.job != "setup" or s.layer == "rings.build":
            by_layer.setdefault(s.layer, []).append(i)

    def idx(layer):
        return by_layer.get(layer, [])

    def calls(layer):
        return float(len(idx(layer)))

    def busy(layer):
        return sum(spans[i].duration for i in idx(layer) if i in outer)

    def self_s(layer):
        return sum(selfs[i] for i in idx(layer))

    def attr_sum(layer, key):
        return float(sum(spans[i].attrs.get(key, 0) for i in idx(layer)))

    m: dict[str, tuple[float, str]] = {}
    entries = attr_sum(ELIM, "entries")
    m["linalg.elim.calls"] = (calls(ELIM), "count")
    m["linalg.elim.busy_s"] = (busy(ELIM), "s")
    m["linalg.elim.entries"] = (entries, "count")
    m["linalg.elim.max_entries"] = (
        float(max((spans[i].attrs.get("entries", 0) for i in idx(ELIM)), default=0)), "count")
    m["linalg.elim.nnz_frac"] = (attr_sum(ELIM, "nnz") / entries if entries else 0.0, "fraction")
    m["linalg.matmul.calls"] = (calls("linalg.matmul"), "count")
    m["linalg.matmul.busy_s"] = (busy("linalg.matmul"), "s")
    m["linalg.matmul.madds"] = (attr_sum("linalg.matmul", "madds"), "count")
    m["modules.k_matrix.calls"] = (calls("modules.k_matrix"), "count")
    m["modules.k_matrix.busy_s"] = (busy("modules.k_matrix"), "s")
    m["modules.k_matrix.entries"] = (attr_sum("modules.k_matrix", "entries"), "count")
    for layer in CALLS_SELF:
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    for layer in CALLS_BUSY:
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.busy_s"] = (busy(layer), "s")
    for layer in BUSY:
        m[f"{layer}.busy_s"] = (busy(layer), "s")
    for layer in ("fileio.render_window", "fileio.parse_window"):
        m[f"{layer}.busy_s"] = (busy(layer), "s")
        m[f"{layer}.bytes"] = (attr_sum(layer, "bytes"), "bytes")
    m["cli.main.calls"] = (calls("cli.main"), "count")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    in_jobs = sum(s.duration for s in spans if s.parent < 0 and s.job != "setup")
    m["trace.covered_frac"] = (in_jobs / run_s if run_s else 0.0, "fraction")
    m["trace.spans"] = (float(len(spans)), "count")
    return m
