"""Text formats for rings, module presentations, and complex windows.

All three formats are line-based `key = value` documents.  `#` starts a
comment anywhere; blank lines are ignored.  Parse errors carry 1-based
line (and column, for expression errors) positions.

Ring file -- either quadric form or explicit structure constants::

    p = 5
    vars = x, y, z
    relations = x^2, x*y          # keys may repeat; lists accumulate
    relations = y^2 - z^2

    p = 5
    e = 2
    s = 1
    mult = 1 2 1 1                # c[i][j][t] = v, 1-based, i <= j

In quadric form the degree-2 basis gets names u1..us (their monomial
meaning is reported by ring-info); in explicit form unspecified triples
are zero and symmetry is filled in automatically.

Module file -- a presentation matrix, row-major, dimensions explicit::

    rows = 1
    cols = 2
    matrix =
    x, y

Entries are linear combinations of 1, the variables and the u-names, e.g.
``x + 2*z``, ``3*u1``, ``0``.  Exactly `rows` matrix lines follow, each
with `cols` comma-separated entries.

Window file -- ranks b_lo..b_hi then one block per differential::

    lo = -1
    hi = 1
    ranks = 1, 1, 1
    diff = 0
    x + z
    diff = 1
    x - z

``diff = i`` introduces d_i : A_i -> A_{i-1} and is followed by b_{i-1}
rows of b_i entries; every i in lo+1..hi must appear, in increasing
order.  `render_window` writes this format back canonically, so windows
round-trip byte for byte.
"""

from __future__ import annotations

import numpy as np

from .complexes import ChainWindow
from .errors import ParseError
from .modules import RModuleMap
from .rings import (
    RingElement,
    RingPresentation,
    build_from_quadrics,
    parse_element,
)

__all__ = [
    "parse_ring",
    "parse_module",
    "parse_window",
    "render_window",
    "render_module",
]


# Declared sizes (e and s of the explicit ring form, module rows and cols,
# window ranks) are not counted from the text; each, and e*e*s, is bounded
# before numpy allocates: 2^20 lies far beyond desk scale (8 MiB of int64).
_MAX_DECLARED = 1 << 20


def _scan(text: str):
    """Yield (lineno, content) for significant lines, comments stripped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            out.append((lineno, content))
    return out


def _split_kv(lineno: int, content: str):
    if "=" not in content:
        raise ParseError(f"expected 'key = value', got {content!r}", line=lineno)
    key, value = content.split("=", 1)
    return key.strip(), value.strip()


def _parse_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def parse_ring(text: str) -> RingPresentation:
    """Parse a ring file (quadric or structure-constant form)."""
    fields: dict[str, list[tuple[int, str]]] = {}
    for lineno, content in _scan(text):
        key, value = _split_kv(lineno, content)
        fields.setdefault(key, []).append((lineno, value))

    def single(key: str, required: bool = False) -> tuple[int, str] | None:
        vals = fields.get(key)
        if not vals:
            if required:
                raise ParseError(f"missing required field {key!r}", line=1)
            return None
        if len(vals) > 1:
            raise ParseError(f"field {key!r} given more than once", line=vals[1][0])
        return vals[0]

    pline = single("p", required=True)
    try:
        p = int(pline[1])
    except ValueError:
        raise ParseError(f"p must be an integer, got {pline[1]!r}", line=pline[0])

    has_vars = "vars" in fields
    has_explicit = "e" in fields or "s" in fields or "mult" in fields
    if has_vars and has_explicit:
        raise ParseError(
            "give either vars/relations or e/s/mult, not both", line=pline[0]
        )
    if has_vars:
        vline = single("vars")
        names = _parse_list(vline[1])
        if not names:
            raise ParseError("vars list is empty", line=vline[0])
        from .rings import parse_quadric

        quadrics: list[str] = []
        for lineno, value in fields.get("relations", []):
            for q in _parse_list(value):
                try:
                    parse_quadric(q, names, p)
                except ParseError as exc:
                    raise ParseError(
                        f"bad relation {q!r}: {exc.args[0]}", line=lineno, col=exc.col
                    )
                quadrics.append(q)
        return build_from_quadrics(p, names, quadrics)
    if not has_explicit:
        raise ParseError("need either vars/relations or e/s/mult", line=pline[0])
    eline = single("e", required=True)
    sline = single("s", required=True)
    try:
        e, s = int(eline[1]), int(sline[1])
    except ValueError:
        raise ParseError("e and s must be integers", line=eline[0])
    if e < 1:
        raise ParseError(f"need e >= 1, got {e}", line=eline[0])
    if not 1 <= s <= e * (e + 1) // 2:
        raise ParseError(f"need 1 <= s <= e(e+1)/2 = {e * (e + 1) // 2}, got {s}", line=sline[0])
    if e * e * s > _MAX_DECLARED:
        raise ParseError(f"too many structure constants: e*e*s = {e * e * s}", line=sline[0])
    c = np.zeros((e, e, s), dtype=np.int64)
    for lineno, value in fields.get("mult", []):
        parts = value.split()
        if len(parts) != 4:
            raise ParseError(
                f"mult needs 'i j t v' (got {value!r})", line=lineno
            )
        try:
            i, j, t, v = (int(x) for x in parts)
        except ValueError:
            raise ParseError(f"mult entries must be integers: {value!r}", line=lineno)
        if not (1 <= i <= e and 1 <= j <= e and 1 <= t <= s):
            raise ParseError(
                f"mult indices out of range (e={e}, s={s}): {value!r}", line=lineno
            )
        c[i - 1, j - 1, t - 1] = v % p
        c[j - 1, i - 1, t - 1] = v % p
    return RingPresentation(p, e, s, c)


def _parse_entry_row(
    ring: RingPresentation, lineno: int, content: str, expected: int
) -> list[RingElement]:
    parts = content.split(",")
    if len(parts) != expected:
        raise ParseError(
            f"expected {expected} comma-separated entries, got {len(parts)}",
            line=lineno,
        )
    row = []
    for part in parts:
        try:
            row.append(parse_element(ring, part))
        except ParseError as exc:
            raise ParseError(f"bad entry {part.strip()!r}: {exc.args[0]}", line=lineno)
    return row


def parse_module(text: str, ring: RingPresentation) -> RModuleMap:
    """Parse a module presentation file over an already loaded ring."""
    lines = _scan(text)
    header: dict[str, int] = {}
    idx = 0
    matrix_line = None
    while idx < len(lines):
        lineno, content = lines[idx]
        key, value = _split_kv(lineno, content)
        idx += 1
        if key == "matrix":
            if value:
                raise ParseError("matrix rows start on the following lines", line=lineno)
            matrix_line = lineno
            break
        if key not in ("rows", "cols"):
            raise ParseError(f"unknown module field {key!r}", line=lineno)
        try:
            header[key] = int(value)
        except ValueError:
            raise ParseError(f"{key} must be an integer, got {value!r}", line=lineno)
    for key in ("rows", "cols"):
        if key not in header:
            raise ParseError(f"missing required field {key!r}", line=1)
    rows, cols = header["rows"], header["cols"]
    if not (0 <= rows <= _MAX_DECLARED and 0 <= cols <= _MAX_DECLARED):
        raise ParseError(f"rows and cols must lie in [0, {_MAX_DECLARED}]", line=1)
    body = lines[idx:]
    if rows > 0 and cols > 0:
        if matrix_line is None:
            raise ParseError("missing 'matrix =' block", line=1)
        if len(body) != rows:
            raise ParseError(
                f"expected {rows} matrix rows, found {len(body)}",
                line=body[-1][0] if body else matrix_line,
            )
        data = [
            _parse_entry_row(ring, lineno, content, cols) for lineno, content in body
        ]
        return RModuleMap.from_entries(ring, data)
    if body:
        raise ParseError("matrix block not allowed when rows or cols is 0", line=body[0][0])
    return RModuleMap.zeros(ring, rows, cols)


def parse_window(text: str, ring: RingPresentation) -> ChainWindow:
    """Parse a complex-window file over an already loaded ring."""
    lines = _scan(text)
    header: dict[str, object] = {}
    idx = 0
    while idx < len(lines):
        lineno, content = lines[idx]
        key, value = _split_kv(lineno, content)
        if key == "diff":
            break
        idx += 1
        if key in ("lo", "hi"):
            try:
                header[key] = int(value)
            except ValueError:
                raise ParseError(f"{key} must be an integer", line=lineno)
        elif key == "ranks":
            try:
                header["ranks"] = [int(x) for x in _parse_list(value)]
            except ValueError:
                raise ParseError("ranks must be integers", line=lineno)
        else:
            raise ParseError(f"unknown window field {key!r}", line=lineno)
    for key in ("lo", "hi", "ranks"):
        if key not in header:
            raise ParseError(f"missing required field {key!r}", line=1)
    lo, hi, ranks = header["lo"], header["hi"], header["ranks"]
    if hi <= lo:
        raise ParseError(f"need lo < hi, got [{lo},{hi}]", line=1)
    if not all(0 <= b <= _MAX_DECLARED for b in ranks):
        raise ParseError(f"ranks must lie in [0, {_MAX_DECLARED}]", line=1)
    if len(ranks) != hi - lo + 1:
        raise ParseError(
            f"ranks lists {len(ranks)} values for window [{lo},{hi}] "
            f"({hi - lo + 1} positions)",
            line=1,
        )
    diffs = []
    expected = lo + 1
    while idx < len(lines):
        lineno, content = lines[idx]
        key, value = _split_kv(lineno, content)
        if key != "diff":
            raise ParseError(f"expected 'diff = {expected}', got {content!r}", line=lineno)
        try:
            deg = int(value)
        except ValueError:
            raise ParseError(f"diff degree must be an integer, got {value!r}", line=lineno)
        if deg != expected:
            raise ParseError(f"expected 'diff = {expected}', got degree {deg}", line=lineno)
        if deg > hi:
            raise ParseError(f"diff degree {deg} beyond hi = {hi}", line=lineno)
        idx += 1
        nrows = ranks[deg - 1 - lo]
        ncols = ranks[deg - lo]
        body = lines[idx : idx + nrows]
        if len(body) < nrows:
            raise ParseError(
                f"diff {deg} needs {nrows} rows, found {len(body)}", line=lineno
            )
        data = [
            _parse_entry_row(ring, rl, rc, ncols) for rl, rc in body
        ]
        idx += nrows
        if nrows == 0 or ncols == 0:
            diffs.append(RModuleMap.zeros(ring, nrows, ncols))
        else:
            diffs.append(RModuleMap.from_entries(ring, data))
        expected += 1
    if expected != hi + 1:
        raise ParseError(
            f"missing differential 'diff = {expected}'",
            line=lines[-1][0] if lines else 1,
        )
    return ChainWindow(ring, lo, ranks, diffs)


def render_module(pres: RModuleMap) -> str:
    """Canonical text form of a presentation matrix."""
    lines = [f"rows = {pres.nrows}", f"cols = {pres.ncols}"]
    if pres.nrows > 0 and pres.ncols > 0:
        lines.append("matrix =")
        for i in range(pres.nrows):
            lines.append(", ".join(str(pres.entry(i, j)) for j in range(pres.ncols)))
    return "\n".join(lines) + "\n"


def render_window(w: ChainWindow) -> str:
    """Canonical text form of a window; stable under parse/render cycles."""
    lines = [
        f"lo = {w.lo}",
        f"hi = {w.hi}",
        "ranks = " + ", ".join(str(b) for b in w.ranks),
    ]
    for i in range(w.lo + 1, w.hi + 1):
        lines.append(f"diff = {i}")
        d = w.diff(i)
        for row in range(d.nrows):
            lines.append(", ".join(str(d.entry(row, j)) for j in range(d.ncols)))
    return "\n".join(lines) + "\n"
