import pytest
from hypothesis import example, given, settings, strategies as st

from radcube import cli
from radcube.catalog import CATALOG, resolve_module, resolve_ring, verify_catalog
from radcube.complexes import construct_from_module, verify_window
from radcube.errors import InputError, ParseError
from radcube.fileio import (
    parse_module,
    parse_ring,
    parse_window,
    render_module,
    render_window,
)
from radcube.modules import cyclic_presentation


RING_TEXT = """
# flagship ring
p = 5
vars = x, y, z
relations = x^2, x*y, y^2
relations = z^2
"""

EXPLICIT_TEXT = """
p = 5
e = 2
s = 1
mult = 1 2 1 1
"""


def test_parse_ring_quadric_form():
    ring = parse_ring(RING_TEXT)
    assert (ring.p, ring.e, ring.s) == (5, 3, 2)
    assert ring.var_names == ["x", "y", "z"]


def test_parse_ring_explicit_form():
    ring = parse_ring(EXPLICIT_TEXT)
    assert (ring.e, ring.s) == (2, 1)
    x, y = ring.gen("x1"), ring.gen("x2")
    assert x * y == ring.gen("u1")
    assert x * x == ring.zero()


def test_parse_ring_errors_carry_positions():
    with pytest.raises(ParseError, match="line 3"):
        parse_ring("p = 5\nvars = x, y\nrelations = x^2, x*w\n")
    with pytest.raises(ParseError, match="missing required field 'p'"):
        parse_ring("vars = x\n")
    with pytest.raises(ParseError, match="not both"):
        parse_ring("p = 5\nvars = x\ne = 1\ns = 1\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_ring("p = 5\ne = 2\ns = 1\nmult = 1 3 1 1\n")


def test_parse_ring_refuses_declared_sizes(tmp_path):
    # Each size is refused on its own line, before any array is allocated.
    for e, s, line in [(2, -1, 3), (0, 1, 2), (2, 4, 3), (2, 9999999999, 3), (200, 100, 3)]:
        text = f"p = 5\ne = {e}\ns = {s}\n"
        with pytest.raises(ParseError, match=f"line {line}"):
            parse_ring(text)
        path = tmp_path / "ring.txt"
        path.write_text(text)
        assert cli.main(["ring-info", str(path)]) == 2


def test_parse_module_roundtrip(R4):
    text = "rows = 1\ncols = 1\nmatrix =\nx + z\n"
    pres = parse_module(text, R4)
    assert pres == cyclic_presentation(R4, "x + z")
    assert render_module(pres) == text


def test_parse_module_errors(R4):
    with pytest.raises(ParseError, match="expected 2"):
        parse_module("rows = 1\ncols = 2\nmatrix =\nx\n", R4)
    with pytest.raises(ParseError, match="matrix rows"):
        parse_module("rows = 2\ncols = 1\nmatrix =\nx\n", R4)
    with pytest.raises(ParseError, match="bad entry"):
        parse_module("rows = 1\ncols = 1\nmatrix =\nw\n", R4)


WINDOW_TEXT = """lo = -1
hi = 1
ranks = 1, 1, 1
diff = 0
x + z
diff = 1
x + 4*z
"""


def test_parse_window(R4):
    w = parse_window(WINDOW_TEXT, R4)
    assert (w.lo, w.hi) == (-1, 1)
    rep = verify_window(R4, w)
    assert rep.composition_zero and rep.minimal


def test_window_roundtrip_byte_identical(R4):
    w = parse_window(WINDOW_TEXT, R4)
    assert render_window(w) == WINDOW_TEXT
    again = parse_window(render_window(w), R4)
    assert render_window(again) == WINDOW_TEXT


def test_constructed_window_roundtrip(R4):
    res = construct_from_module(R4, cyclic_presentation(R4, "x + z"), 3)
    text = render_window(res.window)
    w2 = parse_window(text, R4)
    assert render_window(w2) == text
    assert w2.ranks == res.window.ranks
    for i in range(w2.lo + 1, w2.hi + 1):
        assert w2.diff(i) == res.window.diff(i)


def test_parse_window_errors(R4):
    with pytest.raises(ParseError, match="lo < hi"):
        parse_window("lo = 1\nhi = 1\nranks = 1\n", R4)
    with pytest.raises(ParseError, match="ranks lists"):
        parse_window("lo = 0\nhi = 1\nranks = 1\n", R4)
    with pytest.raises(ParseError, match="expected 'diff = 1'"):
        parse_window("lo = 0\nhi = 2\nranks = 1, 1, 1\ndiff = 2\nx + z\n", R4)
    with pytest.raises(ParseError, match="missing differential"):
        parse_window("lo = 0\nhi = 2\nranks = 1, 1, 1\ndiff = 1\nx + z\n", R4)


def test_catalog_consistency():
    assert verify_catalog() == []


def test_catalog_resolution(tmp_path):
    ring = resolve_ring("R4")
    assert ring.e == 3
    ring2 = resolve_ring("catalog:R1")
    assert ring2.e == 2
    pres = resolve_module("R4/xpz", ring)
    assert (pres.nrows, pres.ncols) == (1, 1)
    path = tmp_path / "ring.txt"
    path.write_text(CATALOG["R4"].ring_text)
    assert resolve_ring(str(path)) == ring
    with pytest.raises(InputError):
        resolve_ring("NOPE")
    with pytest.raises(InputError):
        resolve_module("R4/nope", ring)


# Small templates of each format; fuzzed numbers are small or far beyond any
# size the machine could allocate, so a missing bound fails fast.
FUZZ_TEMPLATES = [
    ("ring", "p = {}\ne = {}\ns = {}\nmult = {} {} {} {}\nmult = 1 2 {} 3\n"),
    ("ring", "p = {}\nvars = x, y, z\nrelations = x^{}, {}*x*y, y^2 - {}*z^2\n"),
    ("module", "rows = {}\ncols = {}\nmatrix =\nx, {}*y\n{}*z, u{}\n"),
    ("module", "rows = {}\ncols = {}\n"),
    ("window", "lo = {}\nhi = {}\nranks = {}, {}, {}\ndiff = {}\nx + z\ndiff = {}\nx - {}*z\n"),
    ("window", "lo = {}\nhi = {}\nranks = {}, {}, {}\ndiff = {}\ndiff = {}\n"),
]
FUZZ_NUMBERS = st.integers(-2, 12) | st.sampled_from(
    [2**31 - 1, 2**31, 2**63, 10**12, 10**30, -(10**12)]
)


@settings(max_examples=150, deadline=None)
@example(FUZZ_TEMPLATES[2], [10**30, 0] + [0] * 6, 80, "", False)
@example(FUZZ_TEMPLATES[4], [0, 2, 0, 10**30, 0, 1, 2, 0], 80, "", False)
@example(FUZZ_TEMPLATES[4], [0, 2, 1, -1, 1, 1, 2, 0], 80, "", False)
@given(
    st.sampled_from(FUZZ_TEMPLATES),
    st.lists(FUZZ_NUMBERS, min_size=8, max_size=8),
    st.integers(0, 80),
    st.sampled_from(["", "=", ",", "#", "\n", "-", "x", "9", "*", "^"]),
    st.booleans(),
)
def test_parsers_fuzz_raise_only_input_errors(R4, tmp_path_factory, template, nums, at, char, cut):
    kind, fmt = template
    text = fmt.format(*nums[: fmt.count("{}")])
    text = text[:at] + char + text[at + cut :]
    try:
        if kind == "ring":
            parse_ring(text)
        elif kind == "module":
            parse_module(text, R4)
        else:
            parse_window(text, R4)
    except InputError:
        pass
    if kind == "ring":
        path = tmp_path_factory.mktemp("fuzz") / "ring.txt"
        path.write_text(text)
        assert cli.main(["ring-info", str(path)]) in (0, 1, 2)
