import json

import radcube.cli
import radcube.complexes
import radcube.modules
import radcube.theorems
from radcube.catalog import resolve_ring
from radcube.cli import main
from radcube.modules import k_presentation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_info_catalog(capsys):
    code, out, _ = run(capsys, "ring-info", "R4")
    assert code == 0
    assert "e          = 3" in out
    assert "r          = 2" in out
    assert "Gorenstein = no" in out
    assert "Soc = m^2  = yes" in out


def test_ring_info_list(capsys):
    code, out, _ = run(capsys, "ring-info")
    assert code == 0
    for name in ("R1", "R2", "R3", "R3G", "R4", "RS"):
        assert name in out


def test_ring_info_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ring"
    bad.write_text("p = 5\nvars = x, y\nrelations = x^2 + q\n")
    code, _, err = run(capsys, "ring-info", str(bad))
    assert code == 2
    assert "line 3" in err


def test_ring_info_bad_numbers_exit_cleanly(tmp_path, capsys):
    # A composite modulus is refused as bad input; a coefficient beyond
    # int64 is reduced mod p like any other.
    for text, want in (
        ("p = 6\nvars = x, y\nrelations = x^2, y^2\n", 2),
        ("p = 5\nvars = x, y\nrelations = 99999999999999999999*x^2, y^2\n", 0),
    ):
        ring_file = tmp_path / "r.ring"
        ring_file.write_text(text)
        code, _, err = run(capsys, "ring-info", str(ring_file))
        assert code == want
        assert "Traceback" not in err
        assert want == 0 or err.startswith("error: modulus 6 is not prime")


def test_resolve_periodic(capsys):
    code, out, _ = run(capsys, "resolve", "R4", "R4/xpz", "--steps", "6", "--ext")
    assert code == 0
    assert "beta: 1 1 1 1 1 1 1" in out
    assert "ext:  3 0 0 0 0 0 0" in out


def test_resolve_k(capsys):
    code, out, _ = run(capsys, "resolve", "R1", "R1/k", "--steps", "6")
    assert code == 0
    assert "beta: 1 2 3 4 5 6 7" in out


def test_resolve_autominimalize(tmp_path, capsys):
    mod = tmp_path / "m.mod"
    mod.write_text("rows = 2\ncols = 2\nmatrix =\n1, x\ny, u1\n")
    code, out, _ = run(capsys, "resolve", "R1", str(mod), "--steps", "2")
    assert code == 0
    assert "minimalized" in out


def test_resolve_redundant_columns_refused(tmp_path, capsys):
    # [x, x] has beta_1 = 1, not 2: refuse before printing any Betti line.
    mod = tmp_path / "xx.mod"
    mod.write_text("rows = 1\ncols = 2\nmatrix =\nx, x\n")
    for extra in ([], ["--ext"]):
        code, out, err = run(capsys, "resolve", "R4", str(mod), "--steps", "1", *extra)
        assert code == 2
        assert "beta:" not in out
        assert "minimally generate" in err


def test_construct_and_check_roundtrip(tmp_path, capsys):
    wfile = tmp_path / "w.window"
    code, out, _ = run(
        capsys, "construct", "R4", "R4/xpz", "--half-window", "4", "--out", str(wfile)
    )
    assert code == 0
    assert "acyclic on window" in out
    assert "dual homology zero on window" in out
    first = wfile.read_text()

    code, out, _ = run(
        capsys, "check", "R4", str(wfile), "--theorems", "A,B,C", "--depth", "4",
        "--report", str(tmp_path / "report.json"),
    )
    assert code == 0
    assert "type I on window" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["theorems"]["A"]["hypothesis_met"] is True
    assert doc["theorems"]["B"]["type"] == "I"

    # Writing the same construction again is byte-identical.
    code, _, _ = run(
        capsys, "construct", "R4", "R4/xpz", "--half-window", "4", "--out", str(wfile)
    )
    assert code == 0
    assert wfile.read_text() == first


def test_check_analyses_each_window_once(tmp_path, capsys, monkeypatch):
    wfile = tmp_path / "w.window"
    code, _, _ = run(
        capsys, "construct", "R4", "R4/xpz", "--half-window", "4", "--out", str(wfile)
    )
    assert code == 0
    kpres = k_presentation(resolve_ring("R4"))
    calls = {"verify_window": 0, "homology_of_dual": 0, "resolve": 0}

    def counted(name, fn):
        def wrapper(ring, arg, *rest, **kwargs):
            if name != "resolve" or arg == kpres:
                calls[name] += 1
            return fn(ring, arg, *rest, **kwargs)

        return wrapper

    # Patch every module that binds the name, so no call escapes the count.
    for name in calls:
        for mod in (radcube.cli, radcube.complexes, radcube.modules, radcube.theorems):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counted(name, vars(mod)[name]))
    code, out, _ = run(
        capsys, "check", "R4", str(wfile), "--theorems", "A,B,C", "--depth", "4"
    )
    assert code == 0
    assert "[pass] d: I_R" in out
    assert calls == {"verify_window": 1, "homology_of_dual": 1, "resolve": 1}


def test_construct_refusal(capsys):
    code, _, err = run(capsys, "construct", "R4", "R4/k", "--half-window", "3")
    assert code == 2
    assert "Ext^1 != 0 (dim 3)" in err


def test_check_gorenstein_hypothesis(tmp_path, capsys):
    wfile = tmp_path / "w.window"
    code, _, _ = run(
        capsys, "construct", "R1", "R1/x", "--half-window", "3", "--out", str(wfile)
    )
    assert code == 0
    code, out, _ = run(capsys, "check", "R1", str(wfile))
    assert code == 2
    assert "Gorenstein" in out


def test_check_corrupted_window(tmp_path, capsys):
    wfile = tmp_path / "bad.window"
    wfile.write_text(
        "lo = -1\nhi = 1\nranks = 1, 1, 1\ndiff = 0\nx + z\ndiff = 1\nx + z\n"
    )
    code, out, _ = run(capsys, "check", "R4", str(wfile), "--theorems", "A")
    assert code == 2
    assert "d o d = 0: NO" in out


def test_recursion_classify(capsys):
    code, out, _ = run(capsys, "recursion", "--e", "3", "--r", "2")
    assert code == 0
    assert "ConstantOnly" in out


def test_recursion_search_agreement(capsys):
    code, out, _ = run(
        capsys, "recursion", "--e", "4", "--r", "2", "--search", "12", "40"
    )
    assert code == 0
    assert "NoSequence" in out
    assert "0 prefix(es)" in out
    assert "AGREE" in out


def test_recursion_guard(capsys):
    code, _, err = run(capsys, "recursion", "--e", "3", "--r", "1")
    assert code == 2
    assert "r > 1" in err


def test_depth_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RADCUBE_DEPTH", "3")
    code, out, _ = run(capsys, "resolve", "R1", "R1/k")
    assert code == 0
    assert "beta: 1 2 3 4" in out  # depth 3 -> four Betti numbers
