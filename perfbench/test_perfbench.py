"""Fast tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import radcube.linalg  # noqa: E402  (needs src/ on the path)
import radcube.modules  # noqa: E402
import workloads  # noqa: E402


def test_percentile_is_nearest_rank():
    assert run.percentile([3.0], 50) == 3.0
    assert run.percentile([2.0, 1.0], 50) == 1.0
    assert run.percentile([2.0, 1.0], 90) == 2.0
    values = list(range(1, 181))
    assert run.percentile(values, 50) == 90
    assert run.percentile(values, 90) == 162
    assert run.percentile(values, 100) == 180


def test_samples_beyond_the_percentile():
    assert run.samples_beyond(180, 90) == 18
    assert run.samples_beyond(180, 95) == 9
    assert run.samples_beyond(17, 50) == 8


def span(name, start, end, parent, layer=None, job="job"):
    return tracing.Span(name, layer or name, start, end, parent, job)


def test_self_time_subtracts_child_coverage():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("a-child", 1.5, 2.0, 1),
        span("b", 5.0, 6.0, 0),
        span("b-overlap", 5.5, 7.0, 0),  # overlaps b and runs past it
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 2.0 - 2.0, 1.5, 0.5, 1.0, 1.5])


def test_busy_counts_nested_spans_of_a_layer_once():
    spans = [
        span("linalg.rank", 0.0, 4.0, -1, "linalg.elim"),
        span("modules.k_matrix", 1.0, 2.0, 0),
        span("linalg.rref", 1.2, 1.8, 1, "linalg.elim"),
        span("linalg.nullspace", 5.0, 6.0, -1, "linalg.elim"),
        span("rings.build_from_quadrics", -2.0, -1.5, -1, "rings.build", job="setup"),
        span("linalg.rref", -1.0, -0.5, -1, "linalg.elim", job="setup"),
    ]
    assert tracing.outermost(spans, lambda s: s.layer) == [0, 1, 3, 4, 5]
    m = tracing.layer_metrics(spans, run_s=8.0)
    assert m["linalg.elim.calls"][0] == 3  # the set-up span is left out
    assert m["linalg.elim.busy_s"][0] == pytest.approx(5.0)
    assert m["rings.build.busy_s"][0] == pytest.approx(0.5)
    assert m["trace.covered_frac"][0] == pytest.approx(5.0 / 8.0)


def test_tracing_does_not_change_outputs():
    plain = run.run_round(workloads.corpus_jobs(3, rings=4), "corpus", 3, {})
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        with_trace = run.run_round(workloads.corpus_jobs(3, rings=4), "corpus", 3, {}, tracer)
    finally:
        uninstall()
    assert not plain["failures"] and not with_trace["failures"]
    assert run.digest(plain["fingerprints"]) == run.digest(with_trace["fingerprints"])
    layers = {s.layer for s in tracer.spans}
    assert {"linalg.elim", "modules.resolve", "modules.coker_realize"} <= layers
    assert radcube.modules.rank is radcube.linalg.rank  # patches undone


def test_windows_jobs_meet_their_oracles(tmp_path):
    jobs = workloads.windows_jobs(5, str(tmp_path))
    slow = {"check-R4/xpz", "check-R4/xmz", "check-sum"}
    jobs = [j for j in jobs if j.name not in slow]
    result = run.run_round(jobs, "windows", 5, {})
    assert not result["failures"]


def test_checkout_without_sources_fails(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    res = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "corpus"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
