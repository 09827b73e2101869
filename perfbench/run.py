"""radcube benchmark: run one workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Each run is one fresh process.  It runs BLAS on one thread, imports
radcube from `src/` of the checkout, builds the workload's inputs from
`--seed`, and runs the jobs one after another.  A round is one pass over
the jobs; rounds repeat while another one still fits in `--seconds` of
round time, with fresh inputs each time, and the metrics are medians over
rounds (a job's latency is its median over rounds, percentiles are taken
over jobs).  Set-up is timed in this process and in fresh set-up-only
processes run between rounds and after the last one.  Every
job's output is checked against its oracle and, where pinned, against
pins.json.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it records
the environment.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` the
process runs one untraced round, then one round with radcube's public
functions wrapped (see tracing.py), and reports per-layer metrics; the
spans are written to perfbench/.work/.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before numpy and radcube load

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
SETUP_SAMPLES = 11  # this process plus ten set-up-only children
WORKLOADS = ("resolve-deep", "corpus", "windows")


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    all samples at or below it."""
    s = sorted(values)
    return s[max(1, math.ceil(q / 100 * len(s))) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def limit_blas_threads():
    """Run BLAS on one thread.

    On a shared two-core machine a second OpenBLAS thread made the
    resolve-deep round slower in wall time and its timings far noisier
    than one thread, so every run pins the count for comparable numbers.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "radcube", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    commit = None  # a benchmark checkout need not be a git repository
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(), "seed": seed, "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


def expected_pin(pins, workload, seed, job):
    table = pins.get(workload, {})
    key = "*" if job.pin == "fixed" else str(seed)
    return table.get(key, {}).get(job.name) if job.pin != "none" else None


def run_round(jobs, workload, seed, pins, tracer=None):
    """Run every job once; returns timings, failures and fingerprints."""
    outputs, latencies = [], []
    ru = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = ru.ru_utime + ru.ru_stime
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t = time.perf_counter()
        try:
            out, err = job.work(), None
        except Exception:  # a crashing job counts as failed; the run goes on
            out, err = None, traceback.format_exc()
        latencies.append(time.perf_counter() - t)
        outputs.append((out, err))
    wall = time.perf_counter() - start
    ru = resource.getrusage(resource.RUSAGE_SELF)
    cpu = ru.ru_utime + ru.ru_stime - cpu0
    failures, prints = {}, {}
    for job, (out, err) in zip(jobs, outputs):
        msgs = [err] if err else job.check(out)
        if not err:
            prints[job.name] = job.fingerprint(out)
            want = expected_pin(pins, workload, seed, job)
            if want is not None and want != prints[job.name]:
                msgs.append(f"output {prints[job.name]!r} differs from pinned {want!r}")
        if msgs:
            failures[job.name] = msgs
    return {"wall": wall, "cpu": cpu, "names": [j.name for j in jobs], "latencies": latencies,
            "failures": failures, "fingerprints": prints}


def digest(prints):
    return hashlib.sha256("\n".join(f"{k} {v}" for k, v in sorted(prints.items())).encode()).hexdigest()


def workdir(workload):
    path = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def setup_sample(args):
    """Set-up time of a fresh process that imports radcube and builds inputs."""
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload",
         args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if res.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {res.stderr.strip()}")
    return float(res.stdout.strip().splitlines()[-1])


def run_workload(args):
    import workloads

    wdir = workdir(args.workload)
    try:
        jobs = workloads.make(args.workload, args.seed, wdir)
        setup = time.perf_counter() - T0
        if args.setup_only:
            print(repr(setup))
            return 0
        env = environment(args.seed)
        pins = load_pins()
        rounds = [run_round(jobs, args.workload, args.seed, pins)]
        if args.trace:
            result = traced(args, rounds, wdir, pins)
        else:
            # Set-up samples are spread over the run, a few after every
            # round, because the machine's speed drifts over seconds and a
            # burst of samples would all see the same speed.
            setups = [setup]
            per_gap = math.ceil((SETUP_SAMPLES - 1) / max(1, args.seconds // rounds[0]["wall"]))
            while (sum(r["wall"] for r in rounds)
                   + statistics.median(r["wall"] for r in rounds) <= args.seconds):
                setups += [setup_sample(args) for _ in range(per_gap)]
                jobs = workloads.make(args.workload, args.seed, wdir)
                rounds.append(run_round(jobs, args.workload, args.seed, pins))
            while len(setups) < SETUP_SAMPLES:
                setups.append(setup_sample(args))
            result = end_to_end(rounds, setups)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
    failures = {}
    for r in result.pop("rounds"):
        for name, msgs in r["failures"].items():
            failures.setdefault(name, msgs)
    for name, msgs in sorted(failures.items()):
        print(f"FAILED {name}: {' | '.join(m.strip() for m in msgs)}", file=sys.stderr)
    record = {"workload": args.workload, "trace": args.trace, "environment": env, **result}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for key, m in result["metrics"].items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": env, "output_digest": result["output_digest"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def tally(rounds):
    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "output_digest": digest(rounds[0]["fingerprints"]), "rounds": rounds}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setups):
    """Medians over rounds.  A job's latency is its median over the rounds;
    the percentiles are taken over jobs, so they do not move with the
    number of rounds that fit in the run."""
    job_ms = {name: statistics.median(r["latencies"][i] * 1000 for r in rounds)
              for i, name in enumerate(rounds[0]["names"])}
    lat_ms = list(job_ms.values())
    out = tally(rounds)
    out["round_walls"] = [r["wall"] for r in rounds]
    out["setup_samples"] = setups
    out["job_ms"] = job_ms
    out["job_p90_samples_beyond"] = samples_beyond(len(lat_ms), 90)
    out["metrics"] = {
        "run_s": metric(statistics.median(r["wall"] for r in rounds), "s"),
        "cpu_s": metric(statistics.median(r["cpu"] for r in rounds), "s"),
        "job_p50_ms": metric(percentile(lat_ms, 50), "ms"),
        "job_p90_ms": metric(percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return out


def traced(args, rounds, wdir, pins):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        jobs = workloads.make(args.workload, args.seed, wdir)
        rounds.append(run_round(jobs, args.workload, args.seed, pins, tracer))
    finally:
        uninstall()
    plain, with_trace = rounds
    for name, value in plain["fingerprints"].items():
        if with_trace["fingerprints"].get(name, value) != value:
            with_trace["failures"].setdefault(name, []).append("traced output differs")
    out = tally(rounds)
    layers = tracing.layer_metrics(tracer.spans, with_trace["wall"])
    layers["trace.overhead_frac"] = (with_trace["wall"] / plain["wall"] - 1, "fraction")
    out["metrics"] = {k: metric(v, u) for k, (v, u) in layers.items()}
    tracer.write(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    return out


def run_all(args):
    """Every workload in its own fresh process; one table of end-to-end metrics."""
    results = {}
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"workload {name} exited with {res.returncode}", file=sys.stderr)
            return res.returncode
        results[name] = json.loads(res.stdout.strip().splitlines()[-1])
    print(f"{'workload':14s} {'metric':34s} {'value':>12s} unit")
    for name, res in results.items():
        print(f"{name:14s} {'failed_frac':34s} {res['failed'] / res['attempted']:12.4g} "
              f"of {res['attempted']} jobs")
        for key, m in res["metrics"].items():
            print(f"{name:14s} {key:34s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "radcube", "__init__.py")):
        print(f"error: no radcube sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
