"""Record the outputs that pins.json pins, for the given seeds.

    python3 perfbench/pin.py --seeds 0-10

Runs every workload's jobs once per seed (untimed) on the current sources
and stores each job's fingerprint: jobs marked "fixed" under "*", jobs
marked "seed" under the seed.  Jobs marked "none" are not pinned.  A job
that fails its oracle is never pinned, and a fingerprint that differs from
one already in pins.json stops the script without writing anything: pins
change only by editing the file on purpose.
"""

import argparse
import json
import os
import shutil
import sys

import run


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 0-10 or 1,5,7")
    args = parser.parse_args(argv)
    run.limit_blas_threads()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import workloads

    pins = run.load_pins()
    for name in run.WORKLOADS:
        table = pins.setdefault(name, {})
        for seed in args.seeds:
            wdir = run.workdir(name)
            try:
                jobs = workloads.make(name, seed, wdir)
                result = run.run_round(jobs, name, seed, {})
            finally:
                shutil.rmtree(wdir, ignore_errors=True)
            if result["failures"]:
                print(f"{name} seed {seed}: not pinned, jobs fail: {result['failures']}",
                      file=sys.stderr)
                return 1
            for job in jobs:
                if job.pin == "none":
                    continue
                key = "*" if job.pin == "fixed" else str(seed)
                new = result["fingerprints"][job.name]
                old = table.setdefault(key, {}).setdefault(job.name, new)
                if old != new:
                    print(f"{name} seed {seed} {job.name}: {new!r} differs from pinned {old!r}",
                          file=sys.stderr)
                    return 1
            if all(job.pin == "fixed" for job in jobs):
                break  # the outputs do not depend on the seed
            print(f"pinned {name} seed {seed}", file=sys.stderr)
    with open(os.path.join(run.HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
