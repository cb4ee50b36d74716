#!/usr/bin/env python3
"""Host sim-rate benchmark of the ZeroDEV simulator.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator library from src/ plus the perfbench
driver) into .bench_build/ at the repository root, then measures one
workload (or, with "all", each in turn) for about S seconds:

  --trace 0  repeats the untraced workload, one process per repetition,
             and reports the end-to-end metrics (medians over repetitions);
  --trace 1  repeats the traced run (the outside-in per-layer ledger of
             perfbench/ledger.cc) and reports the per-layer metrics.

Every repetition is checked: it fails when its process exits non-zero,
when its simulated digest differs from any other run of the same
workload and seed (this invocation's or an earlier one's, traced or
not), when a workload-shape guard or a traced-run self-check trips, or
when the fuzz workload diverges. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Metric names and
units come from BENCHMARK.json; perfbench/design.json records why each
workload exists, the layers it loads and bypasses, and which end-to-end
metric each layer metric moves.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Fixed work of one repetition: accesses per core for the generator
# workloads, fuzz-stream records for fuzz-lockstep (a multiple of the
# 10000-record checkpoint cadence, so the final checkpoint lands on the
# last record). Each takes about a second on a 2020s server core.
WORK = {"rate-hits": 500000, "zdev-dirspill": 200000, "fuzz-lockstep": 40000}

MIN_REPS = 3
# Every process measuring one workload must have ended by then (seconds
# after its start), leaving margin below the 180 s budget of a run.
DEADLINE_S = 170.0
# The traced run's layers must account for this share of its wall time.
MIN_LAYER_COVERAGE = 0.95


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cmp_system.hh")):
        raise BenchError("simulator sources (src/) not found under " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return os.environ.get("ZERODEV_COMMIT", "unknown")


def stamp():
    """Build fingerprint of the results, with warnings for builds whose
    numbers are not comparable to a performance build."""
    out = subprocess.run([BINARY, "stamp"], capture_output=True, text=True,
                         timeout=30)
    if out.returncode != 0:
        raise BenchError("perfbench stamp failed")
    s = json.loads(out.stdout)
    s["commit"] = commit()
    s["nproc"] = len(os.sched_getaffinity(0))
    flags = []
    if not s["optimized"] or s["build_type"] not in ("Release",
                                                     "RelWithDebInfo"):
        flags.append("not an optimised build")
    if s["ZERODEV_ASSERTS"]:
        flags.append("ZERODEV_ASSERTS on")
    s["flags"] = flags
    return s


def binary_id():
    h = hashlib.sha1()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


class DigestBook:
    """The simulated digest every run of one workload, seed and binary
    must reproduce, kept across invocations under .bench_build/."""

    def __init__(self, workload, seed):
        d = os.path.join(ROOT, ".bench_build", "digests", binary_id())
        os.makedirs(d, exist_ok=True)
        self.path = os.path.join(d, "%s-%d-%d.txt"
                                 % (workload, seed, WORK[workload]))
        self.expected = None
        if os.path.isfile(self.path):
            with open(self.path) as f:
                self.expected = f.read().strip() or None

    def check(self, digest):
        if self.expected is None:
            self.expected = digest
            with open(self.path, "w") as f:
                f.write(digest + "\n")
        return digest == self.expected


def child(mode, workload, seed, deadline):
    """One perfbench process; returns (parsed JSON or None, error)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left before the deadline"
    cmd = [BINARY, mode, workload, str(seed), str(WORK[workload])]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if out.returncode != 0:
        return None, "exit %d: %s" % (out.returncode, out.stderr.strip()[-300:])
    try:
        return json.loads(out.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "unparsable output"


def repeat(mode, workload, seed, book, deadline, seconds, min_reps):
    """Repeat one kind of process until @seconds have been measured, at
    least @min_reps times; returns (good results, attempted, failed)."""
    good, attempted, failed = [], 0, 0
    t0 = time.monotonic()
    last = 0.0
    while attempted < min_reps or time.monotonic() - t0 < seconds:
        # Stop early rather than overrun the deadline with a repetition
        # that cannot finish.
        if attempted >= min_reps and time.monotonic() + last > deadline:
            break
        start = time.monotonic()
        res, err = child(mode, workload, seed, deadline)
        last = time.monotonic() - start
        attempted += 1
        if res is not None:
            err = res.get("problem", "")
            if not err and not book.check(res["digest"]):
                err = "digest %s differs from %s" % (res["digest"],
                                                     book.expected)
            cov = res.get("sim.layer_coverage")
            if not err and cov is not None and cov < MIN_LAYER_COVERAGE:
                err = "layers cover only %.3f of the traced wall" % cov
        if err:
            failed += 1
            log("%s %s seed %d: FAILED: %s" % (mode, workload, seed, err))
        else:
            good.append(res)
        if time.monotonic() > deadline:
            break
    return good, attempted, failed


def med(values):
    return statistics.median(values) if values else 0.0


def end_to_end(good):
    return {
        "sim_rate_maccess_s": med([r["accesses"] / r["wall_s"] / 1e6
                                   for r in good]),
        "setup_s": med([r["setup_s"] for r in good]),
        "peak_rss_mib": med([r["peak_rss_kib"] / 1024.0 for r in good]),
    }


def per_layer(good, names):
    # A layer the workload does not exercise reads 0.
    return {n: med([r[n] for r in good if n in r]) for n in names}


def measure(workload, args, spec, stamped):
    """One workload's invocation: repetitions, checks, printed table and
    the stamped results file; returns the result object."""
    deadline = time.monotonic() + DEADLINE_S
    book = DigestBook(workload, args.seed)
    if args.trace:
        # One untraced repetition anchors the digest the traced passes
        # must reproduce, then the traced run repeats.
        _, attempted, failed = repeat("run", workload, args.seed, book,
                                      deadline, 0, 1)
        good, a, f = repeat("trace", workload, args.seed, book, deadline,
                            args.seconds, 1)
        attempted, failed = attempted + a, failed + f
        listed = spec["per_layer"]
        values = per_layer(good, [m["name"] for m in listed])
    else:
        good, attempted, failed = repeat("run", workload, args.seed, book,
                                         deadline, args.seconds, MIN_REPS)
        listed = spec["end_to_end"]
        values = end_to_end(good)

    print("%s seed %d: %d runs, %d failed" % (workload, args.seed,
                                               attempted, failed))
    print("  %-44s %14.6g %s" % ("failed_frac", failed / attempted, "frac"))
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("  %-44s %14.6g %s" % (m["name"], values[m["name"]],
                                      m["unit"]))
    result = {"correct": failed == 0 and bool(good),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump({"stamp": stamped, "workload": workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "work": WORK[workload], "result": result,
                   "repetitions": good}, f, indent=1)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORK) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    stamped = stamp()
    print("stamp: " + json.dumps(stamped, sort_keys=True))
    for flag in stamped["flags"]:
        print("WARNING: %s; these figures are not comparable to a "
              "performance build" % flag)

    if args.workload != "all":
        print(json.dumps(measure(args.workload, args, spec, stamped)))
        return 0
    # Every workload in turn; metric names gain a workload prefix.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in sorted(WORK):
        r = measure(w, args, spec, stamped)
        total["correct"] = total["correct"] and r["correct"]
        total["attempted"] += r["attempted"]
        total["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            total["metrics"][w + "." + name] = m
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: " + str(e))
        sys.exit(1)
