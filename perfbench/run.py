#!/usr/bin/env python3
"""perfbench: the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload build|serve|monitor --seed N \
        --seconds S --trace 0|1 [--query-seed N] [--mobility-seed N]
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The script builds perfbench/geobench.exe
from source with dune (build directory .bench_build), runs trials of the
workload for --seconds seconds, checks every trial's outputs, prints each
metric by name with its unit, then a stamped record line, and as its last
line one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  The exit code is 1 when an output check fails and 2 when
the program cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "geobench.exe")

# Seed kept out of every tuning run: a claimed gain is confirmed on it.
HELD_OUT_SEED = 900001

# A run must end within 180 s (plus the build on a fresh checkout); a
# trial still running at this many seconds past the build is killed.
DEADLINE_S = 160.0

WORKLOADS = ("build", "serve", "monitor")

# What the generic end-to-end names measure on each workload, under the
# names the workload's own documentation uses.
ALIASES = {
    "build": {"wall_s": "build_s", "peak_mb": "build_peak_mb"},
    "serve": {"wall_s": "serve_pass_s"},
    "monitor": {"wall_s": "monitor_round_s"},
}


class BenchError(Exception):
    """The benchmark could not build or run its program."""


def metric_lists():
    """(end-to-end, per-layer) [(name, unit)] lists from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return tuple([(m["name"], m["unit"]) for m in spec[key]]
                     for key in ("end_to_end", "per_layer"))
    except (OSError, ValueError, KeyError) as exn:
        raise BenchError(f"cannot read BENCHMARK.json: {exn}")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--profile", "release", "-j", "2", "--display", "quiet",
        "./perfbench/geobench.exe",
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=870)
    except (OSError, subprocess.TimeoutExpired) as exn:
        raise BenchError(f"cannot run dune: {exn}")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError(f"dune build failed with exit code {proc.returncode}")


def git_commit():
    """The checkout's commit read from .git without leaving the checkout,
    or "unknown" outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def trial(args, seconds, traced, small=False, perturb=None, deadline=None):
    """Runs one trial; returns (record, exit code, peak RSS in MB)."""
    cmd = [
        EXE, args.workload, "--seed", str(args.seed),
        "--query-seed", str(args.query_seed),
        "--mobility-seed", str(args.mobility_seed),
        "--seconds", repr(max(seconds, 0.1)), "--trace", "1" if traced else "0",
    ]
    if small:
        cmd.append("--small")
    if perturb:
        cmd += ["--perturb", perturb]
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr)
    except OSError as exn:
        raise BenchError(f"cannot start {EXE}: {exn}")
    budget = (deadline - time.monotonic()) if deadline else DEADLINE_S
    watchdog = threading.Timer(max(budget, 1.0), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read().decode()
        proc.stdout.close()
        # wait4 rather than wait: it returns this child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(
            f"trial exited with code {proc.returncode} and no record")
    return record, proc.returncode, usage.ru_maxrss / 1024.0


def median(xs):
    return statistics.median(xs) if xs else None


def aggregate(records, peaks):
    """Folds trial records into one value per name: the median of every
    sample of that name over all trials."""
    samples = {}
    for rec in records:
        for k, xs in rec["samples"].items():
            samples.setdefault(k, []).extend(x for x in xs if x is not None)
    out = {k: median(v) for k, v in samples.items() if v}
    out["peak_mb"] = median(peaks)
    return out


def run(args):
    end_to_end, per_layer = metric_lists()
    build()
    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    records, peaks, codes = [], [], []
    while True:
        left = args.seconds - (time.monotonic() - t0)
        rec, code, peak = trial(args, left, args.trace == 1,
                                deadline=deadline)
        records.append(rec)
        peaks.append(peak)
        codes.append(code)
        # a traced trial spends the whole budget itself
        if args.trace == 1 or time.monotonic() - t0 >= args.seconds:
            break
    units = dict(end_to_end + per_layer)
    metrics = aggregate(records, peaks)
    checks = {}
    for rec in records:
        for c in rec["checks"]:
            prev = checks.get(c["name"])
            if prev is None or (prev["ok"] and not c["ok"]):
                checks[c["name"]] = c
    correct = all(c["ok"] for c in checks.values()) and all(
        code == 0 for code in codes)
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)

    names = per_layer if args.trace == 1 else end_to_end
    aliases = ALIASES[args.workload]
    for name, unit in end_to_end + per_layer:
        if name in metrics and metrics[name] is not None:
            alias = f" (= {aliases[name]})" if name in aliases else ""
            print(f"{name}{alias}: {metrics[name]:.6g} {unit}")
    for c in checks.values():
        status = "ok" if c["ok"] else "FAILED: " + c["detail"]
        print(f"check {c['name']}: {status}")

    stamp = dict(records[0]["stamp"])
    stamp.update(commit=git_commit(), trials=len(records),
                 traced=args.trace == 1, held_out_seed=HELD_OUT_SEED)
    print(json.dumps({"record": {
        "stamp": stamp,
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in sorted(metrics.items()) if v is not None},
        "checks": list(checks.values()),
    }}))
    # a layer this workload does not call reads 0 (README.md)
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name) or 0.0),
                           "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


# (workload, traced, perturbation, check that must fail)
NEGATIVE = [
    ("build", False, "jobs-identical", "j1_j2_bit_identical"),
    ("build", False, "components", "pldel_prime_components_equal_udg"),
    ("build", True, "stage-replay", "stage_replay_equals_snapshot.j2"),
    ("serve", False, "replay-hops", "replayed_hops_equal_engine"),
    ("monitor", False, "violations", "zero_violations"),
]


def self_test():
    """Every check passes on the unperturbed small inputs, in both
    modes, and each check fails on a perturbed result."""
    build()
    ok = True
    for workload in WORKLOADS:
        for traced in (False, True):
            args = argparse.Namespace(workload=workload, seed=1,
                                      query_seed=3, mobility_seed=4)
            rec, code, _ = trial(args, 0.1, traced, small=True)
            bad = [c["name"] for c in rec["checks"] if not c["ok"]]
            passed = code == 0 and not bad and rec["checks"]
            ok &= bool(passed)
            print(f"self-test {workload} trace={int(traced)}: "
                  f"{'ok' if passed else 'FAILED ' + ','.join(bad)}")
    for workload, traced, perturb, name in NEGATIVE:
        args = argparse.Namespace(workload=workload, seed=1, query_seed=3,
                                  mobility_seed=4)
        rec, code, _ = trial(args, 0.1, traced, small=True, perturb=perturb)
        failed = [c["name"] for c in rec["checks"] if not c["ok"]]
        caught = code != 0 and name in failed
        ok &= caught
        print(f"self-test {workload} --perturb {perturb}: "
              f"{'caught by ' + name if caught else 'NOT CAUGHT'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--query-seed", type=int)
    parser.add_argument("--mobility-seed", type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        # the query and mobility streams default to seeds derived from
        # the deployment seed, so one --seed names a whole input
        if args.query_seed is None:
            args.query_seed = 2 * args.seed + 1
        if args.mobility_seed is None:
            args.mobility_seed = 2 * args.seed + 2
        return run(args)
    except BenchError as exn:
        print(f"perfbench: {exn}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
