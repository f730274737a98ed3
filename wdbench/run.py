#!/usr/bin/env python3
"""The repository benchmark: builds wdbench from source and runs one workload.

Run from the repository root:

    python3 wdbench/run.py --workload serve_analytic --seed 1 --seconds 30 --trace 0
    python3 wdbench/run.py compare BASE.txt CHANGE.txt

A run builds the engine and the wdbench binary under .bench_build/ (CMake,
Release), runs the workload, and prints two lines on stdout: the run's
context (workload, seed, machine: nproc, build, compiler, source digest,
load average and TIME_WAIT sockets before and after, ephemeral port range,
query-set facts) and, last, the result object with the keys correct,
attempted, failed and metrics. A wrong answer makes it exit non-zero.

`compare` reads two files of concatenated run output (for example ten
seeds of the parent commit and ten of a change) and prints, per workload,
both sides' fail fractions and, per metric, both medians and quartiles,
the fraction of run pairs the change wins, and a verdict: improved,
within bound, worse or unresolved. A change that fails more operations is
worse, and none of its gains counts as improved.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "wdbench")
WORK_DIR = os.path.join(".bench_build", "work")
WORKLOADS = ("serve_analytic", "ingest_rw")
# The seed used while developing a change, and the seed held out for
# confirming a claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds wdbench; returns the binary path or None."""
    for needed in ("src/engine", "include/wdsparql", "wdbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"wdbench: {needed} is missing; run from a full checkout")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "wdbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"wdbench: build step failed: {' '.join(step)}")
            return None
    return os.path.join(ROOT, BUILD_DIR, "wdbench")


def read_text(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def time_wait_sockets():
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        for line in read_text(table).splitlines()[1:]:
            fields = line.split()
            if len(fields) > 3 and fields[3] == "06":
                count += 1
    return count


def source_digest():
    """A digest of the engine sources, identifying builds without git."""
    digest = hashlib.sha256()
    for top in ("src", "include", "wdbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return done.stdout.strip() or None


def run(args):
    binary = build()
    if binary is None:
        return 2
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "loadavg_before": read_text("/proc/loadavg"),
        "time_wait_before": time_wait_sockets(),
        "ephemeral_ports": read_text("/proc/sys/net/ipv4/ip_local_port_range"),
    }
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"wdbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        log(f"wdbench: no result (exit {done.returncode})")
        return 1
    program = json.loads(lines[-2]).get("context", {})
    result = json.loads(lines[-1])
    context["loadavg_after"] = read_text("/proc/loadavg")
    context["time_wait_after"] = time_wait_sockets()
    context.update(program)
    print(json.dumps({"run": context}, sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.stdout.flush()
    return 0 if done.returncode == 0 and result["correct"] else 3


def load_runs(path):
    """(workload, trace) -> list of runs, in file order. A run is a dict
    with its metric values and its attempted and failed counts."""
    runs = {}
    pending = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "run" in obj:
                pending = obj["run"]
            elif "metrics" in obj and pending is not None:
                key = (pending["workload"], int(pending["trace"]))
                runs.setdefault(key, []).append({
                    "attempted": obj["attempted"],
                    "failed": obj["failed"],
                    "metrics": {k: v["value"] for k, v in obj["metrics"].items()},
                })
                pending = None
    return runs


def fail_frac(runs):
    """Failed over attempted operations, summed over the runs."""
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def verdict(base, new, better, bound):
    sign = 1 if better == "higher" else -1
    base_med, new_med = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    gain = sign * (new_med - base_med)
    if bound is None:
        result = "no bound"
    elif win_frac >= 0.9 and gain > (q3 - q1):
        result = "improved"
    elif -gain > bound * abs(base_med):
        result = "worse"
    elif base_med and (q3 - q1) / abs(base_med) > bound and not (
            min(sign * n for n in new) > max(sign * b for b in base)):
        result = "unresolved"
    else:
        result = "within bound"
    return base_med, (q1, q3), new_med, win_frac, result


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_runs(args.base), load_runs(args.change)
    status = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        print(f"== {workload} ({'traced' if trace else 'end to end'}): "
              f"{len(base[key])} base runs, {len(new[key])} change runs")
        # A change that fails more operations is worse, whatever its
        # figures: a query that fails fast can look like a faster one.
        base_fail, new_fail = fail_frac(base[key]), fail_frac(new[key])
        more_failures = new_fail > base_fail
        print(f"  {'fail_frac':<34} base {base_fail:12.5g}"
              f"  change {new_fail:12.5g}  "
              f"{'worse' if more_failures else 'within bound'}")
        if more_failures:
            status = 1
        for m in metrics:
            b = [r["metrics"][m["name"]] for r in base[key] if m["name"] in r["metrics"]]
            n = [r["metrics"][m["name"]] for r in new[key] if m["name"] in r["metrics"]]
            if not b or not n:
                continue
            nq = statistics.quantiles(n, n=4) if len(n) > 1 else (n[0],) * 3
            base_med, (q1, q3), new_med, win, result = verdict(
                b, n, m["better"], m.get("bound"))
            if more_failures and result == "improved":
                result = "worse (more failures)"
            print(f"  {m['name']:<34} base {base_med:12.5g} [{q1:.5g}, {q3:.5g}]"
                  f"  change {new_med:12.5g} [{nq[0]:.5g}, {nq[2]:.5g}] {m['unit']:<8}"
                  f" wins {win:4.0%}  {result}")
            if result.startswith("worse"):
                status = 1
    return status


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("change")
        return compare(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
