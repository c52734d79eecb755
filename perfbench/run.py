#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/ and
trains the GHNs the workloads serve; later calls reuse both.  GHNs are kept
under a digest of the sources that produce them, so a different build never
serves another build's weights.

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"} -- the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  The exit code is 0 only when the run
finished and every correctness check passed.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve_hot", "whatif_sweep", "offline_train")
# Generous: the first run of a checkout builds and trains two GHNs.
RUN_TIMEOUT_S = 850


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_digest():
    """sha256 over every file the perfbench binary is built from: the
    library sources, the benchmark's sources and its build file."""
    paths = [os.path.join(HERE, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def build():
    """Configures (once) and builds the perfbench binary; returns its path
    or None when the build failed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources (src/) next to perfbench/; cannot build")
        return None
    bdir = os.path.join(BUILD, "cmake")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Checks the result line against BENCHMARK.json; returns an error or
    None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "wrong unit %s" % (missing, extra, wrong)
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return "metric %s has no numeric value" % name
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny GHN and short phases, for the self-tests")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    digest = source_digest()
    ghn_cache = os.path.join(BUILD, "ghn-" + digest[:16])
    trace_out = os.path.join(BUILD, "traces",
                             "%s-seed%d.jsonl" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ghn-cache", ghn_cache, "--commit", commit(),
           "--source-digest", digest]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    if args.smoke:
        cmd.append("--smoke")
    elif not all(os.path.isfile(os.path.join(ghn_cache, "ghn_%s.bin" % ds))
                 for ds in ("cifar10", "wikitext103")):
        log("first run of this build: training the GHNs it serves")
        prep = subprocess.run([binary, "--workload", "prepare", "--seed", "0",
                               "--seconds", "1", "--trace", "0",
                               "--ghn-cache", ghn_cache], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
        if prep.returncode != 0:
            log("GHN training failed")
            return 1

    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1
    finally:
        # Never leave the benchmark running behind us (timeout, SIGTERM,
        # Ctrl-C): stop it and wait until it has ended.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        log("the benchmark printed nothing (exit code %d)" % proc.returncode)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not JSON: " + lines[-1][:200])
        return 1
    err = validate(result, args.trace)
    if err:
        log(err)
        return 1

    # Tracing overhead: traced minus untraced end-to-end metrics of the same
    # workload and seed, when an untraced run of it exists in this checkout.
    rdir = os.path.join(BUILD, "results")
    key = os.path.join(rdir, "%s-seed%d.json" % (args.workload, args.seed))
    overhead = None
    if not args.trace and not args.smoke:
        os.makedirs(rdir, exist_ok=True)
        with open(key, "w") as f:
            json.dump({k: v["value"] for k, v in result["metrics"].items()}, f)
    elif args.trace and os.path.isfile(key):
        with open(key) as f:
            untraced = json.load(f)
        detail = json.loads(lines[-2]).get("perfbench_detail", {})
        traced = detail.get("traced_end_to_end", {})
        overhead = {k: traced[k] - untraced[k]
                    for k in sorted(traced) if k in untraced}

    for line in lines[:-1]:
        print(line)
    if args.trace:
        print(json.dumps({"perfbench_trace_overhead": overhead
                          if overhead is not None else
                          "no untraced run of this workload and seed yet"}))
    print(json.dumps({"perfbench_wall_s": round(time.monotonic() - t0, 3)}))
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so main()'s clean-up stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
