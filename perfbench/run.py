#!/usr/bin/env python3
"""Builds and runs the real-file benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload read_cold --seed 1 --seconds 12 --trace 0

Run it from the root of the repository. It builds perfbench/ (and the
engine from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, runs one workload against a fresh database under
.bench_data/ and prints the metrics. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is non-zero when the build fails, an answer is wrong or a check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_cold", "read_hot", "mixed_rw", "scan_short")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the engine and benchmark sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "db.h")):
        log("engine sources (src/) not found next to perfbench/")
        return 2
    names = expected_metrics(args.trace == "1")

    t0 = time.monotonic()
    binary = build()
    log(f"build step took {time.monotonic() - t0:.1f} s")
    print("source:")
    print(f"  git_sha      {git_sha()}")
    print(f"  src_digest   {source_digest()}")
    sys.stdout.flush()

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    data_dir = os.path.join(ROOT, ".bench_data", run_id)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--dir", data_dir, "--out-dir", os.path.join(ROOT, ".bench_out")]
    # A SIGTERM unwinds through the finally below, which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data_dir, ignore_errors=True)
        shutil.rmtree(data_dir + ".loaded", ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"benchmark exited with {proc.returncode} and no result line")
        return proc.returncode or 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or \
            sorted(result["metrics"]) != sorted(names):
        log("result line does not match BENCHMARK.json")
        return 1
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"checks failed (exit {proc.returncode})")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
