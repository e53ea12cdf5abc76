#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fig2_overload --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); traces and per-run detail records go to
.bench_build/results. The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit codes: 0 ok, 2 bad usage or missing sources, 3 build failed, other
non-zero: the benchmark binary failed (its code is passed through).
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("fig2_overload", "nf_chain", "ring_chaos")
BENCH_DIR = "perfbench"


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_rev(root):
    """git revision when the checkout is a repository, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for base in ("src", "bench", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree:" + h.hexdigest()[:12]


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, BENCH_DIR), "-B", build_dir],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(3, "build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")

    root = os.getcwd()
    for need in ("src", os.path.join("bench", "alloc_hooks_impl.cc"),
                 os.path.join(BENCH_DIR, "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, need)):
            fail(2, f"{need} not found: run from the repository root")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    results_dir = os.path.join(target, "results")
    os.makedirs(results_dir, exist_ok=True)
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source-rev", source_rev(root), "--out-dir", results_dir]
    r = subprocess.run(cmd)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
