#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-mix --seed 42 --seconds 25 --trace 0

Builds perfbench/ (which compiles the libraries under src/) into
.bench_build/perfbench/ at the repository root, runs one workload and
forwards its output. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; build output goes
to standard error. Per-run result files and Chrome traces land in
.bench_build/perfbench/results/.

Workloads: serve-mix, ckks-ops (see perfbench/NOTES.md).
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("serve-mix", "ckks-ops")
# A run must end well inside three minutes; the build is not counted.
RUN_TIMEOUT_S = 170


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_digest(root):
    """sha256 over the benchmark's and the libraries' source files."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    """Configure once, then build the harness; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "fastbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = repo_root()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: src/ is missing next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)

    cmd = [os.path.join(build_dir, "fastbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--serve-baseline", os.path.join(root, "BENCH_serve.json"),
           "--out-dir", results,
           "--git-commit", git_commit(root),
           "--source-digest", source_digest(root)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the child.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
