#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (the tap library from src/ plus perfbench/src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, and runs the
benchmark's helper tests; later runs only check the build is current.
The benchmark's last stdout line is its JSON result. Exit codes: the
benchmark's own (0 ok, 1 an answer failed its check, 4 unoptimized or
sanitizer build), 2 for a failed build, 3 for failed helper tests.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve-hot", "serve-churn", "search-cold")


def log_tail(path, lines=40):
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def step(cmd, log_path):
    """Runs a build step with its output in log_path; True on success."""
    with open(log_path, "w") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0


def build(source_dir, build_dir):
    """Configures (once) and builds; returns True when a binary changed."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not step(["cmake", "-S", source_dir, "-B", build_dir, *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log_path):
            sys.stderr.write("perfbench: configure failed\n" + log_tail(log_path))
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    binary = os.path.join(build_dir, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if not step(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
                log_path):
        sys.stderr.write("perfbench: build failed\n" + log_tail(log_path))
        return None
    return before != os.path.getmtime(binary)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    source_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")

    rebuilt = build(source_dir, build_dir)
    if rebuilt is None:
        return 2
    stamp = os.path.join(build_dir, "tests-passed")
    if rebuilt or not os.path.exists(stamp):
        tests = subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True)
        if tests.returncode != 0:
            sys.stderr.write("perfbench: helper tests failed\n" + tests.stdout[-4000:])
            return 3
        open(stamp, "w").close()

    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(build_dir, "work"),
           "--record", os.path.join(out_dir, name + ".record.json")]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(out_dir, name + ".spans.jsonl")]

    sys.stdout.flush()
    child = subprocess.Popen(cmd)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
