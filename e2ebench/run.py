#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; see README.md.

    python3 e2ebench/run.py --workload read_mostly --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all          # every workload in turn
    python3 e2ebench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under that root, and so does everything a run writes. The last
line of stdout is the result JSON; build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# The binary holds the deployment and the workloads as constants;
# deployment.json records them.
WORKLOADS = ("read_mostly", "write_heavy", "scan")


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the Pileus sources (src/) are not next to e2ebench/; "
             "run from the root of a full checkout")
    out = os.path.join(build_root(), "e2ebench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def print_overhead(workload, traced, untraced_path):
    """Tracing overhead: the traced run's end-to-end numbers minus those of
    the last untraced run of the same workload in this checkout."""
    if not os.path.isfile(untraced_path):
        print(f"tracing overhead: no untraced run of {workload} yet")
        return
    with open(untraced_path) as f:
        untraced = json.load(f)["metrics"]
    print(f"tracing overhead on {workload} (traced minus last untraced run):")
    for name, metric in traced["metrics"].items():
        if name not in untraced:
            continue
        base = untraced[name]["value"]
        diff = metric["value"] - base
        share = f" ({100.0 * diff / base:+.1f}%)" if base else ""
        print(f"  {name:<36} {metric['value']:>14.4f} - {base:>14.4f} = "
              f"{diff:+.4f} {metric['unit']}{share}")


def run_benchmark(args):
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    binary = build("e2ebench")
    if args.workload != "all":
        return run_workload(args.workload, args, binary)
    return max(run_workload(w, args, binary) for w in WORKLOADS)


def run_workload(workload, args, binary):
    state = build_root()
    work_dir = os.path.join(state, "run", f"{workload}-{os.getpid()}")
    spans_dir = os.path.join(state, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work_dir", work_dir,
               "--spans_out", os.path.join(spans_dir, f"{workload}.csv")]
    # The whole deployment shares one CPU (the highest-numbered one this
    # process may use). Spread over several virtual CPUs, every cross-thread
    # wakeup can land on a halted CPU that the host must reschedule, and that
    # delay varies with the host's load from run to run.
    cpu = max(os.sched_getaffinity(0))
    print(f"pinned to cpu {cpu}")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(proc.stdout, end="")
        fail(f"benchmark exited with code {proc.returncode}")
    result = lines[-1]
    e2e = None
    for line in lines[:-1]:
        if line.startswith("E2E "):
            e2e = json.loads(line[4:])
        else:
            print(line)
    untraced_path = os.path.join(state, "untraced", f"{workload}.json")
    if e2e is not None and args.trace == 0 and e2e["correct"]:
        os.makedirs(os.path.dirname(untraced_path), exist_ok=True)
        with open(untraced_path, "w") as f:
            json.dump(e2e, f)
    elif e2e is not None and args.trace == 1:
        print_overhead(workload, e2e, untraced_path)
    print(result, flush=True)
    return proc.returncode


def run_selftest():
    binary = build("e2ebench_selftest")
    scratch = os.path.join(build_root(), "selftest")
    os.makedirs(scratch, exist_ok=True)
    try:
        return subprocess.run([binary, scratch], timeout=RUN_TIMEOUT_S).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own computation")
    args = parser.parse_args()
    if args.selftest:
        return run_selftest()
    if not args.workload:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must not be negative")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
