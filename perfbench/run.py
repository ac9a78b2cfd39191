#!/usr/bin/env python3
"""Repository benchmark: builds the harness against libstbpu and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --record-references

The harness is built with CMake into .bench_build/perfbench (configured on
first use, rebuilt incrementally after). With --trace 0 the set-up time is
measured in several fresh processes and their median is reported as setup_s.
The last line of standard output is the JSON result; build logs and
diagnostics go to standard error. --record-references rewrites
perfbench/references.json from the current build for the reference seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ("replay_steady", "replay_rekey_storm", "sweep_fig4")
# Seed 1 is the default seed; seed 7 is held out (never used while tuning).
REFERENCE_SEEDS = (1, 7)
# Fresh processes whose set-up times are pooled into setup_s (the measuring
# process is one of them).
SETUP_SAMPLES = 5
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (first use) and build the harness; False when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no CMakeLists.txt at {ROOT}: the repository sources are missing")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step {cmd[:2]} failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step {' '.join(cmd)} exited with {done.returncode}")
            return False
    return True


def run_harness(args):
    """Run the harness; returns its stdout lines, or None when it fails."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"harness {' '.join(args)} failed: {e}")
        return None
    if done.returncode != 0:
        log(f"harness {' '.join(args)} exited with {done.returncode}")
        return None
    lines = done.stdout.strip().splitlines()
    return lines if lines else None


def setup_samples(workload, seed, count):
    samples = []
    for _ in range(count):
        lines = run_harness(["--workload", workload, "--seed", str(seed), "--setup-only"])
        if lines is None:
            return None
        samples.append(json.loads(lines[-1])["setup_s"])
    return samples


def record_references():
    refs = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for seed in REFERENCE_SEEDS:
            lines = run_harness(["--workload", workload, "--seed", str(seed), "--record"])
            if lines is None:
                return 1
            refs[workload][str(seed)] = json.loads(lines[-1])
            log(f"recorded {len(refs[workload][str(seed)])} digests of {workload} seed {seed}")
    with open(REFERENCES, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 1
    if args.record_references:
        return record_references()

    extra = []
    if args.trace == 0:
        extra_setup = setup_samples(args.workload, args.seed, SETUP_SAMPLES - 1)
        if extra_setup is None:
            return 1
    else:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        extra = ["--spans-out",
                 os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    lines = run_harness(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--references", REFERENCES] + extra)
    if lines is None:
        return 1
    result = json.loads(lines[-1])
    if args.trace == 0:
        setup = result["metrics"]["setup_s"]
        samples = extra_setup + [setup["value"]]
        setup["value"] = statistics.median(samples)
        lines.insert(-1, f"  setup_s over {len(samples)} processes: median "
                         f"{setup['value']:.6g} s, min {min(samples):.6g}, max {max(samples):.6g}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
