#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload service_day --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first call configures and builds
perfbench/ (the ovnes sources plus the harness) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only re-check the build. Build
output goes to stderr, so the last line on stdout is always the run's JSON
result. The result is printed only after its metric names have been checked
against BENCHMARK.json; any harness error exits non-zero without a result.
A traced run (--trace 1) writes its spans to <build dir>/traces/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    return code


def build(build_dir, jobs):
    """Configure once, then build the perfbench target. True on success.
    The compiler's temporary files go under the build directory too."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(jobs),
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def fixed_layout():
    """Child-process hook: turn off address-space randomisation. Where the
    heap and stacks land changes cache behaviour enough to move a run's
    latencies by 10%; a fixed layout removes that from run-to-run spread."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | 0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--panel", default="0")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    lanes = min(4, os.cpu_count() or 1)
    if not build(build_dir, lanes):
        return fail("build failed")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--panel", args.panel]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}-panel{args.panel}.json")]
    env = dict(os.environ)
    env.setdefault("OVNES_THREADS", str(lanes))

    # Pass every line through as it comes, holding back the last one: it is
    # the result and is printed only once it has been validated.
    last = None
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             preexec_fn=fixed_layout)
    try:
        for line in child.stdout:
            if last is not None:
                sys.stdout.write(last)
                sys.stdout.flush()
            last = line
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        return fail(f"perfbench exited with {code}", code if code > 0 else 3)
    try:
        result = json.loads(last)
    except (TypeError, ValueError):
        return fail("no JSON result line", 3)
    want = expected_metrics(args.trace == "1")
    if sorted(result.get("metrics", {})) != sorted(want):
        return fail("metric names differ from BENCHMARK.json", 3)
    sys.stdout.write(last)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
