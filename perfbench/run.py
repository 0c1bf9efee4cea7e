#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <ladder|solve|serve> --seed <n>
                             --seconds <n> --trace <0|1> [--size <full|smoke>]

Run it from the root of a checkout.  It builds perfbench/ (which compiles the
library modules it drives from ../src) into the build directory named by
CARGO_TARGET_DIR (default .bench_build), runs milc_bench, and prints its
info line, a line-count line and, last, the result object with
each metric's unit from BENCHMARK.json.  The same three, with the command
line, go to <build>/results/<workload>-seed<n>-trace<t>.json; a traced run
also writes <build>/traces/<workload>-seed<n>.json (Chrome trace-event JSON,
opens in Perfetto).  Usage errors exit with code 2, a failed build or a
failed correctness check with code 1.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 175  # one run must end within 180 s


def bounded_int(lo, hi):
    def parse(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError("not a non-negative integer: %r" % text)
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError("%d is outside [%d, %d]" % (value, lo, hi))
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False,
                                description="Build and run the repository benchmark.")
    p.add_argument("--workload", required=True, choices=["ladder", "solve", "serve"])
    p.add_argument("--seed", required=True, type=bounded_int(0, 2**64 - 1))
    p.add_argument("--seconds", required=True, type=bounded_int(1, 3600))
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--size", default="full", choices=["full", "smoke"],
                   help="smoke: the smallest size of each workload (for tests)")
    return p.parse_args(argv)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    obj = build_dir / "perfbench"
    if not (obj / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(obj),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(obj), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return obj / "milc_bench"


def line_counts():
    """Lines of every src/<module>, an ungated fact recorded beside the numbers."""
    counts = {}
    for module in sorted(d for d in SRC_DIR.iterdir() if d.is_dir()):
        n = 0
        for f in sorted(module.rglob("*")):
            if f.is_file():
                with open(f, "rb") as fh:
                    n += sum(1 for _ in fh)
        counts[module.name] = n
    return counts


def with_units(measured, trace):
    """Attach BENCHMARK.json's units.  Every end-to-end metric must be
    measured; a per-layer metric this workload does not measure reads 0."""
    spec = json.loads(SPEC_PATH.read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(measured) - names)
    missing = [] if trace else sorted(names - set(measured))
    if unknown or missing:
        raise ValueError("undeclared metrics %s, missing metrics %s" % (unknown, missing))
    return {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in declared}


def main(argv):
    args = parse_args(argv)
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    tag = "%s-seed%d" % (args.workload, args.seed)
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / (tag + ".json"))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        print("perfbench: milc_bench exited with %d and no result" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    try:
        result["metrics"] = with_units(result["metrics"], args.trace)
    except (OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    counts = {"line_counts": line_counts()}

    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"command": ["python3", "perfbench/run.py"] + argv, **info, **counts,
              "result": result}
    with open(results / ("%s-trace%d.json" % (tag, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(json.dumps(info))
    print(json.dumps(counts))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
