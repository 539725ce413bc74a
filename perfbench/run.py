#!/usr/bin/env python3
"""Runs one benchmark workload for one seed and prints one JSON result line.

    python3 perfbench/run.py --workload solve-ba --seed 1 --seconds 10 --trace 0

Builds the harness (perfbench/CMakeLists.txt, which builds the repository's
`domset` library and driver from the sources next to it) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it, and
checks that it produced exactly the metrics BENCHMARK.json names, with the
units it names.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of the traced run.  Set-up time is the median over
SETUP_RUNS fresh processes: the measured one plus SETUP_RUNS - 1 that stop
after set-up.

Exit status: 0 when every check passed; 1 when a check failed (the result
line still prints, with "correct": false) or when the benchmark cannot run
at all, e.g. because the repository sources are missing (no result line);
2 for a malformed command line.  `--n` and `--inject` exist for the
benchmark's own tests (perfbench/tests).
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 3
# Together under the 180 s a run may take: the untraced run also waits
# for SETUP_RUNS - 1 set-up processes, the traced run does not.
MAIN_TIMEOUT_S = 110
TRACED_TIMEOUT_S = 165
SETUP_TIMEOUT_S = 12


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configures once, then builds incrementally; logs go to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(
                f"repository source '{needed}' not found next to perfbench/")
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT, env=env)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   check=True, stdout=sys.stderr, cwd=ROOT, env=env)


def select_metrics(raw, spec, trace):
    """The metrics to print: exactly the section BENCHMARK.json declares.

    Raises ValueError on a metric the harness produced that is not
    declared, a declared metric it did not produce, a unit that differs
    from the declared one, or a value that is not a finite number."""
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    produced = raw.get(section, {})
    unknown = sorted(set(produced) - set(declared))
    missing = sorted(set(declared) - set(produced))
    if unknown:
        raise ValueError(f"unknown metrics (not in BENCHMARK.json): {unknown}")
    if missing:
        raise ValueError(f"metrics in BENCHMARK.json not produced: {missing}")
    out = {}
    for name, unit in declared.items():
        value = produced[name]["value"]
        if produced[name]["unit"] != unit:
            raise ValueError(f"metric {name}: unit {produced[name]['unit']} "
                             f"but BENCHMARK.json says {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name}: not a finite number: {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def run_harness(binary, args, timeout):
    """Runs the harness; returns its parsed last stdout line or None.

    The harness runs in its own session, so a timeout also kills the
    `domset serve` child it may have started."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: harness timed out after {timeout} s",
              file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main(argv):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--n", type=int, default=200000,
                        help="graph size (tests only; the benchmark is 200000)")
    parser.add_argument("--inject", choices=("solve-digest", "epoch-digest"),
                        help="inject a fault the checks must catch (tests only)")
    args = parser.parse_args(argv)
    if args.workload not in names:
        parser.error(f"unknown workload '{args.workload}' "
                     f"(known: {', '.join(names)})")
    if args.seed < 0 or args.seconds <= 0 or args.n < 1000:
        parser.error("--seed must be >= 0, --seconds > 0 and --n >= 1000")

    out = build_dir()
    try:
        build(out)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    scratch = os.path.join(out, "out")
    os.makedirs(scratch, exist_ok=True)
    harness = os.path.join(out, "perfbench_harness")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--n", str(args.n), "--domset",
              os.path.join(out, "domset", "domset"),
              "--out-dir", os.path.relpath(scratch, ROOT)]
    if args.inject:
        common += ["--inject", args.inject]

    raw = run_harness(harness, common + ["--seconds", str(args.seconds),
                                         "--trace", str(args.trace)],
                      TRACED_TIMEOUT_S if args.trace else MAIN_TIMEOUT_S)
    if raw is None:
        print("perfbench: the harness printed no result", file=sys.stderr)
        return 1
    attempted, failed = raw["attempted"], raw["failed"]
    errors = list(raw["errors"])
    if not args.trace and "setup_s" in raw["end_to_end"]:
        setups = [raw["setup_s"]]
        for _ in range(SETUP_RUNS - 1):
            extra = run_harness(harness, common + ["--mode", "setup"],
                                SETUP_TIMEOUT_S)
            attempted += 1
            if extra is None or not extra["correct"]:
                failed += 1
                errors.append("set-up run failed")
                continue
            setups.append(extra["setup_s"])
        raw["end_to_end"]["setup_s"]["value"] = statistics.median(setups)
    try:
        metrics = select_metrics(raw, spec, args.trace)
    except ValueError as err:
        errors.append(str(err))
        failed += 1
        metrics = {}
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
