#!/usr/bin/env python3
"""perfbench: the repository benchmark, end to end and layer by layer.

Builds perfbench_driver (the mihn libraries compiled from ../src) under
.bench_build/perfbench, then runs workloads through it. Each workload runs
in its own process.

One workload, as the benchmark contract calls it; the last stdout line is
the result JSON (end-to-end metrics with --trace 0, per-layer with 1):

    python3 perfbench/run.py --workload host_mix --seed 7 --seconds 25 --trace 0

--seconds defaults to BENCHMARK.json's run_seconds.

Every workload, untraced and traced, as a table plus
.bench_build/perfbench/report.json:

    python3 perfbench/run.py --workload all [--seconds 25] [--seed 1]

Quick plumbing check (small inputs, one second per run), and the
benchmark's own helper tests:

    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["fleet_churn", "fleet_pooled", "host_mix", "chaos_grid"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DEFAULT_SECONDS = 25  # BENCHMARK.json's run_seconds, when that file is absent.
SMOKE_SECONDS = 1
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_bounded(cmd, timeout, **kwargs):
    """subprocess.run in its own process group; on timeout the whole group
    (make and compiler children too) is killed and reaped before raising."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    """Configures (once) and builds the driver and self-test; exits on error."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"mihn sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_driver", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = run_bounded(cmd, BUILD_TIMEOUT_S, stdout=log,
                                   stderr=subprocess.STDOUT).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {cmd[:2]} failed: {err}")
            if code != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-25:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (exit {code}); full log in {log_path}")


def load_spec():
    """BENCHMARK.json (the contract: metric names, run length), if present."""
    spec_path = ROOT / "BENCHMARK.json"
    return json.loads(spec_path.read_text()) if spec_path.is_file() else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    spec = load_spec()
    if spec is None:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_driver(workload, seed, seconds, trace, smoke):
    """Runs one workload in its own process; returns (comment lines, result)."""
    cmd = [str(BUILD / "perfbench_driver"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0", "--root", str(ROOT)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = run_bounded(cmd, DRIVER_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{workload}: driver exited {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    names = expected_metrics(trace)
    if names is not None and not set(names) <= set(result["metrics"]):
        fail(f"{workload}: driver lacks BENCHMARK.json metrics "
             f"{sorted(set(names) - set(result['metrics']))}")
    return lines[:-1], result


def gated(result, trace):
    """Splits the driver's metrics into the ones BENCHMARK.json gates and
    the rest, which are reported but too unsteady on a shared box to gate."""
    names = expected_metrics(trace)
    if names is None:
        return result, {}
    metrics = result["metrics"]
    kept = {**result, "metrics": {n: metrics[n] for n in names}}
    return kept, {n: m for n, m in metrics.items() if n not in names}


def error_rate(result):
    return result["failed"] / result["attempted"]


def run_all(seed, seconds, smoke):
    """Every workload untraced and traced: prints tables, writes report.json."""
    report = {"seed": seed, "seconds": seconds, "smoke": smoke, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = {}
        for trace in (False, True):
            comments, result = run_driver(workload, seed, seconds, trace, smoke)
            entry["traced" if trace else "untraced"] = {"log": comments, **result}
            ok = ok and result["correct"] and result["failed"] == 0
        report["workloads"][workload] = entry
        e2e = entry["untraced"]
        print(f"\n== {workload}  (seed {seed}, {e2e['attempted']} steps attempted, "
              f"error_rate {error_rate(e2e):.4f}, correct {e2e['correct']})")
        for line in e2e["log"]:
            print("  " + line.lstrip("# "))
        gate = expected_metrics(False) or []
        for name, metric in e2e["metrics"].items():
            mark = "gated" if name in gate else "reported"
            print(f"  {name:<20} {metric['value']:>14.6g} {metric['unit']:<4} ({mark})")

    print("\n== per-layer split (traced runs; per step unless a ratio)")
    header = f"  {'metric':<32}" + "".join(f"{w:>14}" for w in WORKLOADS)
    print(header + "  unit")
    layer_names = list(report["workloads"][WORKLOADS[0]]["traced"]["metrics"])
    for name in layer_names:
        row = f"  {name:<32}"
        for workload in WORKLOADS:
            row += f"{report['workloads'][workload]['traced']['metrics'][name]['value']:>14.6g}"
        unit = report["workloads"][WORKLOADS[0]]["traced"]["metrics"][name]["unit"]
        print(row + f"  {unit}")

    out = BUILD / "report.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}; all outputs correct: {ok}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one-second runs")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = load_spec()
    default_seconds = spec["run_seconds"] if spec is not None else DEFAULT_SECONDS
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else default_seconds)
    if seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    if args.self_test:
        return subprocess.run([str(BUILD / "perfbench_selftest")], cwd=ROOT).returncode
    if args.workload == "all":
        return run_all(args.seed, seconds, args.smoke)

    comments, result = run_driver(args.workload, args.seed, seconds, bool(args.trace),
                                  args.smoke)
    result, reported = gated(result, bool(args.trace))
    for line in comments:
        print(line)
    for name, metric in reported.items():
        print(f"# reported, not gated: {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
