#!/usr/bin/env python3
"""End-to-end benchmark of both stacks: host CKKS ops and the simulated
FAST serving tiers.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list-metrics   # the metric catalog, as JSON
    python3 perfbench/run.py --selftest       # tiny-size contract checks

The script builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the benchmark binary. Build output goes to stderr; the binary's report
goes to stdout and its last line is one JSON object with the keys
correct, attempted, failed and metrics. Spans of traced runs are written
under the build directory. The exit code is non-zero when the build
fails, a correctness check fails, or the output breaks the contract.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ks-n16", "boot-n12", "fleet-steady", "serve-drift"]
SIMULATED = ["fleet-steady", "serve-drift"]
# Seed kept out of tuning; the self-test replays it as a held-out check.
HELD_OUT_SEED = 9173
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build the binary; return its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "fast_perfbench"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = os.path.join(out, "fast_perfbench")
    return binary if os.path.exists(binary) else None


def run_binary(binary, args):
    """Run the benchmark binary; return (returncode, stdout)."""
    os.makedirs(os.path.join(build_dir(), "out"), exist_ok=True)
    cmd = [binary] + args + ["--out-dir", os.path.join(build_dir(), "out")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, ""
    return p.returncode, p.stdout


def contract_names():
    """Metric names and units from BENCHMARK.json, by scope."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def result_line(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def check_result(result, expected):
    """Contract problems of one result line, as strings."""
    problems = []
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        return ["result line does not have exactly the four keys"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(expected) - set(got))}, extra "
                        f"{sorted(set(got) - set(expected))}")
    for name, m in got.items():
        if name in expected and m.get("unit") != expected[name]["unit"]:
            problems.append(f"{name}: unit {m.get('unit')} != "
                            f"{expected[name]['unit']}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def main_run(args):
    binary = build()
    if binary is None:
        return 2
    rc, stdout = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if rc != 0:
        return rc
    try:
        e2e, layers = contract_names()
        problems = check_result(result_line(stdout),
                                layers if args.trace else e2e)
    except (OSError, ValueError, KeyError) as e:
        problems = [f"cannot check the result: {e}"]
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    return 2 if problems else 0


# ---------------------------------------------------------------------------
# Self-test: tiny sizes, every contract the benchmark promises.

def catalog(binary):
    rc, out = run_binary(binary, ["--list-metrics"])
    return json.loads(out)["metrics"] if rc == 0 else []


def report_values(stdout):
    """metric <name> = <value> <unit> lines of a report."""
    found = {}
    for line in stdout.splitlines():
        m = re.match(r"metric (\S+)\s+= (\S+) (\S+)", line)
        if m:
            found[m.group(1)] = (float(m.group(2)), m.group(3))
    return found


def selftest():
    binary = build()
    if binary is None:
        return 2
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    e2e, layers = contract_names()
    cat = {m["name"]: m for m in catalog(binary)}
    gated = {n for n, m in cat.items() if m["scope"] == "end_to_end"}
    per_layer = {n for n, m in cat.items() if m["scope"] == "per_layer"}
    expect(gated == set(e2e), "BENCHMARK.json end_to_end == catalog")
    expect(per_layer == set(layers), "BENCHMARK.json per_layer == catalog")
    for name, spec in list(e2e.items()) + list(layers.items()):
        m = cat.get(name, {})
        expect(m.get("unit") == spec["unit"] and
               m.get("better") == spec["better"],
               f"{name}: unit and direction match the catalog")

    exact_kinds = ("sim", "exact", "computed")
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_binary(binary, ["--workload", w, "--seed", "1",
                                          "--seconds", "1", "--trace",
                                          str(trace), "--tiny"])
            result = result_line(out) if rc == 0 else None
            problems = check_result(result, layers if trace else e2e)
            expect(rc == 0 and result and result["correct"] and
                   not problems,
                   f"{w} trace={trace}: correct, every metric with its "
                   f"unit {problems}")
            if trace == 0:
                shown = report_values(out)
                for name, m in cat.items():
                    if m["scope"] != "report" or w not in m["workloads"]:
                        continue
                    expect(name in shown and shown[name][1] == m["unit"],
                           f"{w}: report prints {name} [{m['unit']}]")

    # Same seed twice: every simulated, count and other exact metric is
    # identical, on the tuning seed and on the held-out seed, on every
    # workload (host counts come from the traced runs).
    def exact_metrics(w, seed, trace):
        rc, out = run_binary(binary, ["--workload", w, "--seed", seed,
                                      "--seconds", "0.5", "--trace",
                                      str(trace), "--tiny"])
        if rc != 0:
            return None
        values = {n: v["value"] for n, v in
                  result_line(out)["metrics"].items()}
        values.update({n: v for n, (v, _) in report_values(out).items()})
        # goodput_per_s is simulated, so exact, on the simulated workloads.
        return {n: v for n, v in values.items()
                if cat[n]["kind"] in exact_kinds or
                (n == "goodput_per_s" and w in SIMULATED)}

    for w in WORKLOADS:
        for seed in ("1", str(HELD_OUT_SEED)):
            for trace in (0, 1):
                first = exact_metrics(w, seed, trace)
                expect(first and first == exact_metrics(w, seed, trace),
                       f"{w} seed {seed} trace={trace}: {len(first or {})} "
                       f"exact metrics replay identically")

    # Negative case: one corrupted residue must fail the run.
    rc, out = run_binary(binary, ["--workload", "ks-n16", "--seed", "1",
                                  "--seconds", "0.2", "--trace", "0",
                                  "--tiny", "--corrupt"])
    result = result_line(out) if out else None
    expect(rc != 0 and result is not None and not result["correct"] and
           result["failed"] >= 1,
           "ks-n16 --corrupt: corrupted residue is reported, exit != 0")

    # Timed-out requests count in failed (fail_frac) but are not failed
    # checks: the run stays correct and exits 0.
    rc, out = run_binary(binary, ["--workload", "serve-drift", "--seed", "1",
                                  "--seconds", "0.2", "--trace", "0",
                                  "--tiny", "--tight-deadlines"])
    result = result_line(out) if out else None
    expect(rc == 0 and result is not None and result["correct"] and
           result["failed"] >= 1,
           "serve-drift --tight-deadlines: timed-out requests are failed "
           "attempts, not failed checks")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.list_metrics:
        binary = build()
        if binary is None:
            return 2
        rc, out = run_binary(binary, ["--list-metrics"])
        sys.stdout.write(out)
        return rc
    if not args.workload:
        parser.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
