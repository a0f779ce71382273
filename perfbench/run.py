#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout. Builds perfbench/bench.exe and the
substrate_serve daemon with dune and runs the workload under a time limit.
bench.exe reports every figure it measured by name; this script takes the
metrics BENCHMARK.json declares for the mode (end-to-end with --trace 0,
per-layer with --trace 1) and their units from BENCHMARK.json, refuses a run
that misses a declared metric or reports an undeclared one, and prints the
result line as the last line of standard output. A run whose checks failed
is printed with "correct": false and exits 1.

    python3 perfbench/run.py --selftest

checks the metric names and units in BENCHMARK.json, the conversion of
bench.exe's output into a result line, and runs the OCaml self-tests.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# --------------------------------------------------------------------------
# BENCHMARK.json's metric table and the result line


def table_problems(c):
    """Metric names and units in BENCHMARK.json that break the grammar."""
    p = []
    names = [w["name"] for w in c["workloads"]]
    for m in c["end_to_end"] + c["per_layer"]:
        names.append(m["name"])
        if not UNIT_RE.match(m["unit"]):
            p.append(f"metric {m['name']!r}: bad unit {m['unit']!r}")
    p += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    p += [f"name {n!r} used more than once" for n in sorted(set(names)) if names.count(n) > 1]
    if not any(m["name"] == "setup_s" and m["unit"] == "s" for m in c["end_to_end"]):
        p.append("end_to_end must include setup_s in s")
    return p


def result_of(line, c, traced):
    """bench.exe's last line as the contract's result line, and the reasons
    it cannot be one ([] if it can). The metrics are those BENCHMARK.json
    declares for the mode, with its units; a name bench.exe reports that
    BENCHMARK.json does not declare at all, or a declared one it misses, is
    refused. A failed run is passed on as it is, so the failure shows."""
    try:
        r = json.loads(line)
    except ValueError as e:
        return None, [f"last line is not JSON: {e}"]
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "values"}:
        return None, ["bench.exe must report correct, attempted, failed and values"]
    units = {m["name"]: m["unit"] for m in c["end_to_end"] + c["per_layer"]}
    mode = [m["name"] for m in c["per_layer" if traced else "end_to_end"]]
    got = r["values"]
    p = [f"undeclared metric {n}" for n in sorted(set(got) - set(units))]
    if r["correct"]:
        p += [f"missing metric {n}" for n in mode if n not in got]
    if not (isinstance(r["attempted"], int) and r["attempted"] >= 1):
        p.append("attempted must be at least 1")
    metrics = {n: {"value": got[n], "unit": units[n]} for n in mode if n in got}
    out = {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
           "metrics": metrics}
    return out, p


# --------------------------------------------------------------------------
# Build and run


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{ROOT} is not a subcouple source checkout (no {need}); nothing to build")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe",
             "./bin/substrate_serve.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"build failed (dune exit {r.returncode})")


def children(pid):
    """Live processes whose parent is [pid] (the bench's daemon)."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    stat = f.read()
            except OSError:
                continue
            # The command name may hold spaces; the fields after it do not.
            if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
                out.append(int(entry))
    return out


def stop_bench(proc, grace_s=5.0):
    """Stop a bench that overran: SIGTERM first (it then shuts its daemon
    down itself), SIGKILL to it and its children after [grace_s]."""
    proc.terminate()
    try:
        proc.wait(timeout=grace_s)
        return
    except subprocess.TimeoutExpired:
        pass
    for pid in children(proc.pid) + [proc.pid]:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def run_workload(args, contract):
    cmd = [os.path.join(".", BENCH_EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The bench and its daemon stay in this process group, so whoever
    # stops this script's group stops them too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)

    def on_signal(signum, _frame):
        stop_bench(proc)
        fail(f"stopped by signal {signum}", 128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_bench(proc)
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"workload {args.workload} produced no result (exit {proc.returncode})", proc.returncode or 1)
    result, problems = result_of(lines[-1], contract, args.trace == 1)
    if problems:
        fail("result breaks the contract: " + "; ".join(problems), 1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


def selftest(contract):
    problems = table_problems(contract)
    e2e = [m["name"] for m in contract["end_to_end"]]
    full = {n: 1.5 for n in e2e}

    def line(correct, values):
        return json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                           "values": values})

    r, p = result_of(line(True, full), contract, False)
    if p or set(r["metrics"]) != set(e2e) or r["metrics"]["setup_s"] != {"value": 1.5, "unit": "s"}:
        problems.append(f"a complete end-to-end run is not passed on as declared: {p}")
    if not result_of(line(True, {**full, "no_such_metric": 1.0}), contract, False)[1]:
        problems.append("an undeclared metric is not refused")
    if not result_of(line(True, {n: 1.5 for n in e2e[1:]}), contract, False)[1]:
        problems.append("a missing metric is not refused")
    r, p = result_of(line(False, {}), contract, False)
    if p or r["correct"] is not False:
        problems.append(f"a failed run is not passed on: {p}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    r = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet", "@perfbench/runtest"],
                       cwd=ROOT)
    if problems or r.returncode != 0:
        sys.exit(1)
    print("perfbench contract self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not os.path.exists(CONTRACT):
        fail("BENCHMARK.json is missing")
    with open(CONTRACT) as f:
        contract = json.load(f)
    build()
    if args.selftest:
        selftest(contract)
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
