#!/usr/bin/env bash
# The driver's own acceptance test, run by hand: two sets of ten runs per
# workload, each run with another seed, through the command in
# BENCHMARK.json. For every end-to-end metric it prints each set's
# middle-half spread ÷ median and the set-to-set shift of the median
# against the metric's bound.
#
#   benchmark/check.sh                 # all four workloads, ≈45 min
#   benchmark/check.sh scan_mem        # one workload (the one allowed repeat)
#
# Run it from the repository root, once, at the end of a change to the
# benchmark. One repeat is allowed if host.steal_share or the calibration
# readings show a host event inside a set; it is not a noise study, and it
# has no shorter form: for a quick look there is `dgl-benchmark --smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "$@" <<'PY'
import json, statistics, subprocess, sys, time

contract = json.load(open("BENCHMARK.json"))
runs = 10
seconds = str(contract["run_seconds"])
workloads = sys.argv[1:] or [w["name"] for w in contract["workloads"]]
HOST = ["host.calib_ms_before", "host.calib_ms_after", "host.steal_share", "host.steal_wait_s",
        "host.runq_wait_share", "host.disturbed_segment_share"]

def one_run(workload, seed):
    cmd = contract["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {out.returncode}\n{out.stderr}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    host = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "diag" and parts[1] in HOST:
            host[parts[1]] = float(parts[2])
    return {k: v["value"] for k, v in result["metrics"].items()}, host, wall

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

failures = []
for workload in workloads:
    sets = []
    for first_seed in (101, 201):
        got = [one_run(workload, first_seed + i) for i in range(runs)]
        sets.append(got)
        walls = [w for _, _, w in got]
        print(f"# {workload}: seeds {first_seed}..{first_seed + runs - 1} done, "
              f"{statistics.median(walls):.1f} s per run (max {max(walls):.1f})", flush=True)
    print(f"\n### {workload}\n")
    print("| metric | bound | median A | median B | spread A | spread B | shift B vs A | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for m in contract["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r[0][name] for r in sets[0]]
        b = [r[0][name] for r in sets[1]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a if m["better"] == "lower" else (med_a - med_b) / med_a
        sa, sb = spread(a), spread(b)
        # setup_s is exempt from the spread test, not from the label.
        if worse > bound or (max(sa, sb) > bound and name != "setup_s"):
            verdict = "FAIL"
            failures.append(f"{workload}/{name}")
        elif max(sa, sb) <= bound / 3:
            verdict = "steady"
        elif max(sa, sb) <= bound:
            verdict = "within bound"
        else:
            verdict = "spread exempt"
        print(f"| `{name}` | {bound} | {med_a:.4g} | {med_b:.4g} | {sa:.1%} | {sb:.1%} | {worse:+.1%} | "
              f"{verdict} |")
    print("\n| host reading | median A | max A | median B | max B |")
    print("|---|---|---|---|---|")
    for h in HOST:
        cols = []
        for s in sets:
            vals = [r[1].get(h, 0.0) for r in s]
            cols += [f"{statistics.median(vals):.4g}", f"{max(vals):.4g}"]
        print(f"| `{h}` | " + " | ".join(cols) + " |")
    print(flush=True)

print("FAILED: " + ", ".join(failures) if failures else "all metric × workload pairs within their bounds")
sys.exit(1 if failures else 0)
PY
