"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/sweep.py [--workloads verify,fit,batch,cli] [--runs 10]
        [--first-seed 1] [--trace] [--baseline perfbench/baseline.json --label NAME]

This is the one command that runs all four workloads, checks their outputs
(a run with a failed op is reported) and prints every end-to-end metric by
name and unit, with median, quartiles and the quartile spread as a share of
the median (the figure compared against each metric's bound in
BENCHMARK.json), and how closely the measured wall time follows the host
speed probe that the gated times are rescaled by.  With ``--trace`` each
workload also gets three traced runs; each reports the tracing overhead
(``trace.overhead_ratio``: its traced ops over the same ops run untraced in
the same process), and the sweep checks that the exact counts
(``densities.calls``, ``mle.*.nm_iterations``) repeat.
``--baseline`` appends the summary as an entry to a JSON file and prints
how far each gated median moved from the file's previous entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
from workloads import tail  # noqa: E402

TRACED_RUNS = 3


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    report = None
    for line in lines:
        if line.startswith("# report "):
            report = json.loads(line[len("# report "):])
        elif line.startswith("# FAILED"):
            print(f"  {workload} seed {seed}: {line}", flush=True)
    return json.loads(lines[-1]), report


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("nan"), "values": values}


def compare(before: dict, after: dict, bounds: dict) -> dict:
    """Change of each gated metric's median from ``before`` to ``after``, as a
    share of the earlier median; a change beyond the bound either way is flagged."""
    out = {}
    for wl, row in after["workloads"].items():
        for name, bound in bounds.items():
            old = before["workloads"].get(wl, {}).get("metrics", {}).get(name)
            if old is None:
                continue
            change = (row["metrics"][name]["median"] - old["median"]) / old["median"]
            out[f"{wl}.{name}"] = change
            print(f"{wl}.{name}: median {change:+.4f} vs the previous entry (bound {bound})"
                  + ("  <-- beyond the bound" if abs(change) > bound else ""), flush=True)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="verify,fit,batch,cli")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--baseline", type=Path)
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    summary: dict = {"label": args.label, "run_seconds": seconds, "runs": args.runs,
                     "workloads": {}}
    for wl in args.workloads.split(","):
        results, reports = [], []
        for i in range(args.runs):
            res, rep = run_once(wl, args.first_seed + i, seconds, trace=False)
            results.append(res)
            reports.append(rep)
        row = {"attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "correct": all(r["correct"] for r in results), "metrics": {}}
        print(f"{wl}: {args.runs} runs, attempted {row['attempted']}, failed {row['failed']}")
        if wl == "cli":
            # the tail needs more than ten invocations: pool them over the runs
            times = [op[3] for r in reports for op in r["ops"]]
            value, pct = tail(times)
            row["cli_tail_pooled"] = {"value_s": value, "percentile": pct, "count": len(times)}
            print(f"  cli_tail_s over all runs: p{pct} of {len(times)} invocations = {value:.6g} s")
        for name in reports[0]["metrics"]:
            unit = reports[0]["metrics"][name][1]
            values = [r["metrics"][name][0] for r in reports]
            if any(v is None for v in values):
                continue
            stat = spread(values)
            stat["unit"] = unit
            gated = name in bounds
            if gated:
                stat["bound"] = bounds[name]
            row["metrics"][name] = stat
            flag = ""
            if gated and stat["iqr_share"] > bounds[name] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:22s} {stat['median']:<12.6g} {unit:6s} q1 {stat['q1']:<10.6g} "
                  f"q3 {stat['q3']:<10.6g} spread {stat['iqr_share']:.4f}"
                  + (f" (bound {bounds[name]})" if gated else "") + flag, flush=True)
        # does the speed probe track this workload's ops?  raw / scaled is the
        # run's mean probe time over SPEED_REF_S
        raw = [r["metrics"]["raw_wall_s"][0] for r in reports]
        probe = [x / r["metrics"]["wall_s"][0] for x, r in zip(raw, reports)]
        row["raw_wall_vs_probe_correlation"] = statistics.correlation(raw, probe)
        print(f"  correlation of raw_wall_s with the probe time over the runs: "
              f"{row['raw_wall_vs_probe_correlation']:.3f}", flush=True)
        if args.trace:
            traced = [run_once(wl, args.first_seed + i, seconds, trace=True)[0]
                      for i in range(TRACED_RUNS)]
            layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
            overheads = [lay["trace.overhead_ratio"] for lay in layers]
            exact = sorted(k for k in layers[0]
                           if k == "densities.calls" or k.endswith(".nm_iterations"))
            repeat = {k: len({lay[k] for lay in layers}) == 1 for k in exact}
            row["traced"] = {"seeds": [args.first_seed + i for i in range(TRACED_RUNS)],
                             "correct": all(t["correct"] for t in traced),
                             "failed": sum(t["failed"] for t in traced),
                             "per_layer": layers[0], "overhead_ratio": overheads,
                             "counts_repeat_exactly": repeat}
            row["tracing_overhead_ratio"] = statistics.median(overheads)
            row["correct"] = row["correct"] and row["traced"]["correct"] and all(repeat.values())
            print(f"  {TRACED_RUNS} traced runs: trace.wall_s {layers[0]['trace.wall_s']:.4g} s, "
                  "tracing overhead " + ", ".join(f"{o:+.2%}" for o in overheads), flush=True)
            print(f"  densities.calls and mle.*.nm_iterations repeat exactly: {all(repeat.values())}"
                  + ("" if all(repeat.values()) else f" {repeat}"), flush=True)
        summary["workloads"][wl] = row
        summary["provenance"] = reports[0].get("provenance")

    if args.baseline:
        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {"entries": []}
        if doc["entries"]:
            summary["median_change_vs_previous"] = compare(doc["entries"][-1], summary, bounds)
        doc["entries"].append(summary)
        args.baseline.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
