"""Self-test of the benchmark harness at tiny sizes (about three minutes).

    python3 perfbench/selftest.py

Checks, for every workload, that the timed run emits every end-to-end
metric of BENCHMARK.json with its unit and every end-to-end metric the
workload defines in its report; that the traced run emits every per-layer
metric with its unit; that injected failing ops (one raises, one overruns its
cap) raise the failure count instead of aborting the run; and that the
benchmark refuses to run in a directory without the multivec source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORTED = {
    "verify": (),
    "fit": ("fit_dependent_s", "fit_independent_s"),
    "batch": ("logpdf_evals_per_s", "draws_per_s"),
    "cli": ("cli_p50_s", "cli_tail_s"),
}
COMMON = ("setup_s", "wall_s", "ops_failed_ratio", "peak_rss_mb")


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--tiny", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def last_json(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    return doc


def report(lines: list[str]) -> dict:
    return json.loads(next(ln for ln in lines if ln.startswith("# report "))[len("# report "):])


def assert_metrics(doc: dict, spec: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    assert got == want, f"{what}: metric names/units differ: {set(got) ^ set(want)}"
    for name, v in doc["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), (what, name, v)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for wl in REPORTED:
        rc, lines = run(wl, "--trace", "0")
        assert rc == 0, f"{wl}: exit {rc}"
        doc = last_json(lines)
        assert doc["correct"] and doc["failed"] == 0, f"{wl}: {lines}"
        assert_metrics(doc, bench["end_to_end"], f"{wl} timed")
        assert all(v["value"] > 0 for v in doc["metrics"].values()), doc
        rep = report(lines)
        for name in COMMON + REPORTED[wl]:
            value, unit = rep["metrics"][name]
            assert unit, (wl, name)
        print(f"{wl}: timed run emits {sorted(doc['metrics'])} and reports "
              f"{sorted(rep['metrics'])}", flush=True)

        rc, lines = run(wl, "--trace", "1")
        assert rc == 0, f"{wl} traced: exit {rc}"
        doc = last_json(lines)
        assert doc["correct"], f"{wl} traced: {lines}"
        assert_metrics(doc, bench["per_layer"], f"{wl} traced")
        print(f"{wl}: traced run emits all {len(doc['metrics'])} per-layer metrics", flush=True)

    rc, lines = run("fit", "--trace", "0", "--inject-failure")
    assert rc == 0, f"injected failure aborted the run: exit {rc}"
    doc = last_json(lines)
    rep = report(lines)
    assert not doc["correct"] and doc["failed"] == 2 * rep["passes"], doc  # two per pass
    assert rep["metrics"]["ops_failed_ratio"][0] == doc["failed"] / doc["attempted"], rep["metrics"]
    assert any("exceeded cap" in ln for ln in lines), "the overrunning op was not capped"
    print(f"injected failures: failed {doc['failed']} of {doc['attempted']}, run completed")

    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        rc, lines = run("fit", "--trace", "0", cwd=bare)
        assert rc != 0 and not any(ln.startswith("{") for ln in lines), (rc, lines)
        print(f"without the multivec source: exit {rc}, no result printed")
    finally:
        shutil.rmtree(bare)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
