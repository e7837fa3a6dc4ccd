"""multivec benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {verify,fit,batch,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (``src/multivec`` must exist there;
nothing needs installing).  The timed run (``--trace 0``) sets up the
workload (import, inputs from the seed, warm-up), then repeats the workload's
fixed job (one pass) until ``--seconds`` have elapsed, at least once, with
one op in flight.  Every op is checked; an op that raises, exceeds its cap
or fails its check counts as failed and the run goes on.  The traced run
(``--trace 1``) runs the layer probes in a fresh interpreter and one traced
pass, and reports per-layer numbers; its spans go to ``perfbench/out/``.
In that pass each op also runs untraced, right before or after its traced
run; the difference, as a share of the untraced time, is the tracing
overhead.  Times in the gated metrics are rescaled to a reference host
speed (see HostSpeed).
Every run reports the same per-layer names; a layer or case the workload
does not exercise reads 0.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json.  Lines before it start with ``#``: the
provenance, every end-to-end metric of the workload by name and unit, and a
``# report`` JSON line that ``sweep.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 150.0  # ops are capped so that a run ends well within 180 s
SETUP_REPEATS = 4  # setup_s is the median of this many fresh set-ups
LAYERS = ("core", "generators", "densities", "sampling", "mle", "validation", "cli")


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools before numpy loads; leave MULTIVEC_THREADS unset."""
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MULTIVEC_THREADS", None)
    return nproc


def provenance(nproc: int) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    head = "unknown"  # a checkout without .git has no commit to name
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            head = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "git_head": head}


# The host's speed drifts by up to a third over minutes, and the measured
# time of a run follows the time of a fixed interpreter loop: across runs
# they correlate 0.85-0.92 for verify, fit and batch, and 0.3-0.7 for cli,
# whose ops run in child processes (sweep.py prints the correlation;
# perfbench/baseline.json records it).  Raw spreads broke the bounds.
# So the gated times are rescaled to a reference host speed: a block's
# seconds are multiplied by SPEED_REF_S over the mean time of that loop,
# timed just before and after the block and once per second of CPU time
# inside it, with the loop's own time left out of the block's.  The
# measured times are in the report as raw_wall_s and raw_setup_s.
SPEED_REF_S = 0.003


def speed_probe_s() -> float:
    """Median of three timings of a fixed pure-interpreter loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Times a block, and the speed probe before, during and after it."""

    def __enter__(self):
        self.samples = [speed_probe_s()]
        self.probe_s = 0.0
        self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, 1.0, 1.0)
        self.t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(speed_probe_s())
        self.probe_s += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self.t0 - self.probe_s
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        self.samples.append(speed_probe_s())
        self.scaled = self.seconds * SPEED_REF_S / statistics.mean(self.samples)


class OpTimeout(BaseException):
    """Raised by the op cap's alarm; a BaseException so no library handler eats it."""


def run_capped(fn, cap_s: float):
    def alarm(signum, frame):
        raise OpTimeout()

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def import_workloads():
    """Import the benchmark's workloads against the checkout's own source."""
    sys.path.insert(0, str(ROOT / "src"))
    import multivec
    import workloads

    if Path(multivec.__file__).resolve().parent != (ROOT / "src" / "multivec").resolve():
        raise SystemExit(f"multivec imported from {multivec.__file__}, not from {ROOT / 'src'}")
    return workloads


def timed_setup(name: str, seed: int, tiny: bool):
    with HostSpeed() as setup:
        W = import_workloads()
        wl = W.WORKLOADS[name]
        st = wl.setup(seed, tiny, ROOT)
    return W, wl, st, (setup.scaled, setup.seconds)


def child_json(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def injected_ops(W):
    """Two ops that must fail: one raises, one overruns its cap."""
    def boom(tr):
        raise RuntimeError("injected failure")

    def spin(tr):
        t_end = time.perf_counter() + 5.0
        while time.perf_counter() < t_end:
            pass

    return [W.Op("injected-raise", "injected", boom, lambda out: None, cap_s=5.0),
            W.Op("injected-overrun", "injected", spin, lambda out: None, cap_s=0.2)]


def run_op(W, op, tracer, deadline: float):
    """Run one op under its cap and check its output; return its OpResult."""
    cap = min(op.cap_s, deadline - time.perf_counter())
    if cap <= 0:
        return W.OpResult(op.name, op.kind, 0.0, 0.0, "run deadline reached before op")
    out, error = None, None
    with tracer.span(op.name, "bench", op_id=len(tracer.spans) if tracer.enabled else None):
        try:
            with HostSpeed() as timed:
                out = run_capped(lambda: op.run(tracer), cap)
        except OpTimeout:
            error = f"exceeded cap of {cap:.3g} s"
        except Exception as exc:  # the run continues; the op counts as failed
            error = f"{type(exc).__name__}: {exc}"
    res = W.OpResult(op.name, op.kind, timed.seconds, timed.scaled, error)
    if error is None:
        try:
            res.error = op.check(out)
            if res.error is None and op.extra is not None:
                res.extra = op.extra(out)
        except Exception as exc:
            res.error = f"check raised {type(exc).__name__}: {exc}"
    return res


def run_pass(W, wl, st, pass_index: int, deadline: float, inject: bool) -> list:
    from tracing import NullTracer

    ops = wl.ops(st, pass_index) + (injected_ops(W) if inject else [])
    return [run_op(W, op, NullTracer(), deadline) for op in ops]


def run_traced_pass(W, wl, st, tracer, deadline: float, inject: bool):
    """The traced pass, and the tracing overhead measured on the same ops.

    Each op runs traced and untraced back to back, the order alternating
    from op to op and, over ``wl.trace_rounds`` rounds, from round to round;
    rounds after the first trace into a throwaway tracer.  One-time costs are
    paid first, so that neither copy of an op carries them.  Returns the
    first round's traced results, every round's traced results, and the
    overhead as a share of the untraced time at the reference host speed."""
    from tracing import NullTracer, Tracer

    wl.warm(st)
    untraced = NullTracer()
    first, every, traced_s, plain_s = [], [], 0.0, 0.0
    for rnd in range(wl.trace_rounds):
        tr = tracer if rnd == 0 else Tracer()
        ops = wl.ops(st, rnd) + (injected_ops(W) if inject else [])
        with tr.span(f"workload.{wl.name}", "bench"):
            for i, op in enumerate(ops):
                if (i + rnd) % 2:
                    res = run_op(W, op, tr, deadline)
                    plain = run_op(W, op, untraced, deadline)
                else:
                    plain = run_op(W, op, untraced, deadline)
                    res = run_op(W, op, tr, deadline)
                if rnd == 0:
                    first.append(res)
                every.append(res)
                traced_s += res.scaled
                plain_s += plain.scaled
    return first, every, traced_s / plain_s - 1.0


def per_layer_names(W) -> dict[str, str]:
    """Every per-layer metric name with its unit, the same for all workloads."""
    names = []
    for layer in LAYERS:
        if layer != "core":  # no workload calls core directly; the probes time it
            names += [f"{layer}.calls", f"{layer}.self_s"]
    names += ["core.spd_factorize_us.1x1", "core.spd_factorize_us.3x3"]
    names += [f"generators.log_norm_const_us.{g}" for g in ("kotz", "pearson7", "bessel")]
    names += ["generators.log_bessel_k_per_s"]
    names += [f"densities.{f}.scalar_us" for f in W.SCALAR_PROBE_FAMILIES]
    names += ["sampling.bessel.cold_build_s"]
    for m in W.FIT_SIZES:
        names += [f"mle.loglik_dependent_us.{m}", f"mle.loglik_independent_us.{m}"]
    names += ["cli.interpreter_s", "cli.import_s"]
    for case in W.quad_cases(tiny=False):
        names += [f"validation.quad.{case[0]}.{k}" for k in ("s", "evals", "err_est")]
    names += ["validation.quad.self_s"]
    names += [f"validation.push.{case[0]}.s" for case in W.push_cases()]
    names += ["validation.push.self_s", "validation.mc.ess"]
    for kind in W.FIT_KINDS:
        for m in W.FIT_SIZES:
            names += [f"mle.{kind}.{m}.{k}" for k in ("nm_iterations", "converged_ratio", "s_per_iteration")]
    for f in W.batch_families():
        names += [f"densities.{f.name}.batch_per_s", f"sampling.{f.name}.draws_per_s"]
    for cmd in W.CLI_COMMANDS:
        names += [f"cli.{cmd}.wall_s", f"cli.{cmd}.inproc_s"]
    names += ["trace.wall_s", "trace.overhead_ratio", "trace.spans"]
    return {n: unit_of(n) for n in names}


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith(("_s", ".s", "s_per_iteration")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("err_est"):
        return "abs"
    return "count"


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["verify", "fit", "batch", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--inject-failure", action="store_true", help="self-test: add failing ops")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    nproc = pin_threads()
    if not (ROOT / "src" / "multivec" / "__init__.py").is_file():
        print(f"error: no multivec source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.probe:
        sys.path.insert(0, str(ROOT / "src"))
        import probes

        print(json.dumps(probes.run_probes()))
        return 0

    W, wl, st, setup_s = timed_setup(args.workload, args.seed, args.tiny)
    if args.setup_only:
        wl.close(st)
        print(json.dumps({"setup_s": setup_s}))  # (scaled, raw)
        return 0
    try:
        return measure(args, W, wl, st, setup_s, nproc, started)
    finally:
        wl.close(st)


def measure(args, W, wl, st, setup_s, nproc, started) -> int:
    from tracing import Tracer

    prov = provenance(nproc)
    print("# provenance " + json.dumps(prov))
    deadline = started + RUN_DEADLINE_S
    child_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        child_args.append("--tiny")
    if args.trace:
        probe = child_json(["--probe", *child_args])
        tracer = Tracer()
        results, attempts, overhead = run_traced_pass(W, wl, st, tracer, deadline,
                                                      args.inject_failure)
    else:
        results, passes = [], []
        t_start = time.perf_counter()
        while True:
            batch = run_pass(W, wl, st, len(passes), deadline, args.inject_failure)
            results += batch
            passes.append(sum(r.scaled for r in batch))
            elapsed = time.perf_counter() - t_start
            if (elapsed >= args.seconds and len(passes) >= wl.min_passes) or time.perf_counter() >= deadline:
                break
        attempts = results
        setups = [setup_s] + [tuple(child_json(["--setup-only", *child_args])["setup_s"])
                              for _ in range(SETUP_REPEATS - 1)]

    failed = [r for r in attempts if r.error is not None]
    for r in failed:
        print(f"# FAILED {r.name}: {r.error}")
    attempted = len(attempts)
    # the job's wall time: each op's median over the passes, summed, so that
    # one slow spell of the host moves one sample of each op at most
    by_op: dict[str, list[W.OpResult]] = {}
    for r in results:
        by_op.setdefault(r.name, []).append(r)
    wall_s = sum(statistics.median(r.scaled for r in v) for v in by_op.values())
    raw_wall_s = sum(statistics.median(r.seconds for r in v) for v in by_op.values())

    if args.trace:
        metrics = {n: (0.0, u) for n, u in per_layer_names(W).items()}
        found = dict(probe)
        for layer, row in tracer.layer_totals().items():
            if f"{layer}.calls" in metrics:
                found[f"{layer}.calls"] = row["calls"]
                found[f"{layer}.self_s"] = row["self_s"]
        found.update(wl.layer_metrics(st, tracer, results))
        found["trace.wall_s"] = raw_wall_s
        found["trace.overhead_ratio"] = overhead
        found["trace.spans"] = len(tracer.spans)
        unknown = set(found) - set(metrics)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from the list: {sorted(unknown)}")
        for n, v in found.items():
            metrics[n] = (float(v), metrics[n][1])
        print(f"# tracing overhead {overhead:+.2%} over {wl.trace_rounds} round(s)")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (wl.peak_rss_mb(st), "MB"),
        }
        report = {
            "workload": args.workload, "seed": args.seed, "provenance": prov, "passes": len(passes),
            "pass_s": passes, "setups_s": setups, "attempted": attempted, "failed": len(failed),
            "ops": [[r.name, r.kind, r.seconds, r.scaled, r.error] for r in results],
            "metrics": dict(metrics),
        }
        report["metrics"]["raw_setup_s"] = (statistics.median(raw for _, raw in setups), "s")
        report["metrics"]["raw_wall_s"] = (raw_wall_s, "s")
        report["metrics"]["ops_failed_ratio"] = (len(failed) / attempted, "ratio")
        report["metrics"].update(wl.summary(st, results))
        for name, (value, unit) in report["metrics"].items():
            print(f"# metric {name} {'n/a' if value is None else format(value, '.6g')} {unit}")
        print("# report " + json.dumps(report))
    emit(not failed, attempted, len(failed), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
