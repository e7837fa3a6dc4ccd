"""Direct-call probes of single layers, run in a fresh interpreter.

The traced run starts this module in a child process so that the import and
the Bessel inverse-CDF build are measured cold.  Each probe times calls into
one public function; per-call figures are medians over repeated batches.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time


def per_call_us(fn, calls: int, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def run_probes() -> dict[str, float]:
    out: dict[str, float] = {}
    t0 = time.perf_counter()
    import multivec.cli  # noqa: F401  (the whole package, as the CLI pays it)

    out["cli.import_s"] = time.perf_counter() - t0
    ts = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        ts.append(time.perf_counter() - t0)
    out["cli.interpreter_s"] = statistics.median(ts)

    import numpy as np

    from multivec import (
        Bessel, Kotz, PearsonVII, SuffStats, log_bessel_k, log_norm_const,
        loglik_dependent, loglik_independent, make_rng, sample_mv_elliptical,
        spd_factorize,
    )
    import workloads as W

    # cold: nothing in this process has built the Bessel inverse CDF yet
    bessel_p, bessel_spec = W._bessel_fixture()
    draw = lambda: sample_mv_elliptical(bessel_p, bessel_spec, make_rng(0), size=1)
    t0 = time.perf_counter()
    draw()
    cold = time.perf_counter() - t0
    out["sampling.bessel.cold_build_s"] = cold - per_call_us(draw, 20) * 1e-6

    s1 = np.array([[2.0]])
    s3 = np.eye(3) + 0.3 * np.ones((3, 3))
    out["core.spd_factorize_us.1x1"] = per_call_us(lambda: spd_factorize(s1), 500)
    out["core.spd_factorize_us.3x3"] = per_call_us(lambda: spd_factorize(s3), 500)

    for label, spec in (("kotz", Kotz(q=1.5, r=0.4, s=1.1)),
                        ("pearson7", PearsonVII(r=3.0, q=2.2)),
                        ("bessel", Bessel(r=1.0, q=0.3))):
        out[f"generators.log_norm_const_us.{label}"] = per_call_us(
            lambda spec=spec: log_norm_const(spec, 2.0), 500)
    z = np.geomspace(1e-3, 50.0, 100_000)
    out["generators.log_bessel_k_per_s"] = z.size / (per_call_us(lambda: log_bessel_k(0.3, z), 1, 3) * 1e-6)

    families = {f.name: f for f in W.batch_families()}
    rng = make_rng(0)
    for name in W.SCALAR_PROBE_FAMILIES:
        f = families[name]
        x = f.sample(rng, 1)[0]
        out[f"densities.{name}.scalar_us"] = per_call_us(lambda f=f, x=x: f.logpdf_one(x), 200)

    for m in W.FIT_SIZES:
        pairs = W.sample_pairs(m, make_rng(m))
        stats = SuffStats(pairs[:, 0], pairs[:, 1])
        out[f"mle.loglik_dependent_us.{m}"] = per_call_us(lambda: loglik_dependent(W.TRUTH, stats), 500)
        u = pairs[:, 0]
        out[f"mle.loglik_independent_us.{m}"] = per_call_us(
            lambda u=u: loglik_independent(1.0, 5.0, 0.4, 1.5, 1.1, u), 200)
    return out
