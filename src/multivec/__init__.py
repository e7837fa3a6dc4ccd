"""Multivector variate distributions.

Joint densities for dependent random vectors built from elliptical
generator kernels (Kotz, Pearson VII/II, Bessel), the derived gamma, beta,
t and log-gamma families, exact samplers, maximum-likelihood
fitting for paired positive data, and a validation layer whose `check`
suites run quadrature normalization, the radial-integral and Jacobian
identities, and sampler goodness of fit; `mc_normalization` is a library
oracle that no suite runs.
"""

import importlib

__version__ = "0.1.0"

# Public names by defining submodule: the one list of them, from which each
# submodule but `errors` derives its `__all__`.  A submodule is imported on
# the first access to one of its names (PEP 562), so `import multivec` alone
# loads neither numpy nor scipy, and the CLI pays only for what a command runs.
_EXPORTS = {
    "core": (
        "ExtendedShape", "FitResult", "MvEllipticalParams", "Partition", "SampleMatrix",
        "ScaleShapeParams", "block_quadform", "spd_factorize", "validate_partition",
    ),
    "generators": (
        "Bessel", "GeneratorSpec", "Kotz", "PearsonII", "PearsonVII", "RadialLaw",
        "log_bessel_k", "log_h", "log_norm_const",
    ),
    "densities": (
        "BetaParams", "GammaLogGammaParams", "JointScaleParams", "MixedParams",
        "MvTParams", "logpdf_gamma_loggamma", "logpdf_gengamma_beta1",
        "logpdf_gengamma_beta2", "logpdf_gengamma_pearson2", "logpdf_gengamma_pearson7",
        "logpdf_mixed_ell_logell", "logpdf_mv_beta1", "logpdf_mv_beta2",
        "logpdf_mv_elliptical", "logpdf_mv_gengamma", "logpdf_mv_log_elliptical",
        "logpdf_mv_pearson2", "logpdf_mv_t",
    ),
    "sampling": (
        "make_rng", "sample_gamma_loggamma", "sample_gengamma_beta1",
        "sample_gengamma_beta2", "sample_gengamma_pairs", "sample_gengamma_pearson2",
        "sample_gengamma_pearson7", "sample_mixed_ell_logell", "sample_mv_beta1",
        "sample_mv_beta2", "sample_mv_elliptical", "sample_mv_gengamma",
        "sample_mv_log_elliptical", "sample_mv_pearson2", "sample_mv_t", "sample_radius",
        "sample_unit_sphere", "spawn_rngs",
    ),
    "mle": (
        "KotzGammaDepParams", "SuffStats", "fit_dependent", "fit_independent",
        "gamma_init", "loglik_dependent", "loglik_independent",
    ),
    "validation": (
        "CheckReport", "jacobian_check", "jacobian_grid_check", "mc_normalization",
        "pushforward_check", "quad_normalization", "radial_integral_identity_check",
        "run_identity_suite", "run_normalization_suite", "run_pushforward_suite",
    ),
    "errors": (
        "DegenerateSample", "DegenerateWeights", "DimensionMismatch", "EmptySample",
        "MultivecError", "NonFiniteLikelihood", "NonPositiveInput",
        "NotPositiveDefinite", "ParameterOutOfDomain", "QuadratureFailure",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups bypass __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
