"""Command-line front end: fit, eval, sample, check, grid.

Families are exposed under flat name->value parameter maps (scalar blocks;
the library API handles general block structures); the keys of each are
defined by its record in ``families.FAMILIES``.  All numeric output is
deterministic given the flags: JSON uses canonical key order with
17-significant-digit decimals, CSV uses fixed headers and '.' decimals, and
no timestamps or locale-dependent formatting appear anywhere.

Exit codes: 0 success, 1 input error, 2 non-convergence, 3 check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import __version__
from .core import SampleMatrix
from .errors import MultivecError, NonPositiveInput
from .families import FAMILIES, Family
from .sampling import make_rng

# mle and validation are imported inside the commands that run them, so each
# command pays at start-up only for what it uses; validation itself defers
# scipy.stats, scipy.integrate and scipy.interpolate to the suites that use them
if TYPE_CHECKING:
    from .validation import CheckReport

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CHECK_FAILED = 3


class _CliError(Exception):
    """Input-level failure; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for non-convergence, so flag errors
    # must exit 1 rather than argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    """17-significant-digit decimal, the lossless double round-trip encoding."""
    return format(float(x), ".17g")


def _canonical_json(obj) -> str:
    """Canonical document encoding: sorted keys, 2-space indent, .17g floats."""

    def enc(o, indent: int) -> str:
        pad, pad_in = " " * indent, " " * (indent + 2)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                f'{pad_in}"{k}": {enc(o[k], indent + 2)}' for k in sorted(o)
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [f"{pad_in}{enc(v, indent + 2)}" for v in o]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            if not math.isfinite(o):
                raise _CliError(f"cannot encode non-finite number {o}")
            return _fmt(o)
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o)
        raise _CliError(f"cannot encode {type(o).__name__}")

    return enc(obj, 0) + "\n"


# ---------------------------------------------------------------------------
# Models: the families whose records define flat keys

_MODELS = {name: f for name, f in FAMILIES.items() if f.build is not None}


def _get_model(name: str) -> Family:
    if name not in _MODELS:
        known = ", ".join(sorted(_MODELS))
        raise _CliError(f"unknown model '{name}'; known models: {known}")
    return _MODELS[name]


# ---------------------------------------------------------------------------
# Params documents and CSV plumbing


def _load_params(path: str) -> dict[str, float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read params file: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"params file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise _CliError("params file must contain a JSON object")
    params = doc.get("params", doc)
    if not isinstance(params, dict):
        raise _CliError("'params' must be a JSON object of name -> number")
    return params


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}")


def _write_csv(path: str, header: Sequence[str], rows: np.ndarray) -> None:
    rows = np.atleast_2d(rows)
    fmt = ",".join(["%.17g"] * rows.shape[1])  # as _fmt, one row per format
    lines = [",".join(header), *(fmt % tuple(row) for row in rows.tolist())]
    _write_text(path, "\n".join(lines) + "\n")


def _read_pairs_csv(path: str) -> SampleMatrix:
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise _CliError(f"cannot read input file: {exc}")
    with fh:
        reader = csv.reader(fh)
        rows: list[tuple[float, float]] = []
        header = next(reader, None)
        if header is None:
            raise _CliError("line 1: empty file; expected header 'u,v'")
        if [c.strip() for c in header] != ["u", "v"]:
            raise _CliError(f"line 1: expected header 'u,v', got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise _CliError(f"line {lineno}: expected 2 columns, got {len(row)}")
            vals = []
            for col, cell in zip("uv", row):
                try:
                    v = float(cell)
                except ValueError:
                    raise _CliError(
                        f"line {lineno}: column {col} is not a decimal: {cell!r}"
                    )
                if not math.isfinite(v) or v <= 0:
                    raise _CliError(
                        f"line {lineno}: column {col} must be a positive decimal, got {cell.strip()}"
                    )
                vals.append(v)
            rows.append((vals[0], vals[1]))
    if len(rows) < 3:
        raise _CliError(f"need at least 3 data rows, got {len(rows)}")
    return SampleMatrix(np.asarray(rows, dtype=float))


def _threads() -> int:
    raw = os.environ.get("MULTIVEC_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise _CliError(f"MULTIVEC_THREADS must be an integer, got {raw!r}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_fit(args) -> int:
    from .mle import fit_dependent, fit_independent

    data = _read_pairs_csv(args.input)
    fit = fit_dependent if args.mode == "dependent" else fit_independent
    result = fit(data, max_iter=args.max_iters)
    doc = {
        "loglik": result.loglik,
        "meta": {
            "converged": result.converged,
            "iterations": result.iterations,
            "pinned": list(result.pinned),
            "seed": None,
            "version": __version__,
        },
        "mode": result.mode,
        "model": "kotz-gamma",
        "params": dict(result.params),
    }
    _write_text(args.out, _canonical_json(doc))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_eval(args) -> int:
    model = _get_model(args.model)
    params = _load_params(args.params)
    try:
        point = [float(tok) for tok in args.point.split(",") if tok.strip() != ""]
    except ValueError:
        raise _CliError(f"--point must be comma-separated decimals, got {args.point!r}")
    if not point:
        raise _CliError("--point is empty")
    if not all(math.isfinite(v) for v in point):
        raise _CliError("--point values must be finite")
    k = len(point) - model.joint
    if k < 1:
        raise _CliError(
            f"model '{model.name}' has no block count matching a {len(point)}-dimensional point"
        )
    x = np.asarray([point], dtype=float)
    try:
        value = float(np.asarray(model.logpdf(model.build(params, k), x)).reshape(-1)[0])
    except NonPositiveInput:
        value = -math.inf  # outside the positive support the density is zero
    print("-inf" if value == -math.inf else format(value, ".12g"))
    return EXIT_OK


def cmd_sample(args) -> int:
    model = _get_model(args.model)
    params = _load_params(args.params)
    if args.n < 0:
        raise _CliError(f"-n must be >= 0, got {args.n}")
    k = model.count(params)
    d = model.dim(k)
    header = model.columns(d)
    if args.n == 0:
        _write_csv(args.out, header, np.zeros((0, d)))
        return EXIT_OK
    rng = make_rng(args.seed)
    rows = model.sample(model.build(params, k), rng, args.n)
    if rows.shape != (args.n, d):
        raise _CliError(
            f"internal: sampler produced shape {rows.shape}, expected {(args.n, d)}"
        )
    _write_csv(args.out, header, rows)
    return EXIT_OK


def _corrupted_report() -> CheckReport:
    """Hidden hook: run the quadrature oracle against a mis-scaled density."""
    from .validation import _fixture, quad_normalization

    case = _fixture("mv-gengamma-kotz-k1")
    logpdf = FAMILIES[case.family].logpdf

    def broken(x):
        return math.log(2.0) + logpdf(case.params, x)

    return quad_normalization(
        broken, case.support, case.quad_tol, name="corrupt-hook-mis-scaled-density"
    )


def cmd_check(args) -> int:
    from .validation import run_identity_suite, run_normalization_suite, run_pushforward_suite

    suites: dict[str, Callable[[], list[CheckReport]]] = {
        "normalization": lambda: run_normalization_suite(args.seed),
        "identities": lambda: run_identity_suite(args.seed, n_draws=args.n_draws),
        "pushforward": lambda: run_pushforward_suite(args.seed, n_draws=args.n_draws),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    with ThreadPoolExecutor(max_workers=min(_threads(), len(names))) as pool:
        futures = [pool.submit(suites[name]) for name in names]
        reports = [r for fut in futures for r in fut.result()]
    if args.corrupt:
        reports.append(_corrupted_report())
    for rep in reports:
        print(rep.to_json())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_grid(args) -> int:
    if args.model != "kotz-gamma-2d":
        raise _CliError("grid supports --model kotz-gamma-2d")
    params = _load_params(args.params)
    model = _MODELS["kotz-gamma"]
    family_params = model.build(params, 2)
    try:
        bounds = [float(tok) for tok in args.range.split(",")]
    except ValueError:
        raise _CliError(f"--range must be four decimals, got {args.range!r}")
    if len(bounds) != 4:
        raise _CliError(f"--range must be 'umin,umax,vmin,vmax', got {args.range!r}")
    umin, umax, vmin, vmax = bounds
    if not all(math.isfinite(b) for b in bounds) or umin <= 0 or vmin <= 0:
        raise _CliError("--range bounds must be finite and positive")
    if args.steps < 1:
        raise _CliError(f"--steps must be >= 1, got {args.steps}")
    if args.steps > 1 and (umin >= umax or vmin >= vmax):
        raise _CliError("--range needs umin < umax and vmin < vmax")
    us = np.linspace(umin, umax, args.steps)
    vs = np.linspace(vmin, vmax, args.steps)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    pts = np.column_stack([uu.ravel(), vv.ravel()])
    logpdf = np.asarray(model.logpdf(family_params, pts), dtype=float)
    with np.errstate(under="ignore"):
        pdf = np.exp(logpdf)  # underflow flushes to exactly 0
    rows = np.column_stack([pts, pdf])
    _write_csv(args.out, ["u", "v", "pdf"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> _Parser:
    parser = _Parser(prog="multivec", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"multivec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the paired kotz-gamma model to a u,v CSV")
    p_fit.add_argument("--model", required=True, choices=["kotz-gamma"])
    p_fit.add_argument("--mode", required=True, choices=["dependent", "independent"])
    p_fit.add_argument("--input", required=True, help="CSV with header u,v")
    p_fit.add_argument("--out", required=True, help="output params JSON")
    p_fit.add_argument("--max-iters", type=int, default=10_000)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="print the log-density at a point")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--params", required=True, help="params JSON file")
    p_eval.add_argument(
        "--point", required=True,
        help='comma-separated point "v1,v2,..." (write --point=-1,2 when v1 is negative)',
    )
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="write N draws to CSV")
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--params", required=True, help="params JSON file")
    p_sample.add_argument("-n", type=int, required=True, help="number of rows")
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", required=True, help="output CSV")
    p_sample.set_defaults(func=cmd_sample)

    p_check = sub.add_parser("check", help="run validation suites, emit JSON lines")
    p_check.add_argument(
        "--suite", required=True,
        choices=["normalization", "identities", "pushforward", "all"],
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--n-draws", type=int, default=100_000)
    p_check.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p_check.set_defaults(func=cmd_check)

    p_grid = sub.add_parser("grid", help="emit a density surface as u,v,pdf rows")
    p_grid.add_argument("--model", required=True)
    p_grid.add_argument("--params", required=True, help="params JSON file")
    p_grid.add_argument("--range", required=True, help='"umin,umax,vmin,vmax"')
    p_grid.add_argument("--steps", type=int, required=True)
    p_grid.add_argument("--out", required=True, help="output CSV")
    p_grid.set_defaults(func=cmd_grid)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MultivecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
