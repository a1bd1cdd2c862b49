"""Batch command-line interface.

Subcommands: ``catalog``, ``eval``, ``certify``, ``simulate``, ``fit``,
``predict``, ``bench toy``, ``bench rates``.  Exit codes are a stable contract:
0 success, 1 usage error, 2 runtime or precision failure, 3 certification
failure.  Every run with a seed is deterministic down to output bytes on
one BLAS configuration (library, version, thread count); floats are written
with shortest round-trip formatting.  A JSON config file
may mirror any long flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bench import TOY_BANDWIDTH_GRID, bench_rates, bench_toy
from .calibrate import certify_gain, sandwich_check, sandwich_row
from .errors import GainRegError, InvalidInputError, InvalidParameterError, NonFiniteResultError
from .features import (
    DEFAULT_CENTER_CAP,
    HypothesisModel,
    kernel_map,
    linear_map,
    model_from_json,
    model_to_json,
    subsample_centers,
)
from .gains import GainSpec, catalog, eval_gain, eval_gain_derivative, loss_from_gain
from .quadrature import QuadratureConfig
from .simulate import Dataset, NoiseSpec, gen_location, gen_toy, toy_noise_spec
from .solver import (
    METHODS,
    SolverConfig,
    cross_validate_sigma,
    default_config,
    fit_egm,
    predict_batch,
    sigma_schedule,
)

EXIT_OK = 0
EXIT_RUNTIME = 2
EXIT_CERTIFICATION = 3


class UsageError(GainRegError):
    exit_code, label = 1, "usage error"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_rows(path: Optional[str], header: Sequence[str], rows: Sequence[Sequence]) -> None:
    def emit(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if path is None or path == "-":
        emit(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            emit(handle)


def _sidecar(args, **resolved) -> Optional[str]:
    """The text of ``<out>.meta.json``: every parsed flag, the full subcommand, the
    version, and the values the command resolved (which replace their flags); None
    for stdout.  Commands build it before they write, so a run whose sidecar cannot
    be written writes nothing."""
    if args.out is None or args.out == "-":
        return None
    metadata = {k: v for k, v in vars(args).items() if k not in ("fn", "config", "out")}
    words = (metadata["command"], metadata.pop("bench_command", None))
    metadata.update(command=" ".join(filter(None, words)), version=__version__, **resolved)
    try:
        return json.dumps(metadata, indent=2, sort_keys=True) + "\n"
    except RecursionError:  # a noise nested about as deep as the parser allows
        raise UsageError("--noise: nested too deep to record in the sidecar") from None


def _write_sidecar(args, text: Optional[str]) -> None:
    if text is not None:
        Path(args.out + ".meta.json").write_text(text, encoding="utf-8")


def dataset_to_csv(data: Dataset, path: str) -> None:
    d = data.inputs.shape[1]
    header = [f"x_{j}" for j in range(d)] + ["y"]
    rows = [list(x) + [y] for x, y in zip(data.inputs, data.outputs)]
    _write_rows(path, header, rows)


def dataset_from_csv(path: str) -> Dataset:
    """Read a data CSV; malformed content is invalid input, never a traceback."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header or header[-1] != "y":
                raise InvalidInputError(f"{path}: expected header x_0,...,y")
            rows = []
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != len(header):
                    raise InvalidInputError(
                        f"{path}:{line}: {len(row)} cells, the header has {len(header)}"
                    )
                try:
                    values = [float(v) for v in row]
                except ValueError:
                    raise InvalidInputError(f"{path}:{line}: non-numeric cell") from None
                if not all(math.isfinite(v) for v in values):
                    raise InvalidInputError(f"{path}:{line}: non-finite value")
                rows.append(values)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path}: not a readable CSV ({exc})") from None
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(inputs=arr[:, :-1], outputs=arr[:, -1])


def parse_noise(text: str) -> NoiseSpec:
    """Noise from a shorthand (normal:mu:sd, student_t:nu, pareto:a, toy) or JSON."""
    text = text.strip()
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise UsageError(f"--noise: malformed JSON ({exc})") from None
        return noise_from_dict(payload)
    kind, *params = text.split(":")
    values = [_number(p, "--noise") for p in params]
    if kind == "toy":
        return toy_noise_spec()
    if kind == "normal":
        mu = values[0] if len(values) > 0 else 0.0
        sd = values[1] if len(values) > 1 else 1.0
        return NoiseSpec.gaussian(mu, sd)
    if kind == "student_t" and len(values) == 1:
        return NoiseSpec.student_t(values[0])
    if kind == "pareto" and len(values) == 1:
        return NoiseSpec.symmetric_pareto(values[0])
    raise InvalidParameterError(
        f"noise shorthand {text!r} is none of normal:mu:sd, student_t:nu, pareto:a, toy"
    )


def noise_from_dict(payload: dict) -> NoiseSpec:
    """Noise from its JSON form; a missing or mistyped field is a usage error."""
    try:
        family = payload["family"]
        if family == "gaussian_mixture":
            return NoiseSpec.gaussian_mixture([tuple(c) for c in payload["mixture"]])
        if family == "student_t":
            return NoiseSpec.student_t(payload["df"])
        if family == "symmetric_pareto":
            return NoiseSpec.symmetric_pareto(payload["tail_index"])
        if family == "contaminated":
            return NoiseSpec.contaminated(
                noise_from_dict(payload["base"]), payload["rate"], payload["outlier_values"]
            )
    except KeyError as exc:
        raise UsageError(f"--noise: the JSON has no {exc} field") from None
    except (TypeError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise UsageError(f"--noise: malformed JSON field ({exc})") from None
    raise InvalidParameterError(f"unknown noise family {family!r}")


def _number(text: str, flag: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"{flag}: {text!r} is not {what}") from None


def _numbers(text: str, flag: str, kind=float) -> list:
    """A comma list of numbers; an entry that is not one is a usage error."""
    return [_number(v, flag, kind) for v in str(text).split(",") if v != ""]


# --- subcommand implementations -----------------------------------------


def cmd_catalog(args) -> int:
    lines = []
    for spec in catalog().values():
        lines.append(f"gain: {spec.name}")
        lines.append(f"  formula: {spec.formula}")
        lines.append(f"  loss: {spec.loss_name}")
        lines.append(f"  loss_formula: {spec.loss_formula}")
        lines.append(
            f"  loss_identity: {_fmt(spec.loss_scale)} * s^{spec.loss_sigma_exponent}"
            " * (p(0) - p(t))"
        )
        alpha, c = spec.type_alpha
        exact = "exact " if spec.type_exact else ""
        lines.append(f"  local_order: {exact}alpha={alpha:g} c={_fmt(c)}")
        lines.append(f"  calibration: {spec.calibration}")
        if spec.constants is not None:
            k = spec.constants
            lines.append(
                f"  constants: L1={_fmt(k.L1)} L2={_fmt(k.L2)} L3={_fmt(k.L3)} c0={_fmt(k.c0)}"
            )
        lines.append(f"  support_radius: {_fmt(spec.support_radius)}")
        lines.append(f"  peak: {_fmt(eval_gain(spec, 1.0, 0.0))}")
        lines.append("")
    text = "\n".join(lines)
    if args.out and args.out != "-":
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _gain(name: str) -> GainSpec:
    specs = catalog()
    if name not in specs:
        raise UsageError(f"unknown gain {name!r}; see the catalog subcommand")
    return specs[name]


def cmd_eval(args) -> int:
    spec = _gain(args.gain)
    values = {"gain": eval_gain(spec, args.sigma, args.t)}  # all before any output
    if args.derivative:
        values["derivative"] = eval_gain_derivative(spec, args.sigma, args.t)
    if args.loss:
        values["loss"] = loss_from_gain(spec, args.sigma, args.t)
    for label, value in values.items():
        print(f"{label} {_fmt(value)}")
    return EXIT_OK


def cmd_certify(args) -> int:
    specs = [_gain(args.gain)] if args.gain else list(catalog().values())
    quad = QuadratureConfig()
    rows = []
    for spec in specs:
        rows += certify_gain(spec, quad)
        if args.sandwich:
            deltas = (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0)
            rows.append(sandwich_row(sandwich_check(spec, 1.0, 1.0, deltas, quad)))
    _write_rows(
        args.out,
        ["gain", "check", "status", "estimated", "declared", "max_violation", "note"],
        [list({**row, "passed": "pass" if row["passed"] else "fail"}.values()) for row in rows],
    )
    return EXIT_OK if all(row["passed"] for row in rows) else EXIT_CERTIFICATION


def cmd_simulate(args) -> int:
    if args.model == "toy":
        data = gen_toy(args.n, args.seed)
    else:
        noise = parse_noise(args.noise)
        data = gen_location(args.n, args.truth, noise, args.seed, input_dim=args.input_dim)
    if not args.out:
        raise UsageError("simulate requires --out")
    sidecar = _sidecar(
        args,
        truth=data.truth,
        noise=None if data.noise is None else data.noise.describe(),
        input_dim=data.inputs.shape[1],
    )
    dataset_to_csv(data, args.out)
    _write_sidecar(args, sidecar)
    return EXIT_OK


def _resolve_sigma(args, data, spec, fmap, cfg) -> tuple[float, Optional[list]]:
    given = [
        args.sigma is not None,
        args.schedule is not None,
        bool(args.cv_sigma),
    ]
    if sum(given) != 1:
        raise UsageError("choose exactly one of --sigma, --schedule, --cv-sigma")
    if args.sigma is not None:
        return float(args.sigma), None
    if args.schedule is not None:
        if args.epsilon is None or args.q is None:
            raise UsageError("--schedule needs --epsilon and --q")
        return sigma_schedule(args.schedule, args.epsilon, args.q, data.n), None
    grid = _numbers(args.cv_sigma, "--cv-sigma")
    best, table = cross_validate_sigma(data, spec, grid, fmap, cfg, args.folds, args.seed)
    return best, table


def cmd_fit(args) -> int:
    spec = _gain(args.gain)
    data = dataset_from_csv(args.data)
    warm = None
    if args.load:
        loaded = model_from_json(Path(args.load).read_text(encoding="utf-8"))
        fmap = loaded.feature_map
        warm = loaded.coefficients
    elif args.features == "linear":
        fmap = linear_map(data.inputs.shape[1])
    else:
        if args.bandwidth is None:
            raise UsageError("kernel features need --bandwidth")
        centers = subsample_centers(data.inputs, args.centers_cap, args.seed)
        fmap = kernel_map(centers, args.bandwidth)
    cfg = SolverConfig(
        method=args.method or default_config(spec).method,
        max_iters=args.max_iters,
        tol=args.tol,
        ridge=args.ridge,
        restarts=args.restarts,
        seed=args.seed,
        anneal=tuple(_numbers(args.anneal, "--anneal")) if args.anneal else (),
    )
    sigma, cv_table = _resolve_sigma(args, data, spec, fmap, cfg)
    report = fit_egm(
        data, spec, sigma, fmap, cfg, M=args.M, clip=args.clip, init_coefficients=warm
    )
    print(f"sigma {_fmt(report.sigma)}")
    print(f"empirical_gain {_fmt(report.empirical_gain)}")
    print(f"iterations {report.iterations}")
    print(f"converged {report.converged}")
    print(f"rank {report.rank}/{report.model.feature_map.feature_count}")
    if cv_table is not None:
        for s, g in cv_table:
            print(f"cv sigma={_fmt(s)} heldout_gain={_fmt(g)}")
    if args.save:
        Path(args.save).write_text(model_to_json(report.model) + "\n", encoding="utf-8")
    if args.residuals:
        predictions = _finite_predictions(report.model, data.inputs)
        residuals = data.outputs - predictions
        _write_rows(
            args.residuals,
            ["index", "prediction", "residual"],
            [[i, p, r] for i, (p, r) in enumerate(zip(predictions, residuals))],
        )
    return EXIT_OK


def _finite_predictions(model: HypothesisModel, inputs: np.ndarray) -> np.ndarray:
    """The model's predictions; one that overflows to inf or nan is a runtime failure."""
    with np.errstate(over="ignore", invalid="ignore"):
        predictions = predict_batch(model, inputs)
    bad = np.flatnonzero(~np.isfinite(predictions))
    if bad.size:
        row = int(bad[0])
        raise NonFiniteResultError(
            f"the prediction for row {row} is {predictions[row]}: the model overflows a "
            "double there"
        )
    return predictions


def cmd_predict(args) -> int:
    model = model_from_json(Path(args.model).read_text(encoding="utf-8"))
    data = dataset_from_csv(args.data)
    predictions = _finite_predictions(model, data.inputs)
    _write_rows(args.out, ["index", "prediction"], list(enumerate(predictions)))
    return EXIT_OK


def cmd_bench_toy(args) -> int:
    sigmas = _numbers(args.sigmas, "--sigmas")
    results = bench_toy(
        args.n_train, args.n_test, sigmas, args.seed, folds=args.folds, restarts=args.restarts
    )
    rows = []
    for res in results:
        rows.append(
            ["summary", res.sigma, res.bandwidth, res.rmse_mean_ref, res.rmse_mode_ref,
             res.train_gain, "", ""]
        )
    for res in results:
        for x, yhat in zip(res.curve_x, res.curve_y):
            rows.append(["curve", res.sigma, res.bandwidth, "", "", "", x, yhat])
    header = ["kind", "sigma", "bandwidth", "rmse_mean_ref", "rmse_mode_ref",
              "train_gain", "x", "fhat"]
    sidecar = _sidecar(
        args, sigmas=[res.sigma for res in results], bandwidth_grid=list(TOY_BANDWIDTH_GRID)
    )
    _write_rows(args.out, header, rows)
    _write_sidecar(args, sidecar)
    return EXIT_OK


def cmd_bench_rates(args) -> int:
    _gain(args.gain)  # an unknown name is a usage error, as in fit
    noise = parse_noise(args.noise)
    n_list = _numbers(args.n_list, "--n-list", int)
    sidecar = _sidecar(args, noise=noise.describe(), n_list=n_list)
    cells, slope = bench_rates(
        args.gain,
        noise,
        args.epsilon,
        args.q,
        args.schedule,
        n_list,
        args.reps,
        args.seed,
        truth=args.truth,
        restarts=args.restarts,
    )
    rows = [
        ["cell", c.n, c.sigma, c.theta_exponent, c.egm_median, c.ols_median, ""]
        for c in cells
    ]
    rows.append(["slope", "", "", "", "", "", slope])
    header = ["kind", "n", "sigma", "theta_exponent", "egm_err_median", "ols_err_median", "slope"]
    _write_rows(args.out, header, rows)
    _write_sidecar(args, sidecar)
    return EXIT_OK


# --- parser ---------------------------------------------------------------


def build_parser() -> _Parser:
    # No abbreviations at the top: a shortened --config would be parsed and never read.
    parser = _Parser(prog="gainreg", description=__doc__, allow_abbrev=False)
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="export the gain catalog as text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("eval", help="evaluate one gain")
    p.add_argument("--gain", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--derivative", action="store_true")
    p.add_argument("--loss", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("certify", help="run the certification checks")
    p.add_argument("--gain", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--sandwich", action="store_true",
                   help="also run the two-sided quadratic bound check")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("simulate", help="write a synthetic dataset as CSV")
    p.add_argument("--model", choices=["toy", "location"], default="toy")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", default="normal:0:1")
    p.add_argument("--truth", default="sine")
    p.add_argument("--input-dim", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fit", help="fit a gain-maximizing model to CSV data")
    p.add_argument("--data", required=True)
    p.add_argument("--gain", required=True)
    p.add_argument("--features", choices=["linear", "kernel"], default="linear")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--centers-cap", type=int, default=DEFAULT_CENTER_CAP)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--schedule", choices=["theta1", "theta2"], default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--cv-sigma", default=None, help="comma list of scales to cross-validate")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--anneal", default=None, help="comma list of descending warm-up scales")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--M", type=float, default=None)
    p.add_argument("--clip", action="store_true")
    p.add_argument("--save", default=None)
    p.add_argument("--load", default=None,
                   help="warm-start from a saved model (also supplies the feature map)")
    p.add_argument("--residuals", default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("predict", help="apply a saved model to CSV inputs")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("bench", help="batch experiments")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser("toy", help="bimodal toy reproduction")
    b.add_argument("--n-train", type=int, default=200)
    b.add_argument("--n-test", type=int, default=200)
    b.add_argument("--sigmas", default="0.05,10")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--folds", type=int, default=5)
    b.add_argument("--restarts", type=int, default=3)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_bench_toy)

    b = bench_sub.add_parser("rates", help="error-vs-sample-size trend")
    b.add_argument("--gain", default="triweight")
    b.add_argument("--noise", default='{"family":"contaminated","rate":0.1,'
                   '"outlier_values":[-50,50],"base":{"family":"gaussian_mixture",'
                   '"mixture":[[1.0,0.0,1.0]]}}')
    b.add_argument("--epsilon", type=float, default=1.0)
    b.add_argument("--q", type=float, default=1.0)
    b.add_argument("--schedule", choices=["theta1", "theta2"], default="theta1")
    b.add_argument("--n-list", default="50,200,800,3200")
    b.add_argument("--reps", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--truth", default="constant:1")
    b.add_argument("--restarts", type=int, default=3)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_bench_rates)

    return parser


def _with_config(argv: list[str]) -> list[str]:
    """argv with a ``--config`` file's values as flags after the subcommand words.

    They come before the user's own flags, so those win; ``true`` becomes a bare
    flag, ``false`` and ``null`` leave the default, and a list becomes a comma list.
    """
    for idx, token in enumerate(argv):
        if token == "--config" or token.startswith("--config="):
            break
    else:
        return argv
    inline = "=" in token
    if inline:
        config_path = token.partition("=")[2]
    else:
        config_path = argv[idx + 1] if idx + 1 < len(argv) else ""
    if not config_path:
        raise UsageError("--config needs a path")
    try:
        values = json.loads(Path(config_path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # malformed, undecodable or too deep
        raise UsageError(f"{config_path}: not a JSON file ({exc})") from None
    if not isinstance(values, dict):
        raise UsageError(f"{config_path}: expected a JSON object of flag values")
    tokens = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif isinstance(value, list):
            tokens.append(f"{flag}={','.join(str(v) for v in value)}")
        elif isinstance(value, dict):
            tokens.append(f"{flag}={json.dumps(value)}")
        elif value is not None and value is not False:
            tokens.append(f"{flag}={value}")
    rest = argv[:idx] + argv[idx + (1 if inline else 2):]
    words = 2 if rest[:1] == ["bench"] else 1  # the command, and bench's experiment
    return rest[:words] + tokens + rest[words:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_with_config(argv))
        return args.fn(args)
    except GainRegError as exc:  # each class carries its exit code and label
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
