"""The benchmark's three workloads, each a closed loop over seeded ops.

A workload builds its op inputs, ``ops``, from the run seed in ``__init__``
(timed as set-up), runs one op in ``run`` (timed as latency), and checks the
op's output in ``check`` (not timed), filling the op's table row that
``describe`` starts.  A run repeats the ops in whole passes of
``pass_size`` ops, so every run sees the same op mix; the traced run does
the first ``trace_size`` ops once.  ``kind`` names an op's kind, over which
the latency summary is taken; ``table_key`` names the row field the per-seed
or per-gain table groups by; ``review`` checks what only a whole run shows.
Every call into gainreg looks the function up on its module at call time,
so the tracer's wrappers see it.

The quality checks compare against ``reference.json`` beside this file,
written by ``make_reference.py`` from the gainreg version the benchmark was
defined on.  The tolerances below say how far a result may drift before the
op counts as failed.

Why each workload exists:

* ``toy_kernel``: a kernel dictionary with p of about 160 under bandwidth
  cross-validation and the anneal ladder.  The weighted solve (Gram
  product and ``linalg.solve``) is about 95% of a traced op, nearly all of
  it inside the CV loop; gain evaluation is about 4%.  This is where a
  numerical-rank basis or a cheaper stopping rule must show.
* ``linear_catalog``: p = 2, so ``linalg.solve`` is below 4% of a traced op.  Gain evaluation
  and per-iteration overhead set the median op, the consensus search of the
  box gain sets the tail and the peak memory.  Solve-side changes should
  show no change here.
* ``certify``: no solver runs.  It uses the gains layer through a few calls
  on arrays of up to 2e5 points, against thousands of calls on arrays of
  50-3200 points in ``linear_catalog``, so a change in per-call gain
  overhead can move the two in opposite directions.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

import gainreg
from gainreg import bench, calibrate, cli, gains, simulate, solver
from gainreg.quadrature import QuadratureConfig


REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def _stream(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _int_seed(seed: int, *keys: int) -> int:
    return int(_stream(seed, *keys).integers(0, 2**31))


class ToyKernel:
    """One op is ``gainreg bench toy`` at the acceptance-5 settings for one seed.

    The toy seeds are 0-9, the acceptance-5 suite; op i of run seed s takes
    toy seed (s + i) mod 10.  A seed's cost varies by up to 1.8 times across
    seeds, so a run drawing ~5 ops from a wider pool reads 11% apart from
    run to run on input mix alone; cycling through one suite keeps the mix of
    any run close to that of any other.
    """

    name = "toy_kernel"
    table_key = "seed"
    SIGMAS = (0.05, 10.0)
    POOL = 10
    pass_size = 1
    trace_size = 2
    RMSE_TOLERANCE = 0.1  # relative drift of an RMSE from the reference

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False) -> None:
        n, folds, restarts = ("40", "2", "1") if tiny else ("200", "5", "3")
        self.argv = ["bench", "toy", "--n-train", n, "--n-test", n, "--folds", folds,
                     "--restarts", restarts, "--sigmas", ",".join(map(str, self.SIGMAS))]
        self.out = out_dir / "toy_kernel.csv"
        self.ops = [(seed + i) % self.POOL for i in range(self.POOL)]
        # The reference holds the acceptance-5 settings only.
        self.reference = None if tiny else REFERENCE[self.name]

    def kind(self, toy_seed: int) -> str:
        return "toy"

    def describe(self, toy_seed: int) -> dict:
        return {"seed": toy_seed}

    def run(self, toy_seed: int) -> None:
        code = cli.main([*self.argv, "--seed", str(toy_seed), "--out", str(self.out)])
        if code != 0:  # the CLI turns errors into exit codes; count them as raised
            raise RuntimeError(f"gainreg bench toy exited with code {code}")

    def check(self, toy_seed: int, _, row: dict) -> bool:
        with open(self.out, encoding="utf-8", newline="") as handle:
            records = list(csv.DictReader(handle))
        summary = {float(r["sigma"]): r for r in records if r["kind"] == "summary"}
        curves = [r for r in records if r["kind"] == "curve"]
        if sorted(summary) != sorted(self.SIGMAS) or len(curves) != 101 * len(self.SIGMAS):
            return False
        small, large = summary[min(self.SIGMAS)], summary[max(self.SIGMAS)]
        values = {
            "rmse_mode.small_sigma": float(small["rmse_mode_ref"]),
            "rmse_mean.small_sigma": float(small["rmse_mean_ref"]),
            "rmse_mean.large_sigma": float(large["rmse_mean_ref"]),
            "rmse_mode.large_sigma": float(large["rmse_mode_ref"]),
            "bandwidth.small_sigma": float(small["bandwidth"]),
            "bandwidth.large_sigma": float(large["bandwidth"]),
        }
        row.update(values)
        finite = all(math.isfinite(v) for v in values.values()) and all(
            math.isfinite(float(r["fhat"])) for r in curves
        )
        bandwidths = {values["bandwidth.small_sigma"], values["bandwidth.large_sigma"]}
        bandwidths_known = bandwidths <= set(bench.TOY_BANDWIDTH_GRID)
        # The acceptance-5 rule: the small scale tracks the conditional mode,
        # the large one the conditional mean.  It is a statistical property
        # that some seeds miss (acceptance 5 asks for 9 of 10), so an op
        # fails when its result differs from the reference's, either way.
        row["acceptance5"] = (
            values["rmse_mode.small_sigma"] < values["rmse_mean.small_sigma"]
            and values["rmse_mean.large_sigma"] < values["rmse_mode.large_sigma"]
        )
        if not (finite and bandwidths_known):
            return False
        if self.reference is None:
            return True
        ref = self.reference[str(toy_seed)]
        drift = max(abs(values[k] / ref[k] - 1.0) for k in values if k.startswith("rmse"))
        row["rmse_drift"] = drift
        return row["acceptance5"] == ref["acceptance5"] and drift <= self.RMSE_TOLERANCE

    def review(self, rows: list[dict]) -> None:
        pass

    def quality(self, rows: list[dict]) -> dict[str, float]:
        done = [r for r in rows if "acceptance5" in r]
        if not done:
            return {}
        return {
            "rmse_mode.small_sigma": float(np.median([r["rmse_mode.small_sigma"] for r in done])),
            "rmse_mean.large_sigma": float(np.median([r["rmse_mean.large_sigma"] for r in done])),
            "acceptance5.pass_share": sum(r["acceptance5"] for r in done) / len(done),
        }


class LinearCatalog:
    """One op fits one catalog gain to contaminated linear data, then predicts.

    Every base catalog gain runs under ``default_config(spec, restarts=3)``
    at the ``theta1`` schedule scale for n in {50, 200, 800, 3200}; at
    n = 800 each reweighted (IRLS) gain also runs one scale
    cross-validation over a 4-point grid, as ``gainreg fit --cv-sigma`` does.
    A pass is every op once.
    """

    name = "linear_catalog"
    table_key = "gain"
    SIZES = (50, 200, 800, 3200)
    CV_SIZE = 800
    CV_FACTORS = (0.5, 0.75, 1.0, 1.5)
    HOLDOUT = 10_000
    ROUNDS = 8  # distinct data sets per size
    SLOPE, INTERCEPT = 2.0, 1.0
    # A gain's median MSE ratio over a run may leave the range that run
    # seeds 0-39 gave at the reference version by this factor either way.
    # Held-out run seeds 40-119 went up to 1.65 times outside that range;
    # fits that fall back to least squares move it by two orders of magnitude.
    MSE_RATIO_SLACK = 3.0

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False) -> None:
        sizes = self.SIZES[:2] if tiny else self.SIZES
        rounds = 1 if tiny else self.ROUNDS
        noise = simulate.NoiseSpec.contaminated(
            simulate.NoiseSpec.gaussian(0.0, 1.0), 0.1, (-50.0, 50.0)
        )
        truth = f"linear:{self.SLOPE:g}:{self.INTERCEPT:g}"
        self.specs = gains.catalog()
        self.fmap = gainreg.linear_map(1)
        self.data = {
            (r, n): simulate.gen_location(n, truth, noise, _int_seed(seed, r, n))
            for r in range(rounds)
            for n in sizes
        }
        self.x_holdout = _stream(seed, 999).random((self.HOLDOUT, 1))
        self.truth_holdout = self.SLOPE * self.x_holdout[:, 0] + self.INTERCEPT
        self.ops = []
        for r in range(rounds):
            for n in sizes:
                sigma = solver.sigma_schedule("theta1", 1.0, 1.0, n)
                for gain, spec in self.specs.items():
                    cfg = solver.default_config(spec, restarts=3, seed=_int_seed(seed, r, n, 1))
                    self.ops.append(("fit", gain, r, n, sigma, cfg))
                    if n == self.CV_SIZE and cfg.method == solver.IRLS:
                        self.ops.append(("cv", gain, r, n, sigma, cfg))
        self.pass_size = self.trace_size = len(self.ops)
        # The reference holds full-size runs only.
        self.reference = None if tiny else REFERENCE[self.name]

    def kind(self, op: tuple) -> tuple:
        kind, gain, _, n, _, _ = op
        return kind, gain, n

    def describe(self, op: tuple) -> dict:
        kind, gain, _, n, _, cfg = op
        return {"kind": kind, "gain": gain, "method": cfg.method, "n": n}

    def run(self, op: tuple):
        kind, gain, r, n, sigma, cfg = op
        data, spec = self.data[(r, n)], self.specs[gain]
        if kind == "cv":
            grid = [f * sigma for f in self.CV_FACTORS]
            return solver.cross_validate_sigma(data, spec, grid, self.fmap, cfg, 5, cfg.seed)
        report = solver.fit_egm(data, spec, sigma, self.fmap, cfg)
        return report, solver.predict_batch(report.model, self.x_holdout)

    def check(self, op: tuple, out, row: dict) -> bool:
        kind, gain, r, n, sigma, _ = op
        if kind == "cv":
            best, table = out
            ok = len(table) == len(self.CV_FACTORS) and best in [s for s, _ in table]
            return ok and all(math.isfinite(score) for _, score in table)
        report, predictions = out
        data, spec = self.data[(r, n)], self.specs[gain]
        coeffs = report.model.coefficients
        X = np.hstack([data.inputs, np.ones((n, 1))])
        ols = np.linalg.lstsq(X, data.outputs, rcond=None)[0]
        fitted_gain = float(np.mean(gains.eval_gain(spec, sigma, data.outputs - X @ coeffs)))
        ols_gain = float(np.mean(gains.eval_gain(spec, sigma, data.outputs - X @ ols)))
        X_hold = np.hstack([self.x_holdout, np.ones((self.HOLDOUT, 1))])
        egm_mse = float(np.mean((predictions - self.truth_holdout) ** 2))
        ols_mse = float(np.mean((X_hold @ ols - self.truth_holdout) ** 2))
        row["mse_ratio"] = egm_mse / ols_mse
        return (
            bool(np.all(np.isfinite(coeffs)))
            and predictions.shape == (self.HOLDOUT,)
            and bool(np.all(np.isfinite(predictions)))
            and fitted_gain >= ols_gain - 1e-9 * abs(ols_gain)
        )

    def review(self, rows: list[dict]) -> None:
        """Fail every fit op of a gain whose median MSE ratio left its reference range."""
        if self.reference is None:
            return
        for gain, band in self.reference.items():
            fits = [r for r in rows if r["gain"] == gain and "mse_ratio" in r]
            if not fits:
                continue
            median = statistics.median(r["mse_ratio"] for r in fits)
            if not band["lo"] / self.MSE_RATIO_SLACK <= median <= band["hi"] * self.MSE_RATIO_SLACK:
                for r in fits:
                    r["ok"] = False
                    r["check_error"] = f"median mse_ratio {median:.4g} outside {band}"

    def quality(self, rows: list[dict]) -> dict[str, float]:
        ratios = [r["mse_ratio"] for r in rows if "mse_ratio" in r]
        return {"mse_ratio": float(np.median(ratios))} if ratios else {}


class Certify:
    """One op certifies one gain: the certification rows plus the sandwich.

    The gains are the 10 catalog gains, ``generalized_tukey(m, n)`` for m in
    1..4 and n in {1, 2, 3, 5}, and 3 squared-exponential mixtures.
    Calibrated gains also fit the calibration-gap decay slope under Gaussian,
    t(2.5) and t(5) noise.
    """

    name = "certify"
    table_key = "gain"
    MIXTURES = (
        ((0.5, 1.0), (0.5, 2.0)),
        ((0.3, 0.5), (0.7, 1.5)),
        ((0.2, 1.0), (0.3, 2.0), (0.5, 3.0)),
    )
    GAP_SIGMAS = (4.0, 8.0, 16.0, 32.0, 64.0)
    OFFSETS = 6

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False) -> None:
        specs = list(gains.catalog().values())
        specs += [gains.generalized_tukey(m, n) for m in range(1, 5) for n in (1, 2, 3, 5)]
        specs += [gains.mixture_gain(c) for c in self.MIXTURES]
        if tiny:
            specs = specs[:3]
        self.quad = QuadratureConfig()
        self.problems = [
            simulate.location_problem(noise, 1.0, 1.0)
            for noise in (
                simulate.NoiseSpec.gaussian(0.0, 1.0),
                simulate.NoiseSpec.student_t(2.5),
                simulate.NoiseSpec.student_t(5.0),
            )
        ]
        rng = _stream(seed, 3)
        self.ops = []
        for spec in specs:
            # Offsets within the sandwich's range |delta| <= 2M, away from 0
            # where the bound is a difference of two tiny numbers.
            offsets = rng.uniform(0.1, 1.5, self.OFFSETS) * rng.choice([-1.0, 1.0], self.OFFSETS)
            self.ops.append((spec, tuple(float(d) for d in offsets)))
        self.pass_size = self.trace_size = len(self.ops)

    def kind(self, op: tuple) -> str:
        return op[0].name

    def describe(self, op: tuple) -> dict:
        return {"gain": op[0].name}

    def run(self, op: tuple):
        spec, offsets = op
        rows = calibrate.certify_gain(spec, self.quad)
        sandwich = calibrate.sandwich_check(spec, 1.0, 1.0, offsets, self.quad)
        slopes = []
        if spec.calibration in ("strong", "exact") and spec.constants is not None:
            slopes = [
                calibrate.gap_log_slope(spec, prob, self.GAP_SIGMAS, self.quad)[0]
                for prob in self.problems
            ]
        return rows, sandwich, slopes

    def check(self, op: tuple, out, row: dict) -> bool:
        rows, sandwich, slopes = out
        row.update(
            rows_passed=sum(bool(r["passed"]) for r in rows),
            rows=len(rows),
            sandwich=sandwich.passed,
            gap_slopes=slopes,
        )
        ok = row["rows_passed"] == row["rows"] and sandwich.passed
        return ok and all(math.isfinite(s) and s < 0 for s in slopes)

    def review(self, rows: list[dict]) -> None:
        pass

    def quality(self, rows: list[dict]) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (ToyKernel, LinearCatalog, Certify)}
