"""Hypothesis fuzzing of the CSV loader, CLI flag values, multi-scale fits and sigma CV.

Outside input may end in any exit code of the contract (0 success, 1 usage,
2 runtime, 3 certification) but never in an exception; pytest turns a
RuntimeWarning into one.  A ``--config`` file reaches the same flags.  Sizes stay small (n <= 50; at most 20 iterations,
restarts and folds, at most 3 for the benchmarks; ``--nodes`` from the small
values) so the module runs in a few seconds, although each ``bench toy``
example forks its workers.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gainreg as gr
from gainreg.cli import dataset_from_csv, main
from gainreg.errors import DegenerateIterateError, InvalidInputError
from gainreg.rng import generator
from gainreg.simulate import Dataset
from gainreg.solver import _subset, fit_scales

CODES = {0, 1, 2, 3}

# Numbers, zero, negative numbers, non-finite and non-numeric tokens.
VALUES = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).map(repr),
    st.integers(min_value=-3, max_value=50).map(str),
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "abc", "", "1,2", "1e-200", "1e300"]),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "d.csv").write_text("x_0,y\n0.1,1\n0.5,2\n0.9,3\n0.3,1.5\n0.7,2.2\n0.2,0.9\n")
    return path


@settings(max_examples=150)
@given(body=st.binary(max_size=200))
def test_dataset_from_csv_returns_a_dataset_or_rejects_the_bytes(workdir, body):
    path = workdir / "fuzz.csv"
    path.write_bytes(body)
    try:
        data = dataset_from_csv(str(path))
    except InvalidInputError:
        return
    assert isinstance(data, Dataset) and data.n >= 1


@settings(max_examples=150)
@given(body=st.lists(
    st.lists(st.sampled_from(["0.5", "-1", "nan", "inf", "1e309", "x", "", "y"]), max_size=3),
    max_size=6,
))
def test_dataset_from_csv_on_csv_shaped_text(workdir, body):
    path = workdir / "fuzz.csv"
    path.write_text("x_0,y\n" + "\n".join(",".join(row) for row in body))
    try:
        data = dataset_from_csv(str(path))
    except InvalidInputError:
        return
    assert data.inputs.shape == (data.n, 1)


EVAL_FLAGS = ["--sigma", "--t"]
SIMULATE_FLAGS = ["--n", "--seed", "--input-dim", "--noise", "--truth"]
FIT_FLAGS = ["--sigma", "--bandwidth", "--centers-cap", "--epsilon", "--q", "--cv-sigma",
             "--folds", "--max-iters", "--tol", "--ridge", "--restarts", "--anneal", "--M"]


def _argv(command, draws):
    argv = list(command)
    for flag, value in draws.items():
        argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=300)
@given(gain=st.sampled_from(["gaussian", "cauchy", "uniform", "laplace", "triweight", "nosuch"]),
       draws=st.fixed_dictionaries({f: VALUES for f in EVAL_FLAGS}),
       derivative=st.booleans())
def test_eval_flag_values_keep_the_exit_codes(gain, draws, derivative):
    argv = _argv(["eval", "--gain", gain, "--loss"], draws)
    if derivative:
        argv.append("--derivative")
    assert main(argv) in CODES


@given(draws=st.fixed_dictionaries(
    {},
    optional={f: VALUES for f in SIMULATE_FLAGS},
), noise=st.sampled_from(["normal:{}:{}", "student_t:{}", "pareto:{}"]),
   a=VALUES, b=VALUES)
def test_simulate_flag_values_keep_the_exit_codes(workdir, draws, noise, a, b):
    draws.setdefault("--noise", noise.format(a, b))
    n = draws.get("--n", "20")
    if n.lstrip("-").isdigit() and int(n) > 50:
        draws["--n"] = "50"
    argv = _argv(["simulate", "--model", "location", "--out", str(workdir / "sim.csv")], draws)
    assert main(argv) in CODES


@given(draws=st.fixed_dictionaries({}, optional={f: VALUES for f in FIT_FLAGS}),
       gain=st.sampled_from(["gaussian", "uniform", "laplace", "epanechnikov"]),
       kernel=st.booleans(),
       schedule=st.sampled_from([None, "theta1", "theta2"]))
def test_fit_flag_values_keep_the_exit_codes(workdir, draws, gain, kernel, schedule):
    for flag in ("--max-iters", "--restarts", "--folds"):
        value = draws.get(flag)
        if value is not None and value.lstrip("-").isdigit() and int(value) > 20:
            draws[flag] = "20"  # keeps each example cheap; the code is what is fuzzed
    argv = _argv(["fit", "--data", str(workdir / "d.csv"), "--gain", gain], draws)
    if kernel:
        argv += ["--features", "kernel"]
    if schedule is not None:
        argv += ["--schedule", schedule]
    assert main(argv) in CODES


# JSON values a config file may hold: numbers (NaN and infinities too, which
# Python's json reads), booleans, null, strings, lists and objects.
JSON_VALUES = st.one_of(
    st.floats(),
    st.integers(min_value=-3, max_value=10**6),
    st.booleans(),
    st.none(),
    st.sampled_from(["abc", "", "1,2", "nan", "-1", "0.5", "kernel", "gradient", "theta1"]),
    st.lists(st.floats(min_value=-10.0, max_value=10.0), max_size=3),
    st.dictionaries(st.sampled_from(["family", "df"]), st.integers(0, 3), max_size=2),
)
CONFIG_KEYS = [flag[2:] for flag in FIT_FLAGS] + [
    "max_iters", "cv_sigma", "centers_cap", "seed", "clip", "features", "method",
    "schedule", "gain", "data", "nosuch",
]
CAPPED = ("max_iters", "max-iters", "restarts", "folds", "centers_cap", "centers-cap")


@given(values=st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, max_size=6),
       gain=st.sampled_from(["gaussian", "uniform", "laplace", "epanechnikov"]))
def test_config_file_values_keep_the_exit_codes(workdir, values, gain):
    for key in CAPPED:
        value = values.get(key)
        if isinstance(value, int) and not isinstance(value, bool) and value > 20:
            values[key] = 20  # keeps each example cheap, as for the flags
    path = workdir / "config.json"
    path.write_text(json.dumps(values))
    argv = ["--config", str(path), "fit", "--data", str(workdir / "d.csv"), "--gain", gain]
    if "sigma" not in values and "cv_sigma" not in values:
        argv += ["--sigma", "1"]
    assert main(argv) in CODES


def _cap(draws, flags, top):
    for flag in flags:
        value = draws.get(flag)
        if value is not None and value.lstrip("-").isdigit() and int(value) > top:
            draws[flag] = str(top)


# --nodes below 64 is rejected; these keep some examples above it without a large count.
NODES = st.one_of(VALUES, st.sampled_from(["64", "100", "256", "1000"]))


@settings(max_examples=25)
@given(draws=st.fixed_dictionaries({}, optional={"--half-width": VALUES, "--nodes": NODES}),
       gain=st.sampled_from(["gaussian", "cauchy", "uniform", "laplace", "tricube", "nosuch",
                             None]),
       sandwich=st.booleans())
def test_certify_flag_values_keep_the_exit_codes(workdir, draws, gain, sandwich):
    argv = _argv(["certify", "--out", str(workdir / "certify.csv")], draws)
    if gain is not None:
        argv += ["--gain", gain]
    if sandwich:
        argv.append("--sandwich")
    assert main(argv) in CODES


MODEL = {"kind": "kernel_dictionary", "bandwidth": 0.5, "centers": [[0.1], [0.5], [0.9]],
         "coefficients": [1.0, -2.0, 0.5], "input_dim": 1, "M": 3.0, "clip": False}


@settings(max_examples=100)
@given(values=st.dictionaries(st.sampled_from(sorted(MODEL) + ["nosuch"]),
                              JSON_VALUES | st.sampled_from(["kernel_dictionary",
                                                             "linear_with_intercept"]),
                              max_size=4),
       drop=st.sets(st.sampled_from(sorted(MODEL)), max_size=2))
def test_predict_on_saved_model_values_keeps_the_exit_codes(workdir, values, drop):
    model = {key: value for key, value in MODEL.items() if key not in drop}
    model.update(values)
    path = workdir / "model.json"
    path.write_text(json.dumps(model))
    argv = ["predict", "--model", str(path), "--data", str(workdir / "d.csv"),
            "--out", str(workdir / "predictions.csv")]
    assert main(argv) in CODES


# Saved-model field values: numbers (non-finite, huge and subnormal ones too, and an int
# past the double range), and every other JSON type.
NUMBERS = st.one_of(st.floats(), st.integers(-3, 10),
                    st.sampled_from([1e308, -1e308, 5e-324, 1e-160, 10**400]))
NOT_NUMBERS = st.one_of(st.booleans(), st.none(), st.sampled_from(["1.5", "abc", ""]),
                        st.dictionaries(st.just("a"), st.integers(0, 3), max_size=1))
FIELD_VALUES = {
    "kind": st.sampled_from(["kernel_dictionary", "linear_with_intercept", "linear", 1]),
    "input_dim": st.one_of(st.integers(-1, 3), NUMBERS, NOT_NUMBERS),
    "clip": st.one_of(st.booleans(), NUMBERS, NOT_NUMBERS),
    "M": st.one_of(NUMBERS, NOT_NUMBERS),
    "bandwidth": st.one_of(NUMBERS, NOT_NUMBERS),
    "coefficients": st.one_of(st.lists(NUMBERS, max_size=4), st.lists(NOT_NUMBERS, max_size=2),
                              st.lists(st.lists(NUMBERS, max_size=1), max_size=2),
                              NUMBERS, NOT_NUMBERS),
    "centers": st.one_of(st.lists(st.lists(NUMBERS, max_size=2), max_size=4),
                         st.lists(st.one_of(NUMBERS, NOT_NUMBERS), max_size=2),
                         st.lists(st.lists(NOT_NUMBERS, max_size=1), max_size=2),
                         NUMBERS, NOT_NUMBERS),
    "nosuch": st.one_of(NUMBERS, NOT_NUMBERS),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _well_typed(model: dict) -> bool:
    """Every field present with its JSON type; extra keys are allowed."""
    if not set(MODEL) <= set(model):
        return False
    centers = model["centers"]
    return (_is_number(model["input_dim"]) and isinstance(model["input_dim"], int)
            and isinstance(model["clip"], bool) and _is_number(model["M"])
            and (model["bandwidth"] is None or _is_number(model["bandwidth"]))
            and _is_numbers(model["coefficients"])
            and (centers is None or isinstance(centers, list) and all(map(_is_numbers, centers))))


@settings(max_examples=200)
@given(values=st.fixed_dictionaries({}, optional=FIELD_VALUES),
       drop=st.sets(st.sampled_from(sorted(MODEL)), max_size=2),
       linear=st.booleans())
def test_a_saved_model_body_predicts_finite_rows_or_is_refused(workdir, values, drop, linear):
    model = dict(MODEL)
    if linear:
        model.update(kind="linear_with_intercept", centers=None, bandwidth=None,
                     coefficients=[1.0, -2.0])
    model = {key: value for key, value in model.items() if key not in drop}
    model.update(values)
    path, out = workdir / "model.json", workdir / "predictions.csv"
    path.write_text(json.dumps(model))
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["predict", "--model", str(path), "--data", str(workdir / "d.csv"),
                     "--out", str(out)])
    if code == 0:
        assert _well_typed(model), model
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 6 and all(math.isfinite(float(r.split(",")[1])) for r in rows)
    elif code == 1:
        assert stderr.getvalue().startswith("invalid request"), stderr.getvalue()
    else:
        assert code == 2 and stderr.getvalue().startswith("runtime failure"), stderr.getvalue()


BENCH_TOY_FLAGS = ["--n-train", "--n-test", "--sigmas", "--seed", "--folds", "--restarts"]


@settings(max_examples=12)
@given(draws=st.fixed_dictionaries({}, optional={f: VALUES for f in BENCH_TOY_FLAGS}))
def test_bench_toy_flag_values_keep_the_exit_codes(workdir, draws):
    draws.setdefault("--n-train", "20")
    draws.setdefault("--n-test", "20")
    _cap(draws, ["--n-train", "--n-test"], 50)
    _cap(draws, ["--folds", "--restarts"], 3)
    argv = _argv(["bench", "toy", "--out", str(workdir / "toy.csv")], draws)
    assert main(argv) in CODES


BENCH_RATES_FLAGS = ["--epsilon", "--q", "--n-list", "--reps", "--seed", "--restarts",
                     "--truth", "--noise"]


@settings(max_examples=25)
@given(draws=st.fixed_dictionaries({}, optional={f: VALUES for f in BENCH_RATES_FLAGS}),
       gain=st.sampled_from(["triweight", "gaussian", "uniform", "laplace", "nosuch"]),
       schedule=st.sampled_from(["theta1", "theta2"]))
def test_bench_rates_flag_values_keep_the_exit_codes(workdir, draws, gain, schedule):
    draws.setdefault("--n-list", "20,40")
    draws["--n-list"] = ",".join(
        "50" if v.lstrip("-").isdigit() and int(v) > 50 else v for v in draws["--n-list"].split(",")
    )
    _cap(draws, ["--reps", "--restarts"], 3)
    draws.setdefault("--reps", "2")
    argv = _argv(["bench", "rates", "--gain", gain, "--schedule", schedule,
                  "--out", str(workdir / "rates.csv")], draws)
    assert main(argv) in CODES


HALVINGS = [8.0 * 0.5**k for k in range(10)]


@settings(max_examples=30)
@given(sigmas=st.lists(st.sampled_from(HALVINGS), min_size=1, max_size=5),
       anneal=st.lists(st.sampled_from(HALVINGS), max_size=6, unique=True),
       gain=st.sampled_from(["gaussian", "tricube", "uniform"]),
       restarts=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**31))
def test_fit_scales_equals_a_fit_at_each_scale_alone(sigmas, anneal, gain, restarts, seed):
    # gaussian fits by reweighting, tricube by gradient ascent, uniform by the box search.
    noise = gr.NoiseSpec.contaminated(gr.NoiseSpec.gaussian(0.0, 1.0), 0.1, (-20.0, 20.0))
    data = gr.gen_location(40, "linear:2:1", noise, seed=seed)
    spec, fmap = gr.catalog()[gain], gr.linear_map(1)
    cfg = gr.default_config(spec, max_iters=30, restarts=restarts, seed=seed,
                            anneal=tuple(anneal))

    def summary(report):
        return (report.model.coefficients.tobytes(), report.empirical_gain, report.sigma,
                report.gain_trace, report.restart_gains, report.iterations,
                report.converged, report.rank)

    def outcome(fit, scales):
        try:
            return fit(data, spec, scales, fmap, cfg)
        except DegenerateIterateError as exc:  # a tiny scale can leave every residual outside
            return str(exc)

    alone = [outcome(gr.fit_egm, s) for s in sigmas]
    together = outcome(fit_scales, sigmas)
    errors = [o for o in alone if isinstance(o, str)]
    if errors:  # the call raises the first scale's error
        assert together == errors[0]
    else:
        assert [summary(r) for r in together] == [summary(r) for r in alone]
        # A repeated scale's reports are equal, not one array: writing to one moves no other.
        coefficients = [r.model.coefficients for r in together]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(coefficients)
                       for b in coefficients[i + 1:])


@settings(max_examples=25)
@given(grid=st.lists(st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=4),
       anneal=st.sampled_from([(), (8.0, 4.0), (4.0, 1.0, 0.25)]),
       gain=st.sampled_from(["gaussian", "tricube", "uniform"]),
       folds=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=2**31))
@example(grid=[1.0, 0.25, 1.0], anneal=(), gain="gaussian", folds=3, seed=0)
@example(grid=[0.5, 0.5], anneal=(8.0, 4.0), gain="tricube", folds=2, seed=1)
@example(grid=[2.0, 0.25, 2.0], anneal=(4.0, 1.0, 0.25), gain="uniform", folds=4, seed=2)
def test_cross_validate_sigma_equals_a_fit_per_fold_and_scale(grid, anneal, gain, folds, seed):
    # One fit_scales call per fold gives the table that one fit_egm per (fold, sigma) gives.
    noise = gr.NoiseSpec.contaminated(gr.NoiseSpec.gaussian(0.0, 1.0), 0.1, (-20.0, 20.0))
    data = gr.gen_location(40, "linear:2:1", noise, seed=seed)
    spec, fmap = gr.catalog()[gain], gr.linear_map(1)
    cfg = gr.default_config(spec, max_iters=30, restarts=2, seed=seed, anneal=anneal)
    order = generator(seed, "cv-shuffle").permutation(data.n)
    scores, error = [[] for _ in grid], None
    for k in range(folds):  # fold by fold, as the routine fits them
        held = order[k::folds]
        train = _subset(data, np.setdiff1d(np.arange(data.n), held))
        for column, sigma in zip(scores, grid):
            try:
                report = gr.fit_egm(train, spec, sigma, fmap, cfg)
            except DegenerateIterateError as exc:
                error = error or str(exc)
                continue
            column.append(gr.empirical_gain(report.model, _subset(data, held), spec, sigma))
    try:
        best, table = gr.cross_validate_sigma(data, spec, grid, fmap, cfg, folds, seed)
    except DegenerateIterateError as exc:  # the first (fold, sigma) pair's error
        assert str(exc) == error
        return
    assert error is None
    expected = [(sigma, float(np.mean(column))) for sigma, column in zip(grid, scores)]
    assert table == expected
    assert best == max(expected, key=lambda row: (row[1], row[0]))[0]
