"""Hypothesis fuzzing of the CSV loader and of CLI flag values.

Outside input may end in any exit code of the contract (0 success, 1 usage,
2 runtime, 3 certification) but never in an exception; pytest turns a
RuntimeWarning into one.  A ``--config`` file reaches the same flags.  Sizes stay small (n <= 50; at most 20 iterations,
restarts and folds) so the module runs in a few seconds.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainreg.cli import dataset_from_csv, main
from gainreg.errors import InvalidInputError
from gainreg.simulate import Dataset

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
