"""CLI surfaces: formats, determinism, exit codes, config files."""

import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gainreg as gr
from gainreg import bench, cli
from gainreg.cli import dataset_from_csv, main


def run(*argv) -> int:
    return main(list(argv))


def run_process(*argv, cwd) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so an escaping exception shows as a traceback."""
    src = str(Path(gr.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run(
        [sys.executable, "-m", "gainreg.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )


def test_catalog_lists_all_gains(capsys):
    assert run("catalog") == 0
    out = capsys.readouterr().out
    for name in gr.catalog():
        assert f"gain: {name}" in out
    assert "Tukey biweight loss" in out
    assert "maximum consensus" not in out  # text export, no commentary


def test_eval_subcommand(capsys):
    assert run("eval", "--gain", "epanechnikov", "--sigma", "2", "--t", "1") == 0
    assert capsys.readouterr().out.strip() == "gain 0.75"
    assert run("eval", "--gain", "nope", "--sigma", "1", "--t", "0") == 1


def test_eval_writes_nothing_when_a_requested_value_fails(capsys):
    # The box gain has no useful derivative; its gain used to be printed before the failure.
    assert run("eval", "--gain", "uniform", "--sigma", "2", "--t", "1", "--derivative") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "derivative is zero almost everywhere" in captured.err


def test_usage_errors_exit_one(capsys):
    assert run("fit", "--data", "x.csv") == 1  # missing --gain
    assert run("eval", "--gain", "gaussian", "--sigma", "-1", "--t", "0") == 1
    assert run("nonsense") == 1


def test_missing_file_exit_two(tmp_path):
    assert run("fit", "--data", str(tmp_path / "absent.csv"), "--gain", "gaussian",
               "--sigma", "1") == 2


@pytest.mark.parametrize("error, line, code", [
    (gr.CertificationFailureError, "certification failure: x", 3),
    (gr.GainRegError, "error: x", 2),
], ids=["certification-failure", "package-error"])
def test_a_package_error_prints_its_label_and_exits_with_its_code(monkeypatch, capsys,
                                                                   error, line, code):
    def failing_certify(spec, quad):
        raise error("x")

    monkeypatch.setattr(cli, "certify_gain", failing_certify)
    assert run("certify", "--gain", "gaussian") == code
    assert capsys.readouterr().err == line + "\n"


def test_simulate_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "toy.csv"
    assert run("simulate", "--model", "toy", "--n", "20", "--seed", "3",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x_0,y"
    assert len(lines) == 21
    meta = json.loads((tmp_path / "toy.csv.meta.json").read_text())
    assert meta["seed"] == 3 and meta["n"] == 20
    assert meta["noise"]["family"] == "gaussian_mixture"


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert run("simulate", "--model", "location", "--n", "50", "--seed", "11",
                   "--noise", "student_t:2.5", "--truth", "constant:1",
                   "--out", str(p)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_save_load_round_trip(tmp_path, capsys):
    data = tmp_path / "d.csv"
    model_path = tmp_path / "m.json"
    res_path = tmp_path / "r.csv"
    assert run("simulate", "--model", "location", "--n", "60", "--seed", "5",
               "--noise", "normal:0:0.1", "--truth", "linear:2:1", "--out", str(data)) == 0
    assert run("fit", "--data", str(data), "--gain", "triweight", "--sigma", "2",
               "--restarts", "2", "--save", str(model_path),
               "--residuals", str(res_path)) == 0
    model = gr.model_from_json(model_path.read_text())
    assert np.allclose(model.coefficients, [2.0, 1.0], atol=0.1)
    rows = res_path.read_text().splitlines()
    assert rows[0] == "index,prediction,residual"
    assert len(rows) == 61
    # Round trip through the file is bit-exact.
    assert gr.model_to_json(gr.model_from_json(model_path.read_text())) == \
        model_path.read_text().rstrip("\n")
    # A --method the gain can use runs the fit the library runs under it.
    capsys.readouterr()
    assert run("fit", "--data", str(data), "--gain", "triweight", "--sigma", "2",
               "--restarts", "2", "--method", "gradient") == 0
    report = gr.fit_egm(dataset_from_csv(str(data)), gr.catalog()["triweight"], 2.0,
                        gr.linear_map(1), gr.SolverConfig(method="gradient", restarts=2))
    assert f"empirical_gain {report.empirical_gain!r}\n" in capsys.readouterr().out


def test_gradient_fit_save_is_byte_identical_across_runs(tmp_path):
    data = tmp_path / "d.csv"
    assert run("simulate", "--model", "location", "--n", "120", "--seed", "6",
               "--noise", "student_t:2.5", "--truth", "linear:2:1", "--out", str(data)) == 0
    saved = []
    for name in ("a.json", "b.json"):
        assert run("fit", "--data", str(data), "--gain", "laplace", "--sigma", "1",
                   "--restarts", "3", "--anneal", "4,2", "--save", str(tmp_path / name)) == 0
        saved.append((tmp_path / name).read_bytes())
    assert saved[0] == saved[1]


def test_fit_save_load_warm_start(tmp_path):
    data = tmp_path / "d.csv"
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    run("simulate", "--model", "location", "--n", "80", "--seed", "8",
        "--noise", "normal:0:0.2", "--truth", "linear:1.5:0.5", "--out", str(data))
    assert run("fit", "--data", str(data), "--gain", "cauchy", "--sigma", "1",
               "--save", str(first)) == 0
    # Warm-starting from the saved model re-converges to the same optimum.
    assert run("fit", "--data", str(data), "--gain", "cauchy", "--sigma", "1",
               "--load", str(first), "--save", str(second)) == 0
    m1 = gr.model_from_json(first.read_text())
    m2 = gr.model_from_json(second.read_text())
    assert np.allclose(m1.coefficients, m2.coefficients, atol=1e-8)


def test_fit_schedule_flag(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run("simulate", "--model", "location", "--n", "256", "--seed", "5",
        "--noise", "normal:0:0.5", "--truth", "constant:0", "--out", str(data))
    assert run("fit", "--data", str(data), "--gain", "gaussian", "--schedule", "theta1",
               "--epsilon", "1", "--q", "1") == 0
    out = capsys.readouterr().out
    assert "sigma 4.0" in out


def test_fit_cv_flag(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run("simulate", "--model", "location", "--n", "60", "--seed", "6",
        "--noise", "normal:0:0.3", "--truth", "linear:1:0", "--out", str(data))
    assert run("fit", "--data", str(data), "--gain", "gaussian",
               "--cv-sigma", "0.5,1,2", "--folds", "3") == 0
    out = capsys.readouterr().out
    assert out.count("cv sigma=") == 3


def test_certify_passes_catalog(tmp_path):
    out = tmp_path / "cert.csv"
    assert run("certify", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("gain,check,status")
    assert all(",fail," not in line for line in lines[1:])
    gains_seen = {line.split(",")[0] for line in lines[1:]}
    assert gains_seen == set(gr.catalog())


def test_certify_failure_exits_three(monkeypatch, tmp_path):
    import gainreg.cli as cli_mod

    def fake_certify(spec, quad):
        return [{"gain": spec.name, "check": "axioms", "passed": False,
                 "estimated": 0.0, "declared": "", "max_violation": 1.0, "note": "forced"}]

    monkeypatch.setattr(cli_mod, "certify_gain", fake_certify)
    assert run("certify", "--gain", "gaussian", "--out", str(tmp_path / "c.csv")) == 3


def test_certify_writes_the_calibrate_rows(tmp_path):
    from gainreg.calibrate import certify_gain, sandwich_row
    from gainreg.cli import _fmt

    out = tmp_path / "c.csv"
    assert run("certify", "--gain", "cauchy", "--sandwich", "--out", str(out)) == 0
    spec, quad = gr.catalog()["cauchy"], gr.QuadratureConfig(half_width=40.0)
    sandwich = gr.sandwich_check(spec, 1.0, 1.0, (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0), quad)
    keys = ["gain", "check", "passed", "estimated", "declared", "max_violation", "note"]
    expected = [["gain", "check", "status", *keys[3:]]] + [
        [("pass" if row[k] else "fail") if k == "passed" else _fmt(row[k]) for k in keys]
        for row in certify_gain(spec, quad) + [sandwich_row(sandwich)]
    ]
    with open(out, encoding="utf-8", newline="") as handle:
        written = list(csv.reader(handle))
    assert written == expected
    assert written[-1] == [
        "cauchy", "sandwich", "pass", f"C={sandwich.lower_constant:.6g}",
        f"C'={sandwich.upper_constant:.6g}", "0.0", "two-sided quadratic bounds at sigma=1, M=1",
    ]


def test_certify_has_no_nodes_flag(tmp_path):
    # The quadrature doubles its own rule, so a node count is an unknown flag.
    proc = run_process("certify", "--nodes", "100", "--out", "c.csv", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage error") and "--nodes" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "c.csv").exists()


def test_bench_toy_row_count_and_determinism(tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
    for p in (a, b):
        assert run("bench", "toy", "--n-train", "40", "--n-test", "40",
                   "--sigmas", "0.5,4", "--seed", "2", "--folds", "3",
                   "--restarts", "1", "--out", str(p)) == 0
    lines = a.read_text().splitlines()
    assert len(lines) == 1 + 2 + 2 * 101  # header + summaries + curves
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads((tmp_path / "t1.csv.meta.json").read_text())
    assert meta["sigmas"] == [0.5, 4.0]


def test_bench_toy_sidecar_keys_and_a_repeated_scale(tmp_path):
    out = tmp_path / "toy.csv"
    assert run("bench", "toy", "--n-train", "30", "--n-test", "20", "--sigmas", "10,10",
               "--seed", "1", "--folds", "2", "--restarts", "1", "--out", str(out)) == 0
    assert sum(line.startswith("summary,") for line in out.read_text().splitlines()) == 1
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert sorted(meta) == ["bandwidth_grid", "command", "folds", "n_test", "n_train",
                            "restarts", "seed", "sigmas", "version"]
    assert meta["command"] == "bench toy" and meta["sigmas"] == [10.0]


def test_sidecars_record_every_parsed_flag(tmp_path):
    rates = tmp_path / "rates.csv"
    assert run("bench", "rates", "--n-list", "20,40", "--reps", "1", "--restarts", "2",
               "--out", str(rates)) == 0
    meta = json.loads(Path(str(rates) + ".meta.json").read_text())
    assert meta["restarts"] == 2 and meta["n_list"] == [20, 40]
    assert meta["command"] == "bench rates" and meta["noise"]["family"] == "contaminated"
    sim = tmp_path / "sim.csv"
    assert run("simulate", "--model", "location", "--n", "5", "--input-dim", "2",
               "--out", str(sim)) == 0
    meta = json.loads(Path(str(sim) + ".meta.json").read_text())
    assert meta["input_dim"] == 2 and meta["command"] == "simulate"


def test_simulate_to_stdout_writes_no_sidecar(tmp_path):
    proc = run_process("simulate", "--n", "5", "--out", "-", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("x_0,y\n")
    assert list(tmp_path.iterdir()) == []


def test_bench_rates_schedule_column(tmp_path):
    out = tmp_path / "rates.csv"
    assert run("bench", "rates", "--n-list", "50,100", "--reps", "2", "--seed", "1",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:] if line.startswith("cell")]
    sigma_col = header.index("sigma")
    n_col = header.index("n")
    for cell in cells:
        n = int(cell[n_col])
        assert float(cell[sigma_col]) == gr.sigma_schedule("theta1", 1.0, 1.0, n)
    assert lines[-1].startswith("slope")


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma": 2.0, "t": 1.0}))
    assert run("--config", str(cfg), "eval", "--gain", "epanechnikov") == 0
    assert capsys.readouterr().out.strip() == "gain 0.75"
    # Explicit flag beats the config value.
    assert run("--config", str(cfg), "eval", "--gain", "epanechnikov", "--t", "0") == 0
    assert capsys.readouterr().out.strip() == "gain 1.0"


def _config(tmp_path, values) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return str(path)


@pytest.mark.parametrize("values,flag", [
    ({"max_iters": 1.5}, "--max-iters"),
    ({"seed": 1.5}, "--seed"),
    ({"clip": 1}, "--clip"),
    ({"sigma": True}, "--sigma"),
    ({"nosuch": 1}, "--nosuch"),
], ids=["float-max-iters", "float-seed", "number-for-switch", "bare-sigma", "unknown-key"])
def test_config_values_go_through_the_flag_parser(tmp_path, values, flag):
    # A config value is parsed as its flag would be, so a mistyped one is a usage error.
    (tmp_path / "d.csv").write_text("x_0,y\n0.1,1\n0.5,2\n0.9,3\n")
    proc = run_process("--config", _config(tmp_path, values), "fit", "--data", "d.csv",
                       "--gain", "gaussian", "--sigma", "1", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "usage error" in proc.stderr and flag in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_lists_true_flags_and_objects(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x_0,y\n0.1,1\n0.5,2\n0.9,3\n0.3,1.5\n0.7,2.2\n0.2,0.9\n")
    values = {"data": str(data), "gain": "gaussian", "cv_sigma": [1, 2], "folds": 2,
              "clip": True, "M": 0.5, "ridge": None, "residuals": False}
    assert run("--config", _config(tmp_path, values), "fit") == 0
    out = capsys.readouterr().out
    assert "cv sigma=1.0 " in out and "cv sigma=2.0 " in out
    # --clip with M = 0.5 bounds every prediction.
    residuals = tmp_path / "r.csv"
    assert run("--config", _config(tmp_path, values), "fit", "--residuals", str(residuals)) == 0
    predictions = [float(line.split(",")[1]) for line in residuals.read_text().splitlines()[1:]]
    assert max(abs(p) for p in predictions) <= 0.5

    noise = {"family": "student_t", "df": 3}
    sim = tmp_path / "sim.csv"
    values = {"model": "location", "n": 20, "noise": noise, "out": str(sim)}
    assert run("--config", _config(tmp_path, values), "simulate") == 0
    assert json.loads(Path(str(sim) + ".meta.json").read_text())["noise"]["df"] == 3


def test_config_path_may_follow_an_equals_sign_but_not_be_shortened(tmp_path, capsys):
    path = _config(tmp_path, {"sigma": 2.0, "t": 1.0, "derivative": True})
    assert run(f"--config={path}", "eval", "--gain", "epanechnikov") == 0
    assert capsys.readouterr().out.split() == ["gain", "0.75", "derivative", "-0.5"]
    # A shortened --config used to be parsed and never read.
    assert run("--conf", path, "eval", "--gain", "epanechnikov", "--sigma", "1", "--t", "0") == 1
    assert run("--config=", "eval", "--gain", "epanechnikov") == 1


def test_config_reaches_bench_toy_after_both_words(tmp_path):
    values = {"sigmas": [10, 0.5], "n_train": 30, "n_test": 20, "folds": 2, "restarts": 1}
    out = tmp_path / "toy.csv"
    assert run("--config", _config(tmp_path, values), "bench", "toy", "--out", str(out),
               "--n-test", "25") == 0
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["sigmas"] == [0.5, 10.0] and meta["n_train"] == 30
    assert meta["n_test"] == 25  # the command line beats the config


@pytest.mark.parametrize("body", [
    "x_0,y\n0.5,1\n0.25\n",
    "x_0,y\n0.5,1,2\n",
    "x_0,y\n0.5,abc\n",
    "x_0,y\n0.5,nan\n0.25,1\n",
    "x_0,y\ninf,1\n0.25,1\n",
    "",
], ids=["ragged", "long-row", "non-numeric", "nan-output", "inf-input", "empty"])
def test_malformed_data_csv_is_invalid_input(tmp_path, body):
    (tmp_path / "d.csv").write_text(body)
    proc = run_process("fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1",
                       cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "invalid request" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("config", [None, "{\"sigma\": ", "[1, 2]"],
                         ids=["missing-path", "malformed-json", "not-an-object"])
def test_config_errors_are_usage_errors(tmp_path, config):
    argv = ["catalog", "--config"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = ["--config", "cfg.json", "catalog"]
    proc = run_process(*argv, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "usage error" in proc.stderr and "Traceback" not in proc.stderr


OUT = ["--out", "out.csv"]
BAD_INPUTS = {
    "noise-malformed-json": ["simulate", "--model", "location", "--noise", "{bad", *OUT],
    "noise-missing-parameter": ["simulate", "--model", "location", "--noise", "student_t", *OUT],
    "noise-missing-family": ["simulate", "--model", "location", "--noise", '{"df": 3}', *OUT],
    "noise-non-numeric": ["simulate", "--model", "location", "--noise", "normal:abc", *OUT],
    "truth-non-numeric": ["simulate", "--model", "location", "--truth", "constant:abc", *OUT],
    "predict-model-missing-key": ["predict", "--model", "m.json", "--data", "d.csv"],
    "fit-load-missing-key": ["fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1",
                             "--load", "m.json"],
    "cv-sigma-non-numeric": ["fit", "--data", "d.csv", "--gain", "gaussian",
                             "--cv-sigma", "1,abc"],
    "anneal-non-numeric": ["fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1",
                           "--anneal", "4,abc"],
    "method-unknown": ["fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1",
                       "--method", "bogus"],
    "method-cannot-fit-gaussian": ["fit", "--data", "d.csv", "--gain", "gaussian",
                                   "--sigma", "1", "--method", "grid_consensus"],
    "method-cannot-fit-laplace": ["fit", "--data", "d.csv", "--gain", "laplace", "--sigma", "1",
                                  "--method", "irls"],
    "sigmas-non-numeric": ["bench", "toy", "--sigmas", "0.5,abc", *OUT],
    "n-list-non-numeric": ["bench", "rates", "--n-list", "50,abc", *OUT],
}


@pytest.mark.parametrize("argv", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
def test_malformed_flag_values_exit_one_without_traceback(tmp_path, argv):
    (tmp_path / "d.csv").write_text("x_0,y\n0.1,1\n0.5,2\n0.9,3\n")
    (tmp_path / "m.json").write_text('{"kind": "linear"}')
    proc = run_process(*argv, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(("usage error", "invalid request")), proc.stderr
    assert "Traceback" not in proc.stderr


KERNEL_MODEL = {"kind": "kernel_dictionary", "input_dim": 1, "centers": [[0.0], [1.0]],
                "bandwidth": 0.5, "coefficients": [1.0, 2.0], "M": 10.0, "clip": False}
# Saved models the CLI must refuse, each with the message that names its fault.
BAD_SAVED_MODELS = [
    (dict(KERNEL_MODEL, kind="kernel"), "unknown feature map kind 'kernel'"),
    (dict(KERNEL_MODEL, centers=[[0.0], [math.nan]]), "centers must be finite"),
    (dict(KERNEL_MODEL, coefficients=[1.0, math.nan]), "coefficients must be finite"),
    (dict(KERNEL_MODEL, coefficients=[math.inf, 2.0]), "coefficients must be finite"),
]


@pytest.mark.parametrize("argv", [
    ["predict", "--model", "m.json", "--data", "d.csv", *OUT],
    ["fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1", "--load", "m.json",
     "--save", "out.json"],
], ids=["predict", "fit-load"])
def test_a_saved_model_of_unknown_kind_is_invalid_input(tmp_path, argv):
    # An unknown kind used to load as a linear map, whatever its centers and bandwidth,
    # and a non-finite center or coefficient gave non-finite predictions with exit code 0.
    (tmp_path / "d.csv").write_text("x_0,y\n0,1\n1,2\n2,3\n")
    for model, message in BAD_SAVED_MODELS:
        (tmp_path / "m.json").write_text(json.dumps(model))
        proc = run_process(*argv, cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("invalid request"), proc.stderr
        assert message in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.json"]


LINEAR_MODEL = {"kind": "linear_with_intercept", "input_dim": 1, "centers": None,
                "bandwidth": None, "coefficients": [1.0, 2.0], "M": 10.0, "clip": False}


@pytest.mark.parametrize("field, value", [("clip", "no"), ("input_dim", True), ("input_dim", 1.5)],
                         ids=["clip-no", "dim-true", "dim-1.5"])
@pytest.mark.parametrize("argv", [
    ["predict", "--model", "m.json", "--data", "d.csv", *OUT],
    ["fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1", "--load", "m.json",
     "--save", "out.json"],
], ids=["predict", "fit-load"])
def test_a_saved_model_field_of_the_wrong_type_is_invalid_input(tmp_path, argv, field, value):
    # "clip": "no" used to load and clip, "input_dim": true to load as 1, and
    # "input_dim": 1.5 to fail on "2 coefficients for 2.5 features".
    (tmp_path / "d.csv").write_text("x_0,y\n0,1\n1,2\n2,3\n")
    (tmp_path / "m.json").write_text(json.dumps(dict(LINEAR_MODEL, **{field: value})))
    proc = run_process(*argv, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"invalid request: saved model {field} must be"), proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.json"]


KERNEL_WRONG_TYPES = [("bandwidth", True), ("centers", [[True], [0.5]])]


@pytest.mark.parametrize("model, field", [
    *[(dict(LINEAR_MODEL, **{field: value}), field) for field, value in [
        ("M", True), ("M", "10"), ("coefficients", [True, 1.5]), ("coefficients", ["1.5", 2]),
        ("coefficients", [[1.0], [2.0]]), ("coefficients", 1.0)]],
    *[(dict(KERNEL_MODEL, **{field: value}), field) for field, value in KERNEL_WRONG_TYPES],
    (dict(KERNEL_MODEL, centers=0.5), "centers"),
], ids=["M-true", "M-string", "coefficient-true", "coefficient-string", "coefficients-nested",
        "coefficients-number", "bandwidth-true", "center-true", "centers-number"])
def test_a_saved_model_number_of_the_wrong_json_type_is_invalid_input(tmp_path, model, field):
    # Each used to load: "M": true clipped to +-1 under "clip": true, the coefficient lists
    # loaded as [1, 1.5], [1.5, 2] and [1, 2], and a kernel's true as 1.
    (tmp_path / "d.csv").write_text("x_0,y\n0,1\n1,2\n2,3\n")
    (tmp_path / "m.json").write_text(json.dumps(dict(model, clip=True)))
    proc = run_process("predict", "--model", "m.json", "--data", "d.csv", *OUT, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"invalid request: saved model {field}"), proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.json"]


def _nested_noise(depth: int, base: str = '{"family": "student_t", "df": 3}') -> str:
    """Contaminated noise whose base is contaminated noise, ``depth`` levels deep."""
    head = '{"family": "contaminated", "rate": 0.1, "outlier_values": [5], "base": '
    return head * depth + base + "}" * depth


@pytest.mark.parametrize("argv, prefix", [
    (["predict", "--model", "deep.json", "--data", "d.csv", *OUT], "invalid request"),
    (["--config", "deep.json", "fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1"],
     "usage error"),
    (["simulate", "--model", "location", "--noise", _nested_noise(1500), *OUT], "usage error"),
], ids=["model", "config", "noise"])
def test_json_nested_past_the_parser_depth_exits_one(tmp_path, argv, prefix):
    # Each ended in a RecursionError traceback.
    (tmp_path / "d.csv").write_text("x_0,y\n0,1\n1,2\n2,3\n")
    (tmp_path / "deep.json").write_text("[" * 100_000)
    proc = run_process(*argv, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(prefix) and "Traceback" not in proc.stderr, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "deep.json"]


def test_a_noise_json_within_the_parser_depth_still_simulates(tmp_path):
    proc = run_process("simulate", "--model", "location", "--n", "5", "--noise",
                       _nested_noise(900), *OUT, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("depth", range(980, 991))
def test_a_noise_json_at_the_parser_depth_writes_both_files_or_neither(tmp_path, depth):
    # A mixture base nests two lists deeper in the sidecar than in the noise; at one
    # depth the parser took, the CSV was written and the sidecar's JSON then ended in
    # a RecursionError traceback.
    mixture = '{"family": "gaussian_mixture", "mixture": [[1.0, 0.0, 1.0]]}'
    proc = run_process("simulate", "--model", "location", "--n", "5", "--noise",
                       _nested_noise(depth, mixture), "--out", "o.csv", cwd=tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    if proc.returncode == 0:
        assert files == ["o.csv", "o.csv.meta.json"]
    else:
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("usage error") and proc.stderr.count("\n") == 1, \
            proc.stderr
        assert files == []


def test_a_prediction_that_overflows_is_a_runtime_failure(tmp_path):
    # Finite coefficients and inputs whose product overflows used to print inf rows and a
    # NumPy RuntimeWarning, and exit 0.
    (tmp_path / "d.csv").write_text("x_0,y\n0,0\n1,0\n2,0\n")
    (tmp_path / "m.json").write_text(json.dumps(dict(LINEAR_MODEL, coefficients=[1e308, 1e308])))
    proc = run_process("predict", "--model", "m.json", "--data", "d.csv", *OUT, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "runtime failure: the prediction for row 1 is inf: the model " \
                          "overflows a double there\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.json"]


@pytest.mark.parametrize("argv, message", [
    (["bench", "rates", "--n-list", "50"], "at least two sample sizes"),
    (["bench", "rates", "--n-list", ","], "at least two sample sizes"),
    (["bench", "toy", "--sigmas", ","], "at least one scale"),
], ids=["rates-one-size", "rates-no-size", "toy-no-scale"])
def test_bench_grids_too_short_exit_one_without_output(tmp_path, argv, message):
    # These runs used to exit 0, with an unmeasured slope or a header-only CSV.
    proc = run_process(*argv, "--out", "out.csv", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("invalid request") and message in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("folds", ["0", "1"])
def test_bench_toy_needs_two_folds(tmp_path, folds):
    proc = run_process("bench", "toy", "--n-train", "20", "--n-test", "20", "--sigmas", "10",
                       "--folds", folds, "--out", "toy.csv", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "cross-validation needs at least 2 folds" in proc.stderr
    assert "Traceback" not in proc.stderr


NON_FINITE_OR_OUT_OF_RANGE = {
    "bandwidth-nan": ["fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1",
                      "--features", "kernel", "--bandwidth", "nan"],
    "bandwidth-underflow": ["fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1",
                            "--features", "kernel", "--bandwidth", "1e-200"],
    "centers-cap-negative": ["fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1",
                             "--features", "kernel", "--bandwidth", "1", "--centers-cap", "-1"],
    "input-dim-zero": ["simulate", "--model", "location", "--input-dim", "0", *OUT],
    "rates-unknown-gain": ["bench", "rates", "--gain", "nosuch", *OUT],
    "epsilon-nan": ["fit", "--data", "d.csv", "--gain", "gaussian", "--schedule", "theta1",
                    "--epsilon", "nan", "--q", "1"],
    "anneal-nan": ["fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "0.1",
                   "--anneal", "nan,0.5"],
    "ridge-nan": ["fit", "--data", "d.csv", "--gain", "gaussian", "--sigma", "1",
                  "--ridge", "nan"],
    "noise-sd-nan": ["simulate", "--model", "location", "--noise", "normal:0:nan", *OUT],
    "noise-pareto-nan": ["simulate", "--model", "location", "--noise", "pareto:nan", *OUT],
    "truth-inf": ["simulate", "--model", "location", "--truth", "linear:inf:0", *OUT],
    "half-width-inf": ["certify", "--gain", "gaussian", "--half-width", "inf"],
}


@pytest.mark.parametrize("argv", list(NON_FINITE_OR_OUT_OF_RANGE.values()),
                         ids=list(NON_FINITE_OR_OUT_OF_RANGE))
def test_non_finite_or_out_of_range_values_exit_one(tmp_path, argv):
    (tmp_path / "d.csv").write_text("x_0,y\n0.1,1\n0.5,2\n0.9,3\n0.3,1.5\n")
    proc = run_process(*argv, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(("usage error", "invalid request")), proc.stderr
    assert "Traceback" not in proc.stderr


FRACTIONS, INTEGERS = (0.1, 0.2, 0.3, 0.5), (0, 1, 2, 3)


@pytest.mark.parametrize("xs, magnitude, gain, code, prefix", [
    (FRACTIONS, "1e300", "gaussian", 1, "invalid request: t must be finite"),
    (FRACTIONS, "1e308", "uniform", 1, "invalid request: t must be finite"),
    (FRACTIONS, "1e308", "gaussian", 2, "runtime failure"),
    (INTEGERS, "1e308", "gaussian", 2, "runtime failure"),
    (INTEGERS, "1e308", "uniform", 1, "invalid request: t must be finite"),
], ids=["gaussian-1e300", "uniform-1e308", "gaussian-1e308", "gaussian-1e308-integer-inputs",
        "uniform-1e308-integer-inputs"])
def test_fit_on_outputs_near_the_double_range_prints_no_warning(tmp_path, xs, magnitude, gain,
                                                                code, prefix):
    # The least-squares anchor's norm, and the consensus search's residuals, overflow
    # on such outputs; the request is refused by the gains' residual-range rule.  On
    # the integer inputs the anchor's normal equations overflow too, and used to warn.
    signs = ("", "-", "", "-")
    rows = "".join(f"{x},{sign}{magnitude}\n" for x, sign in zip(xs, signs))
    (tmp_path / "d.csv").write_text("x_0,y\n" + rows)
    proc = run_process("fit", "--data", "d.csv", "--gain", gain, "--sigma", "1", cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1, proc.stderr


def test_bench_toy_names_a_fold_count_above_the_rows(tmp_path):
    proc = run_process("bench", "toy", "--n-train", "3", "--n-test", "5", "--sigmas", "10",
                       "--folds", "5", "--out", "toy.csv", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "5 folds" in proc.stderr and "3 observations" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("error, code", [(gr.DegenerateIterateError, 2),
                                         (gr.InvalidParameterError, 1)])
def test_bench_toy_error_in_a_worker_keeps_its_exit_code(tmp_path, monkeypatch, capfd,
                                                         error, code):
    # Two CPUs and one BLAS thread, so the fits run in forked workers; the error
    # is raised only there.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    parent = os.getpid()
    fit_scales = bench.fit_scales

    def failing_fit(*args, **kwargs):
        if os.getpid() != parent:
            raise error("raised in a worker")
        return fit_scales(*args, **kwargs)

    monkeypatch.setattr(bench, "fit_scales", failing_fit)
    assert run("bench", "toy", "--n-train", "30", "--n-test", "20", "--sigmas", "10",
               "--folds", "3", "--restarts", "1", "--out", str(tmp_path / "toy.csv")) == code
    err = capfd.readouterr().err
    assert "raised in a worker" in err and "Traceback" not in err, err
    assert multiprocessing.active_children() == []
