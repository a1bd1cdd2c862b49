"""CLI surfaces: formats, determinism, exit codes, config files."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gainreg as gr
from gainreg import bench
from gainreg.cli import main


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


def test_usage_errors_exit_one(capsys):
    assert run("fit", "--data", "x.csv") == 1  # missing --gain
    assert run("eval", "--gain", "gaussian", "--sigma", "-1", "--t", "0") == 1
    assert run("nonsense") == 1


def test_missing_file_exit_two(tmp_path):
    assert run("fit", "--data", str(tmp_path / "absent.csv"), "--gain", "gaussian",
               "--sigma", "1") == 2


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


def test_fit_save_load_round_trip(tmp_path):
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
    fit_egm = bench.fit_egm

    def failing_fit(*args, **kwargs):
        if os.getpid() != parent:
            raise error("raised in a worker")
        return fit_egm(*args, **kwargs)

    monkeypatch.setattr(bench, "fit_egm", failing_fit)
    assert run("bench", "toy", "--n-train", "30", "--n-test", "20", "--sigmas", "10",
               "--folds", "3", "--restarts", "1", "--out", str(tmp_path / "toy.csv")) == code
    err = capfd.readouterr().err
    assert "raised in a worker" in err and "Traceback" not in err, err
    assert multiprocessing.active_children() == []
