"""End-to-end command tests: files, exit codes, determinism, round-trips."""

import json
import math
import os

import numpy as np
import pytest

from dynlab.cli import main

BASE = {
    "params": {"C": -1.0, "D": -1.0, "E": -0.5, "F": 0.0},
    "initial_state": {"full": [1.0, 0.0, 0.0, 0.0, 1.0]},
    "times": {"t_transient": 5.0, "t_total": 5.0, "out_stride": 0.25},
    "verify": {"samples": 2000, "horizon": 8.0},
    "seed": 12,
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE))
    for key, value in (overrides or {}).items():
        # initial_state variants replace each other; other sections merge
        if key != "initial_state" and isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def no_partials(directory):
    return not any(name.endswith(".partial") for name in os.listdir(directory))


class TestSimulate:
    def test_bilinear_column_follows_exponential_law(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "y1", "y2", "y3", "y4", "y5"]
        for row in rows:
            t, y1, y2, y3, y4, y5 = map(float, row)
            assert abs((y1 * y5 - y2 * y4) - math.exp(-2.0 * t)) <= 1e-8 * math.exp(-2.0 * t)
        assert no_partials(out)

    def test_equilibrium_start_rows_constant(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": {"C": -2.0, "D": 1.0, "E": -2.0, "F": 4.0},
                "initial_state": {"full": [0.0, 0.0, 2.0, 0.0, 0.0]},
            },
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        for row in rows:
            np.testing.assert_allclose(
                [float(v) for v in row[1:]], [0.0, 0.0, 2.0, 0.0, 0.0], atol=1e-12
            )

    def test_equilibrium_offset_with_E_zero_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": {"C": -1.0, "D": 1.0, "E": 0.0, "F": 1.0},
                "initial_state": {"equilibrium_offset": [0.1, 0.0, 0.0, 0.0, 0.0]},
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_reduced_run_has_three_columns(self, tmp_path):
        cfg = write_config(tmp_path, {"initial_state": {"reduced": [0.5, 0.1, 0.0], "K": 2.0}})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, _ = read_csv(out / "trajectory.csv")
        assert header == ["t", "y1", "y2", "y3"]

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, {"output": {"format": "json"}})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "trajectory.json").read_text())
        assert doc["columns"][0] == "t"
        assert len(doc["rows"]) > 2

    def test_sidecar_round_trip_reproduces_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        sidecar = out1 / "run.json"
        assert main(["simulate", "--config", str(sidecar), "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"initial_state": {"random": {"box": [-2.0, 2.0]}}})
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_random_box_of_five_pairs(self, tmp_path):
        """Each component is drawn inside its own [lo, hi], and the seed fixes the start."""
        box = [[-2.0, -1.0], [0.0, 0.5], [1.0, 1.25], [-0.125, 0.0], [3.0, 7.0]]
        cfg = write_config(tmp_path, {"initial_state": {"random": {"box": box}}, "times": {"t_total": 0.5}})
        starts = []
        for sub, seed in (("a", 12), ("b", 12), ("c", 13)):
            out = tmp_path / sub
            assert main(["simulate", "--config", cfg, "--out", str(out), "--set", f"seed={seed}"]) == 0
            starts.append([float(v) for v in read_csv(out / "trajectory.csv")[1][0][1:]])
        for start in starts:
            assert all(lo <= y <= hi for (lo, hi), y in zip(box, start))
        assert starts[0] == starts[1] != starts[2]

    def test_set_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert (
            main(["simulate", "--config", cfg, "--out", str(out), "--set", "params.C=-2.5"]) == 0
        )
        echo = json.loads((out / "run.json").read_text())
        assert echo["params"]["C"] == -2.5

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"paramz": {"C": 1}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_blowup_partial_output_and_exit_4(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "integrator": {"max_steps": 200},
                "times": {"t_transient": 0.0, "t_total": 50.0, "out_stride": 0.5},
            },
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
        assert (out / "trajectory.csv.partial").exists()
        assert not (out / "trajectory.csv").exists()
        diag = json.loads((out / "run.json").read_text())["stats"]
        assert diag["error"] == "StepBudgetError"

    def test_missing_params_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"times": {"t_total": 1.0}}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_unreadable_config(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


class TestVerify:
    def test_default_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert set(report) == {
            "derivative_identity",
            "norm_forms_agree",
            "norm_forms_gradient",
            "bilinear_flow_law",
            "proportionality_flow",
        }
        assert all(entry["pass"] for entry in report.values())

    def test_zero_tolerance_fails_with_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {"verify": {"samples": 500, "tolerance": 0.0}})
        out = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads((out / "verify_report.json").read_text())
        assert not any(entry["pass"] for entry in report.values())

    def test_report_stable_across_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
            blobs.append((out / "verify_report.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestReduce:
    def test_off_limit_set_exit_5(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # y0=(1,0,0,0,1) has bilinear 1
        assert main(["reduce", "--config", cfg, "--out", str(tmp_path / "x")]) == 5
        assert capsys.readouterr().err.startswith("dynlab: ")

    def test_step_budget_exit_4(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "initial_state": {"full": [1.0, 1.0, 0.0, 2.0, 2.0]},
                "integrator": {"max_steps": 3},
                "times": {"t_transient": 0.0, "t_total": 20.0, "out_stride": 0.5},
            },
        )
        assert main(["reduce", "--config", cfg, "--out", str(tmp_path / "x")]) == 4
        assert capsys.readouterr().err.startswith("dynlab: max_steps = 3 exhausted")

    def test_manifold_reduction_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "initial_state": {"full": [1.0, 1.0, 0.0, 2.0, 2.0]},
                "times": {"t_transient": 0.0, "t_total": 20.0, "out_stride": 0.5},
                "params": {"C": -2.5, "D": -1.0, "E": -1.0, "F": 0.5},
            },
        )
        out = tmp_path / "run"
        assert main(["reduce", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "reduce_report.json").read_text())
        assert report["K"] == {"kind": "standard", "value": 2.0}
        assert report["max_state_deviation"] <= 1e-6
        header, rows = read_csv(out / "k_drift.csv")
        assert header == ["t", "K"]
        assert len(rows) == 41

    def test_reduced_initial_state_lifted(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "initial_state": {"reduced": [0.5, 0.2, 0.0], "K": -1.0},
                "times": {"t_transient": 0.0, "t_total": 10.0, "out_stride": 0.5},
                "params": {"C": -2.5, "D": -1.0, "E": -1.0, "F": 0.0},
            },
        )
        out = tmp_path / "run"
        assert main(["reduce", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "reduce_report.json").read_text())
        assert report["K"]["value"] == -1.0


class TestLyapunov:
    def test_full_and_reduced_reports(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": {"C": -3.0, "D": -1.0, "E": -1.0, "F": 0.0},
                "initial_state": {"full": [0.0, 0.0, 0.0, 0.0, 0.0]},
                "times": {"t_transient": 0.0, "t_total": 30.0, "out_stride": 0.5},
            },
        )
        out = tmp_path / "run"
        assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "lyapunov_report.json").read_text())
        assert len(report["exponents"]) == 5
        assert report["exponents"] == sorted(report["exponents"], reverse=True)
        assert not report["diverged"]
        header, rows = read_csv(out / "lyapunov_trace.csv")
        assert header == ["t", "lambda1", "lambda2", "lambda3", "lambda4", "lambda5"]
        assert len(rows) == 30

        cfg2 = write_config(
            tmp_path,
            {
                "params": {"C": -3.0, "D": -1.0, "E": -1.0, "F": 0.0},
                "initial_state": {"reduced": [0.1, 0.0, 0.0], "K": 0.0},
                "times": {"t_transient": 0.0, "t_total": 30.0, "out_stride": 0.5},
            },
            name="cfg2.json",
        )
        out2 = tmp_path / "run2"
        assert main(["lyapunov", "--config", cfg2, "--out", str(out2)]) == 0
        report2 = json.loads((out2 / "lyapunov_report.json").read_text())
        assert len(report2["exponents"]) == 3


class TestScan:
    def scan_config(self, tmp_path, **kw):
        over = {
            "params": {"C": -2.5, "D": -1.0, "E": -1.0, "F": 0.0},
            "initial_state": {"full": [0.5, -0.3, 0.2, 0.0, 0.0]},
            "times": {"t_transient": 20.0, "t_total": 80.0, "out_stride": 0.1},
            "integrator": {"abs_tol": 1e-9, "rel_tol": 1e-9},
        }
        over.update(kw)
        return write_config(tmp_path, over)

    def test_stable_scan_all_equilibrium(self, tmp_path):
        cfg = self.scan_config(tmp_path)
        out = tmp_path / "run"
        code = main(
            ["scan", "--config", cfg, "--out", str(out), "--param", "C",
             "--min", "-3.0", "--max", "-2.2", "--steps", "4", "--workers", "1", "--gnuplot"]
        )
        assert code == 0
        header, rows = read_csv(out / "scan_records.csv")
        assert header[:2] == ["param", "classification"]
        assert len(rows) == 4
        assert all(r[1] == "equilibrium" for r in rows)
        _, ext_rows = read_csv(out / "scan_extrema.csv")
        assert len(ext_rows) <= 4 * 64
        assert (out / "scan.gp").exists()
        assert no_partials(out)

    def test_zero_steps_empty_dataset(self, tmp_path):
        cfg = self.scan_config(tmp_path)
        out = tmp_path / "run"
        code = main(
            ["scan", "--config", cfg, "--out", str(out), "--param", "C",
             "--min", "-3.0", "--max", "-2.0", "--steps", "0", "--workers", "1"]
        )
        assert code == 0
        _, rows = read_csv(out / "scan_records.csv")
        assert rows == []

    def test_k_scan_requires_reduced_state(self, tmp_path):
        cfg = self.scan_config(tmp_path)
        code = main(
            ["scan", "--config", cfg, "--out", str(tmp_path / "x"), "--param", "K",
             "--min", "-1.0", "--max", "1.0", "--steps", "2", "--workers", "1"]
        )
        assert code == 2

    def test_k_scan_reduced_state(self, tmp_path):
        cfg = self.scan_config(tmp_path, initial_state={"reduced": [0.4, -0.2, 0.1], "K": 0.0})
        out = tmp_path / "run"
        code = main(
            ["scan", "--config", cfg, "--out", str(out), "--param", "K",
             "--min", "-1.0", "--max", "1.0", "--steps", "3", "--workers", "1"]
        )
        assert code == 0
        header, rows = read_csv(out / "scan_records.csv")
        assert header == ["param", "classification", "lambda1", "lambda2", "lambda3"]
        assert len(rows) == 3


class TestEquilibriumCmd:
    def test_report(self, tmp_path):
        cfg = write_config(
            tmp_path, {"params": {"C": -3.0, "D": -1.0, "E": -2.0, "F": 4.0}}
        )
        out = tmp_path / "run"
        assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "equilibrium_report.json").read_text())
        assert report["equilibrium"] == [0.0, 0.0, 2.0, 0.0, 0.0]
        assert len(report["eigenvalues"]) == 5
        res = [w["re"] for w in report["eigenvalues"]]
        assert res == sorted(res, reverse=True)
        assert any(abs(w["re"] - (-2.0)) < 1e-9 and w["im"] == 0.0 for w in report["eigenvalues"])

    def test_E_zero_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"params": {"C": -1.0, "D": 1.0, "E": 0.0, "F": 0.0}})
        assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


# A config that every command runs: a K-plane start, a short window.
VALID = {
    "initial_state": {"reduced": [0.5, 0.2, 0.0], "K": -1.0},
    "times": {"t_transient": 0.0, "t_total": 5.0, "out_stride": 0.5},
}
FULL_START = 'initial_state={"full": [0.5, -0.3, 0.2, 0.0, 0.0]}'
FULL_NAN = 'initial_state={"full": [NaN, 0.0, 0.0, 0.0, 1.0]}'


def scan_argv(param="C", lo="-1.0", hi="1.0", steps="2", workers="1"):
    return ["scan", f"--param={param}", f"--min={lo}", f"--max={hi}", f"--steps={steps}", f"--workers={workers}"]


@pytest.mark.parametrize(
    "args, name",
    [
        pytest.param(scan_argv("K") + ["--set", FULL_START], "initial_state", id="K-2"),
        pytest.param(scan_argv(steps="-1"), "--steps", id="C--1"),
        pytest.param(scan_argv() + ["--set", "times.out_stride=-0.1"], "times.out_stride", id="out_stride=-0.1"),
        pytest.param(scan_argv() + ["--set", "times.out_stride=0"], "times.out_stride", id="out_stride=0"),
        pytest.param(scan_argv(workers="0"), "workers", id="workers=0"),
        pytest.param(scan_argv(workers="-3"), "workers", id="workers=-3"),
        pytest.param(scan_argv() + ["--set", "scan.eps_zero=-1"], "scan.eps_zero", id="scan-eps_zero=-1"),
        pytest.param(scan_argv() + ["--set", "scan.extrema_cap=-1"], "scan.extrema_cap", id="scan-extrema_cap=-1"),
        pytest.param(scan_argv(lo="nan"), "--min", id="scan-min=nan"),
        pytest.param(scan_argv(lo="-1e308", hi="1e308"), "--min", id="scan-range=overflow"),
        pytest.param(["simulate", "--set", "times.out_stride=0"], "times.out_stride", id="simulate-stride=0"),
        pytest.param(["simulate", "--set", "times.out_stride=-1"], "times.out_stride", id="simulate-stride=-1"),
        pytest.param(["simulate", "--set", "times.t_transient=-1"], "times.t_transient", id="simulate-transient=-1"),
        pytest.param(["simulate", "--set", "times.t_total=Infinity"], "times.t_total", id="simulate-t_total=Infinity"),
        pytest.param(["simulate", "--set", "times.t_total=1e15"], "out_stride", id="simulate-t_total=1e15"),
        pytest.param(["simulate", "--set", "times.t_total=1e300"], "out_stride", id="simulate-t_total=1e300"),
        pytest.param(["simulate", "--set", "params.C=NaN"], "params.C", id="simulate-C=NaN"),
        pytest.param(["simulate", "--set", FULL_NAN], "initial_state.full", id="simulate-full=NaN"),
        pytest.param(["reduce", "--set", "times.out_stride=0"], "times.out_stride", id="reduce-stride=0"),
        pytest.param(["reduce", "--set", "reduce.zero_tol=-1"], "reduce.zero_tol", id="reduce-zero_tol=-1"),
        pytest.param(["lyapunov", "--set", "times.t_transient=5"], "times.t_total", id="lyapunov-transient=total"),
        pytest.param(["lyapunov", "--set", "times.t_transient=8"], "times.t_total", id="lyapunov-transient>total"),
        pytest.param(
            ["lyapunov", "--set", "lyapunov.renorm_interval=0"], "lyapunov.renorm_interval", id="lyapunov-renorm=0"
        ),
        pytest.param(["lyapunov", "--set", "times.t_total=Infinity"], "times.t_total", id="lyapunov-t_total=Infinity"),
        pytest.param(
            ["lyapunov", "--set", "lyapunov.renorm_interval=1e-13"], "renorm_interval", id="lyapunov-renorm=1e-13"
        ),
        pytest.param(["verify", "--set", "verify.horizon=0"], "verify.horizon", id="verify-horizon=0"),
        pytest.param(["verify", "--set", "verify.samples=-1"], "verify.samples", id="verify-samples=-1"),
        pytest.param(
            ["verify", "--set", "verify.horizon=1e15", "--set", "verify.samples=1"], "verify.horizon",
            id="verify-horizon=1e15",
        ),
        pytest.param(["verify", "--set", "times.out_stride=0"], "times.out_stride", id="verify-stride=0"),
        pytest.param(["equilibrium", "--set", "integrator.h_min=1"], "h_min", id="equilibrium-h_min=1"),
        pytest.param(["equilibrium", "--set", "params.E=0"], "E = 0", id="equilibrium-E=0"),
    ],
)
def test_rejected_config_creates_no_directory(tmp_path, capsys, args, name):
    """Every command checks every section of the config, including those it
    does not read, then its own flags and window, before the output directory
    is made.  Python's json reads NaN and Infinity, which strict JSON has not."""
    out = tmp_path / "never"
    assert main(args + ["--config", write_config(tmp_path, VALID), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dynlab: invalid config:") and name in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [["simulate"], ["verify"], ["reduce"], ["lyapunov"], scan_argv(), ["equilibrium"]],
    ids=lambda args: args[0],
)
def test_unwritable_output_exits_3(tmp_path, capsys, args):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"  # a path below a regular file, since a root user may write anywhere
    assert main(args + ["--config", write_config(tmp_path, VALID), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("dynlab: cannot write output:")
