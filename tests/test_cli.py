import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg.lapack

from torsionlab import cli
from torsionlab.graded import IndeterminateKernelError


def run_cli(args):
    return cli.main(args)


POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def _pools_after_cli_import(**set_vars):
    """The BLAS pool variables a fresh interpreter holds after importing the
    CLI from an environment with none of them (nor TORSION_LAB_THREADS) set
    but `set_vars`."""
    env = {k: v for k, v in os.environ.items()
           if k not in POOL_VARS and k != "TORSION_LAB_THREADS"}
    env.update(set_vars)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import json, os, torsionlab.cli; "
            f"print(json.dumps([os.environ.get(v) for v in {POOL_VARS!r}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(POOL_VARS, json.loads(out)))


def test_cli_caps_blas_pools_by_default():
    assert _pools_after_cli_import() == dict.fromkeys(POOL_VARS, "1")
    assert _pools_after_cli_import(TORSION_LAB_THREADS="2") == dict.fromkeys(POOL_VARS, "2")
    # a pool variable the user set wins over both
    pools = _pools_after_cli_import(OPENBLAS_NUM_THREADS="3", TORSION_LAB_THREADS="2")
    assert pools == {**dict.fromkeys(POOL_VARS, "2"), "OPENBLAS_NUM_THREADS": "3"}
    assert _pools_after_cli_import(OMP_NUM_THREADS="4")["OMP_NUM_THREADS"] == "4"


def test_birth_death_census_table(tmp_path):
    out = tmp_path / "bd"
    code = run_cli(["run", "birth-death", "--A", "1000", "--y", "0",
                    "--output-dir", str(out)])
    assert code == 0
    lines = (out / "result.csv").read_text().strip().split("\n")
    assert lines[0] == "index,birth_death,value,radius,newton_residual"
    assert len(lines) == 8  # header + 7 critical points
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "birth-death"
    assert "config_sha256" in manifest


def test_malformed_config_exits_2(tmp_path):
    out = tmp_path / "bad"
    code = run_cli(["run", "birth-death", "--nonsense", "1",
                    "--output-dir", str(out)])
    assert code == 2
    assert not out.exists()
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this is not a key value line\n")
    code = run_cli(["run", "torsion", "--config", str(cfg),
                    "--output-dir", str(out)])
    assert code == 2
    assert not out.exists()


def test_invalid_parameter_value_exits_2(tmp_path):
    # r2 beyond the allowed window trips the model validation; the Witten
    # solvers refuse k < 1 before writing any table
    for args in (["birth-death", "--r2", "0.08"], ["witten-glue", "--k", "-1"],
                 ["witten-glue", "--k", "0"]):
        out = tmp_path / ("bad2" + "".join(args))
        assert run_cli(["run", *args, "--output-dir", str(out)]) == 2
        assert not (out / "result.csv").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("torsion.theta=1.0\n")
    out1 = tmp_path / "o1"
    assert run_cli(["run", "torsion", "--config", str(cfg),
                    "--output-dir", str(out1)]) == 0
    row = (out1 / "result.csv").read_text().strip().split("\n")[1]
    assert row.startswith("1,") or row.startswith("1.0,") or row.startswith("1 ,")
    out2 = tmp_path / "o2"
    assert run_cli(["run", "torsion", "--config", str(cfg), "--theta", "2.0",
                    "--output-dir", str(out2)]) == 0
    row2 = (out2 / "result.csv").read_text().strip().split("\n")[1]
    assert row2.startswith("2")


def test_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli(["run", "cheeger-muller", "--theta", "3.14159265",
                        "--output-dir", str(out)]) == 0
        outs.append((out / "result.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cheeger_muller_gap_column(tmp_path):
    out = tmp_path / "cm"
    assert run_cli(["run", "cheeger-muller", "--theta", "3.14159265",
                    "--output-dir", str(out)]) == 0
    extra = json.loads((out / "result.json").read_text())
    assert extra["gap_comb_exact"] <= 1e-6


def test_torsion_routes_agree(tmp_path):
    out = tmp_path / "t"
    assert run_cli(["run", "torsion", "--theta", "2.2",
                    "--output-dir", str(out)]) == 0
    extra = json.loads((out / "result.json").read_text())
    assert extra["max_route_gap"] <= 1e-6


def test_suspension_experiment(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["run", "suspension", "--N", "4", "--T", "1.0", "--T2", "3.0",
                    "--output-dir", str(out)]) == 0
    lines = (out / "result.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    row = lines[1].split(",")
    rec = dict(zip(header, row))
    assert rec["chi_prime_shift_ok"] == "1"
    assert abs(float(rec["stated_ratio"]) - 3.0**4) < 1e-4
    extra = json.loads((out / "result.json").read_text())
    assert extra["T_independent_choice"] == "probability"


def test_cubic_experiment(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["run", "cubic", "--T_list", "1,8", "--k", "3",
                    "--output-dir", str(out)]) == 0
    lines = (out / "result.csv").read_text().strip().split("\n")[1:]
    vals = {}
    for line in lines:
        t, k, lam, scaled = line.split(",")
        vals.setdefault(k, []).append(float(scaled))
    for k, pair in vals.items():
        assert abs(pair[0] - pair[1]) <= 0.01 * max(1e-9, abs(pair[0]))


def test_degenerate_grid_and_ladder_exit_2(tmp_path, capsys):
    # a Witten grid needs 3 nodes (at 2 the circle's corner entry lands on
    # the off-diagonal); the small-eig ladder needs a positive step and the
    # 3 values of its log fit
    for args, message in ((["cubic", "--n_nodes", "1"], "at least 3 nodes"),
                          (["cubic", "--n_nodes", "2"], "at least 3 nodes"),
                          (["small-eig", "--T_step", "0"], "T_step must be positive"),
                          (["small-eig", "--T_step", "-10"], "T_step must be positive"),
                          (["small-eig", "--T_max", "10"], "at least 3 values"),
                          (["small-eig", "--T_max", "35"], "at least 3 values")):
        out = tmp_path / "".join(args)
        assert run_cli(["run", *args, "--output-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_input_exits_2(tmp_path, capsys):
    # a NaN holonomy is refused where the model is built, as a bad input
    assert run_cli(["run", "torsion", "--theta", "nan", "--output-dir", str(tmp_path)]) == 2
    assert "validation error: holonomy has non-finite entries" in capsys.readouterr().err
    # a NaN amplitude fails every comparison of the census; inf is no amplitude
    for value in ("nan", "inf"):
        out = tmp_path / f"bd_{value}"
        assert run_cli(["run", "birth-death", "--A", value, "--output-dir", str(out)]) == 2
        assert "validation error: model parameters must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_numerical_failure_exits_3(tmp_path):
    # an unconverged torsion-form tail is a numerical failure, not a
    # configuration problem
    out = tmp_path / "n3"
    code = run_cli(["run", "anomaly", "--m", "16", "--t_max", "5",
                    "--output-dir", str(out)])
    assert code == 3


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, IndeterminateKernelError])
def test_linear_algebra_failure_exits_3(tmp_path, monkeypatch, error):
    # these subclass ValueError, yet they are numerical failures
    def failing_runner(params):
        raise error("singular matrix")

    monkeypatch.setitem(cli.RUNNERS, "torsion", failing_runner)
    out = tmp_path / "la"
    assert run_cli(["run", "torsion", "--output-dir", str(out)]) == 3
    assert not out.exists()


def test_indefinite_factor_operator_exits_3(tmp_path, monkeypatch, capsys):
    # dpttrf reporting a non-positive pivot of the shifted factor operator
    # (A = 64 takes the sparse route) is a numerical failure
    def indefinite(d, e):
        return d, e, 1

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", indefinite)
    out = tmp_path / "pd"
    assert run_cli(["run", "witten-glue", "--A_ladder", "64", "--output-dir", str(out)]) == 3
    assert "LinAlgError" in capsys.readouterr().err
    assert not out.exists()


def test_singular_secular_solve_exits_3(tmp_path, monkeypatch, capsys):
    # dgtsv reporting a singular P - x in the secular solve of the circle
    # factor (small-eig takes it at every T) is a numerical failure
    def singular(dl, d, du, b, **kwargs):
        return dl, d, du, b, 1

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", singular)
    out = tmp_path / "sec"
    assert run_cli(["run", "small-eig", "--output-dir", str(out)]) == 3
    assert "LinAlgError" in capsys.readouterr().err
    assert not out.exists()


def test_small_eig_underflowed_ladder_exits_3(tmp_path, capsys):
    # at amplitude 0.35 the underflow cut leaves only T = 20 of the seven T
    # values: the log fit has no slope, a numerical failure, and no
    # result.json with a NaN slope is written
    out = tmp_path / "uf"
    assert run_cli(["run", "small-eig", "--amplitude", "0.35", "--output-dir", str(out)]) == 3
    assert "only 1 of 7 T values survive" in capsys.readouterr().err
    assert not out.exists()


def test_small_eig_result_json_is_strict_json(tmp_path):
    # NaN and Infinity are not JSON: a strict parser refuses them
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    out = tmp_path / "se"
    assert run_cli(["run", "small-eig", "--output-dir", str(out)]) == 0
    extra = json.loads((out / "result.json").read_text(), parse_constant=refuse)
    assert np.isfinite(extra["slope"])


def test_witten_glue_default_config(tmp_path):
    # the README example: the companion table comes from the factored
    # operator B^H B, whose eigenvalues are nonnegative
    out = tmp_path / "glue"
    assert run_cli(["run", "witten-glue", "--output-dir", str(out)]) == 0
    lines = (out / "spectra.csv").read_text().strip().split("\n")
    assert lines[0] == "t,a,bc,k,lambda,residual"
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 6
    lam = np.array([float(r["lambda"]) for r in rows])
    res = np.array([float(r["residual"]) for r in rows])
    assert (lam >= 0).all() and (np.diff(lam) >= 0).all()
    assert (res <= 1e-8 * np.maximum(1.0, np.abs(lam))).all()


def test_agmon_experiment(tmp_path, capsys):
    outs = []
    for name in ("a1", "a2"):
        out = tmp_path / name
        assert run_cli(["run", "agmon", "--output-dir", str(out)]) == 0
        outs.append((out / "result.csv").read_bytes())
    lines = outs[0].decode().strip().split("\n")
    assert lines[0] == "t,sup_log_u_plus_b_rho"
    assert len(lines) == 5  # header + T = 20, 40, 60, 80
    assert outs[0] == outs[1]
    # a flat potential leaves no node off the wells: the decay precondition
    # is undefined, a configuration error
    out = tmp_path / "flat"
    capsys.readouterr()
    assert run_cli(["run", "agmon", "--amplitude", "0", "--output-dir", str(out)]) == 2
    assert "precondition" in capsys.readouterr().err
    assert not out.exists()
