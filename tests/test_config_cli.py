"""Config resolution, hashing, and the five CLI subcommands end to end."""

import csv
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fortetbridge import bridge, cli, fortet
from fortetbridge.cli import _apply_thread_env, _solve_problem, _THREAD_VARS, main
from fortetbridge.config import (build_problem, load_problem, problem_hash,
                                 resolve_config)
from fortetbridge.errors import ConfigError
from fortetbridge.fortet import StepLog, run_fortet
from fortetbridge.problem import (MarginalPair, check_assumptions, full_report,
                                  gaussian_density, gaussian_kernel, transition_normalized)
from fortetbridge.quadrature import build_grid
from tests.byte_identity import EXTRA, write_extra
from tests.conftest import counting_applies, kernel_matrix_builds, traced_peak
from tests.solve_ab import WORKLOADS, first_ops

BENCH_RAW = {
    "kernel": {"type": "gaussian", "sigma": 0.5},
    "marginals": [{"type": "gaussian", "sigma": 1.0},
                  {"type": "gaussian", "sigma": 0.8}],
    "grid": {"dim": 1, "radius": 8.0, "points": 201, "rule": "trapezoid"},
}

SWAP_RAW = {
    "kernel": {"type": "gaussian", "sigma": 0.1},
    "marginals": [{"type": "gaussian", "sigma": 0.5},
                  {"type": "gaussian", "sigma": 1.0}],
    "grid": {"dim": 1, "radius": "auto", "points": 201},
}


def write_config(tmp_path, raw, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_auto_radius_uses_largest_scale(self):
        resolved = resolve_config(SWAP_RAW)
        assert resolved["grid"]["radius"] == 6.5  # 6.5 x sigma1 = 6.5 x 1.0
        assert resolved["grid"]["rule"] == "trapezoid"
        assert resolved["solver"]["tol"] == 1e-10
        assert resolved["swap"] is False

    def test_auto_radius_reads_only_the_keys_the_builders_read(self):
        # a table marginal's "sigma", a 1-D marginal's "covariance" and a
        # gaussian kernel's "covariance" are read by no builder; each once
        # read as 9, 10 and 5, for a radius of 58.5, 65.0 and 32.5
        stray = [{"marginals": [{"type": "table", "path": "m.csv", "sigma": 9},
                                SWAP_RAW["marginals"][1]]},
                 {"marginals": [dict(SWAP_RAW["marginals"][0], covariance=100),
                                SWAP_RAW["marginals"][1]]},
                 {"kernel": dict(SWAP_RAW["kernel"], covariance=[[25]])}]
        for change in stray:
            assert resolve_config(dict(SWAP_RAW, **change))["grid"]["radius"] == 6.5

    def test_auto_radius_reads_a_two_dimensional_marginal_sigma_as_a_variance(self):
        # in 2-D a marginal's "sigma" is a per-axis variance, as the marginal
        # is built: the wider marginal's standard deviation is 0.5
        raw = {"kernel": {"type": "gaussian", "sigma": 0.1},
               "marginals": [{"type": "gaussian", "sigma": 0.25},
                             {"type": "gaussian", "sigma": 0.16}],
               "grid": {"dim": 2, "radius": "auto", "points": 21}}
        assert resolve_config(raw)["grid"]["radius"] == 3.25  # 6.5 x 0.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            resolve_config(dict(BENCH_RAW, tolerance=1e-8))
        with pytest.raises(ConfigError, match="unknown solver keys"):
            resolve_config(dict(BENCH_RAW, solver={"tolerance": 1e-8}))
        with pytest.raises(ConfigError, match="unknown solver keys"):
            resolve_config(dict(BENCH_RAW, solver={"ray_tol": 1e-2}))
        # a misspelt grid key once left the radius "auto" (6.5 here) or the
        # grid 1-D
        for key, value in (("radus", 12), ("dims", 2)):
            grid = dict(SWAP_RAW["grid"], **{key: value})
            with pytest.raises(ConfigError, match=rf"unknown grid keys: \['{key}'\]"):
                resolve_config(dict(SWAP_RAW, grid=grid))

    @pytest.mark.parametrize("rule", ["gauss-legendre", "simpson", True])
    def test_grid_rule_takes_only_trapezoid(self, rule):
        # every grid is the trapezoid lattice; the key stays, at its one
        # value, so that resolved configs and their hashes keep their bytes
        with pytest.raises(ConfigError, match="grid.rule must be"):
            resolve_config(dict(BENCH_RAW, grid=dict(BENCH_RAW["grid"], rule=rule)))

    def test_missing_required_key_rejected(self):
        raw = {k: v for k, v in BENCH_RAW.items() if k != "marginals"}
        with pytest.raises(ConfigError, match="marginals"):
            resolve_config(raw)

    def test_solver_defaults_pinned(self):
        # the resolved solver block enters problem_hash and summary.json
        assert resolve_config(BENCH_RAW)["solver"] == {
            "tol": 1e-10, "max_iter": 10000, "force": False}

    def test_hash_is_stable_and_sensitive(self):
        h1 = problem_hash(resolve_config(BENCH_RAW))
        h2 = problem_hash(resolve_config(json.loads(json.dumps(BENCH_RAW))))
        assert h1 == h2
        bumped = json.loads(json.dumps(BENCH_RAW))
        bumped["kernel"]["sigma"] = 0.51
        assert problem_hash(resolve_config(bumped)) != h1
        swapped = dict(BENCH_RAW, swap=True)
        assert problem_hash(resolve_config(swapped)) != h1

    def test_integral_grid_sizes_resolve_alike(self):
        # an integral float and a numeric string read as the integer; a
        # non-integral float or a bool is refused
        # (test_malformed_config_value_is_a_config_error)
        resolved = [resolve_config(dict(BENCH_RAW, grid=dict(BENCH_RAW["grid"],
                                                             points=points, dim=dim)))
                    for points, dim in ((101, 1), (101.0, 1.0), ("101", "1"))]
        assert resolved[0]["grid"]["points"] == 101 and resolved[0]["grid"]["dim"] == 1
        assert resolved[0] == resolved[1] == resolved[2]
        assert len({problem_hash(r) for r in resolved}) == 1

    def test_build_problem_materializes_benchmark(self):
        problem = build_problem(resolve_config(BENCH_RAW))
        assert problem.grid.n_nodes == 201
        assert problem.kernel.values.shape == (201, 201)
        assert abs(problem.marginals.omega1.mass() - 1.0) < 1e-12
        assert problem.options.tol == 1e-10

    def test_swap_flag_swaps_marginals(self):
        plain = build_problem(resolve_config(BENCH_RAW))
        flipped = build_problem(resolve_config(dict(BENCH_RAW, swap=True)))
        assert np.array_equal(flipped.marginals.omega1.values,
                              plain.marginals.omega2.values)
        # a flag is a boolean or 0 or 1, read as bool() reads it; anything
        # else is refused (test_malformed_config_value_is_a_config_error)
        for key in ("swap", "normalize_kernel_rows"):
            for value, flag in ((True, True), (False, False), (1, True), (0, False)):
                assert resolve_config(dict(BENCH_RAW, **{key: value}))[key] is flag

    @pytest.mark.parametrize("value", ["false", "no"])
    def test_renormalize_takes_a_flag(self, tmp_path, capsys, value):
        # bool("false") is true: a string once renormalized the table
        np.savetxt(tmp_path / "m2.csv", np.full(5, 0.5), delimiter=",")
        raw = {"kernel": {"type": "gaussian", "sigma": 0.5},
               "marginals": [{"type": "gaussian", "sigma": 0.4},
                             {"type": "table", "path": "m2.csv", "renormalize": value}],
               "grid": {"dim": 1, "radius": 1.0, "points": 5}}
        cfg = write_config(tmp_path, raw)
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: renormalize must be true or false, not {value!r}"]

    def test_renormalize_false_keeps_the_table_mass(self, tmp_path, capsys):
        # trapezoid mass 2.0 of a constant 2.0 on [-0.5, 0.5]
        np.savetxt(tmp_path / "m2.csv", np.full(5, 2.0), delimiter=",")
        raw = {"kernel": {"type": "gaussian", "sigma": 0.5},
               "marginals": [{"type": "gaussian", "sigma": 0.4},
                             {"type": "table", "path": "m2.csv"}],
               "grid": {"dim": 1, "radius": 0.5, "points": 5}}
        assert load_problem(write_config(tmp_path, raw)).marginals.omega2.mass() \
            == pytest.approx(1.0, abs=1e-12)
        for value in (False, 0):
            raw["marginals"][1]["renormalize"] = value
            cfg = write_config(tmp_path, raw)
            assert load_problem(cfg).marginals.omega2.mass() == pytest.approx(2.0, abs=1e-12)
            assert main(["solve", "--config", str(cfg), "--output", str(tmp_path / "run")]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "feasibility failure: hypothesis checks failed: marginal2_unit_mass "
                "(pass force=True to run anyway)"]

    def test_table_kernel_and_marginal_from_csv(self, tmp_path):
        n = 5
        rng = np.random.default_rng(3)
        np.savetxt(tmp_path / "kernel.csv", rng.uniform(0.2, 1.0, (n, n)),
                   delimiter=",")
        np.savetxt(tmp_path / "m2.csv", rng.uniform(0.1, 1.0, n), delimiter=",")
        raw = {
            "kernel": {"type": "table", "path": "kernel.csv"},
            "marginals": [{"type": "gaussian", "sigma": 0.4},
                          {"type": "table", "path": "m2.csv"}],
            "grid": {"dim": 1, "radius": 1.0, "points": n},
        }
        problem = load_problem(write_config(tmp_path, raw))
        assert problem.kernel.gaussian is None
        assert abs(problem.marginals.omega2.mass() - 1.0) < 1e-12

    def test_multivariate_kernel_type_matches_the_heat_kernel(self):
        # covariance 0.25 I is the heat kernel at sigma 0.5: the same band
        # or per-axis factors, bound and (scales, white) pair
        for dim in (1, 2):
            raw = dict(BENCH_RAW, grid={"dim": dim, "radius": 3.0, "points": 21},
                       kernel={"type": "gaussian_multivariate",
                               "covariance": (0.25 * np.eye(dim)).tolist()})
            kernel = build_problem(resolve_config(raw)).kernel
            heat = gaussian_kernel(kernel.grid1, kernel.grid2, 0.5)
            assert len(kernel.factors) == dim and kernel.banded == (dim == 1)
            assert all(map(np.array_equal, kernel.factors, heat.factors))
            assert (kernel.sigma_bound, kernel.gaussian) == (heat.sigma_bound, heat.gaussian)

    def test_normalize_kernel_rows_gives_unit_row_mass(self):
        problem = build_problem(resolve_config(dict(BENCH_RAW,
                                                    normalize_kernel_rows=True)))
        ones = np.ones(problem.grid.n_nodes)
        assert np.max(np.abs(problem.kernel.apply(ones) - 1.0)) <= 1e-14

    def test_swap_transposes_the_kernel(self, tmp_path):
        # the table kernel N(y - x - 0.5; 0.25) is not symmetric.  swap
        # solves (g^T, omega2, omega1), whose phi is the forward psi on one
        # ray; swapping only the marginals solved (g, omega2, omega1), whose
        # phi read a log-ray spread of 48.0 against it
        x = np.linspace(-6.0, 6.0, 121)
        g = np.exp(-(x - x[:, None] - 0.5) ** 2 / 0.5) / math.sqrt(0.5 * math.pi)
        np.savetxt(tmp_path / "kernel.csv", g, delimiter=",")
        raw = {"kernel": {"type": "table", "path": "kernel.csv"},
               "marginals": [{"type": "gaussian", "sigma": 1.0}] * 2,
               "grid": {"dim": 1, "radius": 6.0, "points": 121}}
        forward = load_problem(write_config(tmp_path, raw))
        swapped = load_problem(write_config(tmp_path, dict(raw, swap=True), "swap.json"))
        assert np.array_equal(swapped.kernel.values, forward.kernel.values.T)
        phi = run_fortet(swapped.kernel, swapped.marginals).phi
        psi = run_fortet(forward.kernel, forward.marginals).psi
        assert np.ptp(np.log(phi) - np.log(psi)) <= 1e-9
        # with normalize_kernel_rows, swap transposes the normalized kernel
        both = dict(raw, swap=True, normalize_kernel_rows=True)
        both = load_problem(write_config(tmp_path, both, "both.json"))
        assert np.array_equal(both.kernel.values,
                              transition_normalized(forward.kernel).values.T)

    def test_wrong_table_shape_rejected(self, tmp_path):
        np.savetxt(tmp_path / "kernel.csv", np.ones((3, 3)), delimiter=",")
        raw = dict(BENCH_RAW, kernel={"type": "table", "path": "kernel.csv"})
        with pytest.raises(ConfigError, match="kernel table"):
            load_problem(write_config(tmp_path, raw))


class TestThreadEnv:
    def test_sets_all_blas_vars(self, monkeypatch):
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("FORTET_THREADS", "2")
        _apply_thread_env()
        for var in _THREAD_VARS:
            assert os.environ[var] == "2"

    def test_does_not_override_explicit_settings(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.setenv("FORTET_THREADS", "2")
        _apply_thread_env()
        assert os.environ["OMP_NUM_THREADS"] == "7"

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
    def test_a_value_that_is_not_a_positive_integer_is_refused(self, monkeypatch,
                                                               capsys, value):
        # it used to leave OpenBLAS's default (abc, 0) or read as 1 (1.5);
        # main refuses it before it parses, so even an empty command line
        # exits 1 with the one line, and bench/run.py's direct call neither
        # raises nor sets a variable
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("FORTET_THREADS", value)
        assert _apply_thread_env() == value
        assert [var for var in _THREAD_VARS if var in os.environ] == []
        assert main([]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"FORTET_THREADS must be a positive integer, not {value!r}"]


class TestCli:
    def test_check_benchmark_is_admissible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_RAW)
        code = main(["check", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "feasibility.json").read_text())
        assert payload["solver_admissible"] is True
        assert payload["swap_recommended"] is False
        assert payload["condition_star"]["verdict"] == "finite"
        assert "solver_admissible: True" in capsys.readouterr().out

    def test_check_flags_swap_candidate(self, tmp_path):
        cfg = write_config(tmp_path, SWAP_RAW)
        code = main(["check", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == 2
        payload = json.loads((tmp_path / "feasibility.json").read_text())
        assert payload["condition_star"]["verdict"] == "suspected-divergent"
        assert payload["swap_recommended"] is True

    def test_solve_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_RAW)
        out = tmp_path / "run"
        code = main(["solve", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["case_tag"] == "case2"
        assert summary["iterations"] == summary["trigger_iteration"]
        assert summary["residuals"]["s1_resid"] < 1e-12
        assert 0.0 < summary["h_min"] <= summary["h_max"] <= 1.0
        assert summary["coupling"]["mass"] == pytest.approx(1.0, abs=1e-12)
        assert summary["kl_objective"] > 0.0
        assert summary["problem_hash"] == problem_hash(resolve_config(BENCH_RAW))

        trace = read_csv(out / "trace.csv")
        assert trace[0] == list(("n", "sup_change", "normalization_residual",
                                 "hilbert_step", "case1_candidate"))
        assert len(trace) == 1 + summary["iterations"] + summary["refine_steps"]
        assert trace[1][1] == ""  # no previous iterate on the first row
        assert trace[1][3] == ""
        assert float(trace[2][1]) > 0.0

        potentials = read_csv(out / "potentials.csv")
        assert potentials[0] == ["x", "phi", "psi", "h"]
        assert len(potentials) == 1 + 201
        h_col = np.array([float(r[3]) for r in potentials[1:]])
        assert np.all((h_col > 0.0) & (h_col <= 1.0))
        assert "case_tag=case2" in capsys.readouterr().out

    def test_solve_refuses_suspected_divergent_without_swap(self, tmp_path):
        cfg = write_config(tmp_path, SWAP_RAW)
        code = main(["solve", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == 2

    def test_calls_in_one_process_see_only_their_own_arguments(self, tmp_path,
                                                               monkeypatch):
        # --force on one call must not carry over to the next, which the
        # refused orientation would show, and a command is looked up when
        # it runs
        monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
        assert main(["check", "--config", "unread.json"]) == 7
        cfg = write_config(tmp_path, SWAP_RAW)
        forced, plain = tmp_path / "forced", tmp_path / "plain"
        # forced, the divergent orientation solves past the refusal, short
        # of its marginals (s1 residual 0.374): exit 3 with its trace
        assert main(["solve", "--config", str(cfg), "--output", str(forced),
                     "--force"]) == 3
        assert sorted(p.name for p in forced.iterdir()) == ["trace.csv"]
        assert main(["solve", "--config", str(cfg), "--output", str(plain)]) == 2
        assert not any(plain.iterdir())

    def test_solve_succeeds_after_swap(self, tmp_path):
        cfg = write_config(tmp_path, dict(SWAP_RAW, swap=True))
        out = tmp_path / "run"
        code = main(["solve", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["case_tag"] == "case2"
        assert summary["config"]["swap"] is True

    def test_solve_bad_config_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, dict(BENCH_RAW, nonsense=1))
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path)]) == 1
        missing = tmp_path / "missing.json"
        assert main(["solve", "--config", str(missing), "--output", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["solve", "interpolate", "compare"])
    def test_solve_iteration_cap_exits_3_with_trace(self, tmp_path, monkeypatch,
                                                    command):
        # the closing's step cap stops a solve: the trace holds the scheme's
        # row and the closing's three, under its header
        monkeypatch.setattr(fortet, "REFINE_MAX", 3)
        cfg = write_config(tmp_path, BENCH_RAW)
        out = tmp_path / "run"
        code = main([command, "--config", str(cfg), "--output", str(out)])
        assert code == 3
        trace = read_csv(out / "trace.csv")
        assert len(trace) == 1 + 1 + 3
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]

    @pytest.mark.parametrize("command", ["compare", "diagnose"])
    def test_sinkhorn_budget_exits_3_with_no_file(self, tmp_path, capsys, command):
        # the criterion-2 post-swap instance at 120 sweeps: Sinkhorn's
        # budget stops compare and diagnose before they write anything, as
        # only Fortet's closing writes a trace
        raw = dict(SWAP_RAW, grid={"dim": 1, "radius": 8.0, "points": 401},
                   swap=True, solver={"max_iter": 120})
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 3
        assert "sinkhorn did not converge in 120 iterations" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_interpolate_writes_time_slices(self, tmp_path):
        cfg = write_config(tmp_path, BENCH_RAW)
        out = tmp_path / "run"
        code = main(["interpolate", "--config", str(cfg), "--output", str(out),
                     "--times", "0,0.5,1"])
        assert code == 0
        rows = read_csv(out / "interpolation.csv")
        assert rows[0] == ["t", "x", "density"]
        assert len(rows) == 1 + 3 * 201
        summary = json.loads((out / "summary.json").read_text())
        assert summary["interpolation_times"] == [0.0, 0.5, 1.0]
        for mass in summary["interpolation_masses"]:
            assert mass == pytest.approx(1.0, abs=1e-10)

    def test_interpolate_writes_2d_coordinates(self, tmp_path):
        raw = dict(BENCH_RAW, grid={"dim": 2, "radius": 8.0, "points": 41})
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        code = main(["interpolate", "--config", str(cfg), "--output", str(out),
                     "--times", "0,0.5,1"])
        assert code == 0
        rows = read_csv(out / "interpolation.csv")
        assert rows[0] == ["t", "x1", "x2", "density"]
        assert len(rows) == 1 + 3 * 41 * 41
        assert rows[1][:3] == ["0.0", "-8.0", "-8.0"]
        summary = json.loads((out / "summary.json").read_text())
        for mass in summary["interpolation_masses"]:
            assert mass == pytest.approx(1.0, abs=1e-4)

    def test_interpolate_accepts_an_isotropic_covariance(self, tmp_path):
        # covariance 0.25 I interpolates as the heat kernel at sigma 0.5 does
        raw = dict(BENCH_RAW, kernel={"type": "gaussian_multivariate",
                                      "covariance": [[0.25]]})
        out = tmp_path / "run"
        code = main(["interpolate", "--config", str(write_config(tmp_path, raw)),
                     "--output", str(out), "--times", "0,0.5,1"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["interpolation_times"] == [0.0, 0.5, 1.0]

    def test_interpolate_accepts_an_anisotropic_covariance(self, tmp_path):
        # each axis's slice runs at its own scale times sqrt(t)
        raw = {"kernel": {"type": "gaussian_multivariate",
                          "covariance": [[0.25, 0.0], [0.0, 0.16]]},
               "marginals": [{"type": "gaussian", "sigma": 1.0},
                             {"type": "gaussian", "sigma": 0.64}],
               "grid": {"dim": 2, "radius": 8.0, "points": 81}}
        out = tmp_path / "run"
        code = main(["interpolate", "--config", str(write_config(tmp_path, raw)),
                     "--output", str(out), "--times", "0,0.5,1"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["interpolation_times"] == [0.0, 0.5, 1.0]

    def test_solve_exits_3_when_the_closing_stops_short(self, tmp_path, capsys):
        # a row-normalized sigma = 0.004 kernel on a 25^2 grid is nearly the
        # identity: the closing reads its Hilbert step on the few nodes above
        # the floor, stops at 0.0, and leaves s1_resid 0.04, which a solve
        # does not claim as a solution: it exits 3 with its trace
        raw = {"kernel": {"type": "gaussian", "sigma": 0.004},
               "marginals": [{"type": "gaussian", "sigma": 1.0},
                             {"type": "gaussian", "sigma": 0.8}],
               "grid": {"dim": 2, "radius": 4.0, "points": 25},
               "normalize_kernel_rows": True}
        out = tmp_path / "run"
        code = main(["solve", "--config", str(write_config(tmp_path, raw)),
                     "--output", str(out)])
        assert code == 3
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]
        err = capsys.readouterr().err
        s1 = float(err.split("marginal residuals s1 ")[1].split()[0])
        assert s1 > 0.01
        assert err.startswith("did not converge: marginal residuals s1 ")
        assert err.rstrip().endswith("exceed sqrt(tol) = 1e-05 times the marginals' peaks: "
                                     "the closing stopped short")

    def test_interpolate_rejects_unparseable_times(self, tmp_path):
        cfg = write_config(tmp_path, BENCH_RAW)
        code = main(["interpolate", "--config", str(cfg),
                     "--output", str(tmp_path), "--times", "0,half,1"])
        assert code == 1

    def test_diagnose_reports_contraction_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_RAW)
        out = tmp_path / "run"
        code = main(["diagnose", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        payload = json.loads((out / "diagnose.json").read_text())
        for key in ("projective_diameter_columns", "contraction_bound",
                    "contraction_guaranteed", "sinkhorn_iterations",
                    "hilbert_distances", "contraction_ratios",
                    "max_observed_ratio", "ratios_within_bound"):
            assert key in payload
        assert payload["ratios_within_bound"] is True
        # successive distances: one fewer than the number of iterates
        assert len(payload["hilbert_distances"]) == payload["sinkhorn_iterations"] - 1
        assert "contraction_bound=" in capsys.readouterr().out

    def test_diagnose_refuses_what_solve_refuses(self, tmp_path, capsys, monkeypatch):
        # a negative kernel entry fails the hard checks: solve exits 2, and
        # so does diagnose, before a sweep (its Sinkhorn would sweep to
        # max_iter and exit 3)
        from fortetbridge import sinkhorn
        kernel = np.random.default_rng(0).uniform(0.5, 1.0, (21, 21))
        kernel[3, 7] = -5.0
        np.savetxt(tmp_path / "kernel.csv", kernel, delimiter=",")
        raw = {"kernel": {"type": "table", "path": "kernel.csv"},
               "marginals": [{"type": "gaussian", "sigma": 0.4},
                             {"type": "gaussian", "sigma": 0.3}],
               "grid": {"dim": 1, "radius": 1.0, "points": 21},
               "solver": {"max_iter": 2000}}
        cfg = write_config(tmp_path, raw)
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path / "s")]) == 2
        monkeypatch.setattr(sinkhorn, "run_sinkhorn", None)
        out = tmp_path / "d"
        assert main(["diagnose", "--config", str(cfg), "--output", str(out)]) == 2
        assert not (out / "diagnose.json").exists()
        assert ("hypothesis checks failed: kernel_nonnegative"
                in capsys.readouterr().err.splitlines()[-1])

    def test_forced_diagnose_of_a_nan_kernel_guarantees_no_contraction(self, tmp_path):
        # the hard checks refuse a NaN entry; forced, its diameters are
        # infinite, as a zero entry's are, and no contraction is claimed
        x = np.linspace(-1.0, 1.0, 21)
        kernel = np.exp(-np.subtract.outer(x, x) ** 2)
        kernel[3, 5] = math.nan
        np.savetxt(tmp_path / "kernel.csv", kernel, delimiter=",")
        raw = {"kernel": {"type": "table", "path": "kernel.csv"},
               "marginals": [{"type": "gaussian", "sigma": 0.4},
                             {"type": "gaussian", "sigma": 0.3}],
               "grid": {"dim": 1, "radius": 1.0, "points": 21}}
        out = tmp_path / "d"
        assert main(["diagnose", "--config", str(write_config(tmp_path, raw)),
                     "--output", str(out)]) == 2
        forced = dict(raw, solver={"force": True})
        assert main(["diagnose", "--config", str(write_config(tmp_path, forced)),
                     "--output", str(out)]) == 0
        payload = json.loads((out / "diagnose.json").read_text())
        assert payload["contraction_guaranteed"] is False
        assert payload["contraction_bound"] == 1.0
        assert payload["projective_diameter_columns"] == math.inf
        assert payload["projective_diameter_rows"] == math.inf

    def test_compare_consistent_at_default_tol(self, tmp_path, monkeypatch):
        # compare.json holds no KL objective, and compare computes none
        def refuse(coupling):
            raise AssertionError("compare computed a KL objective")
        monkeypatch.setattr(bridge, "kl_objective", refuse)
        cfg = write_config(tmp_path, BENCH_RAW)
        out = tmp_path / "run"
        code = main(["compare", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["consistent"] is True
        assert payload["ratio_spread_phi"] < 1e-8
        assert (out / "potentials_fortet.csv").exists()
        assert (out / "potentials_sinkhorn.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_compare_refuses_a_tol_that_is_not_finite_and_positive(self, tmp_path,
                                                                  capsys, tol):
        # inf reads every finite spread as consistent, and -1 none; refused
        # with exit 1 before the config is loaded or a solver runs
        out = tmp_path / "run"
        assert main(["compare", "--config", str(tmp_path / "missing.json"),
                     "--output", str(out), "--tol", tol]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"--tol must be finite and positive, not {float(tol)!r}"]
        assert not out.exists()

    def test_compare_strict_tol_flags_spread(self, tmp_path):
        # the two solvers agree to ~1e-10; a 1e-12 gate must report a mismatch
        cfg = write_config(tmp_path, BENCH_RAW)
        out = tmp_path / "run"
        code = main(["compare", "--config", str(cfg), "--output", str(out),
                     "--tol", "1e-12"])
        assert code == 2
        payload = json.loads((out / "compare.json").read_text())
        assert payload["consistent"] is False


def _one_dimensional(sigma, sigma1, sigma2, points):
    return {"kernel": {"type": "gaussian", "sigma": sigma},
            "marginals": [{"type": "gaussian", "sigma": sigma1},
                          {"type": "gaussian", "sigma": sigma2}],
            "grid": {"dim": 1, "radius": 8.0, "points": points}}


DIVERGENT = ("integrability estimate is suspected-divergent; swapping the "
             "marginals looks feasible (pass force=True to run anyway)")
#: each instance with the refusals of its full_report and of its
#: check_assumptions: the bench gauss1d instance, the unswapped criterion-2
#: instance, and a marginal narrower than the grid's spacing in both
#: orientations: as given kappa < 0, and swapped it solves
VERDICTS = {
    "gauss1d": (_one_dimensional(0.5, 1.0, 0.8, 401), None, None),
    "divergent1d": (_one_dimensional(0.1, 0.5, 1.0, 401), DIVERGENT, None),
    "spike1d": (_one_dimensional(0.5, 0.05, 0.8, 41), DIVERGENT, None),
    "spike1d-swapped": (dict(_one_dimensional(0.5, 0.05, 0.8, 41), swap=True), None, None),
}


@pytest.mark.parametrize("name", VERDICTS)
def test_every_op_reads_the_one_verdict(tmp_path, capsys, name):
    # check exits 2 exactly when the report is not admissible; solve,
    # interpolate and compare refuse with full_report's refusal, and
    # diagnose with check_assumptions', which carries no integrability
    # estimate, so that only the hard checks stop its Sinkhorn
    raw, refusal, hard = VERDICTS[name]
    cfg = write_config(tmp_path, raw)
    problem = load_problem(cfg)
    report = full_report(problem.kernel, problem.marginals)
    assert report.refusal == refusal
    assert report.solver_admissible is (refusal is None)
    assert check_assumptions(problem.kernel, problem.marginals).refusal == hard
    assert main(["check", "--config", str(cfg), "--output", str(tmp_path / "check")]) \
        == (0 if report.solver_admissible else 2)
    capsys.readouterr()
    for op, expected in (("solve", refusal), ("interpolate", refusal),
                         ("compare", refusal), ("diagnose", hard)):
        code = main([op, "--config", str(cfg), "--output", str(tmp_path / op)])
        err = capsys.readouterr().err.splitlines()
        if expected is None:
            assert code == 0
            assert not any(line.startswith("feasibility failure") for line in err)
        else:
            assert code == 2
            assert err == ["feasibility failure: " + expected]


def test_diagnose_of_an_anisotropic_kernel_converges(tmp_path):
    # once a scaling leaves its window, Sinkhorn folds it into log_values;
    # an anisotropic Gaussian's is the formula, finite where values
    # underflows, so no zero is folded in (log(values) swept to max_iter)
    raw = {"kernel": {"type": "gaussian_multivariate",
                      "covariance": [[0.01, 0.0], [0.0, 0.0121]]},
           "marginals": [{"type": "gaussian", "sigma": 1.0},
                         {"type": "gaussian", "sigma": 0.25}],
           "grid": {"dim": 2, "radius": 6.0, "points": 31},
           "solver": {"max_iter": 3000}}
    out = tmp_path / "d"
    assert main(["diagnose", "--config", str(write_config(tmp_path, raw)),
                 "--output", str(out)]) == 0
    # the isotropic 0.01 I instance takes 237 sweeps
    assert json.loads((out / "diagnose.json").read_text())["sinkhorn_iterations"] < 300


def test_every_op_on_an_inf_kernel_entry_between_zeros_warns_nothing(tmp_path):
    # infentry1d's inf sits at (0, 8), where omega1[0] = omega2[8] = 0: the
    # integrability estimate's integrals, the closing's and Sinkhorn's each
    # read 0 * inf = NaN there, under their call's np.errstate, and
    # pytest's error::RuntimeWarning filter turns any warning into a failure
    config = write_extra("infentry1d", tmp_path)
    codes = {op: main([op, "--config", str(config), "--output", str(tmp_path / op)])
             for op in ("check", "solve", "interpolate", "compare", "diagnose")}
    # check refuses the unbounded kernel; interpolate needs Gaussian scales
    assert codes == {"check": 2, "solve": 0, "interpolate": 1, "compare": 0,
                     "diagnose": 0}


def test_forced_solve_with_an_inf_image_off_the_support_warns_nothing(tmp_path, capsys):
    # row 0 of the table is 1e308, so the image is inf at node 0, where
    # omega1 is 0: each step row reads NaN there (0 * inf, inf - inf,
    # inf / inf) as designed, and pytest's error::RuntimeWarning filter
    # turns any warning into a failure
    x = np.linspace(-1.0, 1.0, 9)
    kernel = 1e-3 * np.exp(-np.subtract.outer(x, x) ** 2)
    kernel[0] = 1e308
    omega1 = np.exp(-x ** 2 / 0.5)
    omega1[0] = 0.0
    np.savetxt(tmp_path / "kernel.csv", kernel, delimiter=",")
    np.savetxt(tmp_path / "m1.csv", omega1, delimiter=",")
    raw = {"kernel": {"type": "table", "path": "kernel.csv"},
           "marginals": [{"type": "table", "path": "m1.csv"},
                         {"type": "gaussian", "sigma": 0.4}],
           "grid": {"dim": 1, "radius": 1.0, "points": 9}}
    out = tmp_path / "run"
    assert main(["solve", "--force", "--config", str(write_config(tmp_path, raw)),
                 "--output", str(out)]) == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    # the row integral is 0 where phi is, not 0 * inf = NaN at node 0, so the
    # row equation reads as holding and the summary is strict JSON
    assert fields == {"case_tag": "case2", "iterations": "1", "refine_steps": "5",
                      "s1_resid": "2.220446049250313e-16",
                      "s2_resid": "5.551115123125783e-17"}

    def refuse(token):
        raise ValueError(f"summary.json holds {token}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    assert summary["coupling"]["mass"] == 0.9999999999999999
    assert not any("stopped short" in w for w in summary["warnings"])
    trace = read_csv(out / "trace.csv")[1:]
    assert len(trace) == 6
    assert all(row[1:3] == ["", ""] for row in trace)
    assert all(float(row[3]) > 0 for row in trace[1:])


def _solve_artifacts(tmp_path, raw, name):
    """potentials.csv and trace.csv of a CLI solve of raw, as bytes."""
    out = tmp_path / name
    assert main(["solve", "--config", str(write_config(tmp_path, raw, name + ".json")),
                 "--output", str(out)]) == 0
    return [(out / f).read_bytes() for f in ("potentials.csv", "trace.csv")]


@pytest.mark.parametrize("tol", [1e-17, 1e-300])
def test_tol_below_the_closing_floor_solves_as_at_the_floor(tmp_path, tol):
    # the closing's stop max(tol / 10, CLOSING_TOL_FLOOR) is 1e-15 for every
    # tol up to 1e-14; a stop at tol itself never fired, and the solve ran
    # all REFINE_MAX closing steps to exit 3
    assert (_solve_artifacts(tmp_path, dict(BENCH_RAW, solver={"tol": tol}), "below")
            == _solve_artifacts(tmp_path, dict(BENCH_RAW, solver={"tol": 1e-15}), "floor"))


def test_one_dimensional_multivariate_kernel_solves_as_the_gaussian(tmp_path):
    # covariance [[0.25]] is the sigma = 0.5 heat kernel's band, built by
    # the same builder, so the solve writes the same bytes
    raw = dict(BENCH_RAW, kernel={"type": "gaussian_multivariate",
                                  "covariance": [[0.25]]})
    assert (_solve_artifacts(tmp_path, raw, "multivariate")
            == _solve_artifacts(tmp_path, BENCH_RAW, "gaussian"))


def test_two_dimensional_isotropic_multivariate_kernel_solves_as_the_gaussian(tmp_path):
    raw = dict(BENCH_RAW, grid={"dim": 2, "radius": 8.0, "points": 21})
    cov = dict(raw, kernel={"type": "gaussian_multivariate",
                            "covariance": [[0.25, 0.0], [0.0, 0.25]]})
    assert (_solve_artifacts(tmp_path, cov, "multivariate")
            == _solve_artifacts(tmp_path, raw, "gaussian"))


#: a diagonal covariance per dimension, anisotropic in 2-D
DIAGONAL = {1: [[0.25]], 2: [[0.25, 0.0], [0.0, 0.16]]}


@pytest.mark.parametrize("dim,covariance", [
    pytest.param(1, False, id="1"), pytest.param(2, False, id="2"),
    pytest.param(1, True, id="diagonal-1"), pytest.param(2, True, id="diagonal-2")])
def test_solve_never_builds_the_kernel_matrix(tmp_path, dim, covariance):
    # solve, its feasibility report, coupling and KL read the 1-D kernel's
    # band or the per-axis factors only; the cached dense matrix stays
    # unbuilt, for this kernel and any other (the swapped kernel of the
    # integrability estimate).  A diagonal covariance keeps the same
    # factors, at one scale per axis
    points = {1: 201, 2: 21}[dim]
    raw = dict(BENCH_RAW, grid={"dim": dim, "radius": 8.0, "points": points})
    if covariance:
        raw["kernel"] = {"type": "gaussian_multivariate", "covariance": DIAGONAL[dim]}
    with kernel_matrix_builds() as built:
        problem = build_problem(resolve_config(raw))
        assert len(problem.kernel.factors) == dim
        assert problem.kernel.banded == (dim == 1)
        solution = _solve_problem(problem, tmp_path)
        kl = bridge.kl_objective(solution.coupling)
        if covariance:
            # 41^2 nodes: the dense matrix would take 22.6 MB
            large = dict(raw, grid={"dim": dim, "radius": 8.0,
                                    "points": {1: 41 * 41, 2: 41}[dim]})
            _, peak = traced_peak(lambda: build_problem(resolve_config(large)))
            assert peak < 1e6
    coupling = solution.coupling
    assert solution.case_tag == "case2"
    assert kl.absolutely_continuous and kl.value > 0.0
    assert coupling.row_marginal_resid < 1e-12
    assert built == []
    assert "values" not in problem.kernel.__dict__
    assert "pi" not in coupling.__dict__


def test_large_one_dimensional_solve_holds_no_matrix(tmp_path):
    # 4001 nodes: the dense heat factor alone would take 128 MB; the band
    # takes 64 kB, and the load and the solve together stay below 2 MB
    raw = dict(BENCH_RAW, grid={"dim": 1, "radius": 8.0, "points": 4001})
    config = write_config(tmp_path, raw)

    def load_and_solve():
        problem = load_problem(config)
        return problem, _solve_problem(problem, tmp_path)

    with kernel_matrix_builds() as built:
        (problem, solution), peak = traced_peak(load_and_solve)
    assert built == []
    assert problem.kernel.factors[0].size == 2 * 4000 + 1
    assert solution.case_tag == "case2"
    assert max(solution.residuals["s1_resid"], solution.residuals["s2_resid"]) < 1e-10
    assert peak < 2e6


def _solve_counting_applies(raw, tmp_path, monkeypatch):
    calls = counting_applies(monkeypatch)
    solution = _solve_problem(build_problem(resolve_config(raw)), tmp_path)
    return solution, len(calls)


@pytest.mark.parametrize("raw, scheme, closing, applies", [
    # the 401-point criterion-1 instance
    (dict(BENCH_RAW, grid=dict(BENCH_RAW["grid"], points=401)), 1, 8, 20),
    # the criterion-1 scales on the 41 x 41 grid
    (dict(BENCH_RAW, grid=dict(BENCH_RAW["grid"], dim=2, points=41)), 1, 8, 20),
    # the criterion-2 post-swap instance on the 401-point radius-8 grid: the
    # Anderson step adds no apply to a closing step (the plain map takes 701)
    (dict(SWAP_RAW, grid={"dim": 1, "radius": 8.0, "points": 401}, swap=True),
     1, 74, 152),
], ids=["gauss1d", "gauss2d", "swap"])
def test_solve_makes_two_applies_per_step_and_two_more(raw, scheme, closing, applies,
                                                       tmp_path, monkeypatch):
    # two applies per scheme and closing step, and two more: the
    # extraction's apply_T, which the coupling takes over, and the
    # coupling's apply; the feasibility report of a Gaussian instance is
    # closed form and makes none
    solution, calls = _solve_counting_applies(raw, tmp_path, monkeypatch)
    assert (solution.iterations, solution.refine_steps) == (scheme, closing)
    assert calls == 2 * (scheme + closing) + 2 == applies


def test_solve_drops_the_coupling_before_its_writers(tmp_path, capsys, monkeypatch):
    # solve keeps the payload, the StepLog and phi, psi and h, and drops the
    # solution, so that the coupling's row and col are freed before the
    # first writer: a weakref to the coupling is dead as each writer
    # starts.  stdout is the line the library's solution reads, and the
    # artifacts are those of a run with no writer wrapped
    import weakref
    from fortetbridge import bridge
    cfg = write_config(tmp_path, VERDICTS["gauss1d"][0])
    argv = ["solve", "--config", str(cfg), "--output"]
    assert main(argv + [str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr().out
    couplings, started = [], []
    build = bridge.build_coupling

    def building(*args):
        coupling = build(*args)
        couplings.append(weakref.ref(coupling))
        return coupling

    def starting(name, writer):
        def write(*args):
            started.append((name, couplings[-1]() is None))
            return writer(*args)
        return write

    monkeypatch.setattr(bridge, "build_coupling", building)
    for name in ("_write_trace", "_write_json", "_write_potentials"):
        monkeypatch.setattr(cli, name, starting(name, getattr(cli, name)))
    assert main(argv + [str(tmp_path / "wrapped")]) == 0
    assert len(couplings) == 1
    assert started == [("_write_trace", True), ("_write_json", True),
                       ("_write_potentials", True)]
    problem = load_problem(cfg)
    solution = run_fortet(problem.kernel, problem.marginals, problem.options)
    residuals = solution.residuals
    assert capsys.readouterr().out == plain == (
        f"case_tag={solution.case_tag} iterations={solution.iterations} "
        f"refine_steps={solution.refine_steps} s1_resid={residuals['s1_resid']!r} "
        f"s2_resid={residuals['s2_resid']!r}\n")
    for artifact in ("trace.csv", "summary.json", "potentials.csv"):
        assert ((tmp_path / "wrapped" / artifact).read_bytes()
                == (tmp_path / "plain" / artifact).read_bytes())


def test_package_and_cli_load_no_scipy():
    # a fresh interpreter that imports every module and runs the CLI's help
    # loads numpy and nothing heavier
    code = "\n".join([
        "import importlib, pkgutil, sys",
        "import fortetbridge",
        "from fortetbridge import cli",
        "for info in pkgutil.iter_modules(fortetbridge.__path__):",
        "    importlib.import_module('fortetbridge.' + info.name)",
        "try:",
        "    cli.main(['--help'])",
        "except SystemExit as exc:",
        "    assert exc.code == 0",
        "print('argparse loaded:', 'argparse' in sys.modules)",
        "print('dataclasses loaded:', 'dataclasses' in sys.modules)",
        "print('scipy modules:', sorted(m for m in sys.modules",
        "                               if m.split('.')[0] == 'scipy'))",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert "usage: fortetbridge" in run.stdout
    # the command line is read without argparse, and the package's records
    # are NamedTuples and plain classes, whose import compiles no generated
    # code
    assert run.stdout.splitlines()[-3:] == ["argparse loaded: False",
                                            "dataclasses loaded: False",
                                            "scipy modules: []"]


def test_the_loaded_2d_bench_problem_holds_no_node_weights(tmp_path):
    # the gauss2d instance, loaded: its grid holds one weight vector per
    # axis, and the load holds the two marginals and the one heat factor
    # (13.4 kB, the size of a node array) and little else, 3.7 node arrays.
    # A grid that kept its (n,) weights held one node array more, 4.7
    raw = dict(BENCH_RAW, grid={"dim": 2, "radius": 8.0, "points": 41})
    config = write_config(tmp_path, raw)
    load_problem(config)
    gc.collect()
    tracemalloc.start()
    try:
        problem = load_problem(config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 4.2 * problem.grid.weights.nbytes


def test_a_first_solve_op_peaks_as_a_later_one(tmp_path):
    # bench/run.py's peak_mem_mb is the tracemalloc peak of a process's first
    # solve op, on each workload: for each, a fresh interpreter set up as the
    # benchmark's is (every module imported, the workload's config written
    # and loaded) runs two solve ops, each traced from a gc.collect(), and
    # their peaks must lie within 8 kB of each other.  An argparse parser
    # built and kept by the first op held ~45 kB more, and ~212 kB with
    # argparse's import and first use
    src = Path(__file__).resolve().parents[1] / "src"
    for name in WORKLOADS:
        first, second = first_ops(src, name, 0, tmp_path / name, ops=2)
        assert abs(first - second) < 8000, (name, first, second)


def test_every_exported_name_resolves():
    # names load lazily, so a stale _EXPORTS entry fails only on first access
    import fortetbridge
    assert [n for n in fortetbridge.__all__ if not hasattr(fortetbridge, n)] == []
    assert dir(fortetbridge) == sorted(fortetbridge.__all__)


def _csv_cell(value) -> str:
    """A CSV artifact's cell: a float by repr, NaN as an empty cell, a bool
    lowercase, anything else by str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _csv_reference(path, headers, rows):
    """The CSV artifacts as csv.writer writes them, one _csv_cell at a time."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_csv_cell(value) for value in row])


#: floats whose repr is easy to get wrong, cycled down a column
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, -2.5e-300]


@pytest.mark.parametrize("rows", [1, cli.CSV_BLOCK_ROWS - 1, cli.CSV_BLOCK_ROWS,
                                  cli.CSV_BLOCK_ROWS + 1, 1681])
def test_csv_writer_matches_csv_module_bytes(tmp_path, rows):
    # the column-wise writer against the per-row csv.writer it replaced:
    # special floats, NaN as an empty cell, iterators of ready int and bool
    # cells, an int array, and a 2-D grid's coordinate columns
    grid = build_grid(dim=2, radius=8.0, points_per_axis=41)
    x1, x2 = grid.nodes.reshape(-1, 2)[:rows].T
    rng = np.random.default_rng(5)
    floats = np.array([SPECIAL[i % len(SPECIAL)] for i in range(rows)])
    floats[len(SPECIAL)::3] = rng.lognormal(0.0, 30.0, floats[len(SPECIAL)::3].size)
    ints = np.arange(rows) * 7 - 3
    flags = [bool(i % 3) for i in range(rows)]
    headers = ["x1", "x2", "value", "n", "k", "flag"]
    cli._write_csv(tmp_path / "new.csv", headers,
                   [x1, x2, floats, ints, map(str, ints.tolist()),
                    ("true" if f else "false" for f in flags)])
    _csv_reference(tmp_path / "ref.csv", headers,
                   zip(x1.tolist(), x2.tolist(), floats.tolist(), ints.tolist(),
                       ints.tolist(), flags))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_trace_and_potentials_writers_match_csv_module(tmp_path):
    grid = build_grid(dim=2, radius=8.0, points_per_axis=41)
    coords = grid.nodes.reshape(-1, 2)
    values = np.resize(np.array(SPECIAL), (3, grid.n_nodes))
    values[:, ::5] = np.random.default_rng(6).uniform(0.0, 1.0, (3, grid.n_nodes))[:, ::5]
    cli._write_potentials(tmp_path / "p.csv", grid,
                          [("phi", values[0]), ("psi", values[1]), ("h", values[2])])
    _csv_reference(tmp_path / "p_ref.csv", ["x1", "x2", "phi", "psi", "h"],
                   (list(c) + list(v) for c, v in zip(coords.tolist(), values.T.tolist())))
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "p_ref.csv").read_bytes()

    # every special float in each column, in a scheme row flagged true in
    # one log and false in the other and in closing rows, over enough rows
    # to grow the log's block
    for case1 in (True, False):
        log, rows = StepLog(case1), []
        for n, (v, w) in enumerate(zip(SPECIAL * 9, reversed(SPECIAL * 9)), 1):
            row = [v, w, SPECIAL[(n + 3) % len(SPECIAL)]]
            log.append(*row)
            rows.append([n] + row + [n == 1 and case1])
        cli._write_trace(tmp_path / "t.csv", log)
        _csv_reference(tmp_path / "t_ref.csv", cli.TRACE_COLUMNS, rows)
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t_ref.csv").read_bytes()


def test_trace_writer_holds_no_whole_run_list(tmp_path):
    # trace.csv is written from the log's columns in place, a block of rows
    # at a time, under the potentials writer's bound: the scheme row and 999
    # closing rows
    log = StepLog(False)
    for row in np.random.default_rng(4).lognormal(0.0, 20.0, (1000, 3)):
        log.append(*row.tolist())
    path = tmp_path / "trace.csv"
    cli._write_trace(path, log)
    _, peak = traced_peak(lambda: cli._write_trace(path, log))
    assert peak < 32 * 1024


@pytest.mark.parametrize("dim, points", [(1, 401), (2, 41), (3, 21)])
def test_mesh_coordinates_match_the_node_columns(tmp_path, dim, points):
    # each axis value formatted once gives the bytes of the node array's
    # columns, which the writer formats node by node
    grid = build_grid(dim=dim, radius=8.0, points_per_axis=points)
    values = np.random.default_rng(9).uniform(0.0, 1.0, grid.n_nodes)
    headers, coords = cli._coordinates(grid)
    cli._write_potentials(tmp_path / "p.csv", grid, [("phi", values)])
    cli._write_csv(tmp_path / "ref.csv", headers + ["phi"],
                   list(grid.nodes.reshape(grid.n_nodes, dim).T) + [values])
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert all(len(c) if isinstance(c, np.ndarray) else sum(1 for _ in c)
               == grid.n_nodes for c in coords)


def test_interpolation_csv_matches_csv_module(tmp_path):
    # one block of rows per time slice, each after the previous, on a 1-D
    # grid and on a 2-D one, whose coordinate columns are mesh cells; the
    # 41 x 41 grid's spacing 0.4 resolves the heat kernel of sigma 1.5 at
    # t = 0.3 (width 0.69), not that of sigma 0.5
    from fortetbridge.bridge import entropic_interpolation
    two_d = dict(BENCH_RAW, kernel={"type": "gaussian", "sigma": 1.5},
                 grid=dict(BENCH_RAW["grid"], dim=2, points=41))
    times = [0.0, 0.3, 1.0]
    for raw, coords in ((BENCH_RAW, ["x"]), (two_d, ["x1", "x2"])):
        cfg = write_config(tmp_path, raw)
        out = tmp_path / f"run{len(coords)}"
        assert main(["interpolate", "--config", str(cfg), "--output", str(out),
                     "--times", "0,0.3,1"]) == 0
        problem = load_problem(cfg)
        solution = _solve_problem(problem, tmp_path)
        interp = entropic_interpolation(solution.phi, solution.psi, problem.kernel, times)
        nodes = problem.grid.nodes.reshape(problem.grid.n_nodes, -1).tolist()
        _csv_reference(tmp_path / "ref.csv", ["t"] + coords + ["density"],
                       ([t] + x + [d] for t, row in zip(times, interp.densities.tolist())
                        for x, d in zip(nodes, row)))
        assert (out / "interpolation.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()


def test_potentials_writer_holds_no_record_buffer(tmp_path):
    # csv.writer's first row allocates a 128 KiB record buffer that lives as
    # long as the writer; the block writer holds one block of cells at a
    # time, and a mesh column no reference per row (72 kB at 21^3)
    rng = np.random.default_rng(7)
    for dim, points in ((2, 41), (3, 21)):
        grid = build_grid(dim=dim, radius=8.0, points_per_axis=points)
        columns = [(name, rng.lognormal(0.0, 3.0, grid.n_nodes))
                   for name in ("phi", "psi", "h")]
        path = tmp_path / "potentials.csv"
        cli._write_potentials(path, grid, columns)
        _, peak = traced_peak(lambda: cli._write_potentials(path, grid, columns))
        assert peak < 32 * 1024


#: the package's immutable types: 12 NamedTuples and 10 quadrature.Frozen classes
RECORDS = ("CheckResult", "ConditionStar", "ContractionBound", "Coupling",
           "DensityField", "FeasibilityReport", "FortetOptions",
           "FortetSolution", "GaussianBridgeSolution", "HilbertTrace",
           "HomogeneityCheck", "Interpolation", "IterationState",
           "KLObjective", "KernelOperator", "MarginalPair", "Problem",
           "ProjectiveDiameter", "QuadratureGrid", "ScalingPair", "StepLog",
           "UniquenessReport")


@pytest.fixture(scope="module")
def one_of_each(bench_grid, bench_kernel, bench_marginals, bench_solution,
                bench_scaling):
    """One instance of each of RECORDS, by class name.  The benchmark
    kernel's matrix is not built: a small instance stands in for it."""
    from fortetbridge import bridge, fortet, hilbert, problem, sinkhorn
    report = problem.full_report(bench_kernel, bench_marginals)
    coupling = bench_solution.coupling
    grid = build_grid(dim=1, radius=4.0, points_per_axis=21)
    small = problem.MarginalPair(problem.gaussian_density(grid, 1.0),
                                 problem.gaussian_density(grid, 0.8))
    matrix = np.array([[1.0, 2.0], [3.0, 1.0]])
    instances = [
        bench_grid,
        bench_marginals.omega1, bench_marginals, bench_kernel, report,
        report.hypotheses["kernel_bounded"], report.condition_star,
        fortet.FortetOptions(), bench_solution.steps,
        fortet.fortet_step(None, bench_kernel, bench_marginals), bench_solution,
        fortet.verify_uniqueness(bench_solution, bench_solution, bench_marginals),
        bench_scaling,
        sinkhorn.sinkhorn_trace_hilbert(gaussian_kernel(grid, grid, 0.5), small),
        hilbert.projective_diameter(matrix), hilbert.birkhoff_contraction(matrix),
        hilbert.homogeneous_map_contraction_check(matrix.__matmul__, 1.0,
                                                  [np.ones(2), np.arange(1.0, 3.0)]),
        coupling, bridge.kl_objective(coupling),
        bridge.entropic_interpolation(coupling.phi, coupling.psi, bench_kernel, [0.0, 1.0]),
        bridge.gaussian_oracle(0.5, 1.0, 0.8), build_problem(resolve_config(BENCH_RAW)),
    ]
    return {type(x).__name__: x for x in instances}


def test_records_are_every_immutable_type(one_of_each):
    import importlib
    import inspect
    import pkgutil
    import fortetbridge
    from fortetbridge.quadrature import Frozen
    found = set()
    for info in pkgutil.iter_modules(fortetbridge.__path__):
        module = importlib.import_module(f"fortetbridge.{info.name}")
        found.update(name for name, cls in vars(module).items()
                     if inspect.isclass(cls) and cls.__module__ == module.__name__
                     and cls is not Frozen and issubclass(cls, (Frozen, tuple)))
    assert sorted(found) == sorted(one_of_each) == list(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment_and_deletion(name, one_of_each):
    record = one_of_each[name]
    fields = record._fields if isinstance(record, tuple) else list(vars(record))
    assert fields
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.unknown = None


def test_records_hold_their_arrays_read_only(one_of_each):
    # every public ndarray a quadrature.Frozen record holds, directly or in
    # a tuple, and each array a record derives on read.  A whitened
    # kernel holds its white matrix in its gaussian pair
    from fortetbridge.quadrature import Frozen
    grid = build_grid(dim=2, radius=3.0, points_per_axis=5)
    whitened = gaussian_kernel(grid, grid, [[0.25, 0.05], [0.05, 0.2]])
    marginals = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
    coupling = bridge.build_coupling(np.ones(25), np.ones(25), whitened, marginals)
    records = [r for r in one_of_each.values() if isinstance(r, Frozen)]
    assert len(records) == 10 and whitened.gaussian[1] is not None
    held = [a for record in records + [whitened, coupling]
            for name, value in vars(record).items() if not name.startswith("_")
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]
    derived = [grid.nodes, marginals.omega1.support, whitened.values, coupling.pi,
               one_of_each["StepLog"].column("hilbert_step")]
    assert len(held) > 20
    assert [a.shape for a in held + derived if a.flags.writeable] == []


def _malformed(path, value):
    """BENCH_RAW with the entry at the dotted path (a digit indexes a
    list) set to value."""
    raw = json.loads(json.dumps(BENCH_RAW))
    *keys, last = path.split(".")
    node = raw
    for key in keys:
        node = node[int(key)] if key.isdigit() else node.setdefault(key, {})
    node[int(last) if last.isdigit() else last] = value
    return raw


def _scale_cases():
    """(id, raw, argv) of each Gaussian kernel scale whose 2 pi sigma^2
    leaves float range, as a JSON number, a string or an interpolation
    slice's scale sigma sqrt(t)."""
    for sigma, dim, op in itertools.product((1e200, 1e-200), (1, 2), ("check", "solve")):
        grid = dict(BENCH_RAW["grid"], dim=dim, points=201 if dim == 1 else 21)
        yield f"{sigma:g}-{dim}d-{op}", dict(BENCH_RAW, kernel={"type": "gaussian",
                                                               "sigma": sigma},
                                             grid=grid), [op]
    yield "auto-1e307", dict(BENCH_RAW, kernel={"type": "gaussian", "sigma": 1e307},
                             grid=dict(BENCH_RAW["grid"], radius="auto")), ["solve"]
    for op in ("check", "solve"):
        yield f"nan-{op}", dict(BENCH_RAW, kernel={"type": "gaussian", "sigma": "nan"}), [op]
    yield "slice-5e-324", BENCH_RAW, ["interpolate", "--times", "0,5e-324,1"]


@pytest.mark.parametrize("raw, argv", [pytest.param(raw, argv, id=name)
                                       for name, raw, argv in _scale_cases()])
def test_gaussian_scale_outside_float_range_exits_2(tmp_path, capsys, raw, argv):
    # 2 pi sigma^2 over- or underflows: one feasibility failure naming the
    # scale, not a traceback from the kernel's entries, nor a RuntimeWarning
    # (an error under pytest's filter) and a misleading band error; a
    # slice's names its time, the cause, before the scale
    cfg = write_config(tmp_path, raw)
    assert main([argv[0], "--config", str(cfg), "--output", str(tmp_path / "run"),
                 *argv[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    cause = "interpolation time t=5e-324: " if argv[0] == "interpolate" else ""
    assert len(err) == 1 and err[0].startswith(f"feasibility failure: {cause}kernel scales [")
    assert "outside float range" in err[0]


@pytest.mark.parametrize("sigma", [1e-200, 1e200])
@pytest.mark.parametrize("dim", [1, 2])
def test_gaussian_marginal_scale_outside_float_range_exits_2(tmp_path, capsys, sigma, dim):
    # the kernel's rule: 2 pi sigma^2 under- or overflows; one feasibility
    # failure naming the scale, not a RuntimeWarning (an error under
    # pytest's filter), non-finite values or a density of zero mass
    raw = _malformed("marginals.0.sigma", sigma)
    raw["grid"].update(dim=dim, points=201 if dim == 1 else 21)
    assert main(["solve", "--config", str(write_config(tmp_path, raw)),
                 "--output", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("feasibility failure: marginal ")
    assert repr(sigma) in err[0] and "outside float range" in err[0]


@pytest.mark.parametrize("path, value, argv, code, says", [
    ("kernel.sigma", 1.5e-154, ["check"], 0, "solver_admissible: True"),
    ("marginals.0.sigma", 1.5e-154, ["check"], 2, "solver_admissible: False"),
    (None, None, ["interpolate", "--times", "0,1e-307,1"], 1,
     "interpolant mass at t=1e-307 drifted")], ids=["kernel", "marginal", "slice"])
def test_gaussian_scale_just_inside_float_range_warns_nothing(tmp_path, capsys, path,
                                                              value, argv, code, says):
    # sigma = 1.5e-154 meets the float-range rule (sigma^2 >= TINY), yet
    # radius^2 / (2 sigma^2) overflows: the exponent is -inf and its entry
    # 0, both exact, with no RuntimeWarning (an error under pytest's
    # filter); check admits the kernel's instance (kappa > 0) and refuses
    # the marginal's (kappa < 0); the t = 1e-307 slice of gauss1d's kernel
    # has the scale 0.5 sqrt(t), and drifts
    raw = _malformed(path, value) if path else BENCH_RAW
    cfg = write_config(tmp_path, raw)
    assert main([argv[0], "--config", str(cfg), "--output", str(tmp_path / "run"),
                 *argv[1:]]) == code
    out, err = capsys.readouterr()
    assert says in (err if code == 1 else out)


def test_forced_solve_of_an_empty_omega1_exits_2(tmp_path, capsys):
    # an all-zero table kept unrenormalized: force skips the feasibility
    # report, and run_fortet still refuses the support the scheme needs
    np.savetxt(tmp_path / "m1.csv", np.zeros(201), delimiter=",")
    raw = dict(BENCH_RAW, marginals=[{"type": "table", "path": "m1.csv",
                                      "renormalize": False},
                                     BENCH_RAW["marginals"][1]])
    assert main(["solve", "--force", "--config", str(write_config(tmp_path, raw)),
                 "--output", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "feasibility failure: omega1 has empty support"]


@pytest.mark.parametrize("op", ["interpolate", "compare"])
def test_degenerate_solution_is_neither_interpolated_nor_compared(tmp_path, capsys, op):
    # criterion 7's starved omega2, kept unrenormalized and forced past its
    # refusal: the solve is degenerate, with no potentials to read
    grid = build_grid(dim=1, radius=8.0, points_per_axis=201)
    np.savetxt(tmp_path / "m2.csv", gaussian_density(grid, 0.8).values * 1e-16,
               delimiter=",")
    raw = dict(BENCH_RAW, marginals=[BENCH_RAW["marginals"][0],
                                     {"type": "table", "path": "m2.csv",
                                      "renormalize": False}],
               solver={"force": True})
    assert main([op, "--config", str(write_config(tmp_path, raw)),
                 "--output", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"cannot {op} a degenerate solution"]


@pytest.mark.parametrize("times, said", [
    *((f"0,{t},1", f"--times must lie in [0, 1], not {float(t)!r}")
      for t in ("1.5", "-0.1", "nan", "inf")),
    ("", "--times is empty"), (", ,", "--times is empty")],
    ids=["1.5", "-0.1", "nan", "inf", "empty", "blank"])
def test_interpolate_refuses_times_before_it_solves(tmp_path, capsys, monkeypatch,
                                                    times, said):
    # a time outside [0, 1], NaN included, is refused where an empty list
    # is, before the config is loaded or solved: exit 1, one line, and no
    # output directory
    def solve(*args):
        raise AssertionError("run_fortet was called")

    monkeypatch.setattr(fortet, "run_fortet", solve)
    out = tmp_path / "run"
    assert main(["interpolate", "--config", str(write_config(tmp_path, BENCH_RAW)),
                 "--output", str(out), "--times", times]) == 1
    assert capsys.readouterr().err.splitlines() == [said]
    assert not out.exists()


@pytest.mark.parametrize("dim, side", [(2, 3), (3, 2)])
def test_a_marginal_covariance_that_is_not_d_x_d_is_one_error_line(tmp_path, capsys,
                                                                   dim, side):
    # it once ended in an IndexError traceback: now exit 1, one line, and no
    # output directory
    raw = dict(BENCH_RAW, grid=dict(BENCH_RAW["grid"], dim=dim, points=5),
               marginals=[{"type": "gaussian", "covariance": np.eye(side).tolist()},
                          {"type": "gaussian", "sigma": 0.8}])
    out = tmp_path / "run"
    assert main(["check", "--config", str(write_config(tmp_path, raw)),
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: marginal covariance must be d x d"]
    assert not out.exists()


@pytest.mark.parametrize("kernel", ["table", "rows-normalized"])
def test_interpolate_refuses_a_non_gaussian_kernel_before_it_solves(tmp_path, capsys,
                                                                    monkeypatch, kernel):
    # a table kernel, and gauss1d's kernel with its rows normalized, carry
    # no Gaussian scales: interpolate refuses them once the config is
    # loaded, with entropic_interpolation's line and exit 1, not after a solve
    def solve(*args):
        raise AssertionError("run_fortet was called")

    monkeypatch.setattr(fortet, "run_fortet", solve)
    if kernel == "table":
        grid = build_grid(dim=1, radius=8.0, points_per_axis=201)
        np.savetxt(tmp_path / "kernel.csv", gaussian_kernel(grid, grid, 0.5).values,
                   delimiter=",")
        raw = dict(BENCH_RAW, kernel={"type": "table", "path": "kernel.csv"})
    else:
        raw = dict(BENCH_RAW, normalize_kernel_rows=True)
    out = tmp_path / "run"
    assert main(["interpolate", "--config", str(write_config(tmp_path, raw)),
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: interpolation needs a Gaussian kernel"]
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    ([], "a command is required (choose from check, solve, interpolate, diagnose, compare)"),
    (["--config", "problem.json"], "a command is required (choose from check, solve, "
                                   "interpolate, diagnose, compare)"),
    (["solve", "--output", "run"], "--config is required"),
    (["solve", "--config", "problem.json", "--forse"], "unknown flag --forse"),
    (["solv", "--config", "problem.json"], "unknown command 'solv' (choose from check, "
                                           "solve, interpolate, diagnose, compare)"),
    (["check", "--config", "problem.json", "--force"], "--force is not a flag of check"),
    (["compare", "--config", "problem.json", "--tol"], "--tol needs a value"),
    (["solve", "--config", "problem.json", "--force=yes"], "--force takes no value"),
    (["compare", "--config", "problem.json", "--tol", "tight"],
     "--tol must be a float, not 'tight'"),
    (["solve", "--conf", "problem.json"], "unknown flag --conf"),
    (["solve", "--config", "problem.json", "run"], "unexpected argument 'run'")],
    ids=["no-command", "flag-first", "no-config", "unknown-flag", "unknown-command",
         "other-command-flag", "no-value", "value-for-force", "tol-not-float",
         "abbreviation", "extra-word"])
def test_refused_command_line_exits_1(tmp_path, capsys, monkeypatch, argv, reason):
    # the parser's refusal is an input problem: exit 1 with the usage line
    # and the reason, not 2, the code of a feasibility failure; nothing is
    # read or written.  An abbreviation, which argparse accepted, is refused
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage: fortetbridge")
    assert err[1] == f"fortetbridge: error: {reason}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, fields", [
    (["check", "--config", "p.json"], {"output": "."}),
    (["solve", "--config", "p.json"], {"output": ".", "force": False}),
    (["solve", "--force", "--output=run", "--config=p.json"],
     {"output": "run", "force": True}),
    (["interpolate", "--config", "p.json"], {"output": ".", "times": "0,0.25,0.5,0.75,1"}),
    (["interpolate", "--config", "p.json", "--times", "-0.1"],
     {"output": ".", "times": "-0.1"}),
    (["diagnose", "--output", "-run", "--config", "p.json"], {"output": "-run"}),
    (["compare", "--config", "p.json"], {"output": ".", "tol": 1e-8}),
    (["compare", "--config", "p.json", "--tol", "-1"], {"output": ".", "tol": -1.0}),
    (["compare", "--config", "q.json", "--tol=1e-3", "--config", "p.json", "--tol", "2"],
     {"output": ".", "tol": 2.0})],
    ids=["check", "solve", "solve-equals", "interpolate", "times-dash", "output-dash",
         "compare", "tol-dash", "last-wins"])
def test_accepted_command_line(argv, fields):
    # --flag value and --flag=value, flags in any order, a value that starts
    # with "-" (so --tol -1 and --times -0.1 reach their commands'
    # refusals), and the last of a repeated flag wins; a flag not given is
    # at its default, and --tol reads as a float
    args = cli.parse_args(argv)
    assert vars(args) == {"command": argv[0], "config": "p.json", **fields}
    assert type(getattr(args, "tol", 0.0)) is float


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["-h"],
                                  ["compare", "--config", "p.json", "-h"]])
def test_help_exits_0(capsys, argv):
    # the usage line, then a line for each command, or for each of the
    # command's flags
    listed = ({"check", "solve", "interpolate", "diagnose", "compare"} if len(argv) == 1
              else {"solve": {"--config", "--output", "--force"},
                    "compare": {"--config", "--output", "--tol"}}[argv[0]])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("usage: fortetbridge")
    assert listed <= {line.split()[0] for line in out[1:] if line.strip()}


def test_output_that_is_a_file_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "run"
    out.write_text("")
    assert main(["solve", "--config", str(write_config(tmp_path, BENCH_RAW)),
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("I/O error: ")


def test_check_writes_and_prints_its_refusal(tmp_path, capsys):
    # aniso2d swapped is refused by kappa while the grid's tail fit reads
    # finite: feasibility.json and stdout say why; gauss1d's refusal is null
    for name, raw, refusal in (
            ("aniso2d-swapped", EXTRA["aniso2d-swapped"][0],
             "integrability estimate is suspected-divergent; swapping the marginals "
             "looks feasible (pass force=True to run anyway)"),
            ("gauss1d", VERDICTS["gauss1d"][0], None)):
        out = tmp_path / name
        assert main(["check", "--config", str(write_config(tmp_path, raw)),
                     "--output", str(out)]) == (0 if refusal is None else 2)
        feasibility = json.loads((out / "feasibility.json").read_text())
        assert feasibility["refusal"] == refusal
        assert feasibility["condition_star"]["verdict"] == "finite"
        lines = capsys.readouterr().out.splitlines()
        said = [] if refusal is None else [f"refusal: {refusal}"]
        assert lines[-1 - len(said):] == said + [f"solver_admissible: {refusal is None}"]
        assert sum(line.startswith("refusal") for line in lines) == len(said)


def test_check_names_a_zero_denominator_node(tmp_path):
    # gauss1d's sigma = 0.5 kernel on 41 nodes, its column 20 zeroed: Int g
    # omega1 is 0 at node 20, where omega2 > 0, so the estimate is inf with
    # no tail fit; swapped, the column is a row, and the estimate still reads
    # suspected-divergent, so no swap is recommended
    grid = build_grid(dim=1, radius=8.0, points_per_axis=41)
    vals = gaussian_kernel(grid, grid, 0.5).values.copy()
    vals[:, 20] = 0.0
    np.savetxt(tmp_path / "kernel.csv", vals, delimiter=",")
    raw = dict(BENCH_RAW, kernel={"type": "table", "path": "kernel.csv"},
               grid=dict(BENCH_RAW["grid"], points=41))
    cfg = write_config(tmp_path, raw)
    problem = load_problem(cfg)
    report = full_report(problem.kernel, problem.marginals)
    assert report.condition_star == (math.inf, "suspected-divergent", math.inf, (20,))
    assert not report.swap_recommended
    assert main(["check", "--config", str(cfg), "--output", str(tmp_path / "run")]) == 2
    feasibility = json.loads((tmp_path / "run" / "feasibility.json").read_text())
    assert feasibility["condition_star"]["zero_denominator_nodes"] == [20]
    assert not feasibility["swap_recommended"]


@pytest.mark.parametrize("path, value", [
    ("grid.points", "abc"), ("grid.radius", "wide"), ("grid.dim", "two"),
    ("grid", [1, 2]), ("kernel", [1]), ("marginals", ["a", "b"]),
    ("kernel.sigma", "x"), ("marginals.0.sigma", "x"), ("solver.tol", "tight"),
    ("solver.tol", -1.0), ("solver.tol", 0.0), ("solver.tol", math.inf),
    ("solver.max_iter", None), ("solver.max_iter", 1.7), ("solver.max_iter", "7"),
    ("solver.max_iter", 0), ("solver.max_iter", -3),
    ("solver.force", "false"), ("solver.force", 1), ("swap", "false"), ("swap", 2),
    ("normalize_kernel_rows", "no"), ("normalize_kernel_rows", None),
    ("grid.points", 101.7), ("grid.points", True), ("grid.dim", 1.9), ("grid.dim", True),
    ("kernel.sigma", True), ("marginals.0.sigma", False), ("grid.radius", True),
    ("solver.tol", True), ("kernel", {"type": "gaussian_multivariate", "covariance": [[True]]}),
    ("grid.radius", "inf"), ("grid.radius", "nan"), ("grid.radius", 1e308),
    ("grid.dim", 100_000), ("grid.rule", "gauss-legendre"), ("grid.radus", 12),
    ("marginals", [BENCH_RAW["marginals"][0]]), ("solver", [1]),
    ("grid", {"dim": 1, "radius": 8.0}), ("kernel", {"type": "table", "path": 3}),
    ("kernel", {"type": "table", "path": "missing.csv"}), ("kernel", {"type": "gaussian"}),
    ("kernel", {"type": "gaussian_multivariate"}), ("kernel.type", "cauchy"),
    ("marginals.1.type", "beta")])
def test_malformed_config_value_is_a_config_error(tmp_path, capsys, path, value):
    # exit 1 with one "config error:" line naming the key, never a traceback
    # or a run that misreads the value (bool("false") is true, and float()
    # and numpy read true as 1); a flag (swap, normalize_kernel_rows) takes
    # a boolean or 0 or 1.  A radius that is not finite, or whose span 2R
    # overflows, once ran into a late error naming no radius, a grid.dim of
    # 100000 into printing points ** dim past Python's 4300 digits, and a
    # misspelt grid key or a gauss-legendre rule into a solve
    cfg = write_config(tmp_path, _malformed(path, value))
    assert main(["solve", "--config", str(cfg), "--output", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert path.split(".")[-1] in err[0]
    assert not (tmp_path / "run").exists()


#: malformed configs that are not one value at a key: (raw, or the file's
#: text; the text of m1.csv beside it, if any; what the error says)
MALFORMED = {
    "invalid-json": ("{", None, "is not valid JSON"),
    "not-utf-8": (b"\xff\xfe{}", None, "cannot read config"),
    "root-not-object": ("[1, 2]", None, "config root must be a JSON object"),
    "auto-radius-no-scale": (
        dict(BENCH_RAW, kernel={"type": "table"},
             marginals=[{"type": "table"}, {"type": "table"}],
             grid=dict(BENCH_RAW["grid"], radius="auto")), None,
        "radius 'auto' needs at least one Gaussian scale"),
    "auto-radius-table-kernel": (
        dict(BENCH_RAW, kernel={"type": "table", "path": "missing.csv"},
             grid=dict(BENCH_RAW["grid"], radius="auto")), None, "cannot read kernel table"),
    "auto-radius-text-sigma": (
        dict(BENCH_RAW, kernel={"type": "gaussian", "sigma": "x"},
             grid=dict(BENCH_RAW["grid"], radius="auto")), None,
        "kernel sigma must be numeric, not 'x'"),
    "table-not-numeric": (
        dict(BENCH_RAW, marginals=[{"type": "table", "path": "m1.csv"},
                                   BENCH_RAW["marginals"][1]]),
        "a,b\n", "is not numeric CSV"),
    "table-length": (
        dict(BENCH_RAW, marginals=[{"type": "table", "path": "m1.csv"},
                                   BENCH_RAW["marginals"][1]]),
        "1\n2\n3\n", "marginal 1: table must hold 201 values"),
    "table-empty": (
        dict(BENCH_RAW, marginals=[{"type": "table", "path": "m1.csv"},
                                   BENCH_RAW["marginals"][1]]),
        "", "m1.csv holds no data"),
    "marginal-no-sigma": (
        dict(BENCH_RAW, marginals=[{"type": "gaussian"}, BENCH_RAW["marginals"][1]]), None,
        "marginal 1: gaussian marginal needs 'sigma'"),
    "marginal-no-covariance": (
        dict(BENCH_RAW, marginals=[{"type": "gaussian"}, BENCH_RAW["marginals"][1]],
             grid=dict(BENCH_RAW["grid"], dim=2, points=21)), None,
        "marginal 1: gaussian marginal needs 'covariance'"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_config_is_a_config_error(tmp_path, capsys, name):
    # as a malformed value is: exit 1, one "config error:" line, no
    # warning and no output directory.  A config that is not UTF-8 once
    # ended in a traceback, and an empty table in numpy's "no data" warning
    raw, table, says = MALFORMED[name]
    if table is not None:
        (tmp_path / "m1.csv").write_text(table)
    cfg = tmp_path / "problem.json"
    if isinstance(raw, bytes):
        cfg.write_bytes(raw)
    else:
        cfg.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--config", str(cfg), "--output", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and says in err[0]
    assert not (tmp_path / "run").exists()
