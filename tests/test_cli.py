import dataclasses
import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsep import fileio
from sparsep.cli import SparsepCommand, main
from sparsep.errors import ParameterError
from sparsep.experiments import NUMERICS, ExperimentConfig
from sparsep.operators import linear_operator
from sparsep.probes import ProblemDims, generate_probes
from sparsep.rng import derive_seed
from sparsep.solvers import SolverConfig


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


def gen(runner, tmp_path, name="probes.csv", n=4, m=8, p=2, seed=7):
    path = tmp_path / name
    result = invoke(runner, "gen-probes", "--n", n, "--m", m, "--p", p,
                    "--seed", seed, "--out", path)
    assert result.exit_code == 0, result.output
    return path


def rewrite(path, header_changes, sample):
    """Rewrite a vector file with header keys changed (None drops one) and,
    unless ``sample`` is None, its first sample replaced."""
    lines = path.read_text().splitlines()
    header = dict(json.loads(lines[0]), **header_changes)
    header = {k: v for k, v in header.items() if v is not None}
    samples = lines[1:] if sample is None else [sample] + lines[2:]
    path.write_text("\n".join([json.dumps(header)] + samples) + "\n")


class TestGenProbes:
    def test_byte_identical_reruns(self, runner, tmp_path):
        a = gen(runner, tmp_path, "a.csv")
        b = gen(runner, tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_flag_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["gen-probes", "--n", "4", "--p", "2",
                                      "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    def test_m_less_than_n_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["gen-probes", "--n", "8", "--m", "4", "--p", "2",
                                      "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert "m must be >= n" in result.output

    @pytest.mark.parametrize("seed", [2**64 + 1, -1])
    def test_seed_outside_64_bits_exit_2(self, runner, tmp_path, seed):
        # Philox keys on the low 64 bits: the header would name another seed's probes
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["gen-probes", "--n", "4", "--m", "8", "--p", "2",
                                      "--seed", str(seed), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "seed must be an integer in [0, 2**64)" in result.output
        assert not out.exists()

    def test_unwritable_path_exit_3(self, runner):
        result = runner.invoke(main, ["gen-probes", "--n", "4", "--m", "8", "--p", "2",
                                      "--seed", "1", "--out", "/nonexistent-dir/x.csv"])
        assert result.exit_code == 3


class TestSimulate:
    def test_zero_channels_zero_measurements(self, runner, tmp_path):
        probes = gen(runner, tmp_path)
        chan = tmp_path / "h.csv"
        fileio.write_channels(chan, n=4, p=2, h=np.zeros(8))
        out = tmp_path / "y.csv"
        result = invoke(runner, "simulate", "--probes", probes, "--channels", chan,
                        "--out", out)
        assert result.exit_code == 0
        _, y = fileio.read_measurements(out)
        assert np.array_equal(y, np.zeros(11))

    def test_impulse_channel_gives_shifted_probe(self, runner, tmp_path):
        probes_path = gen(runner, tmp_path)
        ps = fileio.read_probes(probes_path)
        h = np.zeros(8)
        h[2] = 1.0  # source 0, offset 2
        chan = tmp_path / "h.csv"
        fileio.write_channels(chan, n=4, p=2, h=h)
        out = tmp_path / "y.csv"
        assert invoke(runner, "simulate", "--probes", probes_path, "--channels", chan,
                      "--out", out).exit_code == 0
        _, y = fileio.read_measurements(out)
        expected = np.zeros(11)
        expected[2:10] = ps.phi[0]
        assert np.max(np.abs(y - expected)) < 1e-12

    def test_noise_norm_exact(self, runner, tmp_path):
        probes = gen(runner, tmp_path)
        clean = tmp_path / "clean.csv"
        noisy = tmp_path / "noisy.csv"
        for eps, out in [(0.0, clean), (0.1, noisy)]:
            args = ["simulate", "--probes", probes, "--random-sparse", 2,
                    "--channel-seed", 5, "--out", out]
            if eps:
                args += ["--noise-eps", eps, "--noise-seed", 3]
            assert invoke(runner, *args).exit_code == 0
        _, y0 = fileio.read_measurements(clean)
        _, y1 = fileio.read_measurements(noisy)
        assert abs(np.linalg.norm(y1 - y0) - 0.1) < 1e-12

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_unusable_noise_eps_exit_2(self, runner, tmp_path, eps):
        probes = gen(runner, tmp_path)
        out = tmp_path / "y.csv"
        result = runner.invoke(main, ["simulate", "--probes", str(probes), "--random-sparse", "2",
                                      "--noise-eps", eps, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--noise-eps" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--channel-seed", "--noise-seed"])
    @pytest.mark.parametrize("seed", [-1, 2**64 + 5])
    def test_seed_outside_64_bits_exit_2(self, runner, tmp_path, flag, seed):
        # both seeds are masked to 64 bits: -1 would draw 2**64 - 1's channel or noise
        probes = gen(runner, tmp_path)
        out = tmp_path / "y.csv"
        result = runner.invoke(main, ["simulate", "--probes", str(probes), "--random-sparse", "2",
                                      "--noise-eps", "0.1", flag, str(seed), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"{flag} must be an integer in [0, 2**64)" in result.output
        assert not out.exists()

    def test_requires_exactly_one_channel_source(self, runner, tmp_path):
        probes = gen(runner, tmp_path)
        result = runner.invoke(main, ["simulate", "--probes", str(probes),
                                      "--out", str(tmp_path / "y.csv")])
        assert result.exit_code == 2

    def test_channel_dims_differ_from_probes_exit_2(self, runner, tmp_path):
        probes = gen(runner, tmp_path)  # n=4, p=2
        chan = tmp_path / "h.csv"
        fileio.write_channels(chan, n=4, p=3, h=np.zeros(12))
        out = tmp_path / "y.csv"
        result = runner.invoke(main, ["simulate", "--probes", str(probes), "--channels", str(chan),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "do not match" in result.output
        assert not out.exists()

    def test_random_sparse_above_signal_length_exit_2(self, runner, tmp_path):
        probes = gen(runner, tmp_path)  # N = n*p = 8
        out = tmp_path / "y.csv"
        result = runner.invoke(main, ["simulate", "--probes", str(probes), "--random-sparse", "99",
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--random-sparse" in result.output
        assert not out.exists()


class TestRecover:
    def setup_instance(self, runner, tmp_path, s=2, seed=5, noise=0.0):
        probes = gen(runner, tmp_path, n=4, m=16, p=2, seed=11)
        y = tmp_path / "y.csv"
        h = tmp_path / "h.csv"
        args = ["simulate", "--probes", probes, "--random-sparse", s,
                "--channel-seed", seed, "--out", y, "--save-channels", h]
        if noise:
            args += ["--noise-eps", noise, "--noise-seed", 1]
        assert invoke(runner, *args).exit_code == 0
        return probes, y, h

    def test_roundtrip_bpdn_recovery(self, runner, tmp_path):
        probes, y, h = self.setup_instance(runner, tmp_path)
        out_json = tmp_path / "rec.json"
        out_csv = tmp_path / "x.csv"
        result = invoke(runner, "recover", "--probes", probes, "--measurements", y,
                        "--method", "bpdn", "--out-json", out_json, "--out-csv", out_csv)
        assert result.exit_code == 0, result.output
        _, h_true = fileio.read_channels(h)
        _, x_hat = fileio.read_vector_file(out_csv)
        assert np.linalg.norm(x_hat - h_true) < 1e-4 * np.linalg.norm(h_true)
        payload = json.loads(out_json.read_text())
        assert payload["converged"] is True
        assert payload["method"] == "bpdn"

    def test_oracle_with_true_support(self, runner, tmp_path):
        probes, y, h = self.setup_instance(runner, tmp_path)
        _, h_true = fileio.read_channels(h)
        # --support is 1-based
        support = ",".join(str(i + 1) for i in np.flatnonzero(h_true))
        out_json = tmp_path / "rec.json"
        out_csv = tmp_path / "x.csv"
        result = invoke(runner, "recover", "--probes", probes, "--measurements", y,
                        "--method", "oracle", "--support", support,
                        "--out-json", out_json, "--out-csv", out_csv)
        assert result.exit_code == 0
        _, x_hat = fileio.read_vector_file(out_csv)
        assert np.linalg.norm(x_hat - h_true) < 1e-10

    def test_iht_method(self, runner, tmp_path):
        probes, y, h = self.setup_instance(runner, tmp_path)
        out_json = tmp_path / "rec.json"
        result = invoke(runner, "recover", "--probes", probes, "--measurements", y,
                        "--method", "iht", "--s-target", 2, "--out-json", out_json)
        assert result.exit_code == 0, result.output

    def test_mismatched_dims_exit_2(self, runner, tmp_path):
        probes, y, _ = self.setup_instance(runner, tmp_path)
        other = gen(runner, tmp_path, name="other.csv", n=4, m=8, p=2, seed=1)
        result = runner.invoke(main, ["recover", "--probes", str(other),
                                      "--measurements", str(y), "--method", "bpdn",
                                      "--out-json", str(tmp_path / "r.json")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("target, header_changes, sample", [
        ("probes", {}, "abc"),
        ("y", {}, "abc"),
        ("y", {"variant": None}, None),
        ("y", {"m": "16"}, None),
        ("probes", {"n": "4"}, None),
    ], ids=["probe-sample", "measurement-sample", "no-variant", "string-m", "string-n"])
    def test_bad_input_file_exit_2(self, runner, tmp_path, target, header_changes, sample):
        probes, y, _ = self.setup_instance(runner, tmp_path)
        rewrite(probes if target == "probes" else y, header_changes, sample)
        result = runner.invoke(main, ["recover", "--probes", str(probes),
                                      "--measurements", str(y), "--method", "bpdn",
                                      "--out-json", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("method", ["bpdn", "oracle"])
    @pytest.mark.parametrize("target, header_changes, sample", [
        ("y", {}, "nan"),
        ("y", {}, "-inf"),
        ("probes", {}, "inf"),
        ("y", {"epsilon": -1.0}, None),
        ("probes", {"seed": 2**64 + 1}, None),
        ("probes", {"seed": -1}, None),
    ], ids=["measurement-nan", "measurement-inf", "probe-inf", "negative-epsilon",
            "seed-above-64-bits", "negative-seed"])
    def test_unusable_file_named(self, runner, tmp_path, method, target, header_changes,
                                 sample):
        # the error names the file, before any solver sees its values
        probes, y, _ = self.setup_instance(runner, tmp_path)
        path = probes if target == "probes" else y
        rewrite(path, header_changes, sample)
        out_json = tmp_path / "r.json"
        result = runner.invoke(main, ["recover", "--probes", str(probes),
                                      "--measurements", str(y), "--method", method,
                                      "--support", "1", "--out-json", str(out_json)])
        assert result.exit_code == 2, result.output
        assert str(path) in result.output
        assert not out_json.exists()

    @pytest.mark.parametrize("method", ["bpdn", "iht", "oracle"])
    @pytest.mark.parametrize("eps", ["-0.1", "nan", "inf"])
    def test_unusable_epsilon_exit_2(self, runner, tmp_path, method, eps):
        probes, y, _ = self.setup_instance(runner, tmp_path)
        out_json = tmp_path / "r.json"
        result = runner.invoke(main, ["recover", "--probes", str(probes),
                                      "--measurements", str(y), "--method", method,
                                      "--epsilon", eps, "--s-target", "2", "--support", "1",
                                      "--out-json", str(out_json)])
        assert result.exit_code == 2, result.output
        assert "epsilon" in result.output
        assert not out_json.exists()

    @pytest.mark.parametrize("support", ["1,x", "1.5", "0", "-1", "2,,0", None])
    def test_unusable_support_exit_2(self, runner, tmp_path, support):
        probes, y, _ = self.setup_instance(runner, tmp_path)
        out_json = tmp_path / "r.json"
        support_args = [] if support is None else ["--support", support]
        result = runner.invoke(main, ["recover", "--probes", str(probes),
                                      "--measurements", str(y), "--method", "oracle",
                                      *support_args, "--out-json", str(out_json)])
        assert result.exit_code == 2, result.output
        assert "--support" in result.output
        assert not out_json.exists()

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_y_outside_normal_range_exit_2(self, runner, tmp_path, scale):
        probes, y, _ = self.setup_instance(runner, tmp_path)
        header, y_vec = fileio.read_measurements(y)
        dims = ProblemDims(header["n"], header["m"], header["p"])
        fileio.write_measurements(y, dims, header["variant"], y_vec * scale)
        result = runner.invoke(main, ["recover", "--probes", str(probes),
                                      "--measurements", str(y), "--method", "bpdn",
                                      "--out-json", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert "rescale" in result.output

    def test_nonconvergence_exit_4(self, runner, tmp_path):
        probes, y, _ = self.setup_instance(runner, tmp_path, noise=0.0)
        result = runner.invoke(main, ["recover", "--probes", str(probes),
                                      "--measurements", str(y), "--method", "bpdn",
                                      "--max-iter", "2",
                                      "--out-json", str(tmp_path / "r.json")])
        assert result.exit_code == 4

    # sha256 of the recovery JSON and of the estimate CSV, re-recorded when
    # FISTA took Phi z by linearity and ||Phi||^2 came from Lanczos (x_hat
    # moved by at most 2.5e-16 relative, iterations and flags held), and when
    # these (16, 64, 4) operators took the dense kernel (x_hat moved by at
    # most 1.5e-16 of max|x_hat|, iterations and flags held), and when FISTA
    # stepped through the held Gram of these operators (x_hat moved by at
    # most 3.8e-16 folded and 7.8e-16 linear, relative in l2, iterations and
    # flags held); any bit that moves shows here.
    @pytest.mark.parametrize("variant, noise, json_sha, csv_sha", [
        ("folded", 0.0, "d0be548d17d0dfd88f63dc0c23fa46bf08f956ac0bb79184026aebc2c31e9991",
         "dcd5ac4e1cfa5bee8269bdbf24851bb840286a9db6e2e13d410753cb56b4017c"),
        ("linear", 0.05, "48ed6164fdf10af1fc69fa2458e5075b84a97a099011a49a2f8cdda348f8e45c",
         "f06dba7676b2f24be78a1c261ee75f91d73b84e4ca916862af60e0e301d242a4"),
    ], ids=["folded-0.0", "linear-0.05"])
    def test_frozen_output(self, runner, tmp_path, variant, noise, json_sha, csv_sha):
        probes = gen(runner, tmp_path, n=16, m=64, p=4, seed=21)
        linear, folded = tmp_path / "lin.csv", tmp_path / "fold.csv"
        assert invoke(runner, "simulate", "--probes", probes, "--random-sparse", 3,
                      "--channel-seed", 8, "--noise-eps", noise, "--noise-seed", 4,
                      "--out", linear, "--folded-out", folded).exit_code == 0
        out_json, out_csv = tmp_path / "rec.json", tmp_path / "x.csv"
        result = invoke(runner, "recover", "--probes", probes,
                        "--measurements", folded if variant == "folded" else linear,
                        "--method", "bpdn", "--out-json", out_json, "--out-csv", out_csv)
        assert result.exit_code == 0, result.output
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out_json, out_csv)]
        assert digests == [json_sha, csv_sha]

    def test_collapsed_lambda_bracket(self, runner, tmp_path):
        # On this noisy linear (256, 1024, 16) file the loose inner solves
        # squeeze the lambda bracket to adjacent floats with the residual
        # still 2.3e-6 * eps off the budget; the solve must still land on it.
        probes = gen(runner, tmp_path, n=256, m=1024, p=16, seed=derive_seed(3, 3, 2))
        y = tmp_path / "y.csv"
        assert invoke(runner, "simulate", "--probes", probes, "--random-sparse", 32,
                      "--channel-seed", derive_seed(3, 4, 2), "--noise-eps", 0.05,
                      "--noise-seed", derive_seed(3, 5, 2), "--out", y).exit_code == 0
        out_json = tmp_path / "rec.json"
        out_csv = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = invoke(runner, "recover", "--probes", probes, "--measurements", y,
                            "--method", "bpdn", "--out-json", out_json, "--out-csv", out_csv)
        assert result.exit_code == 0, result.output
        assert json.loads(out_json.read_text())["converged"] is True
        header, y_vec = fileio.read_measurements(y)
        _, x_hat = fileio.read_vector_file(out_csv)
        residual = np.linalg.norm(linear_operator(fileio.read_probes(probes)).apply(x_hat) - y_vec)
        assert residual <= header["epsilon"] * (1 + SolverConfig().feas_tol)


class TestExperiment:
    CONFIG = {
        "kind": "phase_transition",
        "n_grid": [4], "m_grid": [8, 12], "p_grid": [2], "s_grid": [1],
        "trials": 5, "base_seed": 11, "method": "bpdn",
    }

    def write_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.CONFIG))
        return path

    def test_deterministic_across_runs_and_threads(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        for name, threads in [("r1", 1), ("r2", 8)]:
            result = invoke(runner, "experiment", "--config", cfg,
                            "--out-dir", tmp_path / name, "--threads", threads)
            assert result.exit_code == 0, result.output
        assert (tmp_path / "r1/trials.csv").read_bytes() == (tmp_path / "r2/trials.csv").read_bytes()
        rec1 = json.loads((tmp_path / "r1/record.json").read_text())
        rec2 = json.loads((tmp_path / "r2/record.json").read_text())
        for rec in (rec1, rec2):
            for trial in rec["trials"]:
                trial["wall_time"] = 0.0
        assert rec1 == rec2

    def test_resume_skips_complete_points(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert invoke(runner, "experiment", "--config", cfg, "--out-dir", out).exit_code == 0
        first = (out / "trials.csv").read_bytes()
        result = invoke(runner, "experiment", "--config", cfg, "--out-dir", out, "--resume")
        assert result.exit_code == 0
        assert "reusing 2 complete grid points" in result.output
        assert (out / "trials.csv").read_bytes() == first

    @pytest.mark.parametrize("name, damage, where", [
        ("trials.csv", lambda t: t[:-5], "line 11"),
        ("trials.csv", lambda t: t.replace("\n0,1,", "\n1,", 1), "line 3"),
        ("trials.csv", lambda t: t.replace("\n0,2,", "\n0,2,abc", 1), "line 4"),
        ("manifest.json", lambda t: t[: len(t) // 2], ""),
        # rows the config's grid does not hold: 2 points x 5 trials
        ("trials.csv", lambda t: t + "7" + t.splitlines()[-1][1:] + "\n", "(7, 4) is outside"),
        ("trials.csv", lambda t: t + "0,9" + t.splitlines()[1][3:] + "\n", "(0, 9) is outside"),
        ("trials.csv", lambda t: t + "-1" + t.splitlines()[1][1:] + "\n", "(-1, 0) is outside"),
        ("trials.csv", lambda t: t + t.splitlines()[1] + "\n", "(0, 0) appears twice"),
        ("trials.csv", lambda t: t.replace(",4,8,2,1,", ",4,12,2,1,", 1), "(0, 0) does not match"),
        ("trials.csv", lambda t: t.replace(",1,0,bpdn,", ",1,0.5,bpdn,", 1), "(0, 0) does not"),
        ("trials.csv", lambda t: t.replace("\n0,0,", "\n0,0,1", 1), "(0, 0) does not match"),
    ], ids=["cut_row", "missing_cell", "abc_cell", "cut_manifest", "grid_outside",
            "trial_outside", "grid_negative", "duplicate_trial", "other_m", "other_epsilon",
            "other_seed"])
    def test_resume_damaged_input_exit_2(self, runner, tmp_path, name, damage, where):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert invoke(runner, "experiment", "--config", cfg, "--out-dir", out).exit_code == 0
        path = out / name
        path.write_text(damage(path.read_text()))
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        result = invoke(runner, "experiment", "--config", cfg, "--out-dir", out, "--resume")
        assert result.exit_code == 2
        assert str(path) in result.output and where in result.output
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_resume_rejects_other_config(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert invoke(runner, "experiment", "--config", cfg, "--out-dir", out).exit_code == 0
        changed = dict(self.CONFIG, base_seed=99)
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(changed))
        result = runner.invoke(main, ["experiment", "--config", str(cfg2),
                                      "--out-dir", str(out), "--resume"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("numerics", [None, "complex-fft/fista-3-calls/power-iteration"],
                             ids=["missing", "other"])
    def test_resume_rejects_other_numerics(self, runner, tmp_path, numerics):
        # rows computed by other arithmetic differ from a fresh run's in their
        # last bits; resuming would mix both in one trials.csv
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert invoke(runner, "experiment", "--config", cfg, "--out-dir", out).exit_code == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        if numerics is None:
            del manifest["numerics"]
        else:
            manifest["numerics"] = numerics
        path.write_text(json.dumps(manifest))
        trials = (out / "trials.csv").read_bytes()
        result = invoke(runner, "experiment", "--config", cfg, "--out-dir", out, "--resume")
        assert result.exit_code == 2
        assert "numerics" in result.output
        assert (out / "trials.csv").read_bytes() == trials
        assert json.loads(path.read_text()) == manifest

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_exit_2(self, runner, tmp_path, threads):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", "--config", str(cfg),
                                      "--out-dir", str(out), "--threads", str(threads)])
        assert result.exit_code == 2
        assert not (out / "trials.csv").exists()

    def test_ignored_solver_fields_exit_2(self, runner, tmp_path):
        # epsilon and s come from the grids; SolverConfig has no such fields
        for field, value in (("epsilon", 0.5), ("s_target", 7)):
            cfg = tmp_path / f"{field}.json"
            cfg.write_text(json.dumps(dict(self.CONFIG, solver={field: value})))
            out = tmp_path / f"out_{field}"
            result = runner.invoke(main, ["experiment", "--config", str(cfg),
                                          "--out-dir", str(out)])
            assert result.exit_code == 2
            assert field in result.output
            assert not (out / "trials.csv").exists()

    @pytest.mark.parametrize("changes", [
        {"epsilon_grid": [-0.1]},
        {"epsilon_grid": [float("nan")]},
        {"epsilon_grid": [float("inf")]},
        {"m_grid": [2], "n_grid": [4]},
        {"s_grid": [9], "n_grid": [4], "p_grid": [2]},
        {"s_grid": [-1]},
        {"kind": "rip_scaling", "s_grid": [0]},
        {"n_grid": [4.7]},
        {"s_grid": [1.9]},
        {"p_grid": [True]},
        {"trials": 2.5},
    ], ids=["negative-eps", "nan-eps", "inf-eps", "m-below-n", "s-above-np", "negative-s",
            "rip-zero-s", "fractional-n", "fractional-s", "bool-p", "fractional-trials"])
    def test_unusable_grid_value_exit_2(self, runner, tmp_path, changes):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, **changes)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", "--config", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "invalid config" in result.output
        assert not (out / "trials.csv").exists()

    @pytest.mark.parametrize("config", [
        "abc", [], 5, None,
        dict(CONFIG, solver="x"),
        dict(CONFIG, solver={"max_iter": "x"}),
        dict(CONFIG, solver={"feas_tol": None}),
        dict(CONFIG, epsilon_grid=["a"]),
        dict(CONFIG, epsilon_grid=[None]),
        dict(CONFIG, epsilon_grid=[True]),
        dict(CONFIG, kind="rip_scaling", snorm_mode="x"),
        dict(CONFIG, kind="stability", decay="x"),
        dict(CONFIG, base_seed="x"),
        dict(CONFIG, success_threshold="x"),
        dict(CONFIG, success_threshold=float("nan")),
        dict(CONFIG, block_difference="yes"),
        dict(CONFIG, unknown_field=1),
        {k: v for k, v in CONFIG.items() if k != "kind"},
        # a setting that the kind never reads
        dict(CONFIG, kind="rip_scaling", method="iht"),
        dict(CONFIG, kind="rip_scaling", solver={"max_iter": 10}),
        dict(CONFIG, kind="rip_scaling", success_threshold=0.5),
        dict(CONFIG, kind="rip_scaling", decay=2.0),
        dict(CONFIG, kind="rip_scaling", block_difference=True),
        dict(CONFIG, kind="rip_scaling", epsilon_grid=[0.0, 0.05]),
        dict(CONFIG, snorm_mode="randomized_lower_bound"),
        dict(CONFIG, decay=2.0),
        dict(CONFIG, block_difference=True),
        dict(CONFIG, kind="coded_aperture", snorm_mode="randomized_lower_bound"),
        dict(CONFIG, kind="coded_aperture", decay=2.0),
        dict(CONFIG, kind="stability", snorm_mode="randomized_lower_bound"),
        dict(CONFIG, kind="stability", block_difference=True),
    ], ids=["string", "list", "number", "null", "string-solver", "string-max-iter",
            "null-tolerance", "string-eps", "null-eps", "bool-eps", "unknown-snorm-mode",
            "string-decay", "string-seed", "string-threshold", "nan-threshold",
            "string-flag", "unknown-field", "missing-kind",
            "rip-method", "rip-solver", "rip-threshold", "rip-decay", "rip-flag", "rip-eps",
            "phase-snorm-mode", "phase-decay", "phase-flag", "coded-snorm-mode",
            "coded-decay", "stability-snorm-mode", "stability-flag"])
    def test_ill_typed_config_exit_2(self, runner, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", "--config", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "invalid config" in result.output
        assert not (out / "trials.csv").exists()

    def test_config_that_fails_to_run_exit_2(self, runner, tmp_path):
        # finite, but the noise makes ||y||^2 overflow in the solver
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, epsilon_grid=[1e300])))
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", "--config", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "rescale y" in result.output
        assert not (out / "trials.csv").exists()

    def test_missing_config_exit_3(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", "--config", str(tmp_path / "missing.json"),
                                      "--out-dir", str(out)])
        assert result.exit_code == 3, result.output
        assert "missing.json" in result.output
        assert not out.exists()

    def test_rip_scaling_prints_snorms_and_slope_fit(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "rip_scaling", "n_grid": [4], "m_grid": [8, 16], "p_grid": [2],
            "s_grid": [2], "trials": 2, "base_seed": 12,
        }))
        result = invoke(runner, "experiment", "--config", cfg, "--out-dir", tmp_path / "out")
        assert result.exit_code == 0, result.output
        assert result.output.count("mean_snorm=") == 2
        assert "slope fit n=4 p=2 s=2: " in result.output

    def test_malformed_json_exit_2_with_position(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": phase_transition}')
        result = runner.invoke(main, ["experiment", "--config", str(bad),
                                      "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "line 1" in result.output and "column" in result.output

    def test_manifest_written(self, runner, tmp_path):
        from sparsep.experiments import ExperimentConfig

        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert invoke(runner, "experiment", "--config", cfg, "--out-dir", out).exit_code == 0
        manifest = fileio.read_manifest(out / "manifest.json")
        expected = fileio.config_hash(ExperimentConfig.from_dict(self.CONFIG))
        assert manifest["config_hash"] == expected
        assert manifest["numerics"] == NUMERICS
        assert manifest["tool_version"]


# Small integers keep every valid config a small run: a large but valid
# trials or grid value is slow work, not bad input.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 16) | st.floats() | st.text(max_size=4)
    | st.sampled_from(["phase_transition", "rip_scaling", "stability", "coded_aperture",
                       "bpdn", "iht", "oracle", "exact", "randomized_lower_bound"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["max_iter", "feas_tol", "opt_tol"]) | st.text(max_size=4), inner,
        max_size=3),
    max_leaves=6,
)


@settings(max_examples=80, deadline=None)
@given(
    field=st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)] + ["extra"]),
    value=_JSON_VALUES,
)
@example(field="solver", value="x")
@example(field="epsilon_grid", value=["a"])
def test_any_json_value_for_one_field_exits_0_or_2(field, value):
    config = {"kind": "phase_transition", "n_grid": [4], "m_grid": [8], "p_grid": [2],
              "s_grid": [1], "trials": 1, "base_seed": 3, "method": "bpdn", field: value}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = CliRunner().invoke(main, ["experiment", "--config", str(cfg),
                                           "--out-dir", str(Path(tmp) / "out")])
    assert result.exit_code in (0, 2), (result.output, result.exception)


class TestBoundary:
    """Errors become exit codes in one place, SparsepCommand.invoke."""

    def test_every_command_uses_the_boundary(self):
        assert main.commands
        for command in main.commands.values():
            assert isinstance(command, SparsepCommand)

    @pytest.mark.parametrize("error, code", [(ParameterError("bad value"), 2),
                                             (FileNotFoundError("no such file"), 3)],
                             ids=["sparsep-error", "os-error"])
    def test_new_command_inherits_exit_codes(self, runner, error, code):
        @main.command("raise-for-test")
        def raise_for_test():
            raise error

        try:
            result = runner.invoke(main, ["raise-for-test"])
        finally:
            del main.commands["raise-for-test"]
        assert result.exit_code == code, result.output
        assert str(error) in result.output

    @pytest.mark.parametrize("command", ["gen-probes", "simulate", "recover", "experiment"])
    def test_output_in_missing_directory_exit_3(self, runner, tmp_path, command):
        probes = gen(runner, tmp_path)
        y = tmp_path / "y.csv"
        assert invoke(runner, "simulate", "--probes", probes, "--random-sparse", 1,
                      "--out", y).exit_code == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TestExperiment.CONFIG))
        missing = tmp_path / "missing" / "out.csv"
        # a missing out-dir is created, so the experiment's sits under a file
        target = cfg / "out" if command == "experiment" else missing
        args = {
            "gen-probes": ["--n", 4, "--m", 8, "--p", 2, "--seed", 1, "--out", missing],
            "simulate": ["--probes", probes, "--random-sparse", 1, "--out", missing],
            "recover": ["--probes", probes, "--measurements", y, "--method", "bpdn",
                        "--out-json", missing],
            "experiment": ["--config", cfg, "--out-dir", target],
        }[command]
        result = runner.invoke(main, [command] + [str(a) for a in args])
        assert result.exit_code == 3, result.output
        assert str(target) in result.output
        assert not target.exists()

    @pytest.mark.parametrize("target", ["probes", "channels", "measurements", "config",
                                        "manifest.json", "trials.csv"])
    def test_non_utf8_input_exit_2(self, runner, tmp_path, target):
        probes = gen(runner, tmp_path)
        y, h = tmp_path / "y.csv", tmp_path / "h.csv"
        assert invoke(runner, "simulate", "--probes", probes, "--random-sparse", 1,
                      "--out", y, "--save-channels", h).exit_code == 0
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(TestExperiment.CONFIG))
        assert invoke(runner, "experiment", "--config", cfg, "--out-dir", out).exit_code == 0
        path, args = {
            "probes": (probes, ["recover", "--probes", probes, "--measurements", y,
                                "--method", "bpdn", "--out-json", tmp_path / "r.json"]),
            "channels": (h, ["simulate", "--probes", probes, "--channels", h,
                             "--out", tmp_path / "y2.csv"]),
            "measurements": (y, ["recover", "--probes", probes, "--measurements", y,
                                 "--method", "bpdn", "--out-json", tmp_path / "r.json"]),
            "config": (cfg, ["experiment", "--config", cfg, "--out-dir", tmp_path / "o"]),
            "manifest.json": (out / target, ["experiment", "--config", cfg,
                                             "--out-dir", out, "--resume"]),
            "trials.csv": (out / target, ["experiment", "--config", cfg,
                                          "--out-dir", out, "--resume"]),
        }[target]
        path.write_bytes(b"\xff\xfe\xc3(" + path.read_bytes())
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 2, (result.output, result.exception)
        assert path.name in result.output and "not UTF-8" in result.output
