import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest

from sparsep.errors import ParameterError
from sparsep.experiments import (
    ExperimentConfig,
    _aggregate,
    _point_summary,
    grid_points,
    replay_trial,
    run_experiment,
)
from sparsep.fileio import write_trials_csv
from sparsep.solvers import SolverConfig


def strip_times(record):
    return [dataclasses.replace(t, wall_time=0.0) for t in record.trials]


def phase_cfg(**overrides):
    base = dict(
        kind="phase_transition",
        n_grid=(4,),
        m_grid=(8,),
        p_grid=(2,),
        s_grid=(1,),
        trials=8,
        base_seed=3,
        method="bpdn",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            phase_cfg(kind="nope")

    def test_rejects_empty_grid(self):
        with pytest.raises(ParameterError):
            phase_cfg(m_grid=())

    @pytest.mark.parametrize("field, value", [
        ("n_grid", (4.7,)), ("m_grid", (8.0,)), ("p_grid", (True,)), ("s_grid", (1.9,)),
        ("s_grid", ("1",)), ("trials", 2.5), ("trials", True),
    ])
    def test_rejects_non_integer_sizes(self, field, value):
        # int() would truncate 4.7 to 4 while record.json kept 4.7
        with pytest.raises(ParameterError, match=field):
            phase_cfg(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = phase_cfg(n_grid=(np.int64(4),), s_grid=(np.int32(1),), trials=np.int64(2))
        assert grid_points(cfg)[0].n == 4

    def test_dict_roundtrip(self):
        cfg = phase_cfg(epsilon_grid=(0.0, 0.1), solver=SolverConfig(max_iter=123))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_scalar_grid_promotion(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "phase_transition", "n_grid": 4, "m_grid": [8], "p_grid": 2,
             "s_grid": 1, "trials": 2}
        )
        assert cfg.n_grid == (4,) and cfg.p_grid == (2,)

    @pytest.mark.parametrize("field, value, grid", [
        ("epsilon", 0.5, "epsilon_grid"), ("s_target", 7, "s_grid"),
    ])
    def test_rejects_solver_fields_set_per_point(self, field, value, grid):
        # trials solve with their grid point's epsilon and s: the solver
        # has no field for them, and the grid carries the value instead
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: value})
        with pytest.raises(ParameterError, match=field):
            ExperimentConfig.from_dict(dict(phase_cfg().to_dict(), solver={field: value}))
        point = grid_points(phase_cfg(p_grid=(4,), **{grid: (value,)}))[0]
        assert getattr(point, grid[:-len("_grid")]) == value

    def test_grid_order(self):
        cfg = phase_cfg(m_grid=(8, 16), s_grid=(1, 2))
        pts = grid_points(cfg)
        assert [(pt.m, pt.s) for pt in pts] == [(8, 1), (8, 2), (16, 1), (16, 2)]


class TestReproducibility:
    def test_identical_records_across_runs_and_threads(self):
        cfg = phase_cfg(trials=6)
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=4)
        assert strip_times(a) == strip_times(b)
        assert a.aggregates == b.aggregates

    def test_aggregate_matches_per_point_filter(self):
        cfg = phase_cfg(m_grid=(8, 12), s_grid=(1, 2), trials=3)
        points = grid_points(cfg)
        rows = list(run_experiment(cfg).trials)
        np.random.default_rng(0).shuffle(rows)
        expected = {"per_point": [
            dict(_point_summary(pt, [r for r in rows if r.grid_index == gi]), grid_index=gi)
            for gi, pt in enumerate(points)
        ]}
        assert json.dumps(_aggregate(points, rows)) == json.dumps(expected)

    @pytest.mark.parametrize("kind", ["phase_transition", "rip_scaling", "stability",
                                      "coded_aperture"])
    def test_replay_single_trial(self, kind):
        cfg = phase_cfg(kind=kind, m_grid=(8, 12), trials=3, epsilon_grid=(0.05,))
        record = run_experiment(cfg)
        for row in record.trials:
            again = replay_trial(cfg, row.grid_index, row.trial_index)
            assert dataclasses.replace(again, wall_time=0.0) == dataclasses.replace(
                row, wall_time=0.0
            )

    def test_seed_changes_results(self):
        a = run_experiment(phase_cfg(base_seed=1))
        b = run_experiment(phase_cfg(base_seed=2))
        assert [t.seed for t in a.trials] != [t.seed for t in b.trials]


class TestPhaseTransition:
    def test_overdetermined_regime_high_success(self):
        # m >= n*p: folded system is square/overdetermined, recovery generic
        cfg = phase_cfg(n_grid=(4,), p_grid=(2,), m_grid=(8,), s_grid=(1,), trials=20)
        record = run_experiment(cfg)
        assert record.aggregates["per_point"][0]["success_rate"] >= 0.95

    def test_success_rate_monotone_in_m_within_noise(self):
        cfg = phase_cfg(
            n_grid=(4,), p_grid=(4,), m_grid=(6, 10, 14, 16), s_grid=(3,), trials=30
        )
        record = run_experiment(cfg)
        pts = record.aggregates["per_point"]
        for lo, hi in zip(pts, pts[1:]):
            slack = 2 * np.hypot(lo["binomial_se"], hi["binomial_se"])
            assert hi["success_rate"] >= lo["success_rate"] - slack

    def test_zero_sparsity_trivial_success(self):
        cfg = phase_cfg(s_grid=(0,), trials=4)
        record = run_experiment(cfg)
        assert record.aggregates["per_point"][0]["success_rate"] == 1.0
        assert all(t.relative_error == 0.0 for t in record.trials)

    def test_nonconvergence_counts_as_failure(self):
        cfg = phase_cfg(
            s_grid=(2,), m_grid=(8,), p_grid=(4,), trials=4,
            solver=SolverConfig(max_iter=3),
        )
        record = run_experiment(cfg)
        assert all((not t.converged) and (not t.success) for t in record.trials)

    def test_iht_method(self):
        cfg = phase_cfg(method="iht", m_grid=(16,), trials=6,
                        solver=SolverConfig(max_iter=2000))
        record = run_experiment(cfg)
        assert record.aggregates["per_point"][0]["success_rate"] >= 0.5

    def test_oracle_method_perfect(self):
        cfg = phase_cfg(method="oracle", trials=6)
        record = run_experiment(cfg)
        assert record.aggregates["per_point"][0]["success_rate"] == 1.0


class TestRipScaling:
    def test_single_point_reproducible(self):
        cfg = ExperimentConfig(
            kind="rip_scaling", n_grid=(4,), m_grid=(8,), p_grid=(2,), s_grid=(2,),
            trials=1, base_seed=12,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.trials[0].snorm == b.trials[0].snorm

    def test_slope_near_minus_half(self):
        cfg = ExperimentConfig(
            kind="rip_scaling", n_grid=(4,), m_grid=(8, 16, 32, 64), p_grid=(2,),
            s_grid=(2,), trials=25, base_seed=2024,
        )
        record = run_experiment(cfg)
        slope = record.aggregates["fits"][0]["slope"]
        assert -0.65 <= slope <= -0.35

    def test_single_m_records_no_fit(self):
        cfg = ExperimentConfig(
            kind="rip_scaling", n_grid=(4,), m_grid=(8,), p_grid=(2,), s_grid=(2,),
            trials=2, base_seed=12, epsilon_grid=(0.0, 0.05),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run_experiment(cfg)
        assert record.aggregates["fits"] == []

    def test_fit_averages_points_at_each_m(self):
        cfg = ExperimentConfig(
            kind="rip_scaling", n_grid=(4,), m_grid=(8, 16), p_grid=(2,), s_grid=(2,),
            trials=2, base_seed=12, epsilon_grid=(0.0, 0.05),
        )
        record = run_experiment(cfg)
        means = [pt["mean_snorm"] for pt in record.aggregates["per_point"]]
        ys = np.log([np.mean(means[:2]), np.mean(means[2:])])
        slope, _ = np.polyfit(np.log([8, 16]), ys, 1)
        [fit] = record.aggregates["fits"]
        assert fit["slope"] == pytest.approx(slope, rel=1e-12)

    def test_delta_nondecreasing_in_s(self):
        cfg = ExperimentConfig(
            kind="rip_scaling", n_grid=(4,), m_grid=(16,), p_grid=(2,),
            s_grid=(1, 2, 3), trials=10, base_seed=5,
        )
        record = run_experiment(cfg)
        means = [pt["mean_snorm"] for pt in record.aggregates["per_point"]]
        assert means[0] <= means[1] <= means[2]

    def test_budget_error_recorded_not_fatal(self):
        cfg = ExperimentConfig(
            kind="rip_scaling", n_grid=(8,), m_grid=(16,), p_grid=(8,),
            s_grid=(4,), trials=1, base_seed=1,
        )
        record = run_experiment(cfg)  # C(64,4)*64 ops exceed nothing; force via env instead
        assert record.trials[0].snorm is not None

    def test_budget_error_flagged(self, monkeypatch):
        monkeypatch.setenv("SPARSEP_WORK_LIMIT", "10")
        cfg = ExperimentConfig(
            kind="rip_scaling", n_grid=(4,), m_grid=(8,), p_grid=(2,), s_grid=(2,),
            trials=2, base_seed=1,
        )
        record = run_experiment(cfg)
        assert all(t.snorm is None and t.note.startswith("budget") for t in record.trials)


class TestStability:
    def test_noiseless_sparse_recovers(self):
        cfg = ExperimentConfig(
            kind="stability", n_grid=(8,), m_grid=(48,), p_grid=(2,), s_grid=(2,),
            trials=3, base_seed=99, epsilon_grid=(0.0,),
        )
        record = run_experiment(cfg)
        assert record.aggregates["per_point"][0]["median_error"] <= 1e-5

    def test_error_ratio_band_and_fit(self):
        eps = 0.05
        cfg = ExperimentConfig(
            kind="stability", n_grid=(8,), m_grid=(48,), p_grid=(2,), s_grid=(2,),
            trials=20, base_seed=99, epsilon_grid=(eps, 2 * eps),
        )
        record = run_experiment(cfg)
        meds = {pt["epsilon"]: pt["median_error"] for pt in record.aggregates["per_point"]}
        ratio = meds[2 * eps] / meds[eps]
        assert 1.0 <= ratio <= 3.5
        fit = record.aggregates["stability_fit"]
        assert fit["noise_coefficient"] > 0
        # exactly sparse instance: compressibility tail is identically zero
        assert all(v == 0.0 for v in fit["tail_terms"].values())

    def test_compressible_variant_reports_tail(self):
        cfg = ExperimentConfig(
            kind="stability", n_grid=(8,), m_grid=(48,), p_grid=(2,), s_grid=(2,),
            trials=3, base_seed=7, epsilon_grid=(0.05,), decay=1.5,
        )
        record = run_experiment(cfg)
        fit = record.aggregates["stability_fit"]
        assert all(v > 0.0 for v in fit["tail_terms"].values())

    def test_same_instance_across_epsilons(self):
        cfg = ExperimentConfig(
            kind="stability", n_grid=(8,), m_grid=(48,), p_grid=(2,), s_grid=(2,),
            trials=2, base_seed=4, epsilon_grid=(0.01, 0.02),
        )
        record = run_experiment(cfg)
        norms = record.aggregates["stability_fit"]["h_norms"]
        assert norms["0"] == norms["1"]


class TestCodedAperture:
    def test_determined_system_near_perfect(self):
        cfg = ExperimentConfig(
            kind="coded_aperture", n_grid=(8,), m_grid=(16,), p_grid=(2,),
            s_grid=(2,), trials=12, base_seed=31,
        )
        record = run_experiment(cfg)
        assert record.aggregates["per_point"][0]["success_rate"] >= 0.99

    def test_all_zero_image_exact(self):
        cfg = ExperimentConfig(
            kind="coded_aperture", n_grid=(8,), m_grid=(16,), p_grid=(2,),
            s_grid=(0,), trials=3, base_seed=2,
        )
        record = run_experiment(cfg)
        assert all(t.relative_error == 0.0 and t.success for t in record.trials)
        assert all(t.psnr is None for t in record.trials)  # zero MSE

    def test_psnr_recorded(self):
        cfg = ExperimentConfig(
            kind="coded_aperture", n_grid=(8,), m_grid=(12,), p_grid=(2,),
            s_grid=(2,), trials=4, base_seed=8,
        )
        record = run_experiment(cfg)
        assert any(t.psnr is not None for t in record.trials)

    def test_block_difference_mode(self):
        cfg = ExperimentConfig(
            kind="coded_aperture", n_grid=(8,), m_grid=(12,), p_grid=(4,),
            s_grid=(3,), trials=8, base_seed=12, block_difference=True,
        )
        record = run_experiment(cfg)
        # frame differences are sparse; the image itself is not
        assert record.aggregates["per_point"][0]["success_rate"] >= 0.7


def test_coded_aperture_preset_calibrated_rate():
    # p=4 subimages of n=16 pixels, s=6, detector m=48: calibrated run
    # clears the 0.8 bar with margin (seeded rate is 1.0)
    cfg = ExperimentConfig(
        kind="coded_aperture", n_grid=(16,), m_grid=(48,), p_grid=(4,),
        s_grid=(6,), trials=25, base_seed=31, solver=SolverConfig(max_iter=8000),
    )
    record = run_experiment(cfg, threads=2)
    assert record.aggregates["per_point"][0]["success_rate"] >= 0.8


# One tiny config per kind (plus IHT and the block-difference preset); the
# sha256 of trials.csv and of the sorted-key aggregates JSON were recorded
# when each kind still had its own runner, so a change to trial selection,
# seeding or aggregation shows here.  All but rip_scaling were re-recorded
# when the operators moved to the real-FFT kernel, and all but rip_scaling
# and phase_transition_iht again when FISTA took Phi z by linearity and
# ||Phi||^2 came from Lanczos (FROZEN_RECORD_FLAGS held both times).
# rip_scaling alone was re-recorded when exact delta_s moved from the dense
# Gram to the lag table (each snorm within 2.1e-16 relative, flags held).
FROZEN_RECORDS = {
    "phase_transition": (
        dict(kind="phase_transition", n_grid=(4,), m_grid=(8,), p_grid=(2,), s_grid=(1, 2),
             trials=2, base_seed=3),
        "fa744823415fca7f04d9406451cdba4d6aa8f9d7532ea13b7bea21898d51f709",
        "b5238289b92af254191e4cc5becc4bcf685b1b4bb6652d4f724bf3f64ed0565a",
    ),
    "phase_transition_iht": (
        dict(kind="phase_transition", n_grid=(4,), m_grid=(12,), p_grid=(2,), s_grid=(2,),
             trials=2, base_seed=3, method="iht", solver=SolverConfig(max_iter=500)),
        "2460a8e3211ee4430d5e1ba7aa40053425e66fc9cd12da7bf50902c40861258b",
        "0e05828a56ca6b92a6926d5a1974340a5a5eb4e3700777b11777060afd65ea38",
    ),
    "rip_scaling": (
        dict(kind="rip_scaling", n_grid=(4,), m_grid=(8, 16), p_grid=(2,), s_grid=(2,),
             trials=2, base_seed=12),
        "60b8d8e1520a670960cba2bbacd6ad3b5e5b9f93efa66305627a9166a74f607f",
        "1647d551c2b2013dd03229bcce85e8d10012eda876523e398db81c9886915706",
    ),
    "stability": (
        dict(kind="stability", n_grid=(4,), m_grid=(12,), p_grid=(2,), s_grid=(1,),
             trials=2, base_seed=5, epsilon_grid=(0.0, 0.05), decay=1.5),
        "b4a1c256cbd333e7f3a61c280227cc6e39587bd1bc341044133b4c1442b9ddc3",
        "5c57ac0eebfacb2779125e2a0f2d3a9563ad4f40dc56cea7c428732d886ba0fa",
    ),
    "coded_aperture": (
        dict(kind="coded_aperture", n_grid=(4,), m_grid=(8,), p_grid=(2,), s_grid=(2,),
             trials=2, base_seed=8),
        "be6382cb2b6f9ef256275b80f2eeabf7908b9f70912426a9aa74d1241f28102b",
        "6ec395f29b50d932c36b4542056921253aec70f392367291e47d44c4e2ed38d3",
    ),
    "coded_aperture_block_difference": (
        dict(kind="coded_aperture", n_grid=(4,), m_grid=(8,), p_grid=(2,), s_grid=(2,),
             trials=2, base_seed=12, block_difference=True),
        "4122cd67f6623262e2c192728368599fc5d568895f880ead154830d1bbe8755c",
        "26b6738538e8b7c3f4090c31cf3d4096bd45baa168fa1504dcab2f509012a373",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_RECORDS))
def test_frozen_record(name, tmp_path):
    config, trials_sha, aggregates_sha = FROZEN_RECORDS[name]
    record = run_experiment(ExperimentConfig(**config))
    path = tmp_path / "trials.csv"
    write_trials_csv(path, record.trials)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == trials_sha
    aggregates = json.dumps(record.aggregates, sort_keys=True).encode()
    assert hashlib.sha256(aggregates).hexdigest() == aggregates_sha


# (success, converged, note) of each trial, recorded with the complex-FFT
# operator kernel; a kernel change that moves only float bits keeps them.
FROZEN_RECORD_FLAGS = {
    "coded_aperture": [(True, True, "")] * 2,
    "coded_aperture_block_difference": [(True, True, "")] * 2,
    "phase_transition": [(True, True, "")] * 4,
    "phase_transition_iht": [(True, True, "")] * 2,
    "rip_scaling": [(None, None, "")] * 4,
    "stability": [(True, True, ""), (True, True, ""), (False, True, ""), (False, True, "")],
}


@pytest.mark.parametrize("name", sorted(FROZEN_RECORD_FLAGS))
def test_frozen_record_flags(name):
    record = run_experiment(ExperimentConfig(**FROZEN_RECORDS[name][0]))
    assert [(t.success, t.converged, t.note) for t in record.trials] == FROZEN_RECORD_FLAGS[name]
