import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest

from sparsep.errors import DataError, ParameterError
from sparsep.experiments import (
    ExperimentConfig,
    _aggregate,
    _point_summary,
    complete_points,
    grid_points,
    replay_trial,
    run_experiment,
)
from sparsep.fileio import config_hash, write_trials_csv
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

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_rejects_base_seed_outside_64_bits(self, seed):
        # derive_seed masks to 64 bits: -1 would run 2**64 - 1's trials and
        # 2**64 + 5 those of 5, each under its own config_hash
        with pytest.raises(ParameterError, match=r"base_seed must be an integer in \[0, 2\*\*64\)"):
            phase_cfg(base_seed=seed)

    @pytest.mark.parametrize("seed, digest", [
        (0, "bbf5522e1b62b39022fe798cda392a39c3a07a5d01a06b4aebf9c8ef54da5023"),
        (2**64 - 1, "26b1c2ebe3119f629f42292b68f0412c9412869305c12a39fff3e5f7e3a08ad0"),
    ])
    def test_base_seed_range_ends_keep_their_hash(self, seed, digest):
        # the range check leaves the hash of a valid config as it was
        assert config_hash(phase_cfg(trials=2, base_seed=seed)) == digest

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
        configs = [
            phase_cfg(trials=6),
            # randomized restricted norms: each trial's restarts step in one
            # lockstep group, and these trials are where a second thread pays
            phase_cfg(kind="rip_scaling", snorm_mode="randomized_lower_bound", n_grid=(8,),
                      m_grid=(16, 24), s_grid=(2, 3), trials=3),
        ]
        for cfg in configs:
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
        eps = (0.0,) if kind == "rip_scaling" else (0.05,)  # rip_scaling reads no epsilon
        cfg = phase_cfg(kind=kind, m_grid=(8, 12), trials=3, epsilon_grid=eps)
        record = run_experiment(cfg)
        for row in record.trials:
            again = replay_trial(cfg, row.grid_index, row.trial_index)
            assert dataclasses.replace(again, wall_time=0.0) == dataclasses.replace(
                row, wall_time=0.0
            )

    def test_reuse_runs_only_missing_trials(self):
        cfg = phase_cfg(m_grid=(8, 12), trials=2)
        full = run_experiment(cfg)
        kept = [r for r in full.trials if r.grid_index == 1] + [full.trials[0]]
        assert complete_points(cfg, kept) == {1}
        again = run_experiment(cfg, reuse=kept)
        assert again.trials[0] is full.trials[0] and again.trials[2:] == full.trials[2:]
        assert strip_times(again) == strip_times(full)

    @pytest.mark.parametrize("change, message", [
        (dict(grid_index=7), r"\(7, 0\) is outside"),
        (dict(grid_index=-1), r"\(-1, 0\) is outside"),
        (dict(trial_index=2), r"\(0, 2\) is outside"),
        (dict(), r"\(0, 0\) appears twice"),
        (dict(m=12), r"\(0, 0\) does not match"),
        (dict(epsilon=0.5), r"\(0, 0\) does not match"),
        (dict(seed=0), r"\(0, 0\) does not match"),
    ], ids=["grid_outside", "grid_negative", "trial_outside", "duplicate_trial", "other_m",
            "other_epsilon", "other_seed"])
    def test_reuse_rejects_rows_that_are_not_trials_of_the_config(self, change, message):
        # one grid point x 2 trials: the reused rows are trial (0, 1), then a
        # changed copy of trial (0, 0), then trial (0, 0) itself
        cfg = phase_cfg(trials=2)
        first, second = run_experiment(cfg).trials
        bad = [second, dataclasses.replace(first, **change), first]
        with pytest.raises(DataError, match="^rows.csv: trial " + message):
            complete_points(cfg, bad, source="rows.csv")
        with pytest.raises(DataError, match="^reuse: trial " + message):
            run_experiment(cfg, reuse=bad)

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
            trials=2, base_seed=12,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run_experiment(cfg)
        assert record.aggregates["fits"] == []

    def test_delta_nondecreasing_in_s(self):
        cfg = ExperimentConfig(
            kind="rip_scaling", n_grid=(4,), m_grid=(16,), p_grid=(2,),
            s_grid=(1, 2, 3), trials=10, base_seed=5,
        )
        record = run_experiment(cfg)
        means = [pt["mean_snorm"] for pt in record.aggregates["per_point"]]
        assert means[0] <= means[1] <= means[2]

    def test_randomized_mode_bounds_exact_from_below(self):
        grid = dict(kind="rip_scaling", n_grid=(4,), m_grid=(8, 16), p_grid=(2,),
                    s_grid=(2,), trials=2, base_seed=12)
        randomized = run_experiment(ExperimentConfig(**grid, snorm_mode="randomized_lower_bound"))
        exact = run_experiment(ExperimentConfig(**grid))
        assert all(t.note == "randomized_lower_bound" for t in randomized.trials)
        # the same trial seeds draw the same probes in both modes
        assert all(r.snorm <= e.snorm for r, e in zip(randomized.trials, exact.trials, strict=True))
        assert len(randomized.aggregates["fits"]) == 1

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
# All but rip_scaling were re-recorded when operators below
# DENSE_KERNEL_ELEMENTS took the dense kernel (FROZEN_RECORD_FLAGS held; the
# largest move was 6.9e-9 relative, in an iht relative_error of 2.1e-8).
# rip_scaling alone was re-recorded when the folded half spectra became
# rfft(roll(phi, 1 - n)) in place of a slice of the full probe spectrum
# (each snorm within 4.2e-16 relative, flags held).  All but rip_scaling
# were re-recorded when FISTA and IHT stepped through the held Gram of small
# operators (FROZEN_RECORD_FLAGS held; largest relative move of x_hat, then
# of relative_error: phase_transition 6.3e-16 and 3.0e-9,
# phase_transition_iht 2.5e-16 and 4.8e-9, stability 8.6e-16 and 2.3e-9,
# coded_aperture 2.0e-15 and 4.7e-9, coded_aperture_block_difference
# 1.3e-16 and 3.2e-10; the relative errors are 1e-8 to 1e-6, so their last
# bits move most).
FROZEN_RECORDS = {
    "phase_transition": (
        dict(kind="phase_transition", n_grid=(4,), m_grid=(8,), p_grid=(2,), s_grid=(1, 2),
             trials=2, base_seed=3),
        "e7f1310bbb621258bd2a0df318979c27445a18e1241a04225f838d086deaf8b1",
        "99d29b4bbb0c4e4ac246359097c8488e77aff4b4e1070fa6e5aa12b57ac6c96a",
    ),
    "phase_transition_iht": (
        dict(kind="phase_transition", n_grid=(4,), m_grid=(12,), p_grid=(2,), s_grid=(2,),
             trials=2, base_seed=3, method="iht", solver=SolverConfig(max_iter=500)),
        "84a6ec0bca3b5f7b60c60d637ad9794ff6e0330195756f66e10a9485551ebb74",
        "41c9cb2b17b16d66e58d2f253873ec4bea7cb556669d775d12ea999efdb0d2ca",
    ),
    "rip_scaling": (
        dict(kind="rip_scaling", n_grid=(4,), m_grid=(8, 16), p_grid=(2,), s_grid=(2,),
             trials=2, base_seed=12),
        "e7356a777491ef2a506de47cf9dd04f25974e8b0adc3206fb863a7cad9ae6480",
        "9c7c756d761eef3600fe197c6f4c70ffd361e205398c4e6ac99481f9c5e2f99b",
    ),
    "stability": (
        dict(kind="stability", n_grid=(4,), m_grid=(12,), p_grid=(2,), s_grid=(1,),
             trials=2, base_seed=5, epsilon_grid=(0.0, 0.05), decay=1.5),
        "c157b688f1fc28756c864b3bb8d8541df85bfd4cd09ef80d200e82e07ae61615",
        "fd102b2fd512171a33a9dcf9248e71164da4a644e17fa85aad6c5565ed1d3f88",
    ),
    "coded_aperture": (
        dict(kind="coded_aperture", n_grid=(4,), m_grid=(8,), p_grid=(2,), s_grid=(2,),
             trials=2, base_seed=8),
        "5da250afe865b190fbae79ae22e34420647854015dfca7e59d4deed73c74d9a0",
        "18c17e88f2361e0b8217d07a13a04048f0fbbbca94a2797fcc2197d0e3e7b418",
    ),
    "coded_aperture_block_difference": (
        dict(kind="coded_aperture", n_grid=(4,), m_grid=(8,), p_grid=(2,), s_grid=(2,),
             trials=2, base_seed=12, block_difference=True),
        "7ae0d41a43a8958f3e599cd18273163469e79535de4538a39d1bf92db64d4782",
        "74130523e3fec5933cb2ad55231b8bc03bf74cf387d044fe3c5ffcd736aff8ed",
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
