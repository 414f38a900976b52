"""The benchmark's traced run wraps library functions by name.

``perfbench/smoke.py`` exercises the traced runs end to end but takes
about a minute; this binds and restores every traced name in a second,
so a rename in the library fails here instead of breaking ``--trace 1``.
It also checks that every Monte Carlo trial still records its span.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402


def test_tracer_binds_and_restores_every_name():
    with tracer.Patch() as patch:
        tracer.instrument(patch, tracer.Recorder())
    assert patch.restored()


@pytest.mark.parametrize("kind", ["phase_transition", "rip_scaling", "coded_aperture"])
def test_one_trial_span_per_trial(kind):
    # the runner must look its trial functions up when it runs, or the
    # traced run loses its per-trial spans
    from sparsep import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(kind=kind, n_grid=(4,), m_grid=(8,), p_grid=(2,), s_grid=(1, 2),
                           trials=2, base_seed=5)
    recorder = tracer.Recorder()
    with tracer.Patch() as patch:
        tracer.instrument(patch, recorder)
        with recorder.span("test", "test"):
            record = run_experiment(cfg)
    trials = sorted(s[3] for s in recorder.spans if s[1] == "experiments.trial")
    assert trials == sorted(f"test/g{r.grid_index}/t{r.trial_index}" for r in record.trials)
    assert len(trials) == 4


@pytest.mark.parametrize("threads", [1, 2])
def test_solver_spans_stay_under_their_trial(threads):
    # per-layer solver and operator metrics are attributed through these
    # parent links; a solver refactor must not detach them from the trial
    from sparsep import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(kind="phase_transition", n_grid=(4,), m_grid=(8,), p_grid=(2,),
                           s_grid=(1, 2), trials=2, base_seed=5)
    recorder = tracer.Recorder()
    with tracer.Patch() as patch:
        tracer.instrument(patch, recorder)
        with recorder.span("test", "test"):
            run_experiment(cfg, threads=threads)
    trial_span = {s[3]: s[0] for s in recorder.spans if s[1] == "experiments.trial"}
    solves = [s for s in recorder.spans if s[1] == "solvers.solve_bpdn"]
    assert sorted(s[3] for s in solves) == sorted(trial_span)
    for sid, _, parent, op_id, *_ in solves:
        assert parent == trial_span[op_id]
        children = {s[1] for s in recorder.spans if s[2] == sid and s[3] == op_id}
        assert {"solvers.operator_norm_sq", "operators.apply.folded"} <= children
