"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Golden values (success rate, regression delta) were frozen from seeded
calibration runs and are exactly reproducible.
"""

import time
from itertools import combinations

import numpy as np
from click.testing import CliRunner

from sparsep import rng
from sparsep.cli import main as cli_main
from sparsep.experiments import ExperimentConfig, run_experiment
from sparsep.operators import (
    build_dense_folded,
    build_dense_linear,
    folded_operator,
    linear_operator,
)
from sparsep.probes import ProblemDims, generate_probes
from sparsep.snorm import snorm_exact, snorm_randomized, rip_delta
from sparsep.solvers import SolverConfig, reference_bpdn, solve_bpdn

# frozen by the calibration run at base_seed=2024 (criterion 8)
GOLDEN_SUCCESS_RATE = 1.0


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _dense_dft(m):
    w = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(w, w) / m) / np.sqrt(m)


def test_criterion_01_operator_equivalence(fold_matrix):
    d = ProblemDims(n=4, m=8, p=2)
    fold = fold_matrix(d.m, d.n)
    f = _dense_dft(d.m)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        ps = generate_probes(d, seed)
        folded = build_dense_folded(ps)
        linear = build_dense_linear(ps)
        worst = max(worst, np.max(np.abs(folded - fold @ linear)))
        g = np.fft.fft(np.roll(ps.phi, 1 - d.n, axis=1), axis=1)
        for k in range(d.p):
            block = f.conj().T @ np.diag(g[k]) @ f[:, : d.n]
            worst = max(worst, np.max(np.abs(block - folded[:, k * d.n : (k + 1) * d.n])))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _report(1, ok, f"dense folded vs fold@linear and FFT form: max err {worst:.2e}, {elapsed:.3f}s")


def test_criterion_02_matrix_free_correctness():
    d = ProblemDims(n=8, m=16, p=3)
    ps = generate_probes(d, 5)
    g = np.random.default_rng(5)
    worst_apply = 0.0
    for op, dense in [
        (linear_operator(ps), build_dense_linear(ps)),
        (folded_operator(ps), build_dense_folded(ps)),
    ]:
        for _ in range(20):
            x = g.standard_normal(d.signal_len)
            ref = dense @ x
            worst_apply = max(
                worst_apply, np.linalg.norm(op.apply(x) - ref) / np.linalg.norm(ref)
            )
    worst_adj = 0.0
    for op in (linear_operator(ps), folded_operator(ps)):
        for _ in range(50):
            x = g.standard_normal(op.input_len)
            y = g.standard_normal(op.output_len)
            gap = abs(op.apply(x) @ y - x @ op.adjoint(y))
            worst_adj = max(worst_adj, gap / (np.linalg.norm(x) * np.linalg.norm(y)))
    ok = worst_apply < 1e-10 and worst_adj < 1e-10
    _report(2, ok, f"apply vs dense {worst_apply:.2e}, adjoint pairing {worst_adj:.2e}")


def test_criterion_03_fold_spectrum(fold_matrix):
    gaps = []
    for m, n in [(8, 4), (16, 5)]:
        smax = np.linalg.svd(fold_matrix(m, n), compute_uv=False)[0]
        gaps.append(abs(smax - np.sqrt(2.0)))
    smax1 = np.linalg.svd(fold_matrix(8, 1), compute_uv=False)[0]
    gaps.append(abs(smax1 - 1.0))
    ok = all(gap < 1e-12 for gap in gaps)
    _report(3, ok, f"sigma_max gaps {[f'{g:.1e}' for g in gaps]}")


def test_criterion_04_proof_identities():
    d = ProblemDims(n=4, m=8, p=2)
    ps = generate_probes(d, 3)
    g = np.fft.fft(np.roll(ps.phi, 1 - d.n, axis=1), axis=1)
    f = _dense_dft(d.m)
    vecs = {}
    for k in range(d.p):
        for w in range(d.m):
            v = np.zeros(d.signal_len, dtype=complex)
            v[k * d.n : (k + 1) * d.n] = np.conj(f[w, : d.n])
            vecs[(k, w)] = v
    resolution = sum(np.outer(v, np.conj(v)) for v in vecs.values())
    err_id = np.max(np.abs(resolution - np.eye(d.signal_len)))
    expansion = np.zeros((d.signal_len, d.signal_len), dtype=complex)
    for k in range(d.p):
        for j in range(d.p):
            for w in range(d.m):
                coef = np.conj(g[k, w]) * g[j, w]
                expansion += coef * np.outer(vecs[(k, w)], np.conj(vecs[(j, w)]))
    dense = build_dense_folded(ps)
    err_gram = np.max(np.abs(expansion - dense.T @ dense))
    ok = err_id < 1e-10 and err_gram < 1e-10
    _report(4, ok, f"sum f f* vs I {err_id:.2e}, Gram vs rank-1 expansion {err_gram:.2e}")


def test_criterion_05_snorm_oracle_agreement():
    worst = 0.0
    lower_ok = True
    for i in range(20):
        g = np.random.default_rng(600 + i)
        a = g.standard_normal((6, 6))
        a = (a + a.T) / 2
        for s in (1, 2, 3):
            exact = snorm_exact(a, s).value
            brute = max(
                np.linalg.norm(a[np.ix_(c, c)], 2) for c in combinations(range(6), s)
            )
            worst = max(worst, abs(exact - brute))
            rnd = snorm_randomized(a, s, trials=4, seed=i).value
            lower_ok = lower_ok and rnd <= exact + 1e-14
    ok = worst <= 1e-12 and lower_ok
    _report(5, ok, f"max |exact - enumerator| {worst:.2e}, randomized <= exact: {lower_ok}")


def test_criterion_06_rip_consequence():
    d = ProblemDims(n=4, m=16, p=2)
    ps = generate_probes(d, 42)
    delta = rip_delta(ps, 2).value
    phi = build_dense_folded(ps)
    g = np.random.default_rng(17)
    violations = 0
    for _ in range(200):
        sup = g.choice(d.signal_len, 2, replace=False)
        x = np.zeros(d.signal_len)
        x[sup] = g.standard_normal(2)
        ratio = np.linalg.norm(phi @ x) ** 2 / np.linalg.norm(x) ** 2
        if not ((1 - delta) - 1e-12 <= ratio <= (1 + delta) + 1e-12):
            violations += 1
    ok = violations == 0
    _report(6, ok, f"delta_2={delta:.6f}, violations {violations}/200")


def test_criterion_07_solver_certification():
    combos = [(3, 2), (4, 2), (2, 4), (4, 4), (3, 4)]  # np <= 16 throughout
    worst_rel = 0.0
    feasible = True
    for i in range(20):
        n, p = combos[i % len(combos)]
        d = ProblemDims(n=n, m=n * p + n, p=p)
        ps = generate_probes(d, 1000 + i)
        op = folded_operator(ps)
        h = np.zeros(d.signal_len)
        sup = rng.rand_support(rng.derive_seed(i, 2), d.signal_len, 2)
        h[sup] = rng.gaussians(rng.derive_seed(i, 3), 2)
        clean = op.apply(h)
        if i % 4 == 0:
            eps, y = 0.0, clean
        else:
            eps = 0.15 * np.linalg.norm(clean)
            y = clean + rng.noise_with_norm(i + 70, d.m, 0.8 * eps)
        ref_obj = np.sum(np.abs(reference_bpdn(build_dense_folded(ps), y, eps)))
        cfg = SolverConfig()
        res = solve_bpdn(op, y, eps, cfg)
        worst_rel = max(worst_rel, abs(res.l1_norm - ref_obj) / (1 + ref_obj))
        budget = max(eps, cfg.feas_tol * np.linalg.norm(y))
        feasible = feasible and res.residual_norm <= budget * (1 + cfg.feas_tol)
    ok = worst_rel <= 1e-4 and feasible
    _report(7, ok, f"worst objective gap {worst_rel:.2e} over 20 instances, feasible: {feasible}")


def test_criterion_08_exact_recovery_regime():
    cfg = ExperimentConfig(
        kind="phase_transition",
        n_grid=(8,), m_grid=(24,), p_grid=(4,), s_grid=(2,),
        trials=100, base_seed=2024, method="bpdn",
        success_threshold=1e-4, solver=SolverConfig(max_iter=5000),
    )
    start = time.perf_counter()
    record = run_experiment(cfg, threads=2)
    elapsed = time.perf_counter() - start
    rate = record.aggregates["per_point"][0]["success_rate"]
    ok = rate >= 0.9 and rate == GOLDEN_SUCCESS_RATE and elapsed < 120.0
    _report(8, ok, f"success rate {rate:.2f} (golden {GOLDEN_SUCCESS_RATE}), {elapsed:.1f}s")


def test_criterion_09_scaling_law():
    cfg = ExperimentConfig(
        kind="rip_scaling",
        n_grid=(4,), m_grid=(8, 16, 32, 64), p_grid=(2,), s_grid=(2,),
        trials=50, base_seed=2024,
    )
    record = run_experiment(cfg, threads=2)
    slope = record.aggregates["fits"][0]["slope"]
    ok = -0.65 <= slope <= -0.35
    _report(9, ok, f"log-mean-snorm vs log-m slope {slope:.4f} (theory -1/2)")


def test_criterion_10_stability_band():
    eps = 0.05
    cfg = ExperimentConfig(
        kind="stability",
        n_grid=(8,), m_grid=(48,), p_grid=(2,), s_grid=(2,),
        trials=50, base_seed=99, epsilon_grid=(eps, 2 * eps),
        solver=SolverConfig(max_iter=8000),
    )
    record = run_experiment(cfg, threads=2)
    medians = {pt["epsilon"]: pt["median_error"] for pt in record.aggregates["per_point"]}
    ratio = medians[2 * eps] / medians[eps]
    ok = 1.0 <= ratio <= 3.5
    _report(10, ok, f"median error ratio eps->2eps: {ratio:.3f}")


def test_criterion_11_linear_circular_consistency():
    d = ProblemDims(n=8, m=32, p=2)
    worst = 0.0
    for seed in range(10):
        ps = generate_probes(d, 400 + seed)
        h = np.zeros(d.signal_len)
        sup = rng.rand_support(rng.derive_seed(seed, 9), d.signal_len, 2)
        h[sup] = rng.gaussians(rng.derive_seed(seed, 31), 2)
        opl, opf = linear_operator(ps), folded_operator(ps)
        rl = solve_bpdn(opl, opl.apply(h), 0.0, SolverConfig())
        rf = solve_bpdn(opf, opf.apply(h), np.sqrt(2.0) * 0.0, SolverConfig())
        worst = max(worst, np.linalg.norm(rl.x_hat - rf.x_hat) / np.linalg.norm(h))
    ok = worst <= 1e-5
    _report(11, ok, f"worst linear/folded disagreement {worst:.2e} over 10 instances")


def test_criterion_12_end_to_end_determinism(tmp_path):
    config = {
        "kind": "phase_transition",
        "n_grid": [4], "m_grid": [8, 12], "p_grid": [2], "s_grid": [1],
        "trials": 6, "base_seed": 7, "method": "bpdn",
    }
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    runner = CliRunner()
    blobs = []
    for name, threads in [("a", 1), ("b", 1), ("c", 8)]:
        out = tmp_path / name
        result = runner.invoke(
            cli_main,
            ["experiment", "--config", str(cfg_path), "--out-dir", str(out),
             "--threads", str(threads)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        blobs.append((out / "trials.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(12, ok, f"trial CSVs byte-identical across runs and thread counts: {ok}")
