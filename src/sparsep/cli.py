"""Command-line front end.

Exit codes: 0 success, 2 usage/validation error, 3 I/O error,
4 solver did not converge.  All randomness comes from explicit seed
flags or config fields; nothing is seeded from the clock.
"""

import collections
import datetime
import json
import sys

import click
import numpy as np

from . import __version__, fileio, rng
from .errors import SparsepError
from .experiments import NUMERICS, ExperimentConfig, grid_points, run_experiment
from .operators import folded_operator, linear_operator
from .probes import ProblemDims, generate_probes
from .solvers import SolverConfig, solve_bpdn, solve_iht, solve_oracle_ls


class IOFailure(click.ClickException):
    exit_code = 3


def _guard_io(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


def _usage(message):
    raise click.UsageError(message)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="sparsep")
def main():
    """Sparse multichannel separation with random probes.

    Exit codes: 0 ok, 2 usage/validation, 3 I/O, 4 non-convergence.
    """


@main.command("gen-probes")
@click.option("--n", type=int, required=True, help="Channel length.")
@click.option("--m", type=int, required=True, help="Probe length (m >= n).")
@click.option("--p", type=int, required=True, help="Number of sources.")
@click.option("--seed", type=int, required=True, help="Probe seed (64-bit).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def gen_probes(n, m, p, seed, out):
    """Generate a probe ensemble and write it to OUT."""
    try:
        dims = ProblemDims(n=n, m=m, p=p)
    except SparsepError as exc:
        _usage(str(exc))
    probes = generate_probes(dims, seed)
    _guard_io(fileio.write_probes, out, probes)
    energy = np.sum(probes.phi**2, axis=1)
    click.echo(
        f"probes: n={n} m={m} p={p} seed={seed} -> {out}; "
        f"mean energy {np.mean(energy):.6f} (min {energy.min():.6f}, max {energy.max():.6f})"
    )


def _read(reader, path):
    """``reader(path)`` with I/O errors as exit 3 and bad content as exit 2."""
    try:
        return _guard_io(reader, path)
    except SparsepError as exc:
        _usage(str(exc))


@main.command("simulate")
@click.option("--probes", "probes_path", type=click.Path(exists=False), required=True)
@click.option("--channels", "channels_path", type=click.Path(), default=None,
              help="Channel file to convolve; alternative to --random-sparse.")
@click.option("--random-sparse", "sparsity", type=int, default=None,
              help="Draw an s-sparse random channel instead of reading one.")
@click.option("--channel-seed", type=int, default=0, show_default=True)
@click.option("--noise-eps", type=float, default=0.0, show_default=True,
              help="Add noise with exactly this l2 norm.")
@click.option("--noise-seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Linear-convolution measurement file.")
@click.option("--folded-out", type=click.Path(dir_okay=False), default=None,
              help="Also write the folded measurements here.")
@click.option("--save-channels", type=click.Path(dir_okay=False), default=None,
              help="Persist the (possibly random) channel vector.")
def simulate(probes_path, channels_path, sparsity, channel_seed, noise_eps,
             noise_seed, out, folded_out, save_channels):
    """Form y = Phi_lin h (+ optional exact-norm noise) from a probe file."""
    probes = _read(fileio.read_probes, probes_path)
    dims = probes.dims
    if (channels_path is None) == (sparsity is None):
        _usage("provide exactly one of --channels or --random-sparse")
    if channels_path is not None:
        header, h = _read(fileio.read_channels, channels_path)
        if (header["n"], header["p"]) != (dims.n, dims.p):
            _usage(
                f"channel dims (n={header['n']}, p={header['p']}) do not match "
                f"probes (n={dims.n}, p={dims.p})"
            )
    else:
        if sparsity < 0 or sparsity > dims.signal_len:
            _usage(f"--random-sparse must be in [0, {dims.signal_len}]")
        h = rng.sparse_channel(
            rng.derive_seed(channel_seed, 1), rng.derive_seed(channel_seed, 2),
            dims.signal_len, sparsity,
        )
    if not 0.0 <= noise_eps < np.inf:
        _usage(f"--noise-eps must be finite and >= 0, got {noise_eps}")

    op_lin = linear_operator(probes)
    y = op_lin.apply(h)
    if noise_eps > 0:
        y = y + rng.noise_with_norm(noise_seed, y.size, noise_eps)
    _guard_io(fileio.write_measurements, out, dims, "linear", y, epsilon=noise_eps)
    if folded_out:
        op_fold = folded_operator(probes)
        y_fold = op_fold.apply(h)
        if noise_eps > 0:
            y_fold = y_fold + rng.noise_with_norm(
                rng.derive_seed(noise_seed, 1), y_fold.size, noise_eps
            )
        _guard_io(fileio.write_measurements, folded_out, dims, "folded", y_fold, epsilon=noise_eps)
    if save_channels:
        _guard_io(fileio.write_channels, save_channels, dims.n, dims.p, h)
    click.echo(f"measurements: {out} (||y||={np.linalg.norm(y):.6g}, noise eps={noise_eps})")


@main.command("recover")
@click.option("--probes", "probes_path", type=click.Path(), required=True)
@click.option("--measurements", "meas_path", type=click.Path(), required=True)
@click.option("--method", type=click.Choice(["bpdn", "iht", "oracle"]), required=True)
@click.option("--epsilon", type=float, default=None,
              help="Noise budget; defaults to the measurement file's epsilon.")
@click.option("--s-target", type=int, default=0, help="Sparsity for IHT.")
@click.option("--support", type=str, default=None,
              help="Comma-separated true support for --method oracle "
                   "(1-based, matching the file-format convention).")
@click.option("--max-iter", type=int, default=5000, show_default=True)
@click.option("--out-json", type=click.Path(dir_okay=False), required=True)
@click.option("--out-csv", type=click.Path(dir_okay=False), default=None)
def recover(probes_path, meas_path, method, epsilon, s_target, support,
            max_iter, out_json, out_csv):
    """Recover the channel vector from a measurement file."""
    probes = _read(fileio.read_probes, probes_path)
    header, y = _read(fileio.read_measurements, meas_path)
    dims = probes.dims
    if (header["n"], header["m"], header["p"]) != (dims.n, dims.m, dims.p):
        _usage("measurement dims do not match probe dims")
    op = folded_operator(probes) if header["variant"] == "folded" else linear_operator(probes)
    if epsilon is None:
        epsilon = float(header.get("epsilon", 0.0))
    if not 0.0 <= epsilon < np.inf:
        _usage(f"epsilon must be finite and >= 0, got {epsilon}")
    try:
        cfg = SolverConfig(max_iter=max_iter)
        if method == "bpdn":
            result = solve_bpdn(op, y, epsilon, cfg)
        elif method == "iht":
            result = solve_iht(op, y, s_target, cfg)
        else:
            if support is None:
                _usage("--method oracle requires --support")
            # flag is 1-based per the format convention; arrays are 0-based
            tokens = [tok.strip() for tok in support.split(",") if tok.strip() != ""]
            if not all(tok.isdecimal() and int(tok) >= 1 for tok in tokens):
                _usage(f"--support must be comma-separated 1-based indices, got {support!r}")
            indices = [int(tok) - 1 for tok in tokens]
            result = solve_oracle_ls(op, y, indices)
    except SparsepError as exc:
        _usage(str(exc))
    meta = {"n": dims.n, "m": dims.m, "p": dims.p, "variant": header["variant"],
            "epsilon": epsilon}
    _guard_io(fileio.write_recovery, out_json, out_csv, result, meta)
    click.echo(
        f"{method}: residual={result.residual_norm:.6g} l1={result.l1_norm:.6g} "
        f"iterations={result.iterations} converged={result.converged}"
    )
    if not result.converged:
        sys.exit(4)


def _utc_now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@main.command("experiment")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--resume", is_flag=True, default=False,
              help="Skip grid points already complete in OUT_DIR's trials.csv.")
def experiment(config_path, out_dir, threads, resume):
    """Run a Monte Carlo harness from a JSON config."""
    import pathlib

    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    except json.JSONDecodeError as exc:
        _usage(f"malformed config JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except SparsepError as exc:
        _usage(f"invalid config: {exc}")
    cfg_hash = fileio.config_hash(cfg)

    out = pathlib.Path(out_dir)
    _guard_io(out.mkdir, parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    trials_path = out / "trials.csv"
    record_path = out / "record.json"

    reuse = ()
    if resume and manifest_path.exists() and trials_path.exists():
        manifest = _read(fileio.read_manifest, manifest_path)
        if manifest.get("config_hash") != cfg_hash:
            _usage("--resume: existing manifest was produced by a different config")
        if manifest.get("numerics") != NUMERICS:
            _usage(f"--resume: existing trials were computed with numerics "
                   f"{manifest.get('numerics')!r}, not {NUMERICS!r}; run without --resume")
        previous = _read(fileio.read_trials_csv, trials_path)
        counts = collections.Counter(row.grid_index for row in previous)
        complete = {gi for gi, c in counts.items() if c >= cfg.trials}
        reuse = [r for r in previous if r.grid_index in complete]
        click.echo(f"resume: reusing {len(complete)} complete grid points")

    started = _utc_now()
    try:
        record = run_experiment(cfg, threads=threads, reuse=reuse)
    except SparsepError as exc:  # e.g. an epsilon so large that ||y||^2 overflows
        _usage(f"config cannot be run: {exc}")
    finished = _utc_now()

    _guard_io(fileio.write_trials_csv, trials_path, record.trials)
    _guard_io(fileio.write_record_json, record_path, record)
    _guard_io(
        fileio.write_manifest,
        manifest_path,
        tool_version=__version__,
        cfg_hash=cfg_hash,
        numerics=NUMERICS,
        inputs={"config": str(config_path)},
        outputs={"record": str(record_path), "trials": str(trials_path)},
        started_at=started,
        finished_at=finished,
    )
    points = grid_points(cfg)
    for summary in record.aggregates["per_point"]:
        bits = [f"grid[{summary['grid_index']}]"]
        bits.append(f"n={summary['n']} m={summary['m']} p={summary['p']} s={summary['s']}")
        if "success_rate" in summary:
            bits.append(f"success={summary['success_rate']:.3f}")
        if "mean_snorm" in summary:
            bits.append(f"mean_snorm={summary['mean_snorm']:.5f}")
        click.echo("  ".join(bits))
    for fit in record.aggregates.get("fits", []):
        click.echo(f"slope fit n={fit['n']} p={fit['p']} s={fit['s']}: {fit['slope']:.4f}")
    click.echo(f"{len(record.trials)} trials over {len(points)} grid points -> {out_dir}")


if __name__ == "__main__":
    main()
