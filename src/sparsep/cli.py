"""Command-line front end.

Exit codes: 0 success, 2 usage/validation error, 3 I/O error,
4 solver did not converge.  Every subcommand is a SparsepCommand, whose
``invoke`` is the one place errors become exit codes: SparsepError exits
2 and OSError exits 3.  All randomness comes from explicit seed flags or
config fields; nothing is seeded from the clock.
"""

import datetime
import pathlib
import sys
from dataclasses import asdict

import click
import numpy as np

from . import __version__, fileio, rng
from .errors import ParameterError, SparsepError
from .experiments import NUMERICS, complete_points, grid_points, run_experiment
from .operators import MeasurementOperator
from .probes import ProblemDims, _check_seed, generate_probes
from .solvers import SolverConfig, solve_bpdn, solve_iht, solve_oracle_ls


class IOFailure(click.ClickException):
    exit_code = 3


class SparsepCommand(click.Command):
    """A subcommand whose errors leave it with the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SparsepError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except OSError as exc:
            raise IOFailure(str(exc)) from exc


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="sparsep")
def main():
    """Sparse multichannel separation with random probes.

    Exit codes: 0 ok, 2 usage/validation, 3 I/O, 4 non-convergence.
    """


main.command_class = SparsepCommand


@main.command("gen-probes")
@click.option("--n", type=int, required=True, help="Channel length.")
@click.option("--m", type=int, required=True, help="Probe length (m >= n).")
@click.option("--p", type=int, required=True, help="Number of sources.")
@click.option("--seed", type=int, required=True, help="Probe seed (64-bit).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def gen_probes(n, m, p, seed, out):
    """Generate a probe ensemble and write it to OUT."""
    probes = generate_probes(ProblemDims(n=n, m=m, p=p), seed)
    fileio.write_probes(out, probes)
    energy = np.sum(probes.phi**2, axis=1)
    click.echo(
        f"probes: n={n} m={m} p={p} seed={seed} -> {out}; "
        f"mean energy {np.mean(energy):.6f} (min {energy.min():.6f}, max {energy.max():.6f})"
    )


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
    _check_seed(channel_seed, "--channel-seed")
    _check_seed(noise_seed, "--noise-seed")
    probes = fileio.read_probes(probes_path)
    dims = probes.dims
    if (channels_path is None) == (sparsity is None):
        raise ParameterError("provide exactly one of --channels or --random-sparse")
    if channels_path is not None:
        header, h = fileio.read_channels(channels_path)
        if (header["n"], header["p"]) != (dims.n, dims.p):
            raise ParameterError(
                f"channel dims (n={header['n']}, p={header['p']}) do not match "
                f"probes (n={dims.n}, p={dims.p})"
            )
    else:
        if sparsity < 0 or sparsity > dims.signal_len:
            raise ParameterError(f"--random-sparse must be in [0, {dims.signal_len}]")
        h = rng.sparse_channel(
            rng.derive_seed(channel_seed, 1), rng.derive_seed(channel_seed, 2),
            dims.signal_len, sparsity,
        )
    if not 0.0 <= noise_eps < np.inf:
        raise ParameterError(f"--noise-eps must be finite and >= 0, got {noise_eps}")

    for path, variant, seed in ((out, "linear", noise_seed),
                                (folded_out, "folded", rng.derive_seed(noise_seed, 1))):
        if not path:
            continue
        y = MeasurementOperator(probes, variant).apply(h)
        if noise_eps > 0:
            y = y + rng.noise_with_norm(seed, y.size, noise_eps)
        fileio.write_measurements(path, dims, variant, y, epsilon=noise_eps)
        if variant == "linear":
            y_norm = np.linalg.norm(y)
    if save_channels:
        fileio.write_channels(save_channels, dims.n, dims.p, h)
    click.echo(f"measurements: {out} (||y||={y_norm:.6g}, noise eps={noise_eps})")


@main.command("recover")
@click.option("--probes", "probes_path", type=click.Path(), required=True)
@click.option("--measurements", "meas_path", type=click.Path(), required=True)
@click.option("--method", type=click.Choice(["bpdn", "iht", "oracle"]), required=True)
@click.option("--epsilon", type=float, default=None,
              help="Noise budget; defaults to the measurement file's epsilon.")
@click.option("--s-target", type=int, default=0, help="Sparsity for IHT.")
@click.option("--support", type=str, default=None,
              help="Comma-separated true support for --method oracle "
                   "(1-based; converted here to the library's 0-based indices).")
@click.option("--max-iter", type=int, default=5000, show_default=True)
@click.option("--out-json", type=click.Path(dir_okay=False), required=True)
@click.option("--out-csv", type=click.Path(dir_okay=False), default=None)
def recover(probes_path, meas_path, method, epsilon, s_target, support,
            max_iter, out_json, out_csv):
    """Recover the channel vector from a measurement file."""
    probes = fileio.read_probes(probes_path)
    header, y = fileio.read_measurements(meas_path)
    dims = probes.dims
    if (header["n"], header["m"], header["p"]) != (dims.n, dims.m, dims.p):
        raise ParameterError("measurement dims do not match probe dims")
    op = MeasurementOperator(probes, header["variant"])
    if epsilon is None:
        epsilon = float(header.get("epsilon", 0.0))
    if not 0.0 <= epsilon < np.inf:
        raise ParameterError(f"epsilon must be finite and >= 0, got {epsilon}")
    cfg = SolverConfig(max_iter=max_iter)
    if method == "bpdn":
        result = solve_bpdn(op, y, epsilon, cfg)
    elif method == "iht":
        result = solve_iht(op, y, s_target, cfg)
    else:
        if support is None:
            raise ParameterError("--method oracle requires --support")
        # the flag is 1-based, the library's arrays 0-based
        tokens = [tok.strip() for tok in support.split(",") if tok.strip() != ""]
        if not all(tok.isdecimal() and int(tok) >= 1 for tok in tokens):
            raise ParameterError(
                f"--support must be comma-separated 1-based indices, got {support!r}")
        indices = [int(tok) - 1 for tok in tokens]
        result = solve_oracle_ls(op, y, indices)
    meta = {**asdict(dims), "variant": header["variant"], "epsilon": epsilon}
    fileio.write_recovery(out_json, out_csv, result, meta)
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
    cfg = fileio.read_config(config_path)
    cfg_hash = fileio.config_hash(cfg)

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    trials_path = out / "trials.csv"
    record_path = out / "record.json"

    reuse = ()
    if resume and manifest_path.exists() and trials_path.exists():
        manifest = fileio.read_manifest(manifest_path)
        if manifest.get("config_hash") != cfg_hash:
            raise ParameterError("--resume: existing manifest was produced by a different config")
        if manifest.get("numerics") != NUMERICS:
            raise ParameterError(
                f"--resume: existing trials were computed with numerics "
                f"{manifest.get('numerics')!r}, not {NUMERICS!r}; run without --resume")
        previous = fileio.read_trials_csv(trials_path)
        complete = complete_points(cfg, previous, source=trials_path)
        reuse = [r for r in previous if r.grid_index in complete]
        click.echo(f"resume: reusing {len(complete)} complete grid points")

    started = _utc_now()
    record = run_experiment(cfg, threads=threads, reuse=reuse)
    finished = _utc_now()

    fileio.write_trials_csv(trials_path, record.trials)
    fileio.write_record_json(record_path, record)
    fileio.write_manifest(
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
