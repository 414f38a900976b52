"""File formats and the one place 1-based conventions meet 0-based arrays.

All numeric files are text: a single-line JSON header carrying
``format_version`` followed by one float per line, printed with 17
significant digits so that write-then-read round-trips every value
exactly.  Metadata (configs, results, manifests) is plain JSON.

Formats (all carry ``format_version``; readers reject other major
versions, and raise FormatError on unparsable samples or on missing or
ill-typed header keys):

* probes        -- header {kind, n, m, p, seed}; p*m samples, row-major
  by source then time.
* channels      -- header {kind, n, p}; n*p samples, blocks concatenated
  by source.  Readers ignore extra header keys, such as the
  ``receiver_id`` older files carry.
* measurements  -- header {kind, variant, n, m, p, epsilon}; m+n-1
  (linear) or m (folded) samples.
* recovery JSON -- RecoveryResult fields plus the estimate as CSV.
* experiment outputs -- record JSON, flat trials CSV, run manifest JSON
  with the canonical config hash.  The trials CSV has one column per
  ``TrialRow`` field, in field order, except ``wall_time`` (so trial CSVs
  are byte-identical across runs and thread counts); each cell is parsed
  by its field's type, and an empty cell is None.  Readers raise
  FormatError on a row of the wrong length, an unparsable cell, a
  truncated last row or a manifest that is not a JSON object; the writer
  raises DataError on a cell holding a carriage return.
"""

import csv
import hashlib
import io
import json
from dataclasses import fields

import numpy as np

from .errors import DataError, DimensionError, FormatError
from .experiments import ExperimentConfig, TrialRow
from .probes import ProblemDims, ProbeSet, is_finite

FORMAT_VERSION = 1


def fmt_float(x):
    """17-significant-digit decimal text; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _check_version(header, path):
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format_version {version!r}")


def write_vector_file(path, header, values):
    header = {"format_version": FORMAT_VERSION, **header}
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True))
        fh.write("\n")
        for x in np.asarray(values, dtype=np.float64).reshape(-1):
            fh.write(fmt_float(x))
            fh.write("\n")


def _header_int(header, key, path):
    value = header.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{path}: header {key!r} must be an integer, got {value!r}")
    return value


def read_vector_file(path):
    with open(path) as fh:
        first = fh.readline()
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: bad header: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header must be a JSON object")
        _check_version(header, path)
        try:
            values = np.array([float(line) for line in fh if line.strip()])
        except ValueError as exc:
            raise FormatError(f"{path}: bad sample: {exc}") from exc
    return header, values


def write_probes(path, probes):
    header = {
        "kind": "probes",
        "n": probes.dims.n,
        "m": probes.dims.m,
        "p": probes.dims.p,
        "seed": probes.seed,
    }
    write_vector_file(path, header, probes.phi)


def read_probes(path):
    header, values = read_vector_file(path)
    if header.get("kind") != "probes":
        raise FormatError(f"{path}: not a probes file")
    n, m, p = (_header_int(header, key, path) for key in ("n", "m", "p"))
    dims = ProblemDims(n=n, m=m, p=p)
    if values.size != dims.p * dims.m:
        raise FormatError(
            f"{path}: expected {dims.p * dims.m} samples, found {values.size}"
        )
    phi = values.reshape(dims.p, dims.m)
    seed = _header_int(header, "seed", path)
    try:
        return ProbeSet.from_time_samples(dims, seed, phi)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_channels(path, n, p, h):
    h = np.asarray(h, dtype=np.float64)
    if h.size != n * p:
        raise DimensionError(f"channel vector must have length {n * p}, got {h.size}")
    header = {"kind": "channels", "n": int(n), "p": int(p)}
    write_vector_file(path, header, h)


def read_channels(path):
    header, values = read_vector_file(path)
    if header.get("kind") != "channels":
        raise FormatError(f"{path}: not a channels file")
    if values.size != _header_int(header, "n", path) * _header_int(header, "p", path):
        raise FormatError(f"{path}: sample count does not match n*p")
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: channel vector contains non-finite samples")
    return header, values


def write_measurements(path, dims, variant, y, epsilon=0.0):
    header = {
        "kind": "measurements",
        "variant": variant,
        "n": dims.n,
        "m": dims.m,
        "p": dims.p,
        "epsilon": float(epsilon),
    }
    write_vector_file(path, header, y)


def read_measurements(path):
    header, values = read_vector_file(path)
    if header.get("kind") != "measurements":
        raise FormatError(f"{path}: not a measurements file")
    n, m, _ = (_header_int(header, key, path) for key in ("n", "m", "p"))
    variant = header.get("variant")
    if variant not in ("linear", "folded"):
        raise FormatError(f"{path}: header 'variant' must be 'linear' or 'folded', got {variant!r}")
    epsilon = header.get("epsilon", 0.0)
    if not is_finite(epsilon):
        raise FormatError(f"{path}: header 'epsilon' must be a finite number, got {epsilon!r}")
    expected = m if variant == "folded" else m + n - 1
    if values.size != expected:
        raise FormatError(f"{path}: expected {expected} samples, found {values.size}")
    return header, values


def write_recovery(json_path, csv_path, result, meta=None):
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "recovery",
        "method": result.method,
        "residual_norm": result.residual_norm,
        "l1_norm": result.l1_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "note": result.note,
    }
    if meta:
        payload.update(meta)
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if csv_path:
        write_vector_file(csv_path, {"kind": "estimate"}, result.x_hat)


def config_hash(config):
    """Stable hash: sha256 of the canonical (sorted, compact) config JSON."""
    if isinstance(config, ExperimentConfig):
        config = config.to_dict()
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_record_json(path, record):
    with open(path, "w") as fh:
        json.dump(
            {"format_version": FORMAT_VERSION, **record.to_dict()},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")


def _flag(text):
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


_PARSERS = {int: int, float: float, bool: _flag, str: str}

# The trials.csv columns, in TrialRow field order: every field but the
# wall-clock time, which would make the file differ between runs.
_TRIAL_FIELDS = tuple(f for f in fields(TrialRow) if f.name != "wall_time")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def write_trials_csv(path, trials):
    """Raises DataError, before writing, on a cell holding a carriage return.

    csv.writer would leave it unquoted and the reader would take it for a
    line break.
    """
    body = [[_cell(getattr(row, f.name)) for f in _TRIAL_FIELDS] for row in trials]
    for i, cells in enumerate(body, start=1):
        for f, cell in zip(_TRIAL_FIELDS, cells):
            if "\r" in cell:
                raise DataError(f"{path}: row {i}: column {f.name!r} holds a carriage return")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in _TRIAL_FIELDS)
        writer.writerows(body)


def read_trials_csv(path):
    """TrialRows from a trials CSV; columns absent from the header read as empty."""
    with open(path, newline="") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: no header row")
        rows = []
        for cells in reader:
            where = f"{path}: line {reader.line_num}"
            if len(cells) != len(header):
                raise FormatError(f"{where}: {len(cells)} cells, header has {len(header)}")
            raw = dict(zip(header, cells))
            values = {}
            for f in _TRIAL_FIELDS:
                cell = raw.get(f.name, "")
                try:
                    values[f.name] = (
                        None if cell == "" and f.default is None else _PARSERS[f.type](cell)
                    )
                except ValueError as exc:
                    raise FormatError(f"{where}: column {f.name!r}: {exc}") from exc
            rows.append(TrialRow(**values))
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not text.endswith("\n"):
        raise FormatError(f"{path}: line {reader.line_num}: truncated row")
    return rows


def write_manifest(path, tool_version, cfg_hash, numerics, inputs, outputs, started_at,
                   finished_at):
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "run_manifest",
        "tool_version": tool_version,
        "config_hash": cfg_hash,
        "numerics": numerics,
        "inputs": inputs,
        "outputs": outputs,
        "started_at": started_at,
        "finished_at": finished_at,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path):
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: bad JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    _check_version(payload, path)
    return payload
