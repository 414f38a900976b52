"""File formats: numeric vectors and JSON metadata, none holding a signal index.

All numeric files are text: a single-line JSON header carrying
``format_version`` followed by one float per line, printed with 17
significant digits so that write-then-read round-trips every value
exactly.  Metadata (configs, results, manifests) is plain JSON.  Every
file is UTF-8 text; readers raise FormatError on bytes that are not.

Formats (all carry ``format_version``; readers reject other major
versions, raise FormatError on unparsable samples or on missing or
ill-typed header keys, and DataError on a NaN or infinite sample):

* probes        -- header {kind, n, m, p, seed}; p*m samples, row-major
  by source then time.
* channels      -- header {kind, n, p}; n*p samples, blocks concatenated
  by source.  Readers ignore extra header keys, such as the
  ``receiver_id`` older files carry.
* measurements  -- header {kind, variant, n, m, p, epsilon}; m+n-1
  (linear) or m (folded) samples.  ``epsilon`` is finite and >= 0.
* recovery JSON -- RecoveryResult fields plus the estimate as CSV.
* experiment outputs -- record JSON, flat trials CSV, run manifest JSON
  with the canonical config hash.  The trials CSV has one column per
  ``TrialRow`` field, in field order, except ``wall_time`` (so trial CSVs
  are byte-identical across runs and thread counts); each cell is parsed
  by its field's type, and an empty cell is None.  Readers raise
  FormatError on a row of the wrong length, an unparsable cell, a
  truncated last row or a manifest that is not a JSON object; the writer
  raises DataError on a cell holding a carriage return.
* experiment config -- a JSON object of ExperimentConfig fields; errors
  in its values carry the prefix ``invalid config:``.
"""

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import asdict, fields

import numpy as np

from .errors import DataError, DimensionError, FormatError, SparsepError
from .experiments import ExperimentConfig, TrialRow
from .probes import ProblemDims, ProbeSet, is_finite, is_integer

FORMAT_VERSION = 1


def fmt_float(x):
    """17-significant-digit decimal text; round-trips float64 exactly."""
    return format(float(x), ".17g")


@contextlib.contextmanager
def _open_text(path, newline=None):
    """``path`` as UTF-8 text, the one decoding step of every reader: bytes
    that are not UTF-8 raise FormatError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def _parse_json(text, path, what):
    try:
        return json.loads(text)
    # ValueError covers JSONDecodeError and integers too long to convert;
    # RecursionError, arrays or objects nested too deep
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: bad {what}: {exc}") from exc


def _read_json(path):
    with _open_text(path) as fh:
        return _parse_json(fh.read(), path, "JSON")


def _check_versioned(payload, path, what):
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: {what} must be a JSON object")
    version = payload.get("format_version")
    if not is_integer(version) or version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format_version {version!r}")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format_version": FORMAT_VERSION, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_vector_file(path, header, values):
    header = {"format_version": FORMAT_VERSION, **header}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True))
        fh.write("\n")
        for x in np.asarray(values, dtype=np.float64).reshape(-1):
            fh.write(fmt_float(x))
            fh.write("\n")


def read_vector_file(path):
    with _open_text(path) as fh:
        header = _parse_json(fh.readline(), path, "header")
        _check_versioned(header, path, "header")
        try:
            values = np.array([float(line) for line in fh if line.strip()])
        except UnicodeDecodeError:
            raise  # _open_text names it
        except ValueError as exc:
            raise FormatError(f"{path}: bad sample: {exc}") from exc
    return header, values


# Per vector kind: the header keys it must carry, each an integer or one of
# a few strings, and the number of samples its header asks for.
_LAYOUTS = {
    "probes": ({"n": int, "m": int, "p": int, "seed": int}, lambda h: h["p"] * h["m"]),
    "channels": ({"n": int, "p": int}, lambda h: h["n"] * h["p"]),
    "measurements": ({"n": int, "m": int, "p": int, "variant": ("linear", "folded")},
                     lambda h: h["m"] if h["variant"] == "folded" else h["m"] + h["n"] - 1),
}


def _read_layout(path, kind):
    """Header and samples of a ``kind`` file, checked against ``_LAYOUTS``."""
    header, values = read_vector_file(path)
    if header.get("kind") != kind:
        raise FormatError(f"{path}: not a {kind} file")
    keys, count = _LAYOUTS[kind]
    for key, allowed in keys.items():
        value = header.get(key)
        if allowed is int and not is_integer(value):
            raise FormatError(f"{path}: header {key!r} must be an integer, got {value!r}")
        if allowed is not int and value not in allowed:
            raise FormatError(f"{path}: header {key!r} must be "
                              f"{' or '.join(map(repr, allowed))}, got {value!r}")
    expected = count(header)
    if values.size != expected:
        raise FormatError(f"{path}: expected {expected} samples, found {values.size}")
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: {kind} file contains non-finite samples")
    return header, values


def write_probes(path, probes):
    header = {"kind": "probes", **asdict(probes.dims), "seed": probes.seed}
    write_vector_file(path, header, probes.phi)


def read_probes(path):
    h, values = _read_layout(path, "probes")
    try:
        dims = ProblemDims(n=h["n"], m=h["m"], p=h["p"])
        return ProbeSet(dims, h["seed"], values.reshape(dims.p, dims.m))
    except SparsepError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_channels(path, n, p, h):
    h = np.asarray(h, dtype=np.float64)
    if h.size != n * p:
        raise DimensionError(f"channel vector must have length {n * p}, got {h.size}")
    header = {"kind": "channels", "n": int(n), "p": int(p)}
    write_vector_file(path, header, h)


def read_channels(path):
    return _read_layout(path, "channels")


def write_measurements(path, dims, variant, y, epsilon=0.0):
    header = {"kind": "measurements", "variant": variant, **asdict(dims),
              "epsilon": float(epsilon)}
    write_vector_file(path, header, y)


def read_measurements(path):
    header, values = _read_layout(path, "measurements")
    epsilon = header.get("epsilon", 0.0)
    if not is_finite(epsilon, 0.0):
        raise FormatError(
            f"{path}: header 'epsilon' must be a finite number >= 0, got {epsilon!r}")
    return header, values


def write_recovery(json_path, csv_path, result, meta=None):
    scalars = {f.name: getattr(result, f.name) for f in fields(result) if f.name != "x_hat"}
    _write_json(json_path, {"kind": "recovery", **scalars, **(meta or {})})
    if csv_path:
        write_vector_file(csv_path, {"kind": "estimate"}, result.x_hat)


def config_hash(config):
    """Stable hash: sha256 of the canonical (sorted, compact) config JSON."""
    if isinstance(config, ExperimentConfig):
        config = config.to_dict()
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_record_json(path, record):
    _write_json(path, record.to_dict())


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in _TRIAL_FIELDS)
        writer.writerows(body)


def read_trials_csv(path):
    """TrialRows from a trials CSV; columns absent from the header read as empty."""
    with _open_text(path, newline="") as fh:
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
    _write_json(path, {
        "kind": "run_manifest",
        "tool_version": tool_version,
        "config_hash": cfg_hash,
        "numerics": numerics,
        "inputs": inputs,
        "outputs": outputs,
        "started_at": started_at,
        "finished_at": finished_at,
    })


def read_manifest(path):
    payload = _read_json(path)
    _check_versioned(payload, path, "manifest")
    return payload


def read_config(path):
    """The ExperimentConfig in the JSON file ``path``."""
    raw = _read_json(path)
    try:
        return ExperimentConfig.from_dict(raw)
    except SparsepError as exc:
        raise type(exc)(f"invalid config: {exc}") from exc
