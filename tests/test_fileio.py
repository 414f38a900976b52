import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsep import fileio
from sparsep.errors import DataError, FormatError
from sparsep.experiments import ExperimentConfig, TrialRow
from sparsep.probes import ProblemDims, generate_probes


def test_float_format_roundtrips_exactly():
    g = np.random.default_rng(0)
    for x in list(g.standard_normal(200)) + [0.0, -0.0, 1e-300, 1e300, 1 / 3]:
        assert float(fileio.fmt_float(x)) == x


def test_probe_roundtrip_bit_identical(tmp_path):
    ps = generate_probes(ProblemDims(4, 8, 2), 7)
    path = tmp_path / "probes.csv"
    fileio.write_probes(path, ps)
    again = fileio.read_probes(path)
    assert np.array_equal(again.phi, ps.phi)
    assert np.array_equal(again.g, ps.g)
    assert again.seed == ps.seed and again.dims == ps.dims


def test_probe_header_fields(tmp_path):
    ps = generate_probes(ProblemDims(4, 8, 2), 7)
    path = tmp_path / "probes.csv"
    fileio.write_probes(path, ps)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {
        "format_version": 1, "kind": "probes", "n": 4, "m": 8, "p": 2, "seed": 7
    }


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('{"format_version": 2, "kind": "probes"}\n1.0\n')
    with pytest.raises(FormatError):
        fileio.read_vector_file(path)


def test_wrong_kind_rejected(tmp_path):
    ps = generate_probes(ProblemDims(2, 4, 1), 1)
    path = tmp_path / "p.csv"
    fileio.write_probes(path, ps)
    with pytest.raises(FormatError):
        fileio.read_channels(path)


def test_channels_roundtrip(tmp_path):
    h = np.linspace(-1, 1, 12)
    path = tmp_path / "h.csv"
    fileio.write_channels(path, n=3, p=4, h=h)
    header, again = fileio.read_channels(path)
    assert np.array_equal(again, h)
    assert header["n"] == 3 and header["p"] == 4


def test_measurements_roundtrip(tmp_path):
    d = ProblemDims(3, 6, 2)
    y = np.arange(8.0) / 7
    path = tmp_path / "y.csv"
    fileio.write_measurements(path, d, "linear", y, epsilon=0.25)
    header, again = fileio.read_measurements(path)
    assert np.array_equal(again, y)
    assert header["variant"] == "linear" and header["epsilon"] == 0.25


def test_measurement_length_checked(tmp_path):
    d = ProblemDims(3, 6, 2)
    path = tmp_path / "y.csv"
    fileio.write_measurements(path, d, "folded", np.zeros(6))
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")  # drop one sample
    with pytest.raises(FormatError):
        fileio.read_measurements(path)


def test_config_hash_stable_and_order_independent():
    cfg = {"b": 1, "a": [2, 3]}
    assert fileio.config_hash(cfg) == fileio.config_hash({"a": [2, 3], "b": 1})
    assert fileio.config_hash(cfg) != fileio.config_hash({"a": [2, 4], "b": 1})


def test_trials_csv_roundtrip(tmp_path):
    rows = [
        TrialRow(grid_index=0, trial_index=0, seed=12345, n=4, m=8, p=2, s=1,
                 epsilon=0.0, method="bpdn", relative_error=1.25e-7,
                 residual=3.5e-9, success=True, converged=True, wall_time=0.37),
        TrialRow(grid_index=0, trial_index=1, seed=9, n=4, m=8, p=2, s=1,
                 epsilon=0.5, method="snorm", snorm=0.875, note="x"),
    ]
    path = tmp_path / "trials.csv"
    fileio.write_trials_csv(path, rows)
    again = fileio.read_trials_csv(path)
    assert again[0].relative_error == rows[0].relative_error
    assert again[0].seed == rows[0].seed
    assert again[0].success is True and again[0].converged is True
    assert again[1].snorm == 0.875
    assert again[1].relative_error is None
    assert again[1].note == "x"
    # wall time never lands in the CSV
    assert "0.37" not in path.read_text()


_floats = st.floats(allow_nan=False)
_cells = st.text(alphabet=st.sampled_from('ab1 ,;"\'\n\r'), max_size=12)
_trial_rows = st.builds(
    TrialRow,
    grid_index=st.integers(0, 10**6),
    trial_index=st.integers(0, 10**6),
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 10**4),
    m=st.integers(1, 10**4),
    p=st.integers(1, 10**4),
    s=st.integers(0, 10**4),
    epsilon=_floats,
    method=_cells,
    relative_error=st.none() | _floats,
    residual=st.none() | _floats,
    snorm=st.none() | _floats,
    success=st.none() | st.booleans(),
    converged=st.none() | st.booleans(),
    psnr=st.none() | _floats,
    wall_time=_floats,
    note=_cells,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(_trial_rows, max_size=5))
def test_trials_csv_roundtrip_property(tmp_path, rows):
    # a carriage return would read back as a line break, so writing one fails
    path = tmp_path / "trials.csv"
    path.unlink(missing_ok=True)
    bad = [(i, name) for i, r in enumerate(rows, start=1) for name in ("method", "note")
           if "\r" in getattr(r, name)]
    if bad:
        i, name = bad[0]
        with pytest.raises(DataError, match=f"row {i}: column '{name}'"):
            fileio.write_trials_csv(path, rows)
        assert not path.exists()
        return
    fileio.write_trials_csv(path, rows)
    assert fileio.read_trials_csv(path) == [dataclasses.replace(r, wall_time=0.0) for r in rows]


@pytest.mark.parametrize("note, damage, message", [
    ("randomized_lower_bound", lambda t: t[:-5], "line 2: truncated row"),
    ('a,"b', lambda t: t[:-3], "unexpected end of data"),
    ("", lambda t: t.replace("0.5,1,", "0.5,yes,"), "line 2: column 'success'"),
    ("", lambda t: t.replace("\n0,", "\n,"), "line 2: column 'grid_index'"),
    ("", lambda t: "", "no header row"),
], ids=["cut_note", "open_quote", "bad_flag", "empty_required", "empty_file"])
def test_damaged_trials_csv_rejected(tmp_path, note, damage, message):
    path = tmp_path / "trials.csv"
    row = TrialRow(grid_index=0, trial_index=0, seed=7, n=4, m=8, p=2, s=1, epsilon=0.0,
                   method="snorm", snorm=0.5, success=True, note=note)
    fileio.write_trials_csv(path, [row])
    path.write_text(damage(path.read_text()))
    with pytest.raises(FormatError, match=re.escape(message)) as info:
        fileio.read_trials_csv(path)
    assert str(path) in str(info.value)


def test_record_json_written(tmp_path):
    cfg = ExperimentConfig(
        kind="phase_transition", n_grid=(4,), m_grid=(8,), p_grid=(2,),
        s_grid=(1,), trials=2, base_seed=0,
    )
    from sparsep.experiments import run_experiment

    record = run_experiment(cfg)
    path = tmp_path / "record.json"
    fileio.write_record_json(path, record)
    payload = json.loads(path.read_text())
    assert payload["config"]["kind"] == "phase_transition"
    assert len(payload["trials"]) == 2
    assert payload["aggregates"]["per_point"][0]["trials"] == 2


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.json"
    fileio.write_manifest(
        path, tool_version="0.1.0", cfg_hash="ab" * 32, numerics="kernel-v1",
        inputs={"config": "c.json"}, outputs={"record": "r.json"},
        started_at="2020-01-01T00:00:00+00:00", finished_at="2020-01-01T00:00:01+00:00",
    )
    manifest = fileio.read_manifest(path)
    assert manifest["config_hash"] == "ab" * 32
    assert manifest["numerics"] == "kernel-v1"
    assert manifest["tool_version"] == "0.1.0"


def test_channels_header_fields(tmp_path):
    path = tmp_path / "h.csv"
    fileio.write_channels(path, n=2, p=3, h=np.zeros(6))
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"format_version": 1, "kind": "channels", "n": 2, "p": 3}


def test_channels_reader_accepts_receiver_id(tmp_path):
    # files written before the field was dropped still read
    path = tmp_path / "h.csv"
    path.write_text('{"format_version": 1, "kind": "channels", "n": 1, "p": 2, '
                    '"receiver_id": 0}\n0.5\n-1\n')
    header, h = fileio.read_channels(path)
    assert np.array_equal(h, [0.5, -1.0]) and header["n"] == 1


def test_non_finite_channel_sample_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text('{"format_version": 1, "kind": "channels", "n": 1, "p": 2}\nnan\n1\n')
    with pytest.raises(DataError):
        fileio.read_channels(path)


def write_probe_file(path, header_changes=None, samples=None):
    header = {"format_version": 1, "kind": "probes", "n": 2, "m": 4, "p": 1, "seed": 0}
    header.update(header_changes or {})
    header = {k: v for k, v in header.items() if v is not None}
    samples = samples if samples is not None else ["0.25"] * 4
    path.write_text(json.dumps(header) + "\n" + "\n".join(samples) + "\n")


def test_non_finite_probe_sample_rejected(tmp_path):
    path = tmp_path / "p.csv"
    write_probe_file(path, samples=["0.25", "nan", "0.25", "0.25"])
    with pytest.raises(DataError, match=re.escape(str(path))):
        fileio.read_probes(path)


def test_unparsable_sample_rejected(tmp_path):
    path = tmp_path / "p.csv"
    write_probe_file(path, samples=["0.25", "abc", "0.25", "0.25"])
    with pytest.raises(FormatError):
        fileio.read_probes(path)


@pytest.mark.parametrize("changes", [{"m": "4"}, {"n": None}, {"p": 1.0}, {"seed": "x"},
                                     {"n": True}])
def test_probe_header_types_checked(tmp_path, changes):
    path = tmp_path / "p.csv"
    write_probe_file(path, changes)
    with pytest.raises(FormatError):
        fileio.read_probes(path)


@pytest.mark.parametrize("changes", [{"variant": None}, {"variant": "circular"},
                                     {"m": "6"}, {"n": None}, {"p": None},
                                     {"epsilon": "0.1"}])
def test_measurement_header_types_checked(tmp_path, changes):
    path = tmp_path / "y.csv"
    fileio.write_measurements(path, ProblemDims(3, 6, 2), "folded", np.zeros(6))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header.update(changes)
    header = {k: v for k, v in header.items() if v is not None}
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(FormatError):
        fileio.read_measurements(path)


def test_header_must_be_an_object(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("[1, 2]\n0.5\n")
    with pytest.raises(FormatError):
        fileio.read_vector_file(path)
