"""Stage file I/O: the CSV writer, its float formatting kernel, and file hashes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml

import reference as ref
from mqcnmr import runner, sequence, spectra
from mqcnmr.config import load_config, preset_path
from mqcnmr.errors import GridSizeError
from mqcnmr.spectra import CoherenceSpectrum, spectrum_to_csv

SPECIALS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, 1e16, 1e-5]


def special_spectrum():
    """A spectrum of several slices of rows, with every special float in the
    columns of every (tau, mu) block and on each axis."""
    n_tau, n_mu, n_freq = 3, 4, 8400
    rng = np.random.default_rng(7)
    parts = rng.normal(size=(2, n_tau, n_mu, n_freq)) * np.exp(rng.uniform(-30, 30, n_freq))
    parts[0, :, :, :len(SPECIALS)] = SPECIALS
    parts[1, :, :, len(SPECIALS):2 * len(SPECIALS)] = SPECIALS[::-1]
    parts[1, :, :, :len(SPECIALS)] = SPECIALS[3:] + SPECIALS[:3]
    data = parts[0].astype(complex)
    data.imag = parts[1]
    freqs = np.fft.fftfreq(n_freq, 1e-6)
    freqs[1:1 + len(SPECIALS)] = SPECIALS
    spec = CoherenceSpectrum(data=data, mu=np.arange(-2, 2), freqs_hz=freqs,
                             taus=np.array([-0.0, 5e-324, 1e16]))
    assert data.size > 10 * spectra.ROWS_PER_WRITE
    return spec


def test_csv_with_special_values_in_every_block_matches_per_row_writer(tmp_path):
    spec = special_spectrum()
    ref.spectrum_csv_rows(spec, tmp_path / "rows.csv")
    spectrum_to_csv(spec, tmp_path / "bulk.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bulk.csv", "rows.csv"]


def test_csv_of_single_precision_data_matches_per_row_writer(tmp_path):
    # float32 parts widen to float64 exactly; abs is taken in single precision
    spec = special_spectrum()
    spec = CoherenceSpectrum(data=spec.data.astype(np.complex64), mu=spec.mu,
                             freqs_hz=spec.freqs_hz, taus=spec.taus)
    ref.spectrum_csv_rows(spec, tmp_path / "rows.csv")
    spectrum_to_csv(spec, tmp_path / "bulk.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_csv_writer_starts_no_process(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("spectrum_to_csv started a process")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    spectrum_to_csv(special_spectrum(), tmp_path / "spectra.csv")


def kernel_lines(values):
    """The formatter's reprs of a 1-D float array, one a line, formatted as the
    CSV writer formats a slice of rows' values."""
    out = []
    for chunk in np.array_split(values, -(-values.size // (3 * spectra.ROWS_PER_WRITE))):
        reprs = spectra._Reprs(chunk)
        cells = np.empty((chunk.size, reprs.width + 1), dtype=np.uint8)
        reprs.write(cells[:, :-1])
        cells[:, -1] = ord("\n")
        flat = cells.ravel()
        out.append(flat[flat != 0].tobytes())
    return b"".join(out)


def repr_lines(values):
    return "".join(f"{v!r}\n" for v in values.tolist()).encode()


def test_formatter_matches_repr_on_random_bit_patterns():
    # every sign, exponent and mantissa: NaNs and infinities included, and
    # about half of them at or above 2^50, where repr formats them
    values = np.random.default_rng(30).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64).view(float)
    assert kernel_lines(values) == repr_lines(values)


def test_formatter_matches_repr_on_single_precision_values():
    # short decimals widened from float32: many of them exact, so a dropped
    # half is a tie broken to even
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2 ** 32, 200_000, dtype=np.uint64).astype(np.uint32)
    with np.errstate(invalid="ignore"):
        values = np.concatenate([bits.view(np.float32).astype(float),
                                 rng.normal(size=200_000).astype(np.float32).astype(float)])
    assert kernel_lines(values) == repr_lines(values)


def test_formatter_matches_repr_at_layout_and_fallback_boundaries():
    edges = [1e-4, 1e-5, 1e16, 9.999999999999999e15, 1e15, 123456789012345.6, 0.1, 0.5, 1.5,
             2.5, 3906.25, -250000.0, 1e100, 1.5e-300, 1e-100, 1.7976931348623157e308,
             5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 2.0 ** 50, 2.0 ** 50 + 2,
             2.0 ** 53 + 2, 2.0 ** -1000, 0.0, -0.0, float("nan"), float("inf"), float("-inf")]
    near = np.array(edges)
    with np.errstate(over="ignore"):  # past the largest float: inf
        near = np.concatenate([near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf)])
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)]
                      + [float(f"9.999999999999999e{k}") for k in range(-300, 300)])
    values = np.concatenate([near, -near, powers, -powers])
    assert kernel_lines(values) == repr_lines(values)


@pytest.mark.parametrize("value", [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                                   2.0 ** 50 + 2, 1e300, 0.5, 2.0 ** -1000],
                         ids=["zero", "negative_zero", "nan", "inf", "negative_inf",
                              "q_at_most_1", "e2_at_least_0", "power_of_two",
                              "small_power_of_two"])
def test_formatter_hands_values_outside_its_path_to_repr(value):
    values = np.array([value, 1.25e-7])
    assert spectra._shortest(values)[2].tolist() == [False, True]
    assert kernel_lines(values) == repr_lines(values)


def test_formatter_covers_spectrum_like_values_without_fallback():
    # the values of a spectrum and its axes: no value of them goes to repr
    rng = np.random.default_rng(32)
    values = np.concatenate([rng.normal(size=30_000) * np.exp(rng.uniform(-30, 30, 30_000)),
                             np.fft.fftfreq(4096, 1e-6), np.linspace(1e-6, 1e-3, 24)])
    values = values[values != 0]
    assert spectra._shortest(values)[2].all()
    assert kernel_lines(values) == repr_lines(values)


def signals_run(tmp_path, shape):
    """A run directory holding random signals of ``shape`` (n_phi, n_t, n_tau)."""
    run = tmp_path / "run"
    run.mkdir()
    rng = np.random.default_rng(3)
    np.save(run / "signals.npy", rng.normal(size=shape) + 1j * rng.normal(size=shape))
    (run / "signals_meta.json").write_text(json.dumps(
        {"dt": 1e-6, "taus": [1e-5 * k for k in range(shape[2])], "t_p": 0.0, "t_m": 0.0,
         "window": 0.0}))
    return run


def test_spectra_stage_charge_covers_a_long_csv_block(tmp_path, monkeypatch):
    # signals (2, 4096, 1) at zero-pad 64: two (tau, mu) blocks of 262,144
    # rows.  Rows are formatted ROWS_PER_WRITE at a time and the metadata's
    # lists are made after the CSV, so the stage's traced peak stays under
    # its charge: a budget at that peak is refused, with every file left as
    # it was, and one 50% above it accepted
    run = signals_run(tmp_path, (2, 4096, 1))
    tracemalloc.start()
    try:
        runner.spectra_stage(run, zero_pad=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert before["spectra.csv"].count(b"\r\n") == 1 + 2 * 64 * 4096
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", peak)
    with pytest.raises(GridSizeError, match="the transform at zero-pad 64 needs"):
        runner.spectra_stage(run, zero_pad=64)
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", int(1.5 * peak))
    runner.spectra_stage(run, zero_pad=64)
    assert (run / "spectra.csv").read_bytes() == before["spectra.csv"]


_FRESH_SPECTRA_STAGE = """
import sys, tracemalloc
from mqcnmr import runner, sequence
from mqcnmr.errors import GridSizeError

tracemalloc.start()
runner.spectra_stage(sys.argv[1])
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
sequence.MEMORY_BUDGET_BYTES = peak
try:
    runner.spectra_stage(sys.argv[1])
except GridSizeError:
    print("refused", peak)
else:
    print("accepted", peak)
"""


def test_spectra_stage_memory_charge_covers_a_fresh_process(tmp_path):
    # signals (64, 4096, 8) at zero-pad 1, where the transform's arrays set
    # the peak.  numpy loads its fft package on its first transform, about
    # 120 kB of module objects, which put the first stage in a new
    # interpreter above its charge; that stage must be refused a budget at
    # its traced peak
    run = signals_run(tmp_path, (64, 4096, 8))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(runner.__file__))}
    result = subprocess.run([sys.executable, "-c", _FRESH_SPECTRA_STAGE, str(run)],
                            capture_output=True, text=True, env=env, check=True, timeout=300)
    assert result.stdout.split()[0] == "refused", result.stdout


def test_spectra_stage_memory_charge_covers_the_hash_buffer(tmp_path, monkeypatch):
    # signals (8, 512, 4) at zero-pad 1: a spectrum small enough that the
    # buffer which hashes each stage file weighs in the stage's peak.  After
    # a first stage (warm: numpy's fft loaded), a budget at a second stage's
    # traced peak is refused
    run = signals_run(tmp_path, (8, 512, 4))
    runner.spectra_stage(run)
    tracemalloc.start()
    try:
        runner.spectra_stage(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", peak)
    with pytest.raises(GridSizeError, match="the transform at zero-pad 1 needs"):
        runner.spectra_stage(run)


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, 3 * (1 << 20) + 5])
def test_chunked_hash_is_the_sha256_of_the_bytes(tmp_path, size):
    path = tmp_path / "file"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert runner._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_hashing_a_large_file_allocates_no_copy_of_it(tmp_path):
    path = tmp_path / "big"
    with open(path, "wb") as fh:
        for _ in range(20):
            fh.write(os.urandom(1 << 20))
    tracemalloc.start()
    try:
        runner._sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (1 << 20), f"peak {peak / 2 ** 20:.2f} MiB"


def test_manifest_hashes_of_the_shipped_presets_are_the_sha256_of_the_files(tmp_path):
    runs = []
    for name in ("two_spin_ms", "fivecb_style", "open_demo"):
        run = tmp_path / name
        runner.simulate(load_config(preset_path(f"runs/{name}.yaml")), out_dir=run)
        runner.spectra_stage(run)
        runner.fit_stage(run, mu=2, frequencies=[0.0])
        runs.append(run)
    path = preset_path("runs/nonideality_sweep.yaml")
    runner.sweep(yaml.safe_load(path.read_text()), base_dir=path.parent,
                 out_root=tmp_path / "sweep")
    for run in sorted((tmp_path / "sweep").iterdir()):
        runner.spectra_stage(run)
        runs.append(run)
    checked = 0
    for run in runs:
        for manifest in run.glob("manifest_*.json"):
            doc = json.loads(manifest.read_text())
            for name, digest in doc["files"].items():
                assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest
                checked += 1
            if "upstream" in doc:
                up = run / doc["upstream"]["manifest"]
                assert hashlib.sha256(up.read_bytes()).hexdigest() == doc["upstream"]["sha256"]
    assert checked == 3 * 8 + 8 * 5
