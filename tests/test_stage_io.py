"""Stage file I/O: the CSV writer split across helper processes, and file hashes."""

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
from mqcnmr import _csvrows, runner, sequence, spectra
from mqcnmr.config import load_config, preset_path
from mqcnmr.errors import GridSizeError, MqcnmrError
from mqcnmr.spectra import CSV_VALUES_PER_PROCESS, CoherenceSpectrum, spectrum_to_csv

SPECIALS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, 1e16, 1e-5]


@pytest.fixture
def started(monkeypatch):
    """Every process that subprocess.Popen starts, in order."""
    procs = []
    real = subprocess.Popen

    def popen(args, **kwargs):
        procs.append(real(args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    return procs


def force_cpus(monkeypatch, n):
    monkeypatch.setattr(spectra, "_allowed_cpus", lambda: n)


def special_spectrum():
    """A spectrum above three processes' worth of values, with every special
    float in the columns of every (tau, mu) block and on each axis."""
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
    assert 3 * data.size >= 3 * CSV_VALUES_PER_PROCESS
    return spec


def test_split_csv_bytes_match_per_row_writer_for_any_process_count(tmp_path, monkeypatch,
                                                                     started):
    spec = special_spectrum()
    ref.spectrum_csv_rows(spec, tmp_path / "rows.csv")
    want = (tmp_path / "rows.csv").read_bytes()
    for k in (1, 2, 3):
        force_cpus(monkeypatch, k)
        before = len(started)
        spectrum_to_csv(spec, tmp_path / f"split{k}.csv")
        assert len(started) - before == k - 1
        assert all(proc.returncode == 0 for proc in started)
        assert (tmp_path / f"split{k}.csv").read_bytes() == want, f"{k} processes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "split1.csv",
                                                          "split2.csv", "split3.csv"]


def test_split_csv_of_single_precision_data_matches_one_process(tmp_path, monkeypatch, started):
    # helpers receive float64, which holds every float32 value exactly
    spec = special_spectrum()
    spec = CoherenceSpectrum(data=spec.data.astype(np.complex64), mu=spec.mu,
                             freqs_hz=spec.freqs_hz, taus=spec.taus)
    for k in (1, 2):
        force_cpus(monkeypatch, k)
        spectrum_to_csv(spec, tmp_path / f"split{k}.csv")
    assert len(started) == 1
    assert (tmp_path / "split2.csv").read_bytes() == (tmp_path / "split1.csv").read_bytes()


def test_small_spectrum_and_one_cpu_start_no_helper(tmp_path, monkeypatch, started):
    spec = special_spectrum()
    force_cpus(monkeypatch, 1)
    spectrum_to_csv(spec, tmp_path / "one_cpu.csv")
    force_cpus(monkeypatch, 8)
    small = CoherenceSpectrum(data=spec.data[:, :, :2000], mu=spec.mu,
                              freqs_hz=spec.freqs_hz[:2000], taus=spec.taus)
    assert 3 * small.data.size < 2 * CSV_VALUES_PER_PROCESS
    spectrum_to_csv(small, tmp_path / "small.csv")
    assert started == []


def test_helper_that_cannot_start_has_its_share_formatted_here(tmp_path, monkeypatch):
    spec = special_spectrum()
    force_cpus(monkeypatch, 1)
    spectrum_to_csv(spec, tmp_path / "serial.csv")

    def refuse(*args, **kwargs):
        raise OSError("no more processes")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    force_cpus(monkeypatch, 3)
    spectrum_to_csv(spec, tmp_path / "fallback.csv")
    assert (tmp_path / "fallback.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fallback.csv", "serial.csv"]


@pytest.fixture
def big_run(tmp_path, monkeypatch):
    """A run directory whose spectrum splits three ways, after one spectra
    stage in one process."""
    rng = np.random.default_rng(1)
    shape = (4, 8192, 4)  # (n_phi, n_t, n_tau): 393216 CSV values
    run = tmp_path / "run"
    run.mkdir()
    np.save(run / "signals.npy", rng.normal(size=shape) + 1j * rng.normal(size=shape))
    (run / "signals_meta.json").write_text(json.dumps(
        {"dt": 1e-6, "taus": [0.0, 1e-5, 2e-5, 3e-5], "t_p": 0.0, "t_m": 0.0, "window": 0.0}))
    force_cpus(monkeypatch, 1)
    runner.spectra_stage(run)
    return run


# reads its share, leaves a partial part file, then fails
READ_THEN_FAIL = """import sys
sys.stdin.buffer.read()
open(sys.argv[1], "w").write("tau,partial")
sys.stderr.write("x" * 5000 + "boom")
sys.exit(3)
"""
# exits before reading its share
FAIL_AT_ONCE = """import sys
sys.stderr.write("x" * 5000 + "boom")
sys.exit(3)
"""


@pytest.mark.parametrize("code", [READ_THEN_FAIL, FAIL_AT_ONCE],
                         ids=["read_then_fail", "fail_at_once"])
def test_failing_helper_raises_with_its_status_and_leaves_old_outputs(big_run, monkeypatch,
                                                                      started, code):
    before = {p.name: p.read_bytes() for p in big_run.iterdir()}
    record = subprocess.Popen  # the started fixture's
    monkeypatch.setattr(subprocess, "Popen", lambda args, **kwargs: record(
        [sys.executable, "-c", code, args[-1]], **kwargs))
    force_cpus(monkeypatch, 3)
    with pytest.raises(MqcnmrError, match=r"exited with status 3: x+boom$") as info:
        runner.spectra_stage(big_run)
    assert len(str(info.value)) < 2200  # the tail of stderr, not all of it
    assert len(started) == 2
    assert all(proc.poll() is not None for proc in started)
    assert {p.name: p.read_bytes() for p in big_run.iterdir()} == before


def test_failing_parent_kills_and_reaps_its_helpers(big_run, monkeypatch, started):
    before = {p.name: p.read_bytes() for p in big_run.iterdir()}
    real = _csvrows.write_blocks

    def write_then_fail(fh, freqs, blocks):
        real(fh, freqs, [next(iter(blocks))])
        raise OSError("disk full")

    monkeypatch.setattr(_csvrows, "write_blocks", write_then_fail)
    force_cpus(monkeypatch, 3)
    with pytest.raises(OSError, match="disk full"):
        runner.spectra_stage(big_run)
    assert len(started) == 2
    assert all(proc.poll() is not None for proc in started)
    assert {p.name: p.read_bytes() for p in big_run.iterdir()} == before


def test_split_stage_writes_the_serial_bytes(big_run, monkeypatch, started):
    serial = (big_run / "spectra.csv").read_bytes()
    force_cpus(monkeypatch, 3)
    manifest = runner.spectra_stage(big_run)
    assert len(started) == 2
    assert (big_run / "spectra.csv").read_bytes() == serial
    assert manifest["files"]["spectra.csv"] == hashlib.sha256(serial).hexdigest()
    assert not list(big_run.glob("spectra.csv.*"))


def test_spectra_stage_charge_covers_a_long_csv_block(tmp_path, monkeypatch):
    # signals (2, 4096, 1) at zero-pad 64: two (tau, mu) blocks of 262,144
    # rows, one for this process and one for a helper.  Rows are formatted
    # ROWS_PER_WRITE at a time and the metadata's lists are made after the
    # CSV, so the stage's traced peak stays under its charge: a budget at
    # that peak is refused, with every file left as it was, and one 50%
    # above it accepted
    run = tmp_path / "run"
    run.mkdir()
    rng = np.random.default_rng(3)
    shape = (2, 4096, 1)
    np.save(run / "signals.npy", rng.normal(size=shape) + 1j * rng.normal(size=shape))
    (run / "signals_meta.json").write_text(json.dumps(
        {"dt": 1e-6, "taus": [0.0], "t_p": 0.0, "t_m": 0.0, "window": 0.0}))
    force_cpus(monkeypatch, 2)
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
