"""CLI exit codes and the staged pipeline (simulate -> spectra -> fit)."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml

import mqcnmr
from mqcnmr import runner, sequence
from mqcnmr.cli import main
from mqcnmr.config import config_from_dict, load_config, preset_path
from mqcnmr.errors import ConfigError, GridSizeError
from mqcnmr.hamiltonian import EigenSystem
from mqcnmr.runner import load_signals, read_spectrum_csv, simulate, sweep, verify_stage
from mqcnmr.spectra import fft2_coherence


def tiny_doc(**overrides):
    doc = {
        "molecule": {
            "name": "pair",
            "order_parameter": 0.6,
            "couplings_hz": [[0, 1, 5000.0]],
        },
        "engine": "closed",
        "sequence": {
            "t_p": 4e-5,
            "block": {"type": "magic_sandwich"},
            "tau_schedule": [0.0, 9e-5, 1.8e-4],
            "grid": {"n_t": 8, "dt": 2e-6, "n_phi": 5},
            "acquisition": {"t_m": 3e-6, "window": 2e-6},
        },
        "workers": 1,
    }
    doc.update(overrides)
    if doc["engine"] == "open":
        del doc["sequence"]["block"]  # the open engine takes the reversion as ideal
    return doc


def write_config(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_full_pipeline_exit_codes(tmp_path):
    cfg_path = write_config(tmp_path, tiny_doc())
    out = tmp_path / "run1"
    assert main(["simulate", str(cfg_path), "--output", str(out)]) == 0
    assert (out / "signals.npy").exists()
    assert main(["spectra", str(out)]) == 0
    assert (out / "spectra.csv").exists()
    assert main(["fit", str(out), "--mu", "2", "--frequency", "0"]) == 0
    assert (out / "fit_report.json").exists()
    report = json.loads((out / "fit_report.json").read_text())
    assert "rows" in report and "monotone_decreasing" in report


def test_configuration_errors_exit_2(tmp_path):
    assert main(["simulate", str(tmp_path / "missing.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("sequence: [unclosed")
    assert main(["simulate", str(bad)]) == 2
    assert main(["simulate", "--preset", "no_such_preset"]) == 2
    assert main(["spectra", str(tmp_path)]) == 2  # no signals there
    assert main(["fit", str(tmp_path), "--mu", "0", "--frequency", "0"]) == 2
    assert main(["simulate"]) == 2  # neither config nor preset
    # a config pointing at the placeholder molecule template
    doc = tiny_doc(molecule=str(preset_path("molecules/paa_like_8site_template.yaml")))
    assert main(["simulate", str(write_config(tmp_path, doc))]) == 2


@pytest.mark.parametrize("molecule", [
    {"order_parameter": 1.5, "couplings_hz": [[0, 1, 5000.0]]},
    # 3554 MB for the eigensystem and a run's three 2^N x 2^N arrays
    {"order_parameter": 0.6, "couplings_hz": [[j, j + 1, 3000.0] for j in range(12)]},
    {"order_parameter": 0.6,
     "positions_angstrom": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]},
    {"order_parameter": 0.6, "positions_angstrom": [[0.0, 0.0, 0.0]]},
    # a 75 GB coupling table: refused before it is allocated
    {"order_parameter": 0.6, "couplings_hz": [[0, 1, 5000.0]], "n_sites": 100000},
    # 3 x 4^600 values for the eigensystem: past the float range
    {"order_parameter": 0.6, "couplings_hz": [[0, 1, 5000.0]], "n_sites": 600},
], ids=["order_parameter_above_1", "thirteen_sites", "coincident_positions", "one_site",
        "hundred_thousand_sites", "six_hundred_sites"])
def test_invalid_molecule_exits_2_before_any_output(tmp_path, capsys, molecule):
    cfg_path = write_config(tmp_path, tiny_doc(molecule=molecule))
    out = tmp_path / "out"
    assert main(["simulate", str(cfg_path), "--output", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def _with(doc, dotted, value):
    node = doc
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


def _positions(row):
    return {"order_parameter": 0.6, "positions_angstrom": [[0.0, 0.0, 0.0], row]}


@pytest.mark.parametrize("dotted,value,key", [
    ("molecule.order_parameter", "abc", "molecule.order_parameter"),
    ("sequence.tau_schedule", {"count": "x", "step": 1e-5}, "sequence.tau_schedule.count"),
    ("sequence.grid.n_t", "many", "sequence.grid.n_t"),
    ("molecule.couplings_hz", [[0, 1, "strong"]], "molecule.couplings_hz"),
    # float(True) is 1.0: S_zz = 1, a 1 s preparation time, a 1 s dwell
    ("molecule.order_parameter", True, "molecule.order_parameter"),
    ("sequence.t_p", True, "sequence.t_p"),
    ("sequence.grid.dt", True, "sequence.grid.dt"),
    ("molecule.couplings_hz", [[0, 1, True]], "molecule.couplings_hz"),
    ("molecule", _positions([0.0, 0.0]), "molecule.positions_angstrom"),
    ("molecule", _positions([0.0, "abc", 2.0]), "molecule.positions_angstrom"),
    ("molecule", _positions([0.0, float("nan"), 2.0]), "molecule.positions_angstrom"),
    # YAML reads 1e400 (no decimal point) as a string, which float() overflows
    ("molecule", _positions([0.0, 0.0, "1e400"]), "molecule.positions_angstrom"),
    ("molecule", _positions([0.0, 0.0, True]), "molecule.positions_angstrom"),
    # paths: Path(5) raised a TypeError, and str() made a directory "['x', 'y']"
    ("decoherence.omdf", {"family": "tabulated", "path": 5}, "decoherence.omdf.path"),
    ("output", ["x", "y"], "output"),
    ("n_molecules", 0, "n_molecules"),
    ("sequence.block", 5, "sequence.block"),
    ("sequence.tau_schedule", 5, "tau_schedule"),
    ("decoherence.omdf", 5, "decoherence.omdf"),
], ids=["order_parameter", "tau_count", "n_t", "coupling", "order_parameter_bool", "t_p_bool",
        "dt_bool", "coupling_bool", "position_ragged", "position_string", "position_nan",
        "position_overflow", "position_bool", "omdf_path_number", "output_list",
        "n_molecules_zero", "block_number", "tau_schedule_number", "omdf_number"])
def test_non_numeric_config_value_exits_2_before_any_output(tmp_path, capsys, monkeypatch,
                                                            dotted, value, key):
    doc = (tiny_doc(engine="open", decoherence={"sigma_cl": 2.5e5, "omdf": {}})
           if dotted.startswith("decoherence") else tiny_doc())
    cfg_path = write_config(tmp_path, _with(doc, dotted, value))
    monkeypatch.chdir(tmp_path)  # where a relative output directory would go
    assert main(["simulate", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and key in err and "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == [cfg_path.name]


@pytest.mark.parametrize("value", [2.7, True], ids=["fraction", "bool"])
@pytest.mark.parametrize("dotted,key", [
    ("sequence.grid.n_t", "sequence.grid.n_t"),
    ("sequence.grid.n_phi", "sequence.grid.n_phi"),
    ("sequence.tau_schedule", "sequence.tau_schedule.count"),
    ("n_molecules", "n_molecules"),
    ("workers", "workers"),
    ("molecule.n_sites", "molecule.n_sites"),
    ("molecule.couplings_hz", "molecule.couplings_hz"),
], ids=["n_t", "n_phi", "tau_count", "n_molecules", "workers", "n_sites", "coupling_site"])
def test_non_integer_config_value_exits_2_before_any_output(tmp_path, capsys, dotted, key,
                                                            value):
    # int() would truncate 2.7 to 2 and read true as 1
    wrapped = {"sequence.tau_schedule": {"count": value, "step": 9e-5},
               "molecule.couplings_hz": [[0, value, 5000.0]]}.get(dotted, value)
    cfg_path = write_config(tmp_path, _with(tiny_doc(), dotted, wrapped))
    out = tmp_path / "out"
    assert main(["simulate", str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and key in err and "Traceback" not in err
    assert not out.exists()


def assert_configuration_error(capsys, argv, name):
    """``mqcnmr argv`` exits 2 with a one-line configuration error naming
    ``name``; returns stderr."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and name in err and "Traceback" not in err
    return err


def test_negative_acquisition_time_exits_2_before_any_output(tmp_path, capsys):
    doc = _with(tiny_doc(), "sequence.acquisition", {"t_m": -1.0e-6, "window": 0.0})
    out = tmp_path / "out"
    assert_configuration_error(capsys, ["simulate", str(write_config(tmp_path, doc)),
                                        "--output", str(out)], "sequence.acquisition.t_m")
    assert not out.exists()


@pytest.mark.parametrize("dotted,value,key", [
    ("sequence.t_p", float("nan"), "sequence.t_p"),
    ("sequence.grid.dt", float("nan"), "sequence.grid.dt"),
    ("sequence.tau_schedule", [0.0, float("nan")], "sequence.tau_schedule"),
    ("sequence.tau_schedule", {"count": 3, "step": float("inf")}, "sequence.tau_schedule.step"),
], ids=["t_p_nan", "dt_nan", "tau_nan", "tau_step_inf"])
def test_non_finite_grid_value_exits_2_before_any_output(tmp_path, capsys, dotted, value, key):
    doc = _with(tiny_doc(), dotted, value)
    out = tmp_path / "out"
    assert_configuration_error(capsys, ["simulate", str(write_config(tmp_path, doc)),
                                        "--output", str(out)], key)
    assert not out.exists()


def test_non_numeric_omdf_table_exits_2_before_any_output(tmp_path, capsys):
    table = tmp_path / "omdf.txt"
    table.write_text("abc def\n0.0 1.0\n")
    doc = tiny_doc(engine="open", decoherence={
        "sigma_cl": 2.5e5, "omdf": {"family": "tabulated", "path": str(table)}})
    out = tmp_path / "out"
    assert_configuration_error(capsys, ["simulate", str(write_config(tmp_path, doc)),
                                        "--output", str(out)], str(table))
    assert not out.exists()


def test_non_finite_omdf_table_exits_2_before_any_output(tmp_path, capsys):
    # a NaN row once ran to exit 0 with every signal value NaN
    table = tmp_path / "omdf.txt"
    table.write_text("-0.1 0.5\n0.0 1.0\n0.1 nan\n0.2 0.5\n")
    doc = tiny_doc(engine="open", decoherence={
        "sigma_cl": 2.5e5, "omdf": {"family": "tabulated", "path": str(table)}})
    out = tmp_path / "out"
    err = assert_configuration_error(capsys, ["simulate", str(write_config(tmp_path, doc)),
                                              "--output", str(out)], str(table))
    assert "non-finite" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def two_spin_run(tmp_path_factory):
    """A two_spin_ms run directory after simulate, spectra and fit."""
    out = tmp_path_factory.mktemp("two_spin") / "run"
    assert main(["simulate", "--preset", "two_spin_ms", "--output", str(out)]) == 0
    assert main(["spectra", str(out)]) == 0
    assert main(["fit", str(out), "--mu", "2", "--frequency", "0"]) == 0
    return out


def _decreasing_taus(tmp_path, run):
    doc = yaml.safe_load(preset_path("runs/two_spin_ms.yaml").read_text())
    doc["molecule"] = str(preset_path("molecules/two_spin.yaml"))
    doc["sequence"]["tau_schedule"] = [0.0, 120.0e-6, 60.0e-6]
    return ["simulate", str(write_config(tmp_path, doc)), "--output", str(run)]


@pytest.mark.parametrize("argv,name", [
    (lambda tmp_path, run: ["fit", str(run), "--mu", "99", "--frequency", "0"],
     "coherence order 99"),
    (lambda tmp_path, run: ["fit", str(run), "--mu", "2", "--frequency", "1e9"],
     "frequency 1000000000.0 Hz"),
    (lambda tmp_path, run: ["spectra", str(run), "--zero-pad", "0"], "zero_pad"),
    (lambda tmp_path, run: ["spectra", str(run), "--zero-pad", "1000000000"],
     "the transform at zero-pad 1000000000 needs about 66048000 MB"),
    (lambda tmp_path, run: ["spectra", str(run), "--band-hz", "-5"], "band limit -5.0 Hz"),
    (_decreasing_taus, "sequence.tau_schedule"),
], ids=["fit_mu_99", "fit_frequency_outside_band", "spectra_zero_pad_0",
        "spectra_zero_pad_1e9", "spectra_negative_band", "decreasing_tau_schedule"])
def test_bad_stage_argument_exits_2_and_leaves_outputs_untouched(tmp_path, capsys,
                                                                 two_spin_run, argv, name):
    run = tmp_path / "run"
    shutil.copytree(two_spin_run, run)
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    assert_configuration_error(capsys, argv(tmp_path, run), name)
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


@pytest.mark.parametrize("zero_pad", [1, 4])
def test_spectra_memory_charge_covers_the_transform(tmp_path, monkeypatch, two_spin_run,
                                                    zero_pad):
    # the stage charges the signals, their phi transform and two padded t
    # transforms of it before the transform runs: a budget at the traced
    # peak of loading and transforming the signals is refused, with every
    # file left as it was, and one 50% above it accepted
    run = tmp_path / "run"
    shutil.copytree(two_spin_run, run)
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    tracemalloc.start()
    try:
        fft2_coherence(load_signals(run), zero_pad=zero_pad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", peak)
    with pytest.raises(GridSizeError, match=f"the transform at zero-pad {zero_pad} needs"):
        runner.spectra_stage(run, zero_pad=zero_pad)
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", int(1.5 * peak))
    runner.spectra_stage(run, zero_pad=zero_pad)


def test_huge_tau_count_exits_2_before_the_schedule_is_built(tmp_path, capsys):
    # 10^12 taus would hold at least 2 signal values each: refused at parse
    # time, before the tuple of taus exists
    doc = _with(tiny_doc(), "sequence.tau_schedule", {"count": 10 ** 12, "step": 1e-5})
    argv = ["simulate", str(write_config(tmp_path, doc)), "--output", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert_configuration_error(capsys, argv, "sequence.tau_schedule.count = 1000000000000 "
                                                 "needs about 32000000 MB")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} B"
    assert not (tmp_path / "out").exists()


FIT = ["fit", "--mu", "2", "--frequency", "0"]
# the axes of the run's spectra, and a spectra_meta.json and spectra.npy of them
TAUS, MU = [0.0, 6e-5, 1.2e-4, 2.4e-4], list(range(-4, 4))
FREQS = [1e4 * k for k in range(-32, 32)]


def _spectra(taus=TAUS, mu=MU, freqs=FREQS):
    return {"spectra_meta.json": json.dumps({"taus": taus, "mu": mu, "freqs_hz": freqs}),
            "spectra.npy": np.zeros((len(taus), len(mu), len(freqs)), dtype=complex)}


@pytest.mark.parametrize("name,text,argv,rerun", [
    ("signals_meta.json", "{not json", ["spectra"], "simulate"),
    ("signals_meta.json", '{"taus": [0.0]}', ["spectra"], "simulate"),
    ("spectra_meta.json", "{not json", ["fit", "--mu", "2", "--frequency", "0"], "spectra"),
    ("manifest_simulate.json", "[1, 2", ["spectra"], "simulate"),
    ("signals_meta.json", '{"dt": "abc", "taus": [0.0], "t_p": 0.0, "t_m": 0.0, "window": 0.0}',
     ["spectra"], "simulate"),
    ("signals_meta.json", '{"dt": 2e-6, "taus": "abc", "t_p": 0.0, "t_m": 0.0, "window": 0.0}',
     ["spectra"], "simulate"),
    # the run's signals are 8 phases by 64 times by 4 taus
    ("signals.npy", np.zeros((8, 64, 3), dtype=complex), ["spectra"], "simulate"),
    ("signals.npy", np.zeros((8, 64), dtype=complex), ["spectra"], "simulate"),
    ("signals.npy", np.full((8, 64, 4), "x"), ["spectra"], "simulate"),
    ("signals.npy", "not an array", ["spectra"], "simulate"),
    ("signals.npy", "", ["spectra"], "simulate"),
    ("spectra.npy", "not an array", ["fit", "--mu", "2", "--frequency", "0"], "spectra"),
    # files that parse but break a rule of the run that wrote them
    ("signals_meta.json", '{"dt": 0, "taus": [0.0, 6e-5, 1.2e-4, 2.4e-4], "t_p": 5e-5, '
     '"t_m": 0.0, "window": 0.0}', ["spectra"], "simulate"),
    ("signals_meta.json", '{"dt": -1e-6, "taus": [0.0, 6e-5, 1.2e-4, 2.4e-4], "t_p": 5e-5, '
     '"t_m": 0.0, "window": 0.0}', ["spectra"], "simulate"),
    ("signals_meta.json", '{"dt": 1e-6, "taus": [0.0, 0.0, 1e-4, 2e-4], "t_p": 5e-5, '
     '"t_m": 0.0, "window": 0.0}', ["spectra"], "simulate"),
    ("spectra_meta.json", json.dumps({"taus": [2.4e-4, 1.2e-4, 6e-5, 0.0],
                                      "mu": list(range(-4, 4)), "freqs_hz": [0.0] * 64}),
     ["fit", "--mu", "2", "--frequency", "0"], "spectra"),
    ("signals.npy", np.full((8, 64, 4), np.nan, dtype=complex), ["spectra"], "simulate"),
    ("spectra.npy", np.full((4, 8, 64), np.inf, dtype=complex), FIT, "spectra"),
    # an empty axis in both files, and frequencies in reverse with the run's array
    ("spectra_meta.json", _spectra(taus=[]), FIT, "spectra"),
    ("spectra_meta.json", _spectra(mu=[]), FIT, "spectra"),
    ("spectra_meta.json", _spectra(freqs=[]), FIT, "spectra"),
    ("spectra_meta.json", _spectra(freqs=FREQS[::-1])["spectra_meta.json"], FIT, "spectra"),
], ids=["signals_meta_not_json", "signals_meta_without_dt", "spectra_meta_not_json",
        "manifest_simulate_not_json", "signals_meta_dt_string", "signals_meta_taus_string",
        "signals_of_three_taus_not_four", "signals_two_dimensional", "signals_strings",
        "signals_not_npy", "signals_empty", "spectra_not_npy", "signals_meta_dt_zero",
        "signals_meta_dt_negative", "signals_meta_taus_repeated", "spectra_meta_taus_reversed",
        "signals_nan", "spectra_inf", "spectra_taus_empty", "spectra_mu_empty",
        "spectra_freqs_empty", "spectra_meta_freqs_reversed"])
def test_damaged_stage_file_exits_2_and_leaves_outputs_untouched(tmp_path, capsys,
                                                                 two_spin_run, name, text,
                                                                 argv, rerun):
    # the stage writes no output file: every file keeps its bytes; ``text`` is
    # the content of ``name``, or a mapping of file names to their contents
    run = tmp_path / "run"
    shutil.copytree(two_spin_run, run)
    for file, content in (text if isinstance(text, dict) else {name: text}).items():
        if isinstance(content, str):
            (run / file).write_text(content)
        else:
            np.save(run / file, content)
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    err = assert_configuration_error(capsys, [argv[0], str(run), *argv[1:]], name)
    assert f"rerun the {rerun} stage" in err
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


@pytest.mark.parametrize("stage,writer,output", [
    ("spectra", "spectrum_to_csv", "spectra.csv"),
    ("fit", "curves_to_csv", "decay_curves.csv"),
])
def test_failing_csv_writer_leaves_no_temp_file_and_previous_output(
        tmp_path, monkeypatch, two_spin_run, stage, writer, output):
    run = tmp_path / "run"
    shutil.copytree(two_spin_run, run)
    before = (run / output).read_bytes()

    def partial_then_fail(_, path):
        with open(path, "w") as fh:
            fh.write("tau,partial row")
        raise OSError("disk full")

    monkeypatch.setattr(runner, writer, partial_then_fail)
    with pytest.raises(OSError, match="disk full"):
        if stage == "spectra":
            runner.spectra_stage(run)
        else:
            runner.fit_stage(run, mu=2, frequencies=[0.0])
    assert (run / output).read_bytes() == before
    assert not list(run.glob(output + ".*"))


def test_fit_on_a_one_tau_run_exits_2_and_writes_nothing(tmp_path, capsys):
    # a one-point decay has no fit: exit 2 naming the stage to rerun, no
    # traceback, no fit file, and the simulate and spectra outputs keep their bytes
    doc = yaml.safe_load(preset_path("runs/two_spin_ms.yaml").read_text())
    doc["molecule"] = str(preset_path("molecules/two_spin.yaml"))
    doc["sequence"]["tau_schedule"] = [0.0]
    run = tmp_path / "run"
    assert main(["simulate", str(write_config(tmp_path, doc)), "--output", str(run)]) == 0
    assert main(["spectra", str(run)]) == 0
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    capsys.readouterr()
    assert main(["fit", str(run), "--mu", "2", "--frequency", "0"]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "simulate" in err and "Traceback" not in err
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def test_failing_refit_replaces_no_fit_file(tmp_path, monkeypatch, two_spin_run):
    # a refit at a second frequency would change both reports; the curves
    # writer fails after they are filled, so none of the four files may change
    run = tmp_path / "run"
    shutil.copytree(two_spin_run, run)
    names = ("fit_report.json", "fit_report.txt", "decay_curves.csv", "manifest_fit.json")
    before = {name: (run / name).read_bytes() for name in names}

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(runner, "curves_to_csv", fail)
    with pytest.raises(OSError, match="disk full"):
        runner.fit_stage(run, mu=2, frequencies=[0.0, 10000.0])
    assert {name: (run / name).read_bytes() for name in names} == before
    assert sorted(path.name for path in run.iterdir()) == sorted(
        path.name for path in two_spin_run.iterdir())


@pytest.mark.parametrize("engine", ["closed", "open"])
def test_refused_grid_leaves_no_run_directory(tmp_path, capsys, engine):
    doc = _with(tiny_doc(engine=engine), "sequence.grid", {"n_t": 4000000, "dt": 2e-6,
                                                           "n_phi": 500})
    if engine == "open":
        doc["decoherence"] = {"sigma_cl": 2.5e5, "omdf": {"family": "gaussian", "width": 0.05}}
    with pytest.raises(GridSizeError):
        simulate(config_from_dict(doc), out_dir=tmp_path / "direct")
    assert not (tmp_path / "direct").exists()
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, doc)), "--output", str(out)]) == 2
    assert "grid needs about" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("engine", ["closed", "open"])
def test_non_hermitian_prepared_state_exits_3_with_no_run_directory(tmp_path, capsys,
                                                                    monkeypatch, engine):
    # both engines check the state kernel_inputs prepares; a failed check is a
    # numerical-validation failure: one line on stderr, no traceback, no output
    prepare = sequence.prepared_setup

    def skewed(eig, t_p):
        a = prepare(eig, t_p).copy()
        a[0, 1] += 1e-9
        return a

    monkeypatch.setattr(sequence, "prepared_setup", skewed)
    doc = tiny_doc(engine=engine)
    if engine == "open":
        doc["decoherence"] = {"sigma_cl": 2.5e5, "omdf": {"family": "gaussian", "width": 0.05}}
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, doc)), "--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical validation failed: hermitian")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_numerical_gate_exit_3(tmp_path):
    doc = tiny_doc()
    # a single pair is refocused exactly; three coupled spins leave a
    # genuine third-order residual for the gate to catch
    doc["molecule"] = {"order_parameter": 0.6,
                       "couplings_hz": [[0, 1, 5000.0], [1, 2, 4000.0],
                                        [0, 2, -2500.0]]}
    doc["sequence"]["block"] = {"type": "mrev8", "tau1": 2e-5}
    doc["sequence"]["tau_schedule"] = {"count": 2}
    cfg_path = write_config(tmp_path, doc)
    # MREV8 at 20 us spacing has a small but nonzero residual
    assert main(["verify-reversion", str(cfg_path)]) == 0
    assert main(["verify-reversion", str(cfg_path), "--max-residual", "1e-12"]) == 3


@pytest.mark.parametrize("bound", ["nan", "inf", "-1"])
def test_bad_max_residual_exits_2_before_any_output(capsys, bound):
    assert main(["verify-reversion", "--preset", "fivecb_style", "--max-residual", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max_residual" in captured.err


def test_nan_residual_fails_the_gate(capsys, monkeypatch):
    # a NaN residual is no pass: the gate is written as "not residual <= bound"
    nan_report = sequence.ReversionReport(residual=float("nan"), duration=1e-4,
                                          effective_norm=0.0)
    monkeypatch.setattr(runner, "verify_reversion", lambda events, eig: nan_report)
    assert main(["verify-reversion", "--preset", "fivecb_style"]) == 3
    assert capsys.readouterr().out == ""


def test_verify_stage_no_block(tmp_path):
    from mqcnmr.errors import ConfigError, GridSizeError
    doc = tiny_doc()
    del doc["sequence"]["block"]
    cfg = config_from_dict(doc)
    with pytest.raises(ConfigError):
        verify_stage(cfg)


def test_verify_stage_on_a_zero_tau_schedule():
    # MREV-8 verifies one cycle; a magic sandwich has no duration to verify
    doc = tiny_doc()
    doc["sequence"].update(block={"type": "mrev8", "tau1": 5e-6}, tau_schedule=[0.0])
    assert verify_stage(config_from_dict(doc))["tau"] == pytest.approx(60e-6)
    doc["sequence"]["block"] = {"type": "magic_sandwich"}
    with pytest.raises(ConfigError, match="no positive entry"):
        verify_stage(config_from_dict(doc))


def test_simulate_outputs_are_bit_identical_across_workers(tmp_path):
    outs = []
    for workers in (1, 3):
        doc = tiny_doc(workers=workers)
        out = tmp_path / f"w{workers}"
        simulate(config_from_dict(doc), out_dir=out)
        outs.append((out / "signals.npy").read_bytes())
    assert outs[0] == outs[1]


def test_manifest_inventory_and_hashes(tmp_path):
    import hashlib
    out = tmp_path / "run"
    simulate(config_from_dict(tiny_doc()), out_dir=out)
    manifest = json.loads((out / "manifest_simulate.json").read_text())
    assert manifest["stage"] == "simulate"
    assert manifest["config_hash"]
    listed = set(manifest["files"])
    assert listed == {"signals.npy", "signals_meta.json"}
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    # no orphan files beyond outputs and the manifest itself
    on_disk = {p.name for p in out.iterdir()}
    assert on_disk == listed | {"manifest_simulate.json"}


def test_signals_roundtrip_and_spectra_csv(tmp_path):
    out = tmp_path / "run"
    cfg = config_from_dict(tiny_doc())
    simulate(cfg, out_dir=out)
    grid = load_signals(out)
    assert grid.data.shape == (5, 8, 3)
    assert main(["spectra", str(out), "--band-hz", "100000"]) == 0
    spec = read_spectrum_csv(out / "spectra.csv")
    assert np.all(np.abs(spec.freqs_hz) <= 100000)
    assert spec.data.shape[0] == 3
    # CSV floats are exact round-trips
    meta = json.loads((out / "signals_meta.json").read_text())
    assert meta["n_phi"] == 5


def test_cache_dir_variable_leaves_no_file_and_changes_no_output(tmp_path, tmp_path_factory,
                                                                monkeypatch):
    # every run builds its eigendecomposition; MQCNMR_CACHE_DIR names no cache
    cfg = config_from_dict(tiny_doc())
    monkeypatch.delenv("MQCNMR_CACHE_DIR", raising=False)
    plain = tmp_path_factory.mktemp("plain") / "run"
    simulate(cfg, out_dir=plain)
    monkeypatch.setenv("MQCNMR_CACHE_DIR", str(tmp_path / "cache"))
    simulate(cfg, out_dir=tmp_path / "run")
    verify_stage(cfg)
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
    assert (tmp_path / "run" / "signals.npy").read_bytes() == (plain / "signals.npy").read_bytes()


def test_sweep_refuses_colliding_run_directories(tmp_path):
    doc = tiny_doc()
    doc["sweep"] = {"parameters": {"sequence.t_p": [1.0e-5, 1.000001e-5]}}
    with pytest.raises(ConfigError, match="t_p=1e-05"):
        sweep(doc, out_root=tmp_path / "sw")
    assert not (tmp_path / "sw").exists()
    assert main(["sweep", str(write_config(tmp_path, doc)),
                 "--output", str(tmp_path / "sw")]) == 2


def test_sweep_checks_every_combination_before_running(tmp_path):
    doc = tiny_doc()
    doc["sweep"] = {"parameters": {"sequence.t_p": [0.0, -1e-5]}}
    with pytest.raises(ConfigError):
        sweep(doc, out_root=tmp_path / "sw")
    assert not (tmp_path / "sw").exists()
    for bad in ({"parameters": {"sequence.t_p": 0.0}}, {"parameters": {}},
                {"parameters": {"sequence.t_p": [0.0]}, "param": 1}):
        with pytest.raises(ConfigError):
            sweep({**tiny_doc(), "sweep": bad}, out_root=tmp_path / "sw")


def test_sweep_refuses_a_tau_off_the_mrev8_cycle_before_any_run(tmp_path, capsys):
    # 60 us is one 12 tau1 cycle at tau1 = 5 us and no whole number of them
    # at 7 us: the cycle rule is part of parsing, so no run directory is made
    doc = tiny_doc()
    doc["molecule"]["couplings_hz"] = [[0, 1, 5000.0], [1, 2, 3000.0]]
    doc["sequence"]["block"] = {"type": "mrev8", "tau1": 5.0e-6}
    doc["sequence"]["tau_schedule"] = [0.0, 60.0e-6]
    doc["sweep"] = {"parameters": {"sequence.block.tau1": [5.0e-6, 7.0e-6]}}
    assert main(["sweep", str(write_config(tmp_path, doc)),
                 "--output", str(tmp_path / "sw")]) == 2
    assert "integer multiple of the MREV8 cycle time 12*tau1 = 8.4e-05" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_a_block_of_a_billion_cycles_runs_in_one_step(tmp_path):
    # tau = 10^9 MREV-8 cycles of 60 us: the state advances by one power of
    # the cycle, not by 10^9 products, in a process of its own
    doc = {"molecule": {"order_parameter": 0.6, "couplings_hz": [[0, 1, 3000.0]]},
           "sequence": {"t_p": 4.0e-5,
                        "block": {"type": "mrev8", "tau1": 5.0e-6, "mode": "concatenate"},
                        "tau_schedule": [0.0, 60000.00000000001],
                        "grid": {"n_t": 4, "dt": 2.0e-6, "n_phi": 6}}}
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mqcnmr.__file__))}
    result = subprocess.run([sys.executable, "-m", "mqcnmr.cli", "simulate",
                             str(write_config(tmp_path, doc)), "--output", str(out)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert np.isfinite(np.load(out / "signals.npy")).all()


def test_sweep_runs_all_combinations(tmp_path):
    doc = tiny_doc()
    doc["sweep"] = {"parameters": {
        "sequence.t_p": [0.0, 4e-5],
        "n_molecules": [1, 2],
    }}
    manifests = sweep(doc, out_root=tmp_path / "sw")
    assert len(manifests) == 4
    subdirs = sorted(p.name for p in (tmp_path / "sw").iterdir())
    assert len(subdirs) == 4
    assert all("t_p=" in d and "n_molecules=" in d for d in subdirs)
    # doubling n_molecules doubles the stored signals at equal t_p
    by_name = {d: np.load(tmp_path / "sw" / d / "signals.npy") for d in subdirs}
    singles = {d: a for d, a in by_name.items() if "n_molecules=1" in d}
    doubles = {d: a for d, a in by_name.items() if "n_molecules=2" in d}
    for d1, a1 in singles.items():
        d2 = d1.replace("n_molecules=1", "n_molecules=2")
        np.testing.assert_allclose(doubles[d2], 2.0 * a1, atol=0)


def _count_calls(monkeypatch, module, name, log):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        log.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_sweep_eigendecomposes_once_and_compiles_once_per_tau1(tmp_path, monkeypatch):
    # nonideality_sweep: 8 runs of one molecule at 2 values of tau1 and 4 of
    # t_p; the runs of one t_p share its setup, so the default acquisition is
    # scanned once per t_p; each run writes the signals of a standalone
    # simulate of its combination
    from mqcnmr import sequence
    log = []
    _count_calls(monkeypatch, runner, "eigendecompose", log)
    _count_calls(monkeypatch, sequence, "compile_program", log)
    _count_calls(monkeypatch, sequence, "default_acquisition", log)
    path = preset_path("runs/nonideality_sweep.yaml")
    doc = yaml.safe_load(path.read_text())
    manifests = sweep(doc, base_dir=path.parent, out_root=tmp_path / "sweep")
    assert len(manifests) == 8
    assert log.count("eigendecompose") == 1 and log.count("compile_program") == 2
    assert log.count("default_acquisition") == 4
    params = doc.pop("sweep")["parameters"]
    for tau1 in params["sequence.block.tau1"]:
        for t_p in params["sequence.t_p"]:
            one = {**doc, "sequence": {**doc["sequence"], "t_p": t_p,
                                       "block": {**doc["sequence"]["block"], "tau1": tau1}}}
            out = tmp_path / "alone"
            simulate(config_from_dict(one, base_dir=path.parent), out_dir=out)
            swept = tmp_path / "sweep" / f"tau1={tau1:g}_t_p={t_p:g}" / "signals.npy"
            assert swept.read_bytes() == (out / "signals.npy").read_bytes()
    assert log.count("eigendecompose") == 9 and log.count("compile_program") == 10
    assert log.count("default_acquisition") == 12


def test_open_sweep_builds_one_setup_per_preparation_time(tmp_path, monkeypatch):
    # 2 values of sigma_cl crossed with 2 of t_p on the open engine: the runs
    # of one t_p share its prepared state and detection matrix, which only
    # t_p and the acquisition decide, and each writes the signals of a
    # standalone simulate of its combination
    log = []
    _count_calls(monkeypatch, sequence, "prepared_setup", log)
    doc = tiny_doc(engine="open")
    doc["decoherence"] = {"sigma_cl": 2.5e5, "omdf": {"family": "gaussian", "width": 0.05}}
    params = {"decoherence.sigma_cl": [2.5e5, 5e5], "sequence.t_p": [0.0, 4e-5]}
    assert len(sweep({**doc, "sweep": {"parameters": params}}, out_root=tmp_path / "sw")) == 4
    assert log.count("prepared_setup") == 2
    for sigma_cl in params["decoherence.sigma_cl"]:
        for t_p in params["sequence.t_p"]:
            one = {**doc, "decoherence": {**doc["decoherence"], "sigma_cl": sigma_cl},
                   "sequence": {**doc["sequence"], "t_p": t_p}}
            out = tmp_path / "alone"
            simulate(config_from_dict(one), out_dir=out)
            swept = tmp_path / "sw" / f"sigma_cl={sigma_cl:g}_t_p={t_p:g}" / "signals.npy"
            assert swept.read_bytes() == (out / "signals.npy").read_bytes()
    assert log.count("prepared_setup") == 6


def test_sweep_builds_one_eigensystem_per_molecule_and_call(tmp_path, monkeypatch):
    # an inline molecule's order parameter changes the molecule: one
    # eigensystem per value, shared by its runs, which compile one MREV-8
    # cycle per tau1 though tau1 is the innermost parameter; a second call
    # builds its own
    from mqcnmr import sequence
    log = []
    _count_calls(monkeypatch, runner, "eigendecompose", log)
    _count_calls(monkeypatch, sequence, "compile_program", log)
    doc = tiny_doc()
    doc["sequence"].update(block={"type": "mrev8", "tau1": 5e-6}, tau_schedule={"count": 3})
    doc["sweep"] = {"parameters": {"molecule.order_parameter": [0.4, 0.6, 0.8],
                                   "sequence.acquisition.t_m": [3e-6, 4e-6],
                                   "sequence.block.tau1": [5e-6, 1e-5]}}
    assert len(sweep(doc, out_root=tmp_path / "a")) == 12
    assert log.count("eigendecompose") == 3 and log.count("compile_program") == 6
    sweep(doc, out_root=tmp_path / "b")
    assert log.count("eigendecompose") == 6 and log.count("compile_program") == 12
    for run in (tmp_path / "a").iterdir():
        assert (run / "signals.npy").read_bytes() == \
            (tmp_path / "b" / run.name / "signals.npy").read_bytes()


def test_sweep_refuses_a_key_inside_a_value_that_is_not_a_mapping(tmp_path):
    # a molecule given as a path has no order_parameter to set: the sweep
    # names the key and writes nothing, where it used to drop the path
    shutil.copy(preset_path("molecules/two_spin.yaml"), tmp_path / "pair.yaml")
    doc = tiny_doc(molecule="pair.yaml")
    doc["sweep"] = {"parameters": {"molecule.order_parameter": [0.4, 0.6]}}
    with pytest.raises(ConfigError, match="molecule.order_parameter"):
        sweep(doc, base_dir=tmp_path, out_root=tmp_path / "sw")
    assert main(["sweep", str(write_config(tmp_path, doc)),
                 "--output", str(tmp_path / "sw")]) == 2
    assert not (tmp_path / "sw").exists()
    # a missing (or null) parent is made
    doc = tiny_doc(molecule="pair.yaml")
    doc["sequence"]["block"] = None
    doc["sweep"] = {"parameters": {"sequence.block.type": ["magic_sandwich"],
                                   "sequence.acquisition.t_m": [3e-6]}}
    del doc["sequence"]["acquisition"]
    with pytest.raises(ConfigError, match="acquisition: missing required key 'window'"):
        sweep(doc, base_dir=tmp_path, out_root=tmp_path / "sw")
    doc["sweep"]["parameters"]["sequence.acquisition.window"] = [2e-6]
    assert len(sweep(doc, base_dir=tmp_path, out_root=tmp_path / "sw")) == 1


def test_sweep_cli_refuses_bad_yaml(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("sweep: [parameters: {")
    assert main(["sweep", str(bad), "--output", str(tmp_path / "sw")]) == 2
    assert not (tmp_path / "sw").exists()


def test_sweep_requires_parameters(tmp_path):
    from mqcnmr.errors import ConfigError, GridSizeError
    with pytest.raises(ConfigError):
        sweep(tiny_doc(), out_root=tmp_path)


def test_sweep_cli_with_preset_config(tmp_path):
    doc = tiny_doc()
    doc["sweep"] = {"parameters": {"sequence.t_p": [0.0, 2e-5]}}
    cfg_path = write_config(tmp_path, doc)
    assert main(["sweep", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
    assert len(list((tmp_path / "out").iterdir())) == 2


def test_simulate_refuses_a_sweep_config(tmp_path, capsys):
    # simulate would run the base values alone and ignore sweep.parameters;
    # it exits 2 and writes nothing (``mqcnmr sweep`` runs such a config)
    doc = tiny_doc()
    doc["sweep"] = {"parameters": {"sequence.t_p": [0.0, 2e-5]}}
    cfg_path = write_config(tmp_path, doc)
    for args in ([str(cfg_path)], ["--preset", "nonideality_sweep"]):
        out = tmp_path / "simulated"
        assert main(["simulate", *args, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "mqcnmr sweep" in err and "Traceback" not in err
        assert not out.exists()


def test_cli_preset_simulate(tmp_path):
    assert main(["simulate", "--preset", "two_spin_ms",
                 "--output", str(tmp_path / "preset_run")]) == 0
    sig = np.load(tmp_path / "preset_run" / "signals.npy")
    assert sig.shape == (8, 64, 4)


def test_presets_run_on_the_eigenvector_blocks_alone(tmp_path, monkeypatch):
    # the engines read V only through its m blocks; assembling the dense V
    # anywhere in a run fails it
    def dense_v(self):
        raise AssertionError("a run assembled the dense eigenvector matrix")

    monkeypatch.setattr(EigenSystem, "vectors", property(dense_v))
    for name in ("two_spin_ms", "fivecb_style", "open_demo"):
        simulate(load_config(preset_path(f"runs/{name}.yaml")), out_dir=tmp_path / name)
        assert (tmp_path / name / "signals.npy").exists()
    path = preset_path("runs/nonideality_sweep.yaml")
    runs = sweep(yaml.safe_load(path.read_text()), base_dir=path.parent,
                 out_root=tmp_path / "sweep")
    assert len(runs) == 8


def test_preset_spectra_meta_lists_every_coherence_order(tmp_path):
    # nonideality_sweep runs n_phi = 18, where orders -7 and 7 used to be
    # labelled -6 and 6 and the CSV reader dropped two of the 18 orders
    doc = yaml.safe_load(preset_path("runs/nonideality_sweep.yaml").read_text())
    doc.pop("sweep")
    out = tmp_path / "run"
    simulate(config_from_dict(doc, base_dir=preset_path("runs")), out_dir=out)
    runner.spectra_stage(out)
    meta = json.loads((out / "spectra_meta.json").read_text())
    assert meta["mu"] == list(range(-9, 9))
    assert read_spectrum_csv(out / "spectra.csv").data.shape[1] == 18


def test_read_spectrum_csv_refuses_repeated_or_missing_rows(tmp_path):
    header = "tau,mu,omega_hz,re,im,abs\n"
    rows = ["0.0,0,0.0,1.0,0.0,1.0\n", "0.0,1,0.0,2.0,0.0,2.0\n"]
    good = tmp_path / "good.csv"
    good.write_text(header + "".join(rows))
    assert read_spectrum_csv(good).data[0, :, 0].tolist() == [1.0, 2.0]
    repeated = tmp_path / "repeated.csv"
    repeated.write_text(header + "".join(rows) + "0.0,1,0.0,3.0,0.0,3.0\n")
    with pytest.raises(ConfigError):
        read_spectrum_csv(repeated)
    missing = tmp_path / "missing.csv"
    missing.write_text(header + "".join(rows) + "1.0,0,0.0,1.0,0.0,1.0\n")
    with pytest.raises(ConfigError):
        read_spectrum_csv(missing)
    signals = tmp_path / "signals.csv"
    signals.write_text("phi,t,tau,re,im\n0.0,0.0,0.0,1.0,0.0\n")
    with pytest.raises(ConfigError, match="is not a spectra CSV"):
        read_spectrum_csv(signals)
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(header)
    with pytest.raises(ConfigError, match="header_only.csv: tau must be non-empty"):
        read_spectrum_csv(header_only)
    descending = tmp_path / "descending.csv"
    descending.write_text(header + "0.0,0,10000.0,1.0,0.0,1.0\n0.0,0,-10000.0,2.0,0.0,2.0\n")
    with pytest.raises(ConfigError, match="descending.csv: omega_hz must be non-empty and "
                                          "strictly increasing"):
        read_spectrum_csv(descending)


def test_spectra_hand_off_through_npy_with_manifest_chain(tmp_path):
    import hashlib
    out = tmp_path / "run"
    simulate(config_from_dict(tiny_doc()), out_dir=out)
    manifest = runner.spectra_stage(out, zero_pad=2)
    assert {"spectra.csv", "spectra.npy", "spectra_meta.json"} <= set(manifest["files"])
    spec = runner.load_spectra(out)
    from_csv = read_spectrum_csv(out / "spectra.csv")
    assert np.array_equal(spec.data, from_csv.data)
    for axis in ("mu", "freqs_hz", "taus"):
        assert np.array_equal(getattr(spec, axis), getattr(from_csv, axis))
    runner.fit_stage(out, mu=2, frequencies=[0.0])
    for stage, upstream in (("spectra", "simulate"), ("fit", "spectra")):
        doc = json.loads((out / f"manifest_{stage}.json").read_text())
        up_path = out / f"manifest_{upstream}.json"
        assert doc["upstream"] == {"manifest": up_path.name, "sha256":
                                   hashlib.sha256(up_path.read_bytes()).hexdigest()}
        assert doc["config_hash"] == json.loads(up_path.read_text())["config_hash"] != ""
    (out / "spectra.npy").unlink()
    with pytest.raises(ConfigError, match="rerun the spectra stage"):
        runner.fit_stage(out, mu=2, frequencies=[0.0])
    assert main(["fit", str(out), "--mu", "2", "--frequency", "0"]) == 2
