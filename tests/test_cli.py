"""CLI exit codes and the staged pipeline (simulate -> spectra -> fit)."""

import json
import os
import shutil

import numpy as np
import pytest
import yaml

from mqcnmr import runner
from mqcnmr.cli import main
from mqcnmr.config import config_from_dict, load_config, preset_path
from mqcnmr.errors import ConfigError, GridSizeError
from mqcnmr.runner import load_signals, read_spectrum_csv, simulate, sweep, verify_stage


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
    {"order_parameter": 0.6, "couplings_hz": [[j, j + 1, 3000.0] for j in range(10)]},
    {"order_parameter": 0.6,
     "positions_angstrom": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]},
    {"order_parameter": 0.6, "positions_angstrom": [[0.0, 0.0, 0.0]]},
], ids=["order_parameter_above_1", "eleven_sites", "coincident_positions", "one_site"])
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


@pytest.mark.parametrize("dotted,value,key", [
    ("molecule.order_parameter", "abc", "molecule.order_parameter"),
    ("sequence.tau_schedule", {"count": "x", "step": 1e-5}, "sequence.tau_schedule.count"),
    ("sequence.grid.n_t", "many", "sequence.grid.n_t"),
    ("molecule.couplings_hz", [[0, 1, "strong"]], "molecule.couplings_hz"),
], ids=["order_parameter", "tau_count", "n_t", "coupling"])
def test_non_numeric_config_value_exits_2_before_any_output(tmp_path, capsys, dotted, value,
                                                            key):
    cfg_path = write_config(tmp_path, _with(tiny_doc(), dotted, value))
    out = tmp_path / "out"
    assert main(["simulate", str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and key in err and "Traceback" not in err
    assert not out.exists()


def assert_configuration_error(capsys, argv, name):
    """``mqcnmr argv`` exits 2 with a one-line configuration error naming ``name``."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and name in err and "Traceback" not in err


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
    (lambda tmp_path, run: ["spectra", str(run), "--band-hz", "-5"], "band limit -5.0 Hz"),
    (_decreasing_taus, "sequence.tau_schedule"),
], ids=["fit_mu_99", "fit_frequency_outside_band", "spectra_zero_pad_0",
        "spectra_negative_band", "decreasing_tau_schedule"])
def test_bad_stage_argument_exits_2_and_leaves_outputs_untouched(tmp_path, capsys,
                                                                 two_spin_run, argv, name):
    run = tmp_path / "run"
    shutil.copytree(two_spin_run, run)
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    assert_configuration_error(capsys, argv(tmp_path, run), name)
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


def test_verify_stage_no_block(tmp_path):
    from mqcnmr.errors import ConfigError, GridSizeError
    doc = tiny_doc()
    del doc["sequence"]["block"]
    cfg = config_from_dict(doc)
    with pytest.raises(ConfigError):
        verify_stage(cfg)


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


def test_cli_preset_simulate(tmp_path):
    assert main(["simulate", "--preset", "two_spin_ms",
                 "--output", str(tmp_path / "preset_run")]) == 0
    sig = np.load(tmp_path / "preset_run" / "signals.npy")
    assert sig.shape == (8, 64, 4)


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
