"""Configuration and molecule-file parsing."""

import numpy as np
import pytest
import yaml

from mqcnmr import config
from mqcnmr.config import (config_from_dict, config_hash, load_config, load_molecule,
                           molecule_from_dict, preset_path)
from mqcnmr.errors import ConfigError
from mqcnmr.hamiltonian import GAMMA_PROTON, dipolar_frequency
from mqcnmr.opensystem import TabulatedOMDF
from mqcnmr.sequence import AcquisitionSpec, MagicSandwichSpec, Mrev8Spec


def base_doc(**overrides):
    doc = {
        "molecule": {
            "name": "pair",
            "order_parameter": 0.6,
            "couplings_hz": [[0, 1, 5000.0]],
        },
        "engine": "closed",
        "sequence": {
            "t_p": 4e-5,
            "tau_schedule": [0.0, 1e-4],
            "grid": {"n_t": 4, "dt": 1e-6, "n_phi": 4},
        },
    }
    doc.update(overrides)
    return doc


def test_molecule_from_positions():
    mol = molecule_from_dict({
        "order_parameter": 0.5,
        "positions_angstrom": [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]],
    })
    assert mol.n_sites == 2 and mol.order_parameter == 0.5
    assert mol.couplings_hz[0, 1] == dipolar_frequency(np.array([0.0, 0.0, 2.0e-10]))
    half = molecule_from_dict({
        "order_parameter": 0.5, "gamma": GAMMA_PROTON / 2,
        "positions_angstrom": [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]],
    })
    assert half.couplings_hz[0, 1] == dipolar_frequency(np.array([0.0, 0.0, 2.0e-10]),
                                                        GAMMA_PROTON / 2)


def test_molecule_from_couplings():
    mol = molecule_from_dict({
        "order_parameter": 0.7,
        "couplings_hz": [[0, 2, 1000.0], [1, 2, -500.0]],
    })
    assert mol.n_sites == 3
    assert mol.couplings_hz[0, 2] == 1000.0
    assert mol.couplings_hz[2, 0] == 1000.0
    assert mol.couplings_hz[0, 1] == 0.0


def test_molecule_validation_errors():
    with pytest.raises(ConfigError):
        molecule_from_dict({"order_parameter": 0.5})  # neither form
    with pytest.raises(ConfigError):
        molecule_from_dict({"order_parameter": 0.5,
                            "positions_angstrom": [[0, 0, 0]],
                            "couplings_hz": [[0, 1, 1.0]]})  # both forms
    with pytest.raises(ConfigError):
        molecule_from_dict({"couplings_hz": [[0, 1, 1.0]]})  # no order parameter
    with pytest.raises(ConfigError):
        molecule_from_dict({"order_parameter": None,
                            "couplings_hz": [[0, 1, 1.0]]})  # placeholder
    with pytest.raises(ConfigError):
        molecule_from_dict({"order_parameter": 0.5,
                            "couplings_hz": [[0, 1, None]]})  # placeholder value
    with pytest.raises(ConfigError):
        molecule_from_dict({"order_parameter": 0.5,
                            "positions_angstrom": [[0.0, None, 0.0]]})
    with pytest.raises(ConfigError):
        molecule_from_dict({"order_parameter": 0.5,
                            "couplings_hz": [[0, 0, 1.0]]})  # j == k
    with pytest.raises(ConfigError):
        molecule_from_dict({"order_parameter": 0.5, "n_sites": 2,
                            "couplings_hz": [[0, 5, 1.0]]})  # out of range
    with pytest.raises(ConfigError):
        molecule_from_dict({"order_parameter": 0.5, "n_sites": -1,
                            "couplings_hz": [[0, 1, 1.0]]})  # no table of negative size
    with pytest.raises(ConfigError):
        molecule_from_dict({"order_parameter": 0.5, "couplings_hz": [5]})  # row not a list


def test_template_molecule_refuses_to_load():
    path = preset_path("molecules/paa_like_8site_template.yaml")
    with pytest.raises(ConfigError, match="placeholder"):
        load_molecule(path)


def test_load_molecule_bad_file(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(ConfigError):
        load_molecule(missing)
    bad = tmp_path / "bad.yaml"
    bad.write_text("not: [valid: yaml")
    with pytest.raises(ConfigError):
        load_molecule(bad)


YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
def test_shipped_presets_load_alike_under_both_yaml_loaders(loader, tmp_path, monkeypatch):
    # config files are parsed by libyaml where PyYAML was built with it; each
    # shipped run and molecule preset reads to the document, value types
    # included, that the pure-Python safe loader gives, and bad YAML is a
    # ConfigError under either loader
    if yaml.__with_libyaml__:
        assert config.YAML_LOADER is yaml.CSafeLoader
    monkeypatch.setattr(config, "YAML_LOADER", loader)
    paths = sorted(preset_path("runs").parent.rglob("*.yaml"))
    assert {path.parent.name for path in paths} == {"runs", "molecules"} and len(paths) == 8
    for path in paths:
        doc, want = config.load_yaml(path, "preset"), yaml.safe_load(path.read_text())
        assert doc == want and repr(doc) == repr(want), path
    bad = tmp_path / "bad.yaml"
    bad.write_text("not: [valid: yaml")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)


def test_config_blocks_and_schedules():
    doc = base_doc()
    doc["sequence"]["block"] = {"type": "mrev8", "tau1": 5e-6}
    doc["sequence"]["tau_schedule"] = {"count": 3}
    cfg = config_from_dict(doc)
    assert isinstance(cfg.block, Mrev8Spec)
    np.testing.assert_allclose(cfg.grid.taus, [0.0, 6e-5, 1.2e-4])

    doc["sequence"]["block"] = {"type": "magic_sandwich"}
    doc["sequence"]["tau_schedule"] = {"count": 2, "step": 1.5e-4, "start": 1.5e-4}
    cfg = config_from_dict(doc)
    assert isinstance(cfg.block, MagicSandwichSpec)
    np.testing.assert_allclose(cfg.grid.taus, [1.5e-4, 3e-4])

    doc["sequence"]["block"] = {"type": "none"}
    assert config_from_dict(doc).block is None

    doc["sequence"]["block"] = {"type": "wahuha"}
    with pytest.raises(ConfigError):
        config_from_dict(doc)

    doc["sequence"]["block"] = None
    doc["sequence"]["tau_schedule"] = {"count": 3}  # no step, no MREV8
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_tau_schedule_start_is_honoured_when_the_mrev8_cycle_sets_the_step(tmp_path, capsys):
    from mqcnmr.cli import main
    doc = base_doc()
    doc["sequence"]["block"] = {"type": "mrev8", "tau1": 5e-6}
    doc["sequence"]["tau_schedule"] = {"count": 3, "start": 1.2e-4}
    np.testing.assert_allclose(config_from_dict(doc).grid.taus, [1.2e-4, 1.8e-4, 2.4e-4])
    doc["sequence"]["tau_schedule"]["start"] = "abc"
    with pytest.raises(ConfigError, match="sequence.tau_schedule.start"):
        config_from_dict(doc)
    # a start that is not a whole number of 60 us cycles is refused like any such tau
    doc["sequence"]["tau_schedule"]["start"] = 7e-5
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["simulate", str(path), "--output", str(tmp_path / "out")]) == 2
    assert "integer multiple" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_phi_step_next_to_n_phi_exits_2(tmp_path, capsys):
    from mqcnmr.cli import main
    for step in (45.0, "abc"):
        doc = base_doc()
        doc["sequence"]["grid"]["phi_step_deg"] = step
        with pytest.raises(ConfigError, match="phi_step_deg: not read next to n_phi"):
            config_from_dict(doc)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["simulate", str(path), "--output", str(tmp_path / "out")]) == 2
    assert "sequence.grid.phi_step_deg" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_phi_step_degrees():
    doc = base_doc()
    del doc["sequence"]["grid"]["n_phi"]
    doc["sequence"]["grid"]["phi_step_deg"] = 20.0
    assert config_from_dict(doc).grid.n_phi == 18
    doc["sequence"]["grid"]["phi_step_deg"] = 20.5
    with pytest.raises(ConfigError, match="nonuniform|divide"):
        config_from_dict(doc)
    del doc["sequence"]["grid"]["phi_step_deg"]
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_engine_validation():
    doc = base_doc(engine="open")
    with pytest.raises(ConfigError):
        config_from_dict(doc)  # open engine needs decoherence
    doc["decoherence"] = {"sigma_cl": 2e5,
                          "omdf": {"family": "gaussian", "width": 0.05}}
    cfg = config_from_dict(doc)
    assert cfg.engine == "open"
    assert cfg.decoherence.kappa == 2.0
    doc["engine"] = "semiclosed"
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_tabulated_omdf_config(tmp_path):
    u = np.linspace(-0.3, 0.3, 51)
    p = np.exp(-u ** 2 / 0.02)
    np.savetxt(tmp_path / "omdf.txt", np.column_stack([u, p]))
    doc = base_doc(engine="open")
    doc["decoherence"] = {"sigma_cl": 1e5,
                          "omdf": {"family": "tabulated", "path": "omdf.txt"}}
    cfg = config_from_dict(doc, base_dir=tmp_path)
    assert isinstance(cfg.decoherence.omdf, TabulatedOMDF)
    doc["decoherence"]["omdf"] = {"family": "lorentz"}
    with pytest.raises(ConfigError):
        config_from_dict(doc, base_dir=tmp_path)


def test_config_misc_validation():
    with pytest.raises(ConfigError):
        config_from_dict(["not", "a", "mapping"])
    doc = base_doc()
    doc["molecule"] = 42
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    doc = base_doc(workers=0)
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def _full_doc(engine):
    """A config that uses every key ``engine`` honours."""
    doc = base_doc(engine=engine, workers=2, n_molecules=1, output="out/x")
    doc["molecule"]["n_sites"] = 2
    doc["sequence"].update(block={"type": "mrev8", "tau1": 5e-6, "mode": "concatenate"},
                           tau_schedule={"count": 2, "step": 6e-5, "start": 0.0},
                           acquisition={"t_m": 3e-6, "window": 2e-6})
    if engine == "open":
        doc["sequence"]["block"] = {"type": "none"}
        doc["decoherence"] = {"sigma_cl": 2e5, "kappa": 2.0,
                              "omdf": {"family": "gaussian", "width": 0.05}}
    return doc


@pytest.mark.parametrize("section", [
    (), ("molecule",), ("sequence",), ("sequence", "block"), ("sequence", "tau_schedule"),
    ("sequence", "grid"), ("sequence", "acquisition"), ("decoherence",),
    ("decoherence", "omdf"),
])
def test_unknown_config_keys_are_rejected(section):
    for engine in ("closed", "open"):
        config_from_dict(_full_doc(engine))  # every key used here is honoured
        doc = _full_doc(engine)
        if section[:1] == ("decoherence",) and engine == "closed":
            continue  # the closed engine takes no decoherence section at all
        node = doc
        for key in section:
            node = node[key]
        node["typo_key"] = 1
        with pytest.raises(ConfigError, match="typo_key"):
            config_from_dict(doc)


@pytest.mark.parametrize("engine,dotted,value,key", [
    ("closed", "decoherence", {"sigma_cl": 2e5, "omdf": {"family": "gaussian", "width": 0.05}},
     "decoherence"),
    ("open", "sequence.block", {"type": "mrev8", "tau1": 5e-6}, "sequence.block"),
    ("open", "sequence.block", {"type": "magic_sandwich"}, "sequence.block"),
    ("closed", "molecule.gamma", GAMMA_PROTON, "molecule.gamma"),
    ("closed", "molecule.positions_angstrom", [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]],
     "molecule.n_sites"),
], ids=["closed_decoherence", "open_mrev8", "open_magic_sandwich", "gamma_with_couplings",
        "n_sites_with_positions"])
def test_key_the_engine_or_molecule_form_does_not_read_exits_2(tmp_path, capsys, engine,
                                                               dotted, value, key):
    from mqcnmr.cli import main
    doc = _full_doc(engine)
    if dotted == "molecule.positions_angstrom":
        del doc["molecule"]["couplings_hz"]  # n_sites stays
    node = doc
    for part in dotted.split(".")[:-1]:
        node = node[part]
    node[dotted.split(".")[-1]] = value
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["simulate", str(path), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_keys_of_another_block_type_or_family_are_rejected(tmp_path):
    doc = base_doc()
    doc["sequence"]["block"] = {"type": "magic_sandwich", "tau1": 5e-6}
    with pytest.raises(ConfigError, match="tau1"):
        config_from_dict(doc)
    doc = _full_doc("open")
    doc["decoherence"]["omdf"]["path"] = "omdf.txt"
    with pytest.raises(ConfigError, match="path"):
        config_from_dict(doc, base_dir=tmp_path)


def test_misspelt_workers_key_exits_2(tmp_path):
    from mqcnmr.cli import main
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(base_doc(worker=4)))
    assert main(["simulate", str(path), "--output", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_acquisition_axis_key_exits_2(tmp_path):
    # detection is always I_x + i I_y, so an axis key would be silently ignored
    from mqcnmr.cli import main
    doc = base_doc()
    doc["sequence"]["acquisition"] = {"t_m": 3e-6, "window": 2e-6, "axis": "y"}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["simulate", str(path), "--output", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    del doc["sequence"]["acquisition"]["axis"]
    assert config_from_dict(doc).acquisition == AcquisitionSpec(t_m=3e-6, window=2e-6)


def test_config_hash_stable_and_key_order_independent():
    a = {"b": 1, "a": [1, 2]}
    b = {"a": [1, 2], "b": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"a": [1, 2], "b": 2})


def test_preset_paths_and_shipped_configs():
    for name in ("two_spin_ms", "fivecb_style", "open_demo", "nonideality_sweep"):
        cfg = load_config(preset_path(f"runs/{name}.yaml"))
        assert cfg.grid.n_t >= 2
    with pytest.raises(ConfigError, match="available"):
        preset_path("runs/does_not_exist.yaml")


def test_fivecb_style_preset_details():
    cfg = load_config(preset_path("runs/fivecb_style.yaml"))
    assert cfg.grid.t_p == pytest.approx(27e-6)
    assert cfg.grid.n_phi == 38
    assert isinstance(cfg.block, Mrev8Spec) and cfg.block.mode == "stretch"
    np.testing.assert_allclose(np.diff(cfg.grid.taus), 120e-6)
