"""The functions perfbench/tracer.py wraps by name still exist in the package,
its counter hooks still run on them, and perfbench's N = 4 oracle still holds.

The tracer looks each ``(module, attribute)`` of its ``TARGETS`` up with a
plain ``getattr``, and its hooks read the arguments and results of the
calls they count, so a rename, deletion or signature change under ``src/``
would otherwise only show when ``perfbench/run.py --trace 1`` fails.  The
oracle reaches the package through ``runner.simulate`` and
``EigenSystem.vectors`` and this directory's ``reference.py``, which the
traced pass alone would otherwise check.  Both are loaded from their source
files, and perfbench is left untouched.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import mqcnmr.config
import mqcnmr.runner  # with the package, every module the tracer wraps is loaded
from mqcnmr.config import config_from_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_source(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("module,attr", [(module, attr) for module, attr, *_ in
                                         load_source("tracer").TARGETS])
def test_traced_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"mqcnmr.{module}"), attr))


def test_counter_hooks_run_on_real_calls(tmp_path):
    # one closed MREV-8 "concatenate" run compiles its cycle once, then the
    # spectra stage; every hooked function runs under the installed tracer
    doc = {
        "molecule": {"order_parameter": 0.6, "couplings_hz": [[0, 1, 5000.0]]},
        "sequence": {"t_p": 4e-5, "block": {"type": "mrev8", "tau1": 5e-6},
                     "tau_schedule": {"count": 3}, "grid": {"n_t": 8, "dt": 2e-6, "n_phi": 5}},
    }
    out = tmp_path / "run"
    tracer = load_source("tracer").Tracer()
    with tracer:
        mqcnmr.runner.simulate(mqcnmr.config.config_from_dict(doc), out_dir=out)
        mqcnmr.runner.spectra_stage(out)
    assert mqcnmr.config.config_from_dict is config_from_dict  # uninstalled
    counts = tracer.counts
    assert counts["sequence.run_grid.calls"] == 1
    assert counts["sequence.compile_program.calls"] == 1
    assert counts["sequence.compile_program.events"] == 17  # 8 pulses and 9 delays
    assert counts["sequence.compile_program.gflop_computed"] > 0
    assert counts["runner.signals.bytes_written"] == (out / "signals.npy").stat().st_size
    assert counts["runner.spectra.bytes_written"] == (out / "spectra.csv").stat().st_size


def test_perfbench_oracle_holds_at_four_spins(tmp_path, monkeypatch):
    # the closed and open benchmark configurations at N = 4 against the
    # Kronecker/expm propagators of reference.py, as the traced pass runs them
    workloads = load_source("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # the oracle imports it
    monkeypatch.setattr(workloads, "WORK", tmp_path)
    oracle = load_source("oracle")
    errors = oracle.oracle_errors(0, mqcnmr.config, mqcnmr.runner)
    assert set(errors) == {"closed_n4", "open_n4"}
    assert all(err <= oracle.ORACLE_RTOL for err in errors.values()), errors
