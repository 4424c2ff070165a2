"""Command-line interface.

Subcommands: simulate, spectra, fit, verify-reversion, sweep.
Exit codes: 0 ok, 2 configuration error, 3 numerical-validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config, load_yaml, preset_path
from .errors import ConfigError, NumericalValidationError
from .runner import fit_stage, simulate, spectra_stage, sweep, verify_stage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _resolve_config(args) -> Path:
    if args.preset:
        return preset_path(f"runs/{args.preset}.yaml")
    if not args.config:
        raise ConfigError("give a config file or --preset NAME")
    return Path(args.config)


def _cmd_simulate(args) -> int:
    cfg = load_config(_resolve_config(args))
    manifest = simulate(cfg, out_dir=args.output)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_spectra(args) -> int:
    manifest = spectra_stage(args.run_dir, zero_pad=args.zero_pad, band_hz=args.band_hz)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_fit(args) -> int:
    report = fit_stage(args.run_dir, mu=args.mu, frequencies=args.frequency,
                       model=args.model, cut_mode=args.cut_mode)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = load_config(_resolve_config(args))
    result = verify_stage(cfg, max_residual=args.max_residual)
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    path = _resolve_config(args)
    doc = load_yaml(path, "config")
    manifests = sweep(doc, base_dir=path.parent, out_root=args.output)
    print(json.dumps({"runs": len(manifests)}, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqcnmr",
        description="Simulate and analyze multiple-quantum coherence NMR experiments "
                    "on small dipolar-coupled spin clusters.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("config", nargs="?", help="run configuration YAML")
        p.add_argument("--preset", help="name of a shipped preset (see presets/runs)")

    p = sub.add_parser("simulate", help="run the closed or open engine over the grid")
    add_config_args(p)
    p.add_argument("--output", help="output directory (default from config)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("spectra", help="transform stored signals into coherence spectra")
    p.add_argument("run_dir", help="directory with signals.npy from simulate")
    p.add_argument("--zero-pad", type=int, default=1, dest="zero_pad",
                   help="t-axis zero-padding factor for display (default 1)")
    p.add_argument("--band-hz", type=float, default=None, dest="band_hz",
                   help="restrict the frequency axis to |f| <= BAND_HZ")
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("fit", help="cut spectra at fixed frequencies and fit decays")
    p.add_argument("run_dir", help="directory with spectra.npy")
    p.add_argument("--mu", type=int, required=True, help="coherence order to cut")
    p.add_argument("--frequency", type=float, action="append", required=True,
                   help="frequency in Hz (repeatable)")
    p.add_argument("--model", choices=("exponential", "linear"), default="exponential")
    p.add_argument("--cut-mode", choices=("nearest", "local3"), default="nearest",
                   dest="cut_mode")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify-reversion", help="gate the configured reversion block")
    add_config_args(p)
    p.add_argument("--max-residual", type=float, default=1e-2, dest="max_residual")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="cartesian parameter sweep of simulate")
    add_config_args(p)
    p.add_argument("--output", help="root directory for the sweep runs")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalValidationError as exc:
        print(f"numerical validation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
