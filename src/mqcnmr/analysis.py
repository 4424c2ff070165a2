"""Frequency cuts of coherence spectra and decay-time fitting.

Amplitude at a frequency means spectral magnitude (phase-robust); cuts are
normalized to their value at the first tau point.  Fits are unweighted
least squares with residuals always reported.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitDomainError, MqcnmrError
from .spectra import CoherenceSpectrum


@dataclass(frozen=True)
class DecayCurve:
    """Normalized spectral amplitude versus reversion time at one frequency."""

    taus: np.ndarray
    amplitudes: np.ndarray
    frequency_hz: float

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=float)
        if taus.shape != amps.shape or taus.ndim != 1:
            raise MqcnmrError("taus and amplitudes must be matching 1D arrays")
        if np.any(np.diff(taus) <= 0):
            raise MqcnmrError("tau values must be strictly increasing")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "amplitudes", amps)

    def normalized(self) -> "DecayCurve":
        a0 = self.amplitudes[0]
        if a0 == 0:
            raise FitDomainError("cannot normalize a curve whose first amplitude is zero")
        return DecayCurve(self.taus, self.amplitudes / a0, self.frequency_hz)


@dataclass(frozen=True)
class FitResult:
    model: str
    tau_d: float
    amplitude: float
    residual_norm: float
    uncertainties: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"model": self.model, "tau_d": self.tau_d, "amplitude": self.amplitude,
                "residual_norm": self.residual_norm,
                "uncertainties": self.uncertainties, **self.extras}


def frequency_cuts(spec: CoherenceSpectrum, mu: int, frequencies,
                   mode: str = "nearest") -> list[DecayCurve]:
    """Extract normalized decay curves at fixed frequencies of one order.

    Args:
        mode: "nearest" takes the magnitude at the nearest bin; "local3"
            averages the magnitude over three bins centered there.
    """
    if mode not in ("nearest", "local3"):
        raise MqcnmrError(f"unknown cut mode {mode!r}")
    if spec.taus.size == 0:
        raise MqcnmrError("spectrum has an empty tau axis")
    block = np.abs(spec.order(mu))  # (n_tau, n_freq)
    fmin, fmax = spec.freqs_hz[0], spec.freqs_hz[-1]
    curves = []
    for f in frequencies:
        if not fmin <= f <= fmax:
            raise ConfigError(f"frequency {f} Hz outside band [{fmin}, {fmax}]")
        j = int(np.argmin(np.abs(spec.freqs_hz - f)))
        if mode == "local3":
            lo, hi = max(j - 1, 0), min(j + 2, block.shape[1])
            amps = block[:, lo:hi].mean(axis=1)
        else:
            amps = block[:, j]
        curve = DecayCurve(spec.taus, amps, float(spec.freqs_hz[j]))
        curves.append(curve.normalized())
    return curves


def fit_decay(curve: DecayCurve, model: str = "exponential") -> FitResult:
    """Least-squares decay fit.

    exponential: A * exp(-tau / tau_d), seeded log-linearly and refined
    with a bounded nonlinear fit; requires positive amplitudes.
    linear: a + b * tau; tau_d is reported as -1/b, the time for a
    unit-normalized amplitude to extrapolate to zero (slope and intercept
    are also returned since the literature leaves the parameterization
    ambiguous).
    """
    if curve.taus.size < 2:
        raise FitDomainError(f"a decay fit needs at least 2 taus, got {curve.taus.size}; rerun "
                             "simulate with 2 or more in sequence.tau_schedule, then spectra")
    tau = curve.taus
    y = curve.amplitudes

    if model == "linear":
        coeffs, diag = np.polyfit(tau, y, 1, cov=True) if tau.size > 3 else (np.polyfit(tau, y, 1), None)
        slope, intercept = float(coeffs[0]), float(coeffs[1])
        resid = float(np.linalg.norm(np.polyval(coeffs, tau) - y))
        tau_d = np.inf if slope == 0 else -1.0 / slope
        unc = {}
        if diag is not None:
            err = np.sqrt(np.diag(diag))
            unc = {"slope": float(err[0]), "intercept": float(err[1])}
        return FitResult(model="linear", tau_d=tau_d, amplitude=intercept,
                         residual_norm=resid, uncertainties=unc,
                         extras={"slope": slope, "intercept": intercept})

    if model != "exponential":
        raise MqcnmrError(f"unknown fit model {model!r}")
    if np.any(y <= 0):
        raise FitDomainError(
            "exponential fit needs positive amplitudes; use the linear model instead")

    slope, intercept = np.polyfit(tau, np.log(y), 1)
    seed_tau = -1.0 / slope if slope < 0 else float(tau[-1] - tau[0]) or 1.0
    seed = [float(np.exp(intercept)), float(seed_tau)]
    if tau.size == 2:
        # determined system: the log-linear solution is exact
        resid = float(np.linalg.norm(seed[0] * np.exp(-tau / seed[1]) - y))
        return FitResult(model="exponential", tau_d=seed[1], amplitude=seed[0],
                         residual_norm=resid)
    # imported here: scipy.optimize roughly doubles the package import time
    # and only this fit needs it
    from scipy.optimize import curve_fit
    popt, pcov = curve_fit(lambda t, a, td: a * np.exp(-t / td), tau, y, p0=seed,
                           bounds=([0.0, 1e-300], [np.inf, np.inf]), maxfev=20000)
    resid = float(np.linalg.norm(popt[0] * np.exp(-tau / popt[1]) - y))
    err = np.sqrt(np.diag(pcov))
    return FitResult(model="exponential", tau_d=float(popt[1]), amplitude=float(popt[0]),
                     residual_norm=resid,
                     uncertainties={"amplitude": float(err[0]), "tau_d": float(err[1])})


@dataclass(frozen=True)
class SelectivityReport:
    """Per-frequency decay times plus the eigen-selectivity verdict."""

    rows: tuple  # of (frequency_hz, tau_d, FitResult)
    monotone_decreasing: bool
    extreme_ratio: float

    def as_dict(self) -> dict:
        return {
            "rows": [{"frequency_hz": f, "tau_d": td, "fit": fr.as_dict()}
                     for f, td, fr in self.rows],
            "monotone_decreasing": self.monotone_decreasing,
            "extreme_ratio": self.extreme_ratio,
        }

    def table(self) -> str:
        lines = [f"{'frequency_hz':>14}  {'tau_d':>12}  {'residual':>10}"]
        for f, td, fr in self.rows:
            lines.append(f"{f:>14.3f}  {td:>12.6g}  {fr.residual_norm:>10.3e}")
        verdict = "yes" if self.monotone_decreasing else "no"
        lines.append(f"monotone decreasing tau_d with frequency: {verdict}")
        lines.append(f"extreme tau_d ratio (lowest/highest frequency): {self.extreme_ratio:.4g}")
        return "\n".join(lines) + "\n"


def eigen_selectivity_report(curves, model: str = "exponential") -> SelectivityReport:
    """Fit every curve and order the decay times by frequency.

    Curves are sorted by |frequency| ascending (ties by signed frequency,
    then input order, so the report is deterministic); the verdict flags
    whether tau_d is non-increasing with frequency.
    """
    if len(curves) < 1:
        raise MqcnmrError("need at least one decay curve")
    indexed = sorted(range(len(curves)),
                     key=lambda i: (abs(curves[i].frequency_hz), curves[i].frequency_hz, i))
    rows = []
    for i in indexed:
        fr = fit_decay(curves[i], model=model)
        rows.append((curves[i].frequency_hz, fr.tau_d, fr))
    tds = [td for _, td, _ in rows]
    monotone = all(tds[i + 1] <= tds[i] * (1 + 1e-12) for i in range(len(tds) - 1))
    ratio = tds[0] / tds[-1] if tds[-1] != 0 else np.inf
    return SelectivityReport(rows=tuple(rows), monotone_decreasing=monotone,
                             extreme_ratio=float(ratio))


def curves_to_csv(curves, path) -> None:
    """Write decay curves as CSV rows (frequency_hz, tau, amplitude)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency_hz", "tau", "amplitude"])
        for c in curves:
            for tau, amp in zip(c.taus, c.amplitudes):
                writer.writerow([repr(float(c.frequency_hz)), repr(float(tau)),
                                 repr(float(amp))])
