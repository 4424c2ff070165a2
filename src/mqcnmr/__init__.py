"""Multiple-quantum coherence NMR simulator for small dipolar-coupled spin clusters."""

__version__ = "0.1.0"

from .analysis import DecayCurve, FitResult, eigen_selectivity_report, fit_decay, frequency_cuts
from .hamiltonian import (EigenSystem, SpinSystem, dipolar_frequency, eigendecompose,
                          secular_hamiltonian)
from .opensystem import (DecoherenceParams, GaussianOMDF, TabulatedOMDF, g_irreversible,
                         run_grid_open)
from .operators import SpinRegister
from .sequence import (AcquisitionSpec, ExperimentGrid, MagicSandwichSpec, Mrev8Spec,
                       magic_sandwich, mrev8_block, run_grid, verify_reversion)
from .spectra import CoherenceSpectrum, SignalGrid, fft2_coherence

__all__ = [
    "AcquisitionSpec", "CoherenceSpectrum", "DecayCurve", "DecoherenceParams",
    "EigenSystem", "ExperimentGrid", "FitResult", "GaussianOMDF", "MagicSandwichSpec",
    "Mrev8Spec", "SignalGrid", "SpinRegister", "SpinSystem", "TabulatedOMDF",
    "dipolar_frequency", "eigen_selectivity_report", "eigendecompose", "fft2_coherence",
    "fit_decay", "frequency_cuts", "g_irreversible", "magic_sandwich", "mrev8_block",
    "run_grid", "run_grid_open", "secular_hamiltonian", "verify_reversion",
]
