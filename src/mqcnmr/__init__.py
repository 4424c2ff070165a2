"""Multiple-quantum coherence NMR simulator for small dipolar-coupled spin clusters."""

__version__ = "0.1.0"

from .analysis import DecayCurve, FitResult, eigen_selectivity_report, fit_decay, frequency_cuts
from .hamiltonian import (EigenSystem, SpinSystem, dipolar_frequency, eigendecompose,
                          secular_hamiltonian)
from .opensystem import (DecoherenceParams, GaussianOMDF, ReducedState, TabulatedOMDF,
                         evolve_open, g_irreversible, g_reversible, prepare_reduced_state,
                         run_grid_open, synthesize_spectrum)
from .operators import (OperatorMatrix, SpinRegister, coherence_order_decompose,
                        collective_angular_momentum, rotation, t20_pair)
from .sequence import (AcquisitionSpec, ExperimentGrid, MagicSandwichSpec, Mrev8Spec,
                       jb_prepare, magic_sandwich, mrev8_block, run_grid, verify_reversion)
from .spectra import CoherenceSpectrum, SignalGrid, fft2_coherence, spectral_assembly

__all__ = [
    "AcquisitionSpec", "CoherenceSpectrum", "DecayCurve", "DecoherenceParams",
    "EigenSystem", "ExperimentGrid", "FitResult", "GaussianOMDF", "MagicSandwichSpec",
    "Mrev8Spec", "OperatorMatrix", "ReducedState", "SignalGrid", "SpinRegister",
    "SpinSystem", "TabulatedOMDF", "coherence_order_decompose",
    "collective_angular_momentum", "dipolar_frequency", "eigen_selectivity_report",
    "eigendecompose", "evolve_open", "fft2_coherence", "fit_decay", "frequency_cuts",
    "g_irreversible", "g_reversible", "jb_prepare", "magic_sandwich", "mrev8_block",
    "prepare_reduced_state", "rotation", "run_grid", "run_grid_open",
    "secular_hamiltonian", "spectral_assembly", "synthesize_spectrum", "t20_pair",
    "verify_reversion",
]
