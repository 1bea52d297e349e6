"""Thermal quantum correlations of a spin-1/2 Heisenberg dimer and the
inelastic-neutron-scattering analysis that extracts its exchange constant."""

from .constants import KB_MEV_PER_K
from .correlations import (
    CorrelationPoint,
    CriticalTemperatures,
    MeasurementBasis,
    ThermalPanel,
    chsh_max,
    chsh_tc_closed,
    classical_correlation_closed,
    classical_correlation_optimized,
    concurrence_closed,
    concurrence_wootters,
    correlation_point,
    critical_temperatures,
    discord,
    discord_optimized,
    entanglement_tc_closed,
    find_chsh_tc,
    find_entanglement_tc,
    mutual_information,
    mutual_information_from_state,
    thermal_panel,
    von_neumann_entropy,
    witness,
)
from .fitting import (
    FWHM_OVER_SIGMA,
    FitError,
    FitModelParams,
    FitResult,
    evaluate_model,
    fit_gaussian_linear,
    initial_guess,
    propagate_tc,
)
from .ins_model import (
    FormFactorParams,
    LineShape,
    SynthConfig,
    bleaney_bowers_chi,
    bleaney_bowers_peak_temperature,
    cross_section,
    default_form_factor,
    form_factor,
    interference_factor,
    load_form_factor,
    powder_intensity,
    synth_spectrum,
    transition_weights,
)
from .quantum_core import (
    DensityMatrix,
    DimerModel,
    EigenSystem4,
    build_hamiltonian,
    eigh4,
    g_parameter,
    gibbs_state,
    maximally_mixed_state,
    singlet_state,
    spin_correlator,
)
from .spectra import Spectrum

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
