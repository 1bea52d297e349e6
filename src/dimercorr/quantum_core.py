"""Spin-1/2 dimer operators, Hamiltonians, Gibbs states and level weights.

The operators live in the four-dimensional product basis
{|uu>, |ud>, |du>, |dd>} with site 1 the left tensor factor and hbar = 1,
so every spin component has eigenvalues +-1/2.  Energies are in meV,
temperatures in K.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import sys
from typing import NamedTuple

import numpy as np

from .constants import KB_MEV_PER_K

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
_I2 = np.eye(2, dtype=complex)

# Cartesian spin operators of each site, stacked as (3, 4, 4).
SPIN_SITE1 = np.stack([0.5 * np.kron(s, _I2) for s in PAULIS])
SPIN_SITE2 = np.stack([0.5 * np.kron(_I2, s) for s in PAULIS])

# S1.S2 and the z-axis antisymmetric exchange S1^x S2^y - S1^y S2^x.
HEISENBERG_COUPLING = sum(SPIN_SITE1[a] @ SPIN_SITE2[a] for a in range(3))
DM_COUPLING_Z = SPIN_SITE1[0] @ SPIN_SITE2[1] - SPIN_SITE1[1] @ SPIN_SITE2[0]

SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)

# Below this temperature k_B T in meV is a subnormal float: J/kT and 1/kT
# overflow, and a Boltzmann weight of the ground level becomes 0 * inf.
MIN_TEMPERATURE_K = sys.float_info.min / KB_MEV_PER_K

# DensityMatrix's one tolerance, of Hermiticity, unit trace and a negative eigenvalue.
STATE_TOL = 1e-12
EIGH4_HERMITICITY_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class DimerModel:
    """Physical parameters of one magnetic dimer.

    J : exchange constant, meV (positive = antiferromagnetic)
    D : z-axis Dzyaloshinskii-Moriya coupling strength, meV
    g : Lande factor (dimensionless)
    R : intra-dimer ion separation, angstrom

    The gap sqrt(J^2 + D^2)/k_B, above every temperature derived from the
    model, must be a finite float of kelvin: |J|, |D| below about 1.5e307.
    """

    J: float
    D: float = 0.0
    g: float = 1.99
    R: float = 4.43

    def __post_init__(self):
        for name in ("J", "D", "g", "R"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real, got {value!r}")
        if self.g <= 0.0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.R <= 0.0:
            raise ValueError(f"R must be positive, got {self.R}")
        gap_k = math.hypot(self.J, self.D) / KB_MEV_PER_K
        if not math.isfinite(gap_k):
            raise ValueError(
                f"J = {self.J!r} meV and D = {self.D!r} meV put the gap "
                f"sqrt(J^2 + D^2)/k_B beyond the float range, got {gap_k} K"
            )


@dataclasses.dataclass(frozen=True)
class DensityMatrix:
    """Validated 4x4 two-qubit state in the product basis.

    Construction enforces Hermiticity and unit trace to STATE_TOL and
    positive semidefiniteness to -STATE_TOL on the smallest eigenvalue.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > STATE_TOL:
            raise ValueError(f"density matrix is not Hermitian to {STATE_TOL}")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > STATE_TOL:
            raise ValueError(f"density matrix trace {trace} is not 1 to {STATE_TOL}")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -STATE_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {smallest}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


class EigenSystem4(NamedTuple):
    """Eigenvalues (ascending, real) and orthonormal column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def build_hamiltonian(model):
    """Dimer Hamiltonian J S1.S2 + D (S1^x S2^y - S1^y S2^x), 4x4 complex, meV.

    For D = 0 the spectrum is the singlet -3J/4 plus a threefold triplet
    at J/4; a nonzero D splits the |ud>/|du> block to -J/4 +- sqrt(J^2+D^2)/2.
    """
    return model.J * HEISENBERG_COUPLING + model.D * DM_COUPLING_Z


def eigh4(matrix):
    """Eigendecomposition of a 4x4 Hermitian matrix, eigenvalues ascending.

    Raises ValueError if the input deviates from Hermiticity by more than
    EIGH4_HERMITICITY_TOL in any entry.
    """
    h = np.asarray(matrix, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    violation = float(np.max(np.abs(h - h.conj().T)))
    if violation > EIGH4_HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (violation {violation:.3e})")
    values, vectors = np.linalg.eigh(h)
    return EigenSystem4(values, vectors)


def thermal_energy(temperature):
    """k_B T in meV of a temperature in K, a float or an array of floats.

    The one temperature check of every thermal routine: raises ValueError,
    naming the first bad temperature, unless each is finite and k_B T is a
    normal float (T above about MIN_TEMPERATURE_K = 2.6e-307 K).
    """
    T = np.asarray(temperature, dtype=float)
    kt = KB_MEV_PER_K * T
    bad = ~((kt >= sys.float_info.min) & (kt < math.inf))
    if bad.any():
        raise ValueError(
            "temperature must be positive and finite, at least "
            f"{MIN_TEMPERATURE_K:.3g} K, got {T[bad].flat[0]}"
        )
    return kt if kt.ndim else float(kt)


def _log_weight(energy, kT):
    """-energy/kT for an excitation energy >= 0, floored near -800: exactly
    -energy/kT above the floor, where exp gives 0 anyway; below it p log w
    stays finite and energy/kT cannot overflow just above MIN_TEMPERATURE_K."""
    return -energy / np.maximum(kT, energy / 800.0)


LevelWeights = collections.namedtuple("LevelWeights", "gap log_t log_plus p_minus p_t p_plus")


def level_weights(model, temperature):
    """Populations of the levels -J/4 - g/2, J/4 (twice) and -J/4 + g/2 of
    J S1.S2 + D (S1 x S2)_z, g = sqrt(J^2 + D^2), at one or an array of
    temperatures: LevelWeights(g, log_t, log_plus, p_minus, p_t, p_plus) with
    log_t = ln(p_t/p_minus) and log_plus = ln(p_plus/p_minus) floored near
    -800 (_log_weight), so no temperature that thermal_energy accepts warns.
    """
    kT = thermal_energy(temperature)
    gap = math.hypot(model.J, model.D)
    log_t = _log_weight(0.5 * (model.J + gap), kT)
    log_plus = _log_weight(gap, kT)
    w_t, w_plus = np.exp(log_t), np.exp(log_plus)
    p_minus = 1.0 / (1.0 + w_plus + 2.0 * w_t)  # >= 1/4
    return LevelWeights(gap, log_t, log_plus, p_minus, w_t * p_minus, w_plus * p_minus)


def gibbs_state(model, temperature):
    """Thermal equilibrium state exp(-H/kT)/Z of the dimer at temperature K.

    Computed from the eigendecomposition with log-weights relative to the
    ground level, floored near -800 (_log_weight): the oracle of level_weights.
    """
    kt = thermal_energy(temperature)
    system = eigh4(build_hamiltonian(model))
    weights = np.exp(_log_weight(system.values - system.values[0], kt))
    rho = (system.vectors * weights) @ system.vectors.conj().T / weights.sum()
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho)


def require_isotropic(model, what):
    """The one refusal of D != 0, naming the caller (what) and D, for the
    D = 0 views of level_weights, which would otherwise drop the coupling."""
    if model.D != 0.0:
        raise ValueError(f"{what} requires D = 0, got D = {model.D}")


def g_parameter(model, temperature):
    """Scaled correlator G = (4/3) <S1.S2> = (1 - e^x)/(3 + e^x), x = J/kT, of
    the pure Heisenberg thermal dimer; refuses D != 0, where
    correlations.thermal_panel gives G.

    At D = 0, G is p_plus - p_minus of level_weights for J > 0 (the plus
    level is a triplet, the minus level the singlet) and its negative for
    J <= 0, formed through expm1 as thermal_panel forms c_perp, so it keeps
    its relative precision as J/kT -> 0.
    """
    require_isotropic(model, "g_parameter (thermal_panel gives G at any D)")
    levels = level_weights(model, temperature)
    difference = float(levels.p_minus * math.expm1(levels.log_plus))
    return difference if model.J > 0.0 else -difference


def spin_correlator(rho):
    """Isotropic spin-spin correlator <S1.S2> = Tr(rho S1.S2), in [-3/4, 1/4]."""
    return float(np.real(np.trace(rho.matrix @ HEISENBERG_COUPLING)))


def singlet_state():
    """Projector onto the two-spin singlet, the T -> 0 limit for J > 0."""
    return DensityMatrix(np.outer(SINGLET_KET, SINGLET_KET.conj()))


def maximally_mixed_state():
    """The infinite-temperature state, identity/4."""
    return DensityMatrix(np.eye(4, dtype=complex) / 4.0)
