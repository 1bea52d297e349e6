"""Spin-1/2 dimer operators, Hamiltonians, and thermal Gibbs states.

Everything lives in the four-dimensional product basis
{|uu>, |ud>, |du>, |dd>} with site 1 the left tensor factor and hbar = 1,
so every spin component has eigenvalues +-1/2.  Energies are in meV,
temperatures in K.
"""

from __future__ import annotations

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

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class DimerModel:
    """Physical parameters of one magnetic dimer.

    J : exchange constant, meV (positive = antiferromagnetic)
    D : z-axis Dzyaloshinskii-Moriya coupling strength, meV
    g : Lande factor (dimensionless)
    R : intra-dimer ion separation, angstrom
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


@dataclasses.dataclass(frozen=True)
class DensityMatrix:
    """Validated 4x4 two-qubit state in the product basis.

    Construction enforces Hermiticity and unit trace to 1e-12 and
    positive semidefiniteness to -1e-12 on the smallest eigenvalue.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian to 1e-12")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace} is not 1 to 1e-12")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -PSD_TOL:
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


def eigh4(matrix, hermiticity_tol=1e-9):
    """Eigendecomposition of a 4x4 Hermitian matrix, eigenvalues ascending.

    Raises ValueError if the input deviates from Hermiticity by more than
    hermiticity_tol in any entry.
    """
    h = np.asarray(matrix, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    violation = float(np.max(np.abs(h - h.conj().T)))
    if violation > hermiticity_tol:
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


def gibbs_state(model, temperature):
    """Thermal equilibrium state exp(-H/kT)/Z of the dimer at temperature K.

    Computed from the eigendecomposition with the ground-state energy
    subtracted before exponentiating, so arbitrarily low temperatures are
    safe (weights underflow to zero instead of overflowing).
    """
    kt = thermal_energy(temperature)
    system = eigh4(build_hamiltonian(model))
    weights = np.exp(-(system.values - system.values[0]) / kt)
    rho = (system.vectors * weights) @ system.vectors.conj().T / weights.sum()
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho)


def g_parameter(model, temperature):
    """Scaled correlator G = (4/3) <S1.S2> of the pure Heisenberg thermal dimer.

    Closed form (1 - e^x)/(3 + e^x) with x = J/kT, evaluated in an
    overflow-safe branch.  Only valid for D = 0; correlations.thermal_panel
    gives G at any D.
    """
    if model.D != 0.0:
        raise ValueError("closed-form G requires D = 0; thermal_panel gives G at any D")
    x = model.J / thermal_energy(temperature)
    if x > 0.0:
        t = math.exp(-x)
        return (t - 1.0) / (3.0 * t + 1.0)
    t = math.exp(x)
    return (1.0 - t) / (3.0 + t)


def spin_correlator(rho):
    """Isotropic spin-spin correlator <S1.S2> = Tr(rho S1.S2), in [-3/4, 1/4]."""
    return float(np.real(np.trace(rho.matrix @ HEISENBERG_COUPLING)))


def singlet_state():
    """Projector onto the two-spin singlet, the T -> 0 limit for J > 0."""
    return DensityMatrix(np.outer(SINGLET_KET, SINGLET_KET.conj()))


def maximally_mixed_state():
    """The infinite-temperature state, identity/4."""
    return DensityMatrix(np.eye(4, dtype=complex) / 4.0)
