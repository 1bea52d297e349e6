"""Quantum-correlation panel of the thermal dimer and its critical temperatures.

At any z-axis Dzyaloshinskii-Moriya coupling D the thermal state is fixed
by four Boltzmann weights, and a local z rotation makes it Bell-diagonal,
so thermal_panel evaluates every measure in closed form, vectorized over
temperature; correlation_point, the sweep and the critical temperatures
all go through it.  The critical temperatures are roots on brackets set by
the gap g = sqrt(J^2 + D^2) alone (see critical_temperatures), so no
bracket is fixed in kelvin.  The G-forms (D = 0) and the general-state
routines (Wootters concurrence, Horodecki CHSH bound, Henderson-Vedral
measurement-optimized discord) work on their own inputs and serve as the
oracles the core is tested against.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .constants import KB_MEV_PER_K
from .numerics import bisect_boundary, golden_section_max, grid_boundary
from .quantum_core import (
    PAULIS,
    SIGMA_Y,
    DimerModel,
    gibbs_state,
    spin_correlator,
    thermal_energy,
)

_SYSY = np.kron(SIGMA_Y, SIGMA_Y)
_PAULI_PAIRS = np.stack(
    [np.stack([np.kron(PAULIS[a], PAULIS[b]) for b in range(3)]) for a in range(3)]
)

WITNESS_BOUND = 0.25  # product states satisfy |<S1.S2>| <= 1/4


def _xlog2(value):
    """x log2 x with the continuity convention 0 log 0 = 0."""
    if value <= 0.0:
        return 0.0
    return value * math.log2(value)


def _check_range(name, value, lo, hi):
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")


def von_neumann_entropy(matrix):
    """Entropy -sum lam log2 lam of a Hermitian PSD matrix, in bits."""
    lam = np.clip(np.linalg.eigvalsh(matrix), 0.0, None)
    nonzero = lam[lam > 0.0]
    return float(-np.sum(nonzero * np.log2(nonzero)))


def reduced_states(rho):
    """Single-spin reduced states (site 1, site 2) as 2x2 arrays."""
    r4 = rho.matrix.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r4), np.einsum("abac->bc", r4)


# ---------------------------------------------------------------------------
# Entanglement witness and concurrence
# ---------------------------------------------------------------------------

def witness(rho):
    """Entanglement witness |<S1.S2>| and whether it exceeds the product bound 1/4."""
    value = abs(spin_correlator(rho))
    return value, value > WITNESS_BOUND


def concurrence_closed(G):
    """Concurrence of the D = 0 thermal dimer state, max{0, |G| - |1+G|/2}."""
    _check_range("G", G, -1.0, 1.0 / 3.0)
    return max(0.0, abs(G) - 0.5 * abs(1.0 + G))


def concurrence_wootters(rho):
    """Concurrence from the spin-flipped product spectrum, for any two-qubit state.

    The eigenvalues of rho.rho_tilde (rho_tilde the sigma_y x sigma_y spin
    flip of the complex conjugate) equal the spectrum of the Hermitian
    product M = sqrt(rho) rho_tilde sqrt(rho), so no general non-Hermitian
    eigensolver is needed.  M factors as B B^dag with
    B = sqrt(rho) (sigma_y x sigma_y) sqrt(rho)*, and the required
    sqrt-eigenvalues are the singular values of B; taking them directly
    keeps the near-zero ones at full absolute precision, where eigenvalues
    of the squared product would lose half the digits.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    flip_factor = sqrt_rho @ _SYSY @ sqrt_rho.conj()
    lam = np.linalg.svd(flip_factor, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# ---------------------------------------------------------------------------
# Mutual information, classical correlation, discord: closed forms in G
# ---------------------------------------------------------------------------

def mutual_information(G):
    """Mutual information of the D = 0 thermal state, in bits.

    (1/4)[(1-3G) log2(1-3G) + 3(1+G) log2(1+G)]; equals 2 - S(rho) because
    both single-spin marginals are maximally mixed.
    """
    _check_range("G", G, -1.0, 1.0 / 3.0)
    return 0.25 * (_xlog2(1.0 - 3.0 * G) + 3.0 * _xlog2(1.0 + G))


def classical_correlation_closed(G):
    """Maximal classical correlation of the D = 0 thermal state, in bits.

    (1/2)[(1-G) log2(1-G) + (1+G) log2(1+G)]; the optimum over projective
    measurements is direction-independent for these isotropic states.
    """
    _check_range("G", G, -1.0, 1.0)
    return 0.5 * (_xlog2(1.0 - G) + _xlog2(1.0 + G))


def discord(G):
    """Quantum discord of the D = 0 thermal state: mutual information minus
    classical correlation, in bits."""
    return mutual_information(G) - classical_correlation_closed(G)


# ---------------------------------------------------------------------------
# Measurement-optimized discord for general states
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MeasurementBasis:
    """Bloch angles of the rank-1 projective measurement axis on spin 2."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


_GRID_THETA = np.linspace(0.0, math.pi, 181)
_GRID_PHI = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)


def _bloch_axes(theta, phi):
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _branch_entropy_terms(mats):
    """sum_k -lam_k log2(lam_k / p) for each unnormalized 2x2 branch state.

    This is p * S(state / p); branches with vanishing probability contribute 0.
    """
    tr = np.real(mats[..., 0, 0] + mats[..., 1, 1])
    det = np.real(mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0])
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    p = np.maximum(tr, 0.0)
    out = np.zeros_like(tr)
    for lam in (0.5 * (tr + disc), 0.5 * (tr - disc)):
        lam = np.maximum(lam, 0.0)
        mask = (lam > 0.0) & (p > 0.0)
        out[mask] -= lam[mask] * np.log2(lam[mask] / p[mask])
    return out


def _measured_correlation_evaluator(rho):
    """Vectorized J(axis) = S(rho1) - sum_b p_b S(rho1|b) over measurement axes."""
    r4 = rho.matrix.reshape(2, 2, 2, 2)
    rho1 = np.einsum("abcb->ac", r4)
    kvec = np.stack([np.einsum("abcw,wb->ac", r4, sigma) for sigma in PAULIS])
    base_entropy = von_neumann_entropy(rho1)

    def evaluate(axes):
        plus = 0.5 * (rho1[None, :, :] + np.einsum("na,aij->nij", axes, kvec))
        minus = rho1[None, :, :] - plus
        return base_entropy - _branch_entropy_terms(plus) - _branch_entropy_terms(minus)

    return evaluate


def classical_correlation_optimized(rho, tol=1e-9):
    """Classical correlation maximized over projective measurements on spin 2.

    A 181 x 360 angular grid seeds an alternating golden-section refinement
    of (theta, phi) that stops once a full round improves the value by less
    than tol.  Returns (value in bits, optimizing MeasurementBasis).
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    evaluate = _measured_correlation_evaluator(rho)
    tgrid, pgrid = np.meshgrid(_GRID_THETA, _GRID_PHI, indexing="ij")
    values = evaluate(_bloch_axes(tgrid.ravel(), pgrid.ravel()))
    best = int(np.argmax(values))
    theta = float(tgrid.ravel()[best])
    phi = float(pgrid.ravel()[best])
    value = float(values[best])

    def at(th, ph):
        return float(evaluate(_bloch_axes([th], [ph]))[0])

    window = math.pi / 180.0
    for _ in range(60):
        round_start = value
        candidate, candidate_value = golden_section_max(
            lambda t: at(t, phi), max(0.0, theta - window), min(math.pi, theta + window),
            xtol=1e-8,
        )
        if candidate_value > value:
            theta, value = candidate, candidate_value
        candidate, candidate_value = golden_section_max(
            lambda p: at(theta, p), phi - window, phi + window, xtol=1e-8
        )
        if candidate_value > value:
            phi, value = candidate, candidate_value
        window *= 0.5
        if value - round_start < tol:
            break
    return value, MeasurementBasis(min(max(theta, 0.0), math.pi), phi % (2.0 * math.pi))


def mutual_information_from_state(rho):
    """S(rho1) + S(rho2) - S(rho) in bits, for any two-qubit state."""
    rho1, rho2 = reduced_states(rho)
    return (
        von_neumann_entropy(rho1)
        + von_neumann_entropy(rho2)
        - von_neumann_entropy(rho.matrix)
    )


def discord_optimized(rho, tol=1e-9):
    """Quantum discord from the Henderson-Vedral measurement optimization.

    Ground truth for D != 0 states; agrees with discord(G) at D = 0.
    """
    value, _ = classical_correlation_optimized(rho, tol)
    return mutual_information_from_state(rho) - value


# ---------------------------------------------------------------------------
# CHSH maximum (Horodecki criterion)
# ---------------------------------------------------------------------------

def chsh_max(rho):
    """Maximal CHSH expectation 2 sqrt(t1 + t2), t1 >= t2 the largest two
    eigenvalues of T^T T with T the Pauli correlation matrix.

    Values above 2 certify nonlocality; D = 0 thermal states give
    2 sqrt(2) |G|.
    """
    t = np.real(np.einsum("ij,abji->ab", rho.matrix, _PAULI_PAIRS))
    eigs = np.linalg.eigvalsh(t.T @ t)
    return float(2.0 * math.sqrt(max(eigs[-1] + eigs[-2], 0.0)))


# ---------------------------------------------------------------------------
# The panel from the Boltzmann weights, at any z-axis D
# ---------------------------------------------------------------------------

class ThermalPanel(NamedTuple):
    """The correlation panel as arrays over temperature, in sweep-CSV column
    order; each field means what the CorrelationPoint field of that name means."""

    T: np.ndarray
    G: np.ndarray
    witness: np.ndarray
    concurrence: np.ndarray
    discord: np.ndarray
    mutual_info: np.ndarray
    classical_corr: np.ndarray
    chsh_max: np.ndarray
    entangled: np.ndarray
    nonlocal_flag: np.ndarray


def _xlog2_array(values):
    """Elementwise x log2 x with 0 log 0 = 0."""
    return values * np.log2(np.where(values > 0.0, values, 1.0))


def thermal_panel(model, temperatures):
    """The whole panel at every temperature of an array, from four Boltzmann weights.

    H = J S1.S2 + D (S1 x S2)_z has levels -J/4 - W, J/4 (twice) and
    -J/4 + W with W = sqrt(J^2 + D^2)/2, populated p_minus, p_t, p_t,
    p_plus.  The thermal state is an X state with rho_14 = 0 and maximally
    mixed marginals, so a local z rotation (which leaves every measure but
    the basis-dependent witness unchanged) makes it Bell-diagonal with
    correlations -c_perp, -c_perp, c_z, where c_perp = p_minus - p_plus
    and c_z = 2 p_t - p_minus - p_plus.  Then

    - concurrence = max(0, 2 p_minus - 1),
    - mutual information = 2 + sum p log2 p over the four levels,
    - classical correlation is Luo's Bell-diagonal optimum
      ((1-c) log2(1-c) + (1+c) log2(1+c))/2 with c = max(|c_perp|, |c_z|)
      (S. Luo, PRA 77, 042303 (2008)),
    - CHSH maximum = 2 sqrt(c_perp^2 + max(c_perp^2, c_z^2)),
    - <S1.S2> = (c_z - 2 c_perp J / sqrt(J^2 + D^2)) / 4 in the lab basis,
      witness = |<S1.S2>| and G = (4/3) <S1.S2>.

    Since 2W >= |J|, the weights are ordered p_minus >= p_t >= p_plus, so
    c_perp >= |c_z| at every temperature and both maxima are c_perp: c =
    c_perp and CHSH maximum = 2 sqrt(2) c_perp.

    Weights are taken relative to the ground level -J/4 - W, so no
    temperature overflows.  Raises ValueError unless every temperature is
    finite with a normal k_B T (quantum_core.thermal_energy).
    """
    T = np.asarray(temperatures, dtype=float)
    kT = thermal_energy(T)
    J = model.J
    gap = math.hypot(J, model.D)  # 2W
    # Log-weights relative to the ground level (J + gap >= 0 for either
    # sign of J).  exp gives 0 below about -745 anyway; the floor keeps
    # p * log w finite where (J + gap)/kT overflows.
    log_t = np.maximum(-0.5 * (J + gap) / kT, -800.0)
    log_plus = np.maximum(-gap / kT, -800.0)
    w_t, w_plus = np.exp(log_t), np.exp(log_plus)
    p_minus = 1.0 / (1.0 + w_plus + 2.0 * w_t)  # >= 1/4
    p_t, p_plus = w_t * p_minus, w_plus * p_minus
    two_pt = 2.0 * p_t
    c_perp = p_minus - p_plus  # >= |c_z| >= 0
    c_z = two_pt - p_minus - p_plus
    correlator = 0.25 * (c_z - 2.0 * (J / gap if gap > 0.0 else 0.0) * c_perp)
    concurrence = np.maximum(0.0, 2.0 * p_minus - 1.0)
    # sum p ln p, with ln p_i = ln p_minus + log w_i and sum p_i = 1
    mutual = 2.0 + (np.log(p_minus) + two_pt * log_t + p_plus * log_plus) / math.log(2.0)
    classical = 0.5 * (_xlog2_array(1.0 - c_perp) + (1.0 + c_perp) * np.log2(1.0 + c_perp))
    bell = (2.0 * math.sqrt(2.0)) * c_perp
    return ThermalPanel(
        T=T,
        G=(4.0 / 3.0) * correlator,
        witness=np.abs(correlator),
        concurrence=concurrence,
        discord=mutual - classical,
        mutual_info=mutual,
        classical_corr=classical,
        chsh_max=bell,
        entangled=concurrence > 0.0,
        nonlocal_flag=bell > 2.0,
    )


@dataclasses.dataclass(frozen=True)
class CorrelationPoint:
    """The full correlation panel of the thermal dimer at one temperature.

    Entropic quantities are in bits; entangled means concurrence > 0 and
    nonlocal_flag means chsh_max > 2.
    """

    T: float
    G: float
    witness: float
    concurrence: float
    mutual_info: float
    classical_corr: float
    discord: float
    chsh_max: float
    entangled: bool
    nonlocal_flag: bool

    def __post_init__(self):
        if abs(self.discord - (self.mutual_info - self.classical_corr)) > 1e-9:
            raise ValueError("discord must equal mutual_info - classical_corr")
        if self.classical_corr < -1e-12 or self.classical_corr > self.mutual_info + 1e-9:
            raise ValueError("classical correlation must lie in [0, mutual_info]")
        if self.entangled != (self.concurrence > 0.0):
            raise ValueError("entangled flag inconsistent with concurrence")
        if self.nonlocal_flag != (self.chsh_max > 2.0):
            raise ValueError("nonlocal flag inconsistent with chsh_max")


def correlation_point(model, temperature):
    """Evaluate the whole panel at one temperature, at any z-axis D.

    The values are those of thermal_panel at that temperature, checked for
    consistency by CorrelationPoint.
    """
    panel = thermal_panel(model, temperature)
    return CorrelationPoint(**{name: value.item() for name, value in panel._asdict().items()})


# ---------------------------------------------------------------------------
# Critical temperatures
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CriticalTemperatures:
    """tc_entanglement: concurrence reaches 0; tc_chsh: CHSH maximum reaches 2;
    t_cross: concurrence and discord cross."""

    tc_entanglement: float
    tc_chsh: float
    t_cross: float

    def __post_init__(self):
        for name in ("tc_entanglement", "tc_chsh", "t_cross"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


# x = g/kT at each root, g = sqrt(J^2 + D^2): (its J -> 0 limit, its D = 0
# value); asinh(1) = ln(1 + sqrt2).
_X_TC = (2.0 * math.asinh(1.0), math.log(3.0))
_X_TC_CHSH = (4.0 * math.asinh(1.0), math.log((3.0 + math.sqrt(2.0)) / (math.sqrt(2.0) - 1.0)))
_ROOT_RTOL = 1e-7  # root tolerance relative to the bracket's upper end


def entanglement_tc_closed(J):
    """Closed-form entanglement critical temperature J / (kB ln 3) for D = 0."""
    if J <= 0.0:
        raise ValueError("a ferromagnetic dimer is never thermally entangled")
    return J / (KB_MEV_PER_K * _X_TC[1])


def chsh_tc_closed(J):
    """Closed-form CHSH critical temperature J / (kB ln((3+sqrt2)/(sqrt2-1)))."""
    if J <= 0.0:
        raise ValueError("a ferromagnetic dimer never violates CHSH thermally")
    return J / (KB_MEV_PER_K * _X_TC_CHSH[1])


def _gap_bracket(model, x_limits):
    """(lo, hi, xtol) in K for a root whose x = g/kT lies between x_limits,
    each end widened by 1 % so that a root on it lies strictly inside."""
    if model.J <= 0.0:
        raise ValueError("critical temperatures require an antiferromagnetic J > 0")
    scale = math.hypot(model.J, model.D) / KB_MEV_PER_K
    hi = 1.01 * scale / x_limits[1]
    return 0.99 * scale / x_limits[0], hi, _ROOT_RTOL * hi


def find_entanglement_tc(model):
    """Entanglement death temperature by bisection on the Wootters concurrence
    of the 4x4 Gibbs state; an oracle for critical_temperatures."""
    return bisect_boundary(
        lambda T: concurrence_wootters(gibbs_state(model, T)) > 0.0, *_gap_bracket(model, _X_TC)
    )


def find_chsh_tc(model):
    """Temperature where the CHSH maximum of the 4x4 Gibbs state drops to 2,
    by bisection; an oracle for critical_temperatures."""
    return bisect_boundary(
        lambda T: chsh_max(gibbs_state(model, T)) > 2.0, *_gap_bracket(model, _X_TC_CHSH)
    )


def critical_temperatures(model):
    """All three characteristic temperatures of the model.

    With g = sqrt(J^2 + D^2), entanglement dies (Tc) where p_minus = 1/2,
    i.e. e^(-g/kT) + 2 e^(-(J+g)/2kT) = 1, and CHSH violation ends (Tc')
    where c_perp = 1/sqrt(2).  At fixed g and T, p_minus and c_perp grow
    with J, and 0 < J <= g, so each root lies between its J -> 0 limit and
    its D = 0 closed form:

    - g / (kB 2 ln(1+sqrt2)) <= Tc <= g / (kB ln 3),
    - g / (kB 4 ln(1+sqrt2)) <= Tc' <= g / (kB ln((3+sqrt2)/(sqrt2-1))).

    Concurrence - discord is positive at Tc' (+0.057 to +0.085 over all
    D/J) and negative at Tc, where the concurrence is 0, so the crossing
    T_cross lies in [Tc', Tc].  Tc and Tc' are closed forms at D = 0 and
    otherwise come from grid_boundary on the thermal_panel flags, each
    bracket widened by 1 %; T_cross comes from grid_boundary on [Tc', Tc].
    Brackets and tolerances (1e-7 of the upper end) scale with g, so
    Tc(lambda J, lambda D) = lambda Tc(J, D) for all three temperatures.
    """
    if model.D == 0.0:
        tc_ent = entanglement_tc_closed(model.J)
        tc_bell = chsh_tc_closed(model.J)
    else:
        tc_ent = grid_boundary(
            lambda T: thermal_panel(model, T).entangled, *_gap_bracket(model, _X_TC)
        )
        tc_bell = grid_boundary(
            lambda T: thermal_panel(model, T).nonlocal_flag, *_gap_bracket(model, _X_TC_CHSH)
        )

    def concurrence_exceeds_discord(T):
        panel = thermal_panel(model, T)
        return panel.concurrence > panel.discord

    t_cross = grid_boundary(concurrence_exceeds_discord, tc_bell, tc_ent, _ROOT_RTOL * tc_ent)
    return CriticalTemperatures(tc_ent, tc_bell, t_cross)
