"""Quantum-correlation panel of the thermal dimer and its critical temperatures.

At any z-axis Dzyaloshinskii-Moriya coupling D the thermal state is fixed
by four Boltzmann weights, and a local z rotation makes it Bell-diagonal,
so thermal_panel evaluates every measure in closed form, vectorized over
temperature; correlation_point and the sweep go through it.  The critical
temperatures use the same weights as scalar roots in u = e^(-g/2kT),
g = sqrt(J^2 + D^2), on one path for every D (see critical_temperatures).
The G-forms (D = 0) and the general-state routines (Wootters concurrence,
Horodecki CHSH bound, Henderson-Vedral measurement-optimized discord) work
on their own inputs and serve as the oracles the core is tested against;
find_entanglement_tc and find_chsh_tc bisect them on the 4x4 Gibbs state.
Every root is bracketed in u by numerics.bisect_boundary down to adjacent
floats, so no bracket is fixed in kelvin and no tolerance is set: the
oracles pass it bool predicates, which it bisects, and
critical_temperatures passes signed functions, which take secant steps.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .constants import KB_MEV_PER_K
from .numerics import bisect_boundary, golden_section_max
from .quantum_core import (
    PAULIS,
    SIGMA_Y,
    DimerModel,
    gibbs_state,
    level_weights,
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

    The weights come from quantum_core.level_weights, which also checks
    the temperatures; no temperature it accepts overflows or warns.
    """
    T = np.asarray(temperatures, dtype=float)
    gap, log_t, log_plus, p_minus, p_t, p_plus = level_weights(model, T)  # gap = 2W
    two_pt = 2.0 * p_t
    c_perp = p_minus - p_plus  # >= |c_z| >= 0
    c_z = two_pt - p_minus - p_plus
    correlator = 0.25 * (c_z - 2.0 * (model.J / gap if gap > 0.0 else 0.0) * c_perp)
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


# x = J/kT at the D = 0 roots.
_X_TC = math.log(3.0)
_X_TC_CHSH = math.log((3.0 + math.sqrt(2.0)) / (math.sqrt(2.0) - 1.0))
_SQRT_HALF = math.sqrt(0.5)
# The oracles' bracket in u = e^(-g/2kT).  Over all D, Tc has u in
# [1/(1+sqrt2), 1/sqrt3] = [0.414, 0.577] and Tc' has u in
# [(sqrt2-1)/(sqrt2+1), 0.306] = [0.172, 0.306] (J/g from 0 to 1).
_U_BRACKET = (0.125, 0.875)


def entanglement_tc_closed(J):
    """Closed-form entanglement critical temperature J / (kB ln 3) for D = 0."""
    if J <= 0.0:
        raise ValueError("a ferromagnetic dimer is never thermally entangled")
    return J / (KB_MEV_PER_K * _X_TC)


def chsh_tc_closed(J):
    """Closed-form CHSH critical temperature J / (kB ln((3+sqrt2)/(sqrt2-1)))."""
    if J <= 0.0:
        raise ValueError("a ferromagnetic dimer never violates CHSH thermally")
    return J / (KB_MEV_PER_K * _X_TC_CHSH)


def _require_antiferromagnet(model):
    if model.J <= 0.0:
        raise ValueError("critical temperatures require an antiferromagnetic J > 0")


def _temperature(gap, u):
    """T = g / (kB (-2 ln u)), the temperature at which u = e^(-g/2kT)."""
    return gap / (KB_MEV_PER_K * (-2.0 * math.log(u)))


def _oracle_root(model, inside):
    """The temperature where inside(4x4 Gibbs state) stops holding, bisected in u."""
    _require_antiferromagnet(model)
    gap = math.hypot(model.J, model.D)
    root = bisect_boundary(lambda u: inside(gibbs_state(model, _temperature(gap, u))), *_U_BRACKET)
    return _temperature(gap, root)


def find_entanglement_tc(model):
    """Entanglement death temperature by bisection on the Wootters concurrence
    of the 4x4 Gibbs state; an oracle for critical_temperatures."""
    return _oracle_root(model, lambda rho: concurrence_wootters(rho) > 0.0)


def find_chsh_tc(model):
    """Temperature where the CHSH maximum of the 4x4 Gibbs state drops to 2,
    by bisection; an oracle for critical_temperatures."""
    return _oracle_root(model, lambda rho: chsh_max(rho) > 2.0)


def _concurrence_minus_discord(u, r):
    """Concurrence - discord at u = e^(-g/2kT) and r = J/g, for u in (0, 1).

    The scalar twin of thermal_panel's formulas, whose log-weights
    -(J + g)/2kT and -g/kT are (1 + r) ln u and 2 ln u.  The crossing
    root evaluates it some 12 times in sequence, and one scalar evaluation
    costs a few percent of one numpy panel call.
    """
    log_u = math.log(u)
    log_t, log_plus = (1.0 + r) * log_u, 2.0 * log_u
    w_t, w_plus = math.exp(log_t), math.exp(log_plus)
    p_minus = 1.0 / (1.0 + w_plus + 2.0 * w_t)
    p_t, p_plus = w_t * p_minus, w_plus * p_minus
    c_perp = p_minus - p_plus
    mutual = 2.0 + (math.log(p_minus) + 2.0 * p_t * log_t + p_plus * log_plus) / math.log(2.0)
    classical = 0.5 * (_xlog2(1.0 - c_perp) + (1.0 + c_perp) * math.log2(1.0 + c_perp))
    return max(0.0, 2.0 * p_minus - 1.0) - (mutual - classical)


def critical_temperatures(model):
    """All three characteristic temperatures of the model, at any z-axis D.

    With g = sqrt(J^2 + D^2), r = J/g and u = e^(-g/2kT), the Boltzmann
    weights of thermal_panel relative to the ground level are u^(1+r) (each
    of the two p_t levels) and u^2 (p_plus).  Entanglement dies (Tc) where
    p_minus = 1/2, and CHSH violation ends (Tc') where c_perp = 1/sqrt2:

    - Tc solves u^2 + 2 u^(1+r) = 1,
    - Tc' solves (1 - u^2) / (1 + u^2 + 2 u^(1+r)) = 1/sqrt2.

    Both left-hand sides are monotone on u in (0, 1), so each root is
    bracketed on that interval down to adjacent floats
    (numerics.bisect_boundary, given 1 - lhs and lhs - 1/sqrt2, whose signs
    are those of the comparisons at every float; a property test checks
    that Tc and Tc' are the floats plain bisection gives) and converted by
    T = g / (kB (-2 ln u)).
    Concurrence - discord is positive at Tc' (+0.057 to +0.085 over all
    D/J) and negative at Tc, where the concurrence is 0, so the crossing
    T_cross is bracketed the same way on [u(Tc'), u(Tc)].  One path serves
    every D; at D = 0 the roots are the closed forms J/(kB ln 3) and
    J/(kB ln((3+sqrt2)/(sqrt2-1))).  The brackets are fixed in u, so
    Tc(lambda J, lambda D) = lambda Tc(J, D) for all three temperatures.

    Raises ValueError unless J > 0, and, through
    quantum_core.thermal_energy, for a temperature below MIN_TEMPERATURE_K.
    """
    _require_antiferromagnet(model)
    gap = math.hypot(model.J, model.D)
    r = model.J / gap
    u_ent = bisect_boundary(lambda u: 1.0 - (u * u + 2.0 * u ** (1.0 + r)), 0.0, 1.0)
    u_bell = bisect_boundary(
        lambda u: (1.0 - u * u) / (1.0 + u * u + 2.0 * u ** (1.0 + r)) - _SQRT_HALF, 0.0, 1.0
    )
    u_cross = bisect_boundary(lambda u: _concurrence_minus_discord(u, r), u_bell, u_ent)
    temperatures = [_temperature(gap, u) for u in (u_ent, u_bell, u_cross)]
    thermal_energy(temperatures)
    return CriticalTemperatures(*temperatures)
