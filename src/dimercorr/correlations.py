"""Quantum-correlation panel of the thermal dimer and its critical temperatures.

At any z-axis Dzyaloshinskii-Moriya coupling D the thermal state is fixed
by four Boltzmann weights, and a local z rotation makes it Bell-diagonal
with correlations -c_perp, -c_perp, c_z.  One body, written once over array
or Python-float functions, evaluates every measure from those: bell_panel
on arrays, thermal_panel and the sweep through it, the crossing root of
critical_temperatures on floats, and the D = 0 G-forms at (-G, G, 1).  The
general-state routines (Wootters concurrence, Horodecki CHSH bound,
Henderson-Vedral discord, optimized over measurement axes by one shrinking
grid search) work on any 4x4 state and are the oracles the body is tested
against.  Every root, in u = e^(-g/2kT) with g = sqrt(J^2 + D^2), is
bracketed by numerics.bisect_boundary down to adjacent floats, with no
bracket fixed in kelvin and no tolerance, on one u-bracket per root at
every D: critical_temperatures passes it signed functions of u, and the
oracles find_entanglement_tc and find_chsh_tc the concurrence and the
CHSH maximum minus 2 of the 4x4 Gibbs state.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
import types
from typing import NamedTuple

import numpy as np

from .constants import KB_MEV_PER_K
from .numerics import bisect_boundary
from .quantum_core import (
    MIN_TEMPERATURE_K,
    PAULIS,
    SPIN_SITE1,
    SPIN_SITE2,
    DimerModel,
    gibbs_state,
    level_weights,
    spin_correlator,
)

_PAULI_PAIRS = 4.0 * SPIN_SITE1[:, None] @ SPIN_SITE2  # sigma_a x sigma_b = 4 S1^a S2^b
_SYSY = _PAULI_PAIRS[1, 1]  # sigma_y x sigma_y

WITNESS_BOUND = 0.25  # product states satisfy |<S1.S2>| <= 1/4


def _xlog2_array(values):
    """Elementwise x log2 x with 0 log 0 = 0; negative entries give 0 too."""
    return values * np.log2(np.where(values > 0.0, values, 1.0))


def von_neumann_entropy(matrix):
    """Entropy -sum lam log2 lam of a Hermitian PSD matrix, in bits; an
    eigenvalue rounded below 0 counts as 0."""
    return float(-np.sum(_xlog2_array(np.linalg.eigvalsh(matrix))))


def reduced_states(rho):
    """Single-spin reduced states (site 1, site 2) as 2x2 arrays."""
    r4 = rho.matrix.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r4), np.einsum("abac->bc", r4)


# ---------------------------------------------------------------------------
# General two-qubit states: the witness and the oracles
# ---------------------------------------------------------------------------

def witness(rho):
    """Entanglement witness |<S1.S2>| and whether it exceeds the product bound 1/4."""
    value = abs(spin_correlator(rho))
    return value, value > WITNESS_BOUND


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


_SEED_STEPS = 360  # the seed grid's steps per turn of theta and of phi
_ZOOM_POINTS = 9  # per angle of each re-centred grid
_ZOOM_STOP = 1e-9  # rad; the search ends on the first grid spaced below it
_SEED_SPACING = math.tau / _SEED_STEPS
_SEED_PHI = _SEED_SPACING * np.arange(_SEED_STEPS)
_SEED_THETA = _SEED_PHI[_SEED_PHI <= math.pi]  # both poles
_ZOOM, _ZOOM_SPACING = np.linspace(-1.0, 1.0, _ZOOM_POINTS, retstep=True)  # in half-widths


def _angle_grid(thetas, phis):
    """Every (theta, phi) pair of two 1-D arrays, as two flat arrays."""
    return (grid.ravel() for grid in np.meshgrid(thetas, phis, indexing="ij"))


def _bloch_axes(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _branch_entropy_terms(mats):
    """p S(state / p) = p log2 p - sum_k lam_k log2 lam_k for each
    unnormalized 2x2 branch state of trace p and eigenvalues lam_k;
    branches with vanishing probability contribute 0."""
    tr = np.real(mats[..., 0, 0] + mats[..., 1, 1])
    det = np.real(mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0])
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return _xlog2_array(tr) - _xlog2_array(0.5 * (tr + disc)) - _xlog2_array(0.5 * (tr - disc))


def _measured_correlation_evaluator(rho):
    """Vectorized J(axis) = S(rho1) - sum_b p_b S(rho1|b) over measurement axes."""
    r4 = rho.matrix.reshape(2, 2, 2, 2)
    rho1, _ = reduced_states(rho)
    kvec = np.stack([np.einsum("abcw,wb->ac", r4, sigma) for sigma in PAULIS])
    base_entropy = von_neumann_entropy(rho1)

    def evaluate(axes):
        plus = 0.5 * (rho1[None, :, :] + np.einsum("na,aij->nij", axes, kvec))
        minus = rho1[None, :, :] - plus
        return base_entropy - _branch_entropy_terms(plus) - _branch_entropy_terms(minus)

    return evaluate


def classical_correlation_optimized(rho):
    """Classical correlation maximized over projective measurements on spin 2.

    A 1-degree grid of (theta, phi), 181 x 360 points, seeds the search.
    Each round then re-centres a 9 x 9 grid on the best axis so far, its
    half-width the last grid's spacing, until a grid is spaced below
    _ZOOM_STOP.  J(n) is flat to an ulp over about 1e-8 rad, so the value
    settles to about 1e-15 bits, but the axis only to about 1e-8 rad.
    Returns (value in bits, the optimizing measurement axis on spin 2 as a
    unit 3-vector).
    """
    evaluate = _measured_correlation_evaluator(rho)
    thetas, phis = _angle_grid(_SEED_THETA, _SEED_PHI)
    spacing = _SEED_SPACING
    while True:
        values = evaluate(_bloch_axes(thetas, phis))
        best = int(np.argmax(values))
        theta, phi = float(thetas[best]), float(phis[best])
        if spacing < _ZOOM_STOP:
            break
        thetas, phis = _angle_grid(theta + spacing * _ZOOM, phi + spacing * _ZOOM)
        spacing *= _ZOOM_SPACING
    return float(values[best]), _bloch_axes(theta, phi)


def mutual_information_from_state(rho):
    """S(rho1) + S(rho2) - S(rho) in bits, for any two-qubit state."""
    rho1, rho2 = reduced_states(rho)
    return (
        von_neumann_entropy(rho1)
        + von_neumann_entropy(rho2)
        - von_neumann_entropy(rho.matrix)
    )


def discord_optimized(rho):
    """Quantum discord from the Henderson-Vedral measurement optimization:
    mutual information minus classical_correlation_optimized, in bits.

    Ground truth for D != 0 states; agrees with discord(G) at D = 0.
    """
    value, _ = classical_correlation_optimized(rho)
    return mutual_information_from_state(rho) - value


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
# The panel from the Bell-diagonal correlations, at any z-axis D
# ---------------------------------------------------------------------------

BellPanel = collections.namedtuple(
    "BellPanel",
    "G witness concurrence discord mutual_info classical_corr chsh_max entangled nonlocal_flag",
)


ThermalPanel = collections.namedtuple("ThermalPanel", ("T", *BellPanel._fields))
ThermalPanel.__doc__ = """The correlation panel of the thermal dimer, in sweep-CSV column order:
    arrays over temperature from thermal_panel, Python floats and bools at
    one temperature from correlation_point.

    T is in K, G = (4/3) <S1.S2> and witness = |<S1.S2>|; discord,
    mutual_info and classical_corr are in bits, with discord = mutual_info -
    classical_corr; chsh_max is the maximal CHSH expectation.  entangled
    means concurrence > 0 and nonlocal_flag means chsh_max > 2.  bell_panel
    gives the columns after T, as a BellPanel.
    """


def _xlog1p_arrays(*eps):
    """(1 + e) ln(1 + e) of each array e, as the rows of one array; 0 where
    e <= -1, an eigenvalue (1 + e)/4 of 0 or rounded below it."""
    e = np.array(eps)
    return np.log1p(e, out=np.zeros(e.shape), where=e > -1.0) * (1.0 + e)


def _xlog1p_floats(e1, e2, e3, e4, e5, log1p=math.log1p):
    """_xlog1p_arrays of the panel body's five Python floats, unrolled for the
    crossing root, which calls it a dozen times in a row: critical_temperatures
    takes 73 us, against 80 us with a list comprehension and 87 us with a
    generator (2-CPU Xeon container).  The fifth, Luo's c >= 0, needs no guard."""
    return (
        (1.0 + e1) * log1p(e1) if e1 > -1.0 else 0.0,
        (1.0 + e2) * log1p(e2) if e2 > -1.0 else 0.0,
        (1.0 + e3) * log1p(e3) if e3 > -1.0 else 0.0,
        (1.0 + e4) * log1p(e4) if e4 > -1.0 else 0.0,
        (1.0 + e5) * log1p(e5),
    )


_LN2 = math.log(2.0)
# The functions the panel body calls, on arrays and on Python floats.
_ARRAYS = types.SimpleNamespace(expm1=np.expm1, maximum=np.maximum, xlog1p=_xlog1p_arrays)
_FLOATS = types.SimpleNamespace(
    expm1=math.expm1, maximum=lambda a, b: a if a > b else b, xlog1p=_xlog1p_floats
)


def _bell_correlations(p_minus, log_t, log_plus, xp):
    """c_perp = p_minus - p_plus and c_z = 2 p_t - p_minus - p_plus from p_minus
    and the log-weights ln(p_t/p_minus), ln(p_plus/p_minus), through expm1,
    so both keep their relative precision as the log-weights vanish."""
    em_plus = xp.expm1(log_plus)
    return -p_minus * em_plus, p_minus * (2.0 * xp.expm1(log_t) - em_plus)


def _bell_measures(c_perp, c_z, xp):
    """bell_panel's concurrence, mutual information, classical correlation and
    Luo's c, on arrays (xp = _ARRAYS) or Python floats (xp = _FLOATS)."""
    a, two_perp = abs(c_perp), 2.0 * c_perp
    c = xp.maximum(a, abs(c_z))
    # 2 lambda - 1 <= 0 for lambda = (1 + c_z)/4, so only (1 +- 2 c_perp - c_z)/4 count
    concurrence = xp.maximum(0.0, a - 0.5 * (1.0 + c_z))
    minus, plus, twice, low, high = xp.xlog1p(two_perp - c_z, -(two_perp + c_z), c_z, -c, c)
    mutual = (minus + plus + 2.0 * twice) / (4.0 * _LN2)
    return concurrence, mutual, (low + high) / (2.0 * _LN2), c


def bell_panel(c_perp, c_z, r):
    """The panel of the Bell-diagonal state with correlations -c_perp, -c_perp,
    c_z, over floats or arrays of one shape: a BellPanel of the ThermalPanel
    columns after T.  With eps = 4 lambda - 1 for its eigenvalues lambda =
    (1 + 2 c_perp - c_z)/4, (1 - 2 c_perp - c_z)/4 and (1 + c_z)/4 twice:
    concurrence = max(0, 2 lambda_max - 1); mutual information =
    sum (1 + eps) log1p(eps) / (4 ln 2), with 0 log1p(-1) = 0; classical
    correlation = [(1-c) log1p(-c) + (1+c) log1p(c)] / (2 ln 2), Luo's optimum
    at c = max(|c_perp|, |c_z|) (S. Luo, PRA 77, 042303 (2008)); CHSH maximum
    = 2 sqrt(c_perp^2 + c^2); <S1.S2> = (c_z - 2 r c_perp)/4, witness =
    |<S1.S2>| and G = (4/3) <S1.S2>, r = 1 in the Bell basis and J/g in the
    dimer's lab basis.  The first-order terms of the log1p sums cancel, so
    the entropies carry a relative error of about 1e-16 / max|eps| near the
    maximally mixed state, and an absolute one of about 1e-14 near a pure one.
    """
    c_perp, c_z = np.asarray(c_perp, dtype=float), np.asarray(c_z, dtype=float)
    concurrence, mutual, classical, c = _bell_measures(c_perp, c_z, _ARRAYS)
    bell = 2.0 * np.sqrt(c_perp * c_perp + c * c)
    correlator = 0.25 * (c_z - 2.0 * r * c_perp)
    return BellPanel(
        (4.0 / 3.0) * correlator, np.abs(correlator), concurrence, mutual - classical,
        mutual, classical, bell, concurrence > 0.0, bell > 2.0,
    )


def _g_measures(G, hi=1.0 / 3.0):
    """_bell_measures of the D = 0 thermal state, c_perp = -G and c_z = G."""
    if not -1.0 <= G <= hi:
        raise ValueError(f"G must lie in [-1.0, {hi}], got {G}")
    return _bell_measures(-G, G, _FLOATS)


def concurrence_closed(G):
    """Concurrence of the D = 0 thermal dimer state, max{0, |G| - |1+G|/2}."""
    return _g_measures(G)[0]


def mutual_information(G):
    """Mutual information of the D = 0 state, (1/4)[(1-3G) log2(1-3G) + 3(1+G) log2(1+G)] bits."""
    return _g_measures(G)[1]


def classical_correlation_closed(G):
    """Luo's classical correlation (1/2)[(1-G) log2(1-G) + (1+G) log2(1+G)] of
    the D = 0 state, alone, so defined for G in [-1, 1]."""
    return _g_measures(G, hi=1.0)[2]


def discord(G):
    """Quantum discord of the D = 0 state: mutual information - classical correlation."""
    _, mutual, classical, _ = _g_measures(G)
    return mutual - classical


def thermal_panel(model, temperatures):
    """The whole panel at every temperature of an array, from four Boltzmann weights.

    H = J S1.S2 + D (S1 x S2)_z has levels -J/4 - g/2, J/4 (twice) and
    -J/4 + g/2, g = sqrt(J^2 + D^2), populated p_minus, p_t, p_t, p_plus
    (quantum_core.level_weights, which checks the temperatures).  A local z
    rotation, which leaves every measure but the basis-dependent witness
    unchanged, makes the state Bell-diagonal: the panel is bell_panel at
    c_perp = p_minus - p_plus, c_z = 2 p_t - p_minus - p_plus and r = J/g.
    """
    T = np.asarray(temperatures, dtype=float)
    gap, log_t, log_plus, p_minus, _, _ = level_weights(model, T)
    c_perp, c_z = _bell_correlations(p_minus, log_t, log_plus, _ARRAYS)
    return ThermalPanel(T, *bell_panel(c_perp, c_z, model.J / gap if gap > 0.0 else 0.0))


def correlation_point(model, temperature):
    """The thermal_panel row at one temperature, at any z-axis D, as a
    ThermalPanel of Python floats and bools."""
    return ThermalPanel._make(value.item() for value in thermal_panel(model, temperature))


# ---------------------------------------------------------------------------
# Critical temperatures
# ---------------------------------------------------------------------------

class CriticalTemperatures(NamedTuple):
    """tc_entanglement: concurrence reaches 0; tc_chsh: CHSH maximum reaches 2;
    t_cross: concurrence and discord cross.  All in K."""

    tc_entanglement: float
    tc_chsh: float
    t_cross: float


# x = J/kT at the D = 0 roots.
_X_TC = math.log(3.0)
_X_TC_CHSH = math.log((3.0 + math.sqrt(2.0)) / (math.sqrt(2.0) - 1.0))
_SQRT_HALF = math.sqrt(0.5)
# Each root's bracket in u = e^(-g/2kT), for J/g from 0 to 1, rounded
# outward: Tc has u in [1/(1+sqrt2), 1/sqrt3] = [0.4142, 0.5774] and Tc'
# has u in [(sqrt2-1)/(sqrt2+1), sqrt((sqrt2-1)/(3+sqrt2))] = [0.1716, 0.3064].
_U_TC = (0.41, 0.58)
_U_TC_CHSH = (0.17, 0.31)
# Values of r = J/g whose roots _u_roots keeps; every D = 0 model has r = 1.
_ROOT_MEMO_SIZE = 32


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


def _antiferromagnet_gap(model):
    """The gap g = sqrt(J^2 + D^2) in which every root is bracketed; refuses J <= 0."""
    if model.J <= 0.0:
        raise ValueError("critical temperatures require an antiferromagnetic J > 0")
    return math.hypot(model.J, model.D)


def _temperature(gap, u):
    """T = g / (kB (-2 ln u)), the temperature at which u = e^(-g/2kT)."""
    return gap / (KB_MEV_PER_K * (-2.0 * math.log(u)))


def _oracle_root(model, f, bracket):
    """The temperature where f(4x4 Gibbs state) stops being positive, bracketed in u."""
    gap = _antiferromagnet_gap(model)
    root = bisect_boundary(lambda u: f(gibbs_state(model, _temperature(gap, u))), *bracket)
    return _temperature(gap, root)


def find_entanglement_tc(model):
    """Entanglement death temperature, where the Wootters concurrence of the
    4x4 Gibbs state reaches 0; an oracle for critical_temperatures."""
    return _oracle_root(model, concurrence_wootters, _U_TC)


def find_chsh_tc(model):
    """Temperature where the CHSH maximum of the 4x4 Gibbs state drops to 2;
    an oracle for critical_temperatures."""
    return _oracle_root(model, lambda rho: chsh_max(rho) - 2.0, _U_TC_CHSH)


def _concurrence_minus_discord(u, r):
    """Concurrence - discord at u = e^(-g/2kT) and r = J/g, u in (0, 1): the
    panel body on Python floats, for the log-weights (1 + r) ln u and 2 ln u."""
    log_u = math.log(u)
    log_t, log_plus = (1.0 + r) * log_u, 2.0 * log_u
    p_minus = 1.0 / (1.0 + math.exp(log_plus) + 2.0 * math.exp(log_t))
    c_perp, c_z = _bell_correlations(p_minus, log_t, log_plus, _FLOATS)
    concurrence, mutual, classical, _ = _bell_measures(c_perp, c_z, _FLOATS)
    return concurrence - (mutual - classical)


@functools.lru_cache(maxsize=_ROOT_MEMO_SIZE)
def _u_roots(r):
    """(u_ent, u_bell, u_cross): u = e^(-g/2kT) at Tc, Tc' and T_cross for
    r = J/g in (0, 1], the floats bisect_boundary returns (see
    critical_temperatures), memoized on r."""
    u_ent = bisect_boundary(lambda u: 1.0 - (u * u + 2.0 * u ** (1.0 + r)), *_U_TC)
    u_bell = bisect_boundary(
        lambda u: (1.0 - u * u) / (1.0 + u * u + 2.0 * u ** (1.0 + r)) - _SQRT_HALF, *_U_TC_CHSH
    )
    u_cross = bisect_boundary(lambda u: _concurrence_minus_discord(u, r), u_bell, u_ent)
    return u_ent, u_bell, u_cross


def critical_temperatures(model):
    """All three characteristic temperatures of the model, at any z-axis D.

    With g = sqrt(J^2 + D^2), r = J/g and u = e^(-g/2kT), the Boltzmann
    weights of thermal_panel relative to the ground level are u^(1+r) (each
    of the two p_t levels) and u^2 (p_plus).  Entanglement dies (Tc) where
    p_minus = 1/2, and CHSH violation ends (Tc') where c_perp = 1/sqrt2:

    - Tc solves u^2 + 2 u^(1+r) = 1,
    - Tc' solves (1 - u^2) / (1 + u^2 + 2 u^(1+r)) = 1/sqrt2.

    Both left-hand sides are monotone in u, and for every r in (0, 1] each
    root lies in its bracket _U_TC or _U_TC_CHSH, where it is bisected down
    to adjacent floats (bisect_boundary, given 1 - lhs and lhs - 1/sqrt2,
    whose signs are those of the comparisons at every float).
    Concurrence - discord, from the panel body on floats, is positive at Tc'
    (+0.057 to +0.085 over all D/J) and negative at Tc, where the
    concurrence is 0, so the crossing T_cross is bracketed the same way on
    [u(Tc'), u(Tc)].  At D = 0 the roots are the closed forms J/(kB ln 3)
    and J/(kB ln((3+sqrt2)/(sqrt2-1))); the brackets are fixed in u, so
    Tc(lambda J, lambda D) = lambda Tc(J, D) for all three temperatures.

    The three roots in u depend on the model only through r, so _u_roots
    solves them once per r and keeps the last _ROOT_MEMO_SIZE: every D = 0
    model (r = 1) after the first, and any model at a D/J seen before,
    runs no root finder and gets the same bits.  Only the scale g, the
    refusals and T = g / (kB (-2 ln u)) are computed per call.

    Raises ValueError unless J > 0, and, naming J and D, where a
    temperature falls below MIN_TEMPERATURE_K.
    """
    gap = _antiferromagnet_gap(model)
    temperatures = [_temperature(gap, u) for u in _u_roots(model.J / gap)]
    # Each lies below the gap, which DimerModel keeps finite in kelvin, so
    # only the smallest can fall out of the float range.
    lowest = min(temperatures)
    if not KB_MEV_PER_K * lowest >= sys.float_info.min:
        raise ValueError(
            f"J = {model.J!r} meV and D = {model.D!r} meV put the lowest critical "
            f"temperature below MIN_TEMPERATURE_K = {MIN_TEMPERATURE_K:.3g} K, got {lowest!r} K"
        )
    return CriticalTemperatures(*temperatures)
