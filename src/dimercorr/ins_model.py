"""Forward model of the dimer's inelastic-neutron-scattering observables.

The dispersionless singlet-triplet line sits at energy transfer J only
when D = 0: a z-axis DM coupling splits it into lines at (J + g)/2 and g,
g = sqrt(J^2 + D^2) (cross_section).  Its powder-averaged momentum
dependence carries the intra-dimer separation through the interference
factor 1 - sin(QR)/(QR).  The module also ships the magnetic form factor
machinery, a synthetic-spectrum generator for the fitting round trip, and
the isolated-dimer molar susceptibility as a consistency check on J.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import re

import numpy as np

from .constants import AVOGADRO, KB_ERG_PER_K, KB_MEV_PER_K, MU_B_ERG_PER_G
from .fitting import FWHM_OVER_SIGMA, FitModelParams, evaluate_model
from .quantum_core import DimerModel, level_weights, require_isotropic, thermal_energy
from .spectra import Spectrum, check_range, even_grid

SIGMA_FLOOR = 1e-9  # counts; keeps noiseless spectra weightable
# Largest q_vec component cross_section takes: three squares of it sum below 2^1024.
_Q_COMPONENT_MAX = 2.0**511
# Most (model, T, omega, line shape) keys cross_section's memo of line strengths holds.
_STRENGTH_MEMO_SIZE = 32
# J/kT at the susceptibility's peak: e^x (x - 1) = 3 changes sign next to it (a test checks).
_CHI_PEAK_X = 1.6035457395358361


@dataclasses.dataclass(frozen=True)
class FormFactorParams:
    """Dipole approximation coefficients: F(Q) = A e^(-a s^2) + B e^(-b s^2)
    + C e^(-c s^2) + D0 with s = Q/(4 pi) in 1/angstrom.

    Normalization requires F(0) = A + B + C + D0 within 1% of unity, and
    the exponent coefficients a, b, c must be nonnegative: a negative one
    makes F grow without bound in Q.
    """

    A: float
    a: float
    B: float
    b: float
    C: float
    c: float
    D0: float

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be a finite real, got {value!r}")
            if field.name in ("a", "b", "c") and value < 0.0:
                raise ValueError(
                    f"exponent coefficient {field.name} must be nonnegative, got {value!r}"
                )
        f0 = self.A + self.B + self.C + self.D0
        if not 0.99 <= f0 <= 1.01:
            raise ValueError(f"form factor normalization F(0) = {f0} is not within 1% of 1")


@dataclasses.dataclass(frozen=True)
class LineShape:
    """Gaussian replacement of the energy delta function: fwhm is its full
    width at half maximum, meV."""

    fwhm: float

    def __post_init__(self):
        if not 0.0 < self.fwhm < math.inf:
            raise ValueError(f"fwhm must be positive and finite, got {self.fwhm}")


@dataclasses.dataclass(frozen=True)
class SynthConfig:
    """Everything needed to synthesize one seeded spectrum; include_antistokes
    adds the energy-gain mirror peak."""

    model: DimerModel
    T: float
    lineshape: LineShape
    background_slope: float = 0.0
    background_intercept: float = 0.0
    amplitude: float = 10.0
    noise_fraction: float = 0.0
    grid: tuple = (2.0, 14.0, 200)
    rng_seed: int = 0
    include_antistokes: bool = False

    def __post_init__(self):
        numbers = ("T", "background_slope", "background_intercept", "amplitude", "noise_fraction")
        for name in numbers:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real, got {value!r}")
        emin, emax, n_points = self.grid
        check_range(emin, emax, "grid", "Emin < Emax")
        if int(n_points) != n_points or n_points < 2:
            raise ValueError(f"grid needs at least 2 points, got {n_points}")
        energy = even_grid(emin, emax, int(n_points))
        if not (energy[1:] > energy[:-1]).all():
            raise ValueError(f"grid from Emin {emin} to Emax {emax} meV in {n_points} points "
                             "has coinciding energies")
        object.__setattr__(self, "_energy", energy)  # synth_spectrum's grid, built once
        if self.noise_fraction < 0.0:
            raise ValueError(f"noise_fraction must be nonnegative, got {self.noise_fraction}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")
        if not self.lineshape.fwhm / FWHM_OVER_SIGMA > 0.0:
            raise ValueError(f"fwhm {self.lineshape.fwhm} meV is too narrow: its sigma is 0")
        thermal_energy(self.T)
        try:
            seed = operator.index(self.rng_seed)
        except TypeError:
            raise ValueError(f"rng_seed must be an integer, got {self.rng_seed!r}") from None
        if seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed}")


def _momenta(q):
    """q as a float array and its largest value; a negative or NaN Q is refused."""
    q = np.asarray(q, dtype=float)
    valid = q >= 0.0
    if not valid.all():
        raise ValueError(f"momentum transfer must be nonnegative, got {q[~valid][0]}")
    return q, float(q.max(initial=0.0))


def check_separation(separation):
    """Refuses an intra-dimer separation R that is not positive and finite."""
    if not 0.0 < separation < math.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")


def interference_factor(q, separation):
    """Dimer interference term 1 - sin(QR)/(QR), zero at Q = 0 by continuity."""
    check_separation(separation)
    q, q_top = _momenta(q)
    # np.sinc(x) = sin(pi x)/(pi x), so rescale to plain sin(x)/x.  The
    # largest Q R, and sinc's pi x from it, must not overflow.
    if math.isinf(math.pi * (q_top * separation / math.pi)):
        raise ValueError(f"Q R overflows at Q = {q_top} 1/angstrom, R = {separation} angstrom")
    result = 1.0 - np.sinc(q * separation / math.pi)
    return float(result) if result.ndim == 0 else result


def form_factor(q, params):
    """Magnetic ion form factor in the dipole approximation, dimensionless.

    Refuses a Q at which s^2 = (Q/4 pi)^2, or s^2 times an exponent
    coefficient, overflows (Q above about 4e154 1/angstrom for V4+).
    """
    q, q_top = _momenta(q)
    _check_exponent(q_top, params)
    result = _form_factor_of_s2((q / (4.0 * math.pi)) ** 2, params)
    return float(result) if result.ndim == 0 else result


def _check_exponent(q_top, params):
    """Refuses the form factor at a largest |Q| at which s^2 = (Q/4 pi)^2,
    or s^2 times an exponent coefficient, overflows."""
    s = q_top / (4.0 * math.pi)
    if math.isinf(max(params.a, params.b, params.c, 1.0) * (s * s)):
        raise ValueError(f"the form factor's exponent overflows at Q = {q_top} 1/angstrom")


def _form_factor_of_s2(s2, params):
    """A e^(-a s^2) + B e^(-b s^2) + C e^(-c s^2) + D0, summed in that order:
    the one evaluation of the dipole formula, for form_factor and
    cross_section alike."""
    return (
        params.A * np.exp(-params.a * s2)
        + params.B * np.exp(-params.b * s2)
        + params.C * np.exp(-params.c * s2)
        + params.D0
    )


_COMMENT = re.compile(r"(?:^|\s)#")


def read_key_values(path, parsers):
    """Read a flat 'key = value' text file into {key: parsers[key](value)}.

    A '#' at the start of a line or after whitespace starts a comment, so a
    value such as run#1.csv keeps its '#'; blank lines are skipped; a later
    line for a key overrides an earlier one.  A line without '=', a key not
    in parsers and a value its parser rejects (ValueError) raise ValueError
    naming the file and line.  A leading UTF-8 byte-order mark is dropped.
    """
    values = {}
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = _COMMENT.split(raw)[0].strip()
            if not line:
                continue
            key, equals, text = line.partition("=")
            if not equals:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key = key.strip()
            if key not in parsers:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = parsers[key](text.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def load_form_factor(path):
    """Read form-factor coefficients from a flat 'key = value' text file.

    Keys are the case-sensitive field names A, a, B, b, C, c, D0.
    """
    keys = [field.name for field in dataclasses.fields(FormFactorParams)]
    values = read_key_values(path, dict.fromkeys(keys, float))
    missing = [key for key in keys if key not in values]
    if missing:
        raise ValueError(f"{path}: missing form-factor keys {missing}")
    return FormFactorParams(**values)


@functools.cache
def default_form_factor():
    """Tabulated dipole-approximation coefficients for V4+ shipped with the package.

    The file is read on the first call only; every call returns that one
    FormFactorParams, which is frozen and so safe to share.
    """
    from importlib import resources

    with resources.as_file(resources.files("dimercorr").joinpath("data/v4plus_j0.txt")) as path:
        return load_form_factor(path)


def powder_intensity(q, model, params):
    """Powder-averaged transition intensity |F(Q)|^2 [1 - sin(QR)/(QR)].

    Overall scale is arbitrary; only the Q dependence is meaningful.
    """
    return form_factor(q, params) ** 2 * interference_factor(q, model.R)


def transition_weights(model, temperature):
    """Boltzmann populations (p_singlet, p_triplet per level) of the D = 0
    dimer, so p_singlet + 3 p_triplet = 1; refuses D != 0.

    They are level_weights at D = 0: the singlet is the minus level for
    J >= 0 and the plus level for J < 0, and p_t is each triplet level's.
    """
    require_isotropic(model, "transition_weights")
    levels = level_weights(model, temperature)
    return float(levels.p_minus if model.J >= 0.0 else levels.p_plus), float(levels.p_t)


def _line_strengths(model, temperature, omega, lineshape):
    """T_perp, N_perp, T_z and N_z of cross_section's seven-line table at
    energy transfer omega, a float or an array: shape omega's + (4,).

    Each strength is a sum of unit-area Gaussians whose weights sum to at
    most 1, so it stays below 2/(sigma sqrt(2 pi)); a fwhm at which that
    bound overflows is refused before any Gaussian is formed.  Far from a
    line the square of (omega' - omega)/sigma may overflow, and the
    Gaussian there is exactly 0."""
    width = lineshape.fwhm / FWHM_OVER_SIGMA
    norm = width * math.sqrt(2.0 * math.pi)
    if not norm > 2.0 / np.finfo(float).max:
        raise ValueError(f"fwhm {lineshape.fwhm} meV is too narrow: its peak height overflows")
    levels = level_weights(model, temperature)
    J, g, p_minus, p_t, p_plus = model.J, levels.gap, levels.p_minus, levels.p_t, levels.p_plus
    large = 1.0 + abs(J) / g if g > 0.0 else 1.0  # 1 + |r|
    small = (model.D / g) ** 2 / large if g > 0.0 else 1.0  # 1 - |r| = D^2/(g (g + |J|))
    lo, hi = (0.5 * small, 0.5 * large) if J >= 0.0 else (0.5 * large, 0.5 * small)
    lines = np.array([  # energy transfer, population, weights in T_perp, N_perp, T_z, N_z
        (0.5 * (J + g), p_minus, lo, hi, 0.0, 0.0),
        (0.5 * (J - g), p_plus, hi, lo, 0.0, 0.0),
        (-0.5 * (J + g), p_t, lo, hi, 0.0, 0.0),
        (0.5 * (g - J), p_t, hi, lo, 0.0, 0.0),
        (0.0, 2.0 * p_t, 0.0, 0.0, 1.0, 0.0),
        (g, p_minus, 0.0, 0.0, 0.0, 1.0),
        (-g, p_plus, 0.0, 0.0, 0.0, 1.0),
    ])
    with np.errstate(over="ignore"):
        shapes = np.exp(-0.5 * (np.subtract.outer(omega, lines[:, 0]) / width) ** 2)
    return shapes @ (lines[:, 1:2] * lines[:, 2:]) / norm


@functools.lru_cache(maxsize=_STRENGTH_MEMO_SIZE)
def _scalar_line_strengths(model, temperature, omega, lineshape):
    """_line_strengths at one float temperature and omega, as four Python floats."""
    return tuple(_line_strengths(model, temperature, omega, lineshape).tolist())


def cross_section(model, q_vec, omega, temperature, ff_params, lineshape):
    """Thermal magnetic neutron cross section of the dimer, arbitrary scale.

    With ions at 0 and R x_hat, S_1 + e^(i Q_x R) S_2 splits into the total
    spin S_1 + S_2 times c = cos(Q_x R/2) and the staggered spin S_1 - S_2
    times s = sin(Q_x R/2), which never interfere under the transverse
    projector delta_ab - Qhat_a Qhat_b.  On the levels -J/4 - g/2, J/4
    (twice) and -J/4 + g/2 of quantum_core.level_weights (populations p-,
    p_t, p_t, p+) both strengths are uniaxial, T_perp, T_z and N_perp, N_z,
    each a sum of seven unit-area Gaussian lines, with r = J/g (0 at g = 0):

        energy transfer  population  T_perp   N_perp   T_z  N_z
        (J + g)/2        p-          (1-r)/2  (1+r)/2
        (J - g)/2        p+          (1+r)/2  (1-r)/2
        -(J + g)/2       p_t         (1-r)/2  (1+r)/2
        (g - J)/2        p_t         (1+r)/2  (1-r)/2
        0                2 p_t                         1
        g                p-                                 1
        -g               p+                                 1

    Each direction gets |F(Q)|^2 [c^2 ((1 + Qhat_z^2) T_perp +
    (1 - Qhat_z^2) T_z) + s^2 (the same with N)], constant prefactors
    dropped; a Q-dependent prefactor such as the Debye-Waller factor
    exp(-2W(Q)) is the caller's.  The smaller of 1 -+ r is
    D^2/(g (g + |J|)), so no weak line comes from a cancellation.

    The value is the product of two factors.  The four line strengths
    depend on (model, T, omega, line shape) only; at one scalar omega they
    come from a small bounded memo, as four Python floats, because a powder
    average calls this function once per |Q| shell with the same
    (model, T, omega, line shape).  The memo is read after every other
    input has been checked and holds only keys whose fwhm passed its own
    check, so it changes no result and skips no refusal.  The
    direction factor is one pass of array operations over the N rows of
    q_vec: |Q|^2 is the sum of the squared components, Qhat_z^2 = Q_z^2/|Q|^2
    and |F|^2 is taken at s^2 = |Q|^2/(4 pi)^2, with no square root.  Both
    c^2 and s^2 come from one tangent, t = tan(Q_x R/2): c^2 = 1/(1 + t^2)
    and s^2 = t^2 c^2, which agree with cos^2 and sin^2 to about 1e-15
    relative at any finite phase (|t| stays below about 2e18, so t^2 never
    overflows) and cost one vectorized tan.

    q_vec is one 3-vector or an (N, 3) stack.  A vector whose squares all
    underflow is refused as Q = 0, and one with a component above 2^511
    (about 6.7e153 1/angstrom), whose squares could overflow, is refused by
    name, as is an R for which R/2 times the largest component overflows,
    and a largest |Q| at which the form factor's exponent overflows.  omega
    is a scalar or, with one q_vec, a 1-D array.  One q_vec and one omega
    give a float.  A bad input is refused in the order temperature, q_vec,
    omega, form-factor exponent, and last a fwhm at which the peak height
    of a unit-area line overflows.
    """
    thermal_energy(temperature)
    q = np.asarray(q_vec, dtype=float)
    single_q = q.ndim == 1
    q2d = q if q.ndim > 1 else q.reshape(1, q.size)
    if q2d.shape[-1] != 3:
        raise ValueError(f"q_vec must have 3 components, got shape {q.shape}")
    magnitudes = np.abs(q2d)
    top = float(magnitudes.max(initial=0.0))
    if not top <= _Q_COMPONENT_MAX:  # also false for nan
        if not np.isfinite(q2d).all():
            raise ValueError("q_vec must be finite")
        row = q2d[np.argmax((magnitudes > _Q_COMPONENT_MAX).any(axis=1))].tolist()
        raise ValueError(
            f"q_vec {row} has a component above 2^511 = {_Q_COMPONENT_MAX:.3g} 1/angstrom, "
            "so its squared length could overflow"
        )
    half_r = 0.5 * model.R
    if math.isinf(half_r * top):
        raise ValueError(
            f"the phase Q_x R/2 overflows at R = {model.R} angstrom "
            f"and a q_vec component of {top} 1/angstrom"
        )
    squares = np.multiply(magnitudes, magnitudes, out=magnitudes)
    q2 = squares[:, 0] + squares[:, 1]
    q2 += squares[:, 2]
    if not q2.all():
        raise ValueError("momentum transfer must be nonzero")
    omega = np.asarray(omega, dtype=float)
    if not (math.isfinite(omega) if omega.ndim == 0 else np.isfinite(omega).all()):
        raise ValueError("omega must be finite")
    if omega.ndim > 1:
        raise ValueError(f"omega must be a scalar or a 1-D array, got shape {omega.shape}")
    if omega.ndim and not single_q:
        raise ValueError("pass either many q_vec directions or many omega values, not both")
    _check_exponent(math.sqrt(q2.max(initial=0.0)), ff_params)

    if omega.ndim:
        strengths = _line_strengths(model, temperature, omega, lineshape)
    else:
        memo = _scalar_line_strengths(model, float(temperature), float(omega), lineshape)
        strengths = np.array(memo)
    qz2 = np.divide(squares[:, 2], q2, out=squares[:, 2])
    t2 = np.tan(half_r * q2d[:, 0])
    t2 *= t2
    c2 = 1.0 / (1.0 + t2)
    s2 = np.multiply(t2, c2, out=t2)
    plus, minus = 1.0 + qz2, 1.0 - qz2
    projector = np.empty((4, q2.size))  # rows T_perp, N_perp, T_z, N_z
    np.multiply(c2, plus, out=projector[0])
    np.multiply(s2, plus, out=projector[1])
    np.multiply(c2, minus, out=projector[2])
    np.multiply(s2, minus, out=projector[3])
    factor = _form_factor_of_s2(q2 / (4.0 * math.pi) ** 2, ff_params)
    total = factor * factor * (strengths @ projector)
    if omega.ndim:
        return total[:, 0]
    return float(total[0]) if single_q else total


def synth_spectrum(config):
    """Seeded synthetic spectrum: Gaussian singlet-triplet peak at E = J on a
    linear background, with optional anti-Stokes mirror peak and
    multiplicative Gaussian noise.

    The noise standard deviation per point is noise_fraction times the
    noiseless intensity; the reported sigma column is that value floored at
    1e-9 counts.  Identical configs produce bit-identical spectra.  Settings
    whose intensity, noise std or noisy intensity overflows raise ValueError.
    """
    # The line at J with the D = 0 populations, whatever D is (ROADMAP item 4).
    p_singlet, p_triplet = transition_weights(dataclasses.replace(config.model, D=0.0), config.T)
    width = config.lineshape.fwhm / FWHM_OVER_SIGMA
    peak = FitModelParams(
        amplitude=config.amplitude * p_singlet,
        center=config.model.J,
        sigma_width=width,
        slope=config.background_slope,
        intercept=config.background_intercept,
    )
    # Below a width of about 1e-150 meV the square of (E -+ J)/width
    # overflows to inf away from the line, where the Gaussian is exactly 0,
    # as it should be.  Settings near the float maximum overflow the
    # intensity or its noise std instead: each is checked before it meets
    # the next product, which would make inf - inf or 0 inf.
    energy = config._energy
    with np.errstate(over="ignore"):
        base = evaluate_model(peak, energy)
        if config.include_antistokes:
            mirror = dataclasses.replace(peak, amplitude=config.amplitude * p_triplet,
                                         center=-config.model.J, slope=0.0, intercept=0.0)
            base = base + evaluate_model(mirror, energy)
        noise_std = config.noise_fraction * np.abs(_finite_synth(base, config))
        rng = np.random.default_rng(config.rng_seed)
        noise = rng.standard_normal(energy.size) * _finite_synth(noise_std, config)
        intensity = _finite_synth(base + noise, config)
    return Spectrum(energy, intensity, np.maximum(noise_std, SIGMA_FLOOR))


def _finite_synth(values, config):
    """values if all are finite, else a ValueError naming the synth settings."""
    if not np.isfinite(values).all():
        raise ValueError(
            "the synthetic intensity or its noise overflows: amplitude "
            f"{config.amplitude}, background slope {config.background_slope}, "
            f"intercept {config.background_intercept}, noise fraction {config.noise_fraction}"
        )
    return values


def bleaney_bowers_chi(model, temperature):
    """Molar susceptibility of isolated dimers, emu/mol of dimers.

    chi(T) = 2 N_A g^2 mu_B^2 p_t / kB T, p_t = 1/(3 + e^(J/kT)) the population
    of one triplet level (quantum_core.level_weights); reduces to the
    two-spin Curie law N_A g^2 mu_B^2 / (2 kB T) at high temperature and is
    gapped to zero as T -> 0 for antiferromagnetic J.  Requires D = 0.
    """
    require_isotropic(model, "the Bleaney-Bowers susceptibility")
    kt = thermal_energy(temperature)
    # kB T in erg is subnormal below about 1.6e-292 K; convert its meV value.
    curie = 2.0 * AVOGADRO * model.g**2 * MU_B_ERG_PER_G**2 * (KB_MEV_PER_K / KB_ERG_PER_K) / kt
    return float(curie * level_weights(model, temperature).p_t)


def bleaney_bowers_peak_temperature(model):
    """Temperature of the susceptibility maximum, for J > 0 and D = 0.

    In x = J/kT, chi is proportional to x / (3 + e^x), which peaks where
    e^x (x - 1) = 3, at x* = 1 + W0(3/e) = 1.6035...
    For J <= 0, chi falls monotonically with T.
    """
    require_isotropic(model, "the Bleaney-Bowers susceptibility")
    if model.J <= 0.0:
        raise ValueError("the susceptibility has a maximum only for an antiferromagnetic J > 0")
    return model.J / (KB_MEV_PER_K * _CHI_PEAK_X)
