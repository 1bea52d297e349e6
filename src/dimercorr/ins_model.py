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
import re

import numpy as np

from .constants import AVOGADRO, KB_ERG_PER_K, KB_MEV_PER_K, MU_B_ERG_PER_G
from .fitting import FWHM_OVER_SIGMA, FitModelParams, evaluate_model
from .numerics import bisect_boundary
from .quantum_core import DimerModel, level_weights, thermal_energy
from .spectra import Spectrum

SIGMA_FLOOR = 1e-9  # counts; keeps noiseless spectra weightable


@dataclasses.dataclass(frozen=True)
class FormFactorParams:
    """Dipole approximation coefficients: F(Q) = A e^(-a s^2) + B e^(-b s^2)
    + C e^(-c s^2) + D0 with s = Q/(4 pi) in 1/angstrom.

    Normalization requires F(0) = A + B + C + D0 within 1% of unity.
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
        f0 = self.A + self.B + self.C + self.D0
        if not 0.99 <= f0 <= 1.01:
            raise ValueError(f"form factor normalization F(0) = {f0} is not within 1% of 1")


@dataclasses.dataclass(frozen=True)
class LineShape:
    """Gaussian replacement of the energy delta function.

    fwhm is the full width at half maximum in meV; include_antistokes adds
    the energy-gain mirror peak when synthesizing spectra.
    """

    fwhm: float
    include_antistokes: bool = False

    def __post_init__(self):
        if not 0.0 < self.fwhm < math.inf:
            raise ValueError(f"fwhm must be positive and finite, got {self.fwhm}")


@dataclasses.dataclass(frozen=True)
class SynthConfig:
    """Everything needed to synthesize one seeded spectrum."""

    model: DimerModel
    T: float
    lineshape: LineShape
    background_slope: float = 0.0
    background_intercept: float = 0.0
    amplitude: float = 10.0
    noise_fraction: float = 0.0
    grid: tuple = (2.0, 14.0, 200)
    rng_seed: int = 0

    def __post_init__(self):
        numbers = ("T", "background_slope", "background_intercept", "amplitude", "noise_fraction")
        for name in numbers:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real, got {value!r}")
        emin, emax, n_points = self.grid
        if not -math.inf < emin < emax < math.inf:
            raise ValueError(f"grid requires finite Emin < Emax, got ({emin}, {emax})")
        if int(n_points) != n_points or n_points < 2:
            raise ValueError(f"grid needs at least 2 points, got {n_points}")
        if self.noise_fraction < 0.0:
            raise ValueError(f"noise_fraction must be nonnegative, got {self.noise_fraction}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")
        if self.T <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.T}")


def interference_factor(q, separation):
    """Dimer interference term 1 - sin(QR)/(QR), zero at Q = 0 by continuity."""
    if separation <= 0.0:
        raise ValueError(f"separation must be positive, got {separation}")
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0):
        raise ValueError("momentum transfer must be nonnegative")
    # np.sinc(x) = sin(pi x)/(pi x), so rescale to plain sin(x)/x.
    result = 1.0 - np.sinc(q * separation / math.pi)
    return float(result) if result.ndim == 0 else result


def form_factor(q, params):
    """Magnetic ion form factor in the dipole approximation, dimensionless."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0):
        raise ValueError("momentum transfer must be nonnegative")
    s2 = (q / (4.0 * math.pi)) ** 2
    result = (
        params.A * np.exp(-params.a * s2)
        + params.B * np.exp(-params.b * s2)
        + params.C * np.exp(-params.c * s2)
        + params.D0
    )
    return float(result) if result.ndim == 0 else result


_COMMENT = re.compile(r"(?:^|\s)#")


def read_key_values(path, parsers):
    """Read a flat 'key = value' text file into {key: parsers[key](value)}.

    A '#' at the start of a line or after whitespace starts a comment, so a
    value such as run#1.csv keeps its '#'; blank lines are skipped; a later
    line for a key overrides an earlier one.  A line without '=', a key not
    in parsers and a value its parser rejects (ValueError) raise ValueError
    naming the file and line.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = _COMMENT.split(raw, 1)[0].strip()
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
    """Boltzmann populations (p_singlet, p_triplet per level) of the dimer.

    Z = e^(3J/4kT) + 3 e^(-J/4kT), so p_singlet + 3 p_triplet = 1; evaluated
    in an overflow-safe branch for either sign of J.
    """
    x = model.J / thermal_energy(temperature)
    if x >= 0.0:
        ratio = math.exp(-x)  # triplet weight relative to singlet
        p_singlet = 1.0 / (1.0 + 3.0 * ratio)
        return p_singlet, ratio * p_singlet
    ratio = math.exp(x)  # singlet weight relative to triplet
    p_triplet = 1.0 / (ratio + 3.0)
    return ratio * p_triplet, p_triplet


def cross_section(model, q_vec, omega, temperature, ff_params, lineshape, dw_2w=0.0):
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

    Each direction gets |F(Q)|^2 exp(-dw_2w) [c^2 ((1 + Qhat_z^2) T_perp +
    (1 - Qhat_z^2) T_z) + s^2 (the same with N)], constant prefactors
    dropped.  The smaller of 1 -+ r is D^2/(g (g + |J|)), so no weak line
    comes from a cancellation.  q_vec is one 3-vector or an (N, 3) stack,
    taken in one pass of array operations over its N rows; |Q| is the square
    root of the summed squared components, so a vector whose squares all
    underflow is refused as Q = 0.  omega is a scalar or, with one q_vec, a
    1-D array.  One q_vec and one omega give a float.
    """
    levels = level_weights(model, temperature)
    if not math.isfinite(dw_2w):
        raise ValueError(f"dw_2w must be finite, got {dw_2w}")
    q = np.asarray(q_vec, dtype=float)
    single_q = q.ndim == 1
    q2d = np.atleast_2d(q)
    if q2d.shape[-1] != 3:
        raise ValueError(f"q_vec must have 3 components, got shape {q.shape}")
    if not np.isfinite(q2d).all():
        raise ValueError("q_vec must be finite")
    squares = q2d * q2d
    qnorm = np.sqrt(squares[:, 0] + squares[:, 1] + squares[:, 2])
    if np.any(qnorm == 0.0):
        raise ValueError("momentum transfer must be nonzero")
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError("omega must be finite")
    if omega.ndim > 0 and not single_q:
        raise ValueError("pass either many q_vec directions or many omega values, not both")

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
    width = lineshape.fwhm / FWHM_OVER_SIGMA
    shapes = np.exp(-0.5 * ((omega[..., None] - lines[:, 0]) / width) ** 2)
    strength = shapes @ (lines[:, 1:2] * lines[:, 2:]) / (width * math.sqrt(2.0 * math.pi))
    qz2 = (q2d[:, 2] / qnorm) ** 2
    half_phase = 0.5 * model.R * q2d[:, 0]
    c2, s2 = np.cos(half_phase) ** 2, np.sin(half_phase) ** 2
    plus, minus = 1.0 + qz2, 1.0 - qz2
    projector = np.empty((4, qnorm.size))  # rows T_perp, N_perp, T_z, N_z
    np.multiply(c2, plus, out=projector[0])
    np.multiply(s2, plus, out=projector[1])
    np.multiply(c2, minus, out=projector[2])
    np.multiply(s2, minus, out=projector[3])
    total = form_factor(qnorm, ff_params) ** 2 * math.exp(-dw_2w) * (strength @ projector)
    if omega.ndim > 0:
        return total[:, 0]
    return float(total[0]) if single_q else total


def synth_spectrum(config):
    """Seeded synthetic spectrum: Gaussian singlet-triplet peak at E = J on a
    linear background, with optional anti-Stokes mirror peak and
    multiplicative Gaussian noise.

    The noise standard deviation per point is noise_fraction times the
    noiseless intensity; the reported sigma column is that value floored at
    1e-9 counts.  Identical configs produce bit-identical spectra.
    """
    emin, emax, n_points = config.grid
    energy = np.linspace(emin, emax, int(n_points))
    p_singlet, p_triplet = transition_weights(config.model, config.T)
    width = config.lineshape.fwhm / FWHM_OVER_SIGMA
    peak = FitModelParams(
        amplitude=config.amplitude * p_singlet,
        center=config.model.J,
        sigma_width=width,
        slope=config.background_slope,
        intercept=config.background_intercept,
    )
    base = evaluate_model(peak, energy)
    if config.lineshape.include_antistokes:
        mirror = (energy + config.model.J) / width
        base = base + config.amplitude * p_triplet * np.exp(-0.5 * mirror * mirror)
    noise_std = config.noise_fraction * np.abs(base)
    rng = np.random.default_rng(config.rng_seed)
    intensity = base + rng.standard_normal(energy.size) * noise_std
    return Spectrum(energy, intensity, np.maximum(noise_std, SIGMA_FLOOR))


def _require_isotropic(model):
    if model.D != 0.0:
        raise ValueError(f"the Bleaney-Bowers susceptibility requires D = 0, got D = {model.D}")


def bleaney_bowers_chi(model, temperature):
    """Molar susceptibility of isolated dimers, emu/mol of dimers.

    chi(T) = 2 N_A g^2 mu_B^2 p_t / kB T, p_t = 1/(3 + e^(J/kT)) the population
    of one triplet level (quantum_core.level_weights); reduces to the
    two-spin Curie law N_A g^2 mu_B^2 / (2 kB T) at high temperature and is
    gapped to zero as T -> 0 for antiferromagnetic J.  Requires D = 0.
    """
    _require_isotropic(model)
    kt = thermal_energy(temperature)
    # kB T in erg is subnormal below about 1.6e-292 K; convert its meV value.
    curie = 2.0 * AVOGADRO * model.g**2 * MU_B_ERG_PER_G**2 * (KB_MEV_PER_K / KB_ERG_PER_K) / kt
    return float(curie * level_weights(model, temperature).p_t)


def bleaney_bowers_peak_temperature(model):
    """Temperature of the susceptibility maximum, for J > 0 and D = 0.

    In x = J/kT, chi is proportional to x / (3 + e^x), which peaks where
    e^x (x - 1) = 3, at x* = 1 + W0(3/e) = 1.5946..., bracketed on [1, 2].
    For J <= 0, chi falls monotonically with T.
    """
    _require_isotropic(model)
    if model.J <= 0.0:
        raise ValueError("the susceptibility has a maximum only for an antiferromagnetic J > 0")
    x = bisect_boundary(lambda v: 3.0 - math.exp(v) * (v - 1.0), 1.0, 2.0)
    return model.J / (KB_MEV_PER_K * x)
