"""Forward model of the dimer's inelastic-neutron-scattering observables.

The dispersionless singlet-triplet transition sits at energy transfer J;
its powder-averaged momentum dependence carries the intra-dimer separation
through the interference factor 1 - sin(QR)/(QR).  The module also ships
the magnetic form factor machinery, a synthetic-spectrum generator for the
fitting round trip, and the isolated-dimer molar susceptibility as an
independent consistency check on J.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np

from .constants import AVOGADRO, KB_ERG_PER_K, KB_MEV_PER_K, MU_B_ERG_PER_G
from .fitting import FWHM_OVER_SIGMA, FitModelParams, evaluate_model
from .numerics import bisect_boundary
from .quantum_core import (
    SPIN_SITE1,
    SPIN_SITE2,
    DimerModel,
    build_hamiltonian,
    eigh4,
    thermal_energy,
)
from .spectra import Spectrum

SIGMA_FLOOR = 1e-9  # counts; keeps noiseless spectra weightable

# S_1 + S_2 and S_1 - S_2, stacked as (2, 3, 4, 4).
TOTAL_AND_STAGGERED_SPIN = np.stack([SPIN_SITE1 + SPIN_SITE2, SPIN_SITE1 - SPIN_SITE2])


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


def default_form_factor():
    """Tabulated dipole-approximation coefficients for V4+ shipped with the package."""
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

    Sum over ordered eigenstate pairs p = (i, f) of w_p, the population of i
    times a unit-area Gaussian at E_f - E_i, and the transverse projector
    delta_ab - Qhat_a Qhat_b on <i|S_1 + e^(i phi) S_2|f> (ions at 0 and
    R x_hat, phi = Q_x R), times |F(Q)|^2 exp(-dw_2w); constant prefactors
    are dropped.  Only site 2 carries a phase, so S_1 + e^(i phi) S_2 =
    e^(i phi/2) [c t - i s n] with c, s = cos, sin(phi/2), total spin t and
    staggered spin n = S_1 - S_2.  The 16 pairs are summed once, into the
    3x3 tensors T_ab = Re sum_p w_p conj(t^a) t^b and N_ab (the same for n),
    and each direction gets exactly c^2 P(T) + s^2 P(N), P(M) = tr M -
    Qhat.M.Qhat.  The projector is real and symmetric, so it sees only the
    real parts; the t-n cross sum is antisymmetric in (a, b), because H is
    invariant under z rotations and under site exchange composed with a pi
    rotation about x, so the projector removes it.  No term cancels another:
    weak lines (the elastic triplet line at Q_x = 0) keep their precision.

    q_vec is one 3-vector or an (N, 3) stack; omega is a scalar or, with
    one q_vec, a 1-D array (T and N then carry a leading omega axis).
    """
    kt = thermal_energy(temperature)
    if not math.isfinite(dw_2w):
        raise ValueError(f"dw_2w must be finite, got {dw_2w}")
    q = np.asarray(q_vec, dtype=float)
    single_q = q.ndim == 1
    q2d = np.atleast_2d(q)
    if q2d.shape[-1] != 3:
        raise ValueError(f"q_vec must have 3 components, got shape {q.shape}")
    if not np.isfinite(q2d).all():
        raise ValueError("q_vec must be finite")
    qnorm = np.linalg.norm(q2d, axis=-1)
    if np.any(qnorm == 0.0):
        raise ValueError("momentum transfer must be nonzero")
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError("omega must be finite")
    if omega.ndim > 0 and not single_q:
        raise ValueError("pass either many q_vec directions or many omega values, not both")

    system = eigh4(build_hamiltonian(model))
    # Excitations beyond 800 kT get weight 0 (as exp(-800) is) without
    # overflowing the exponent just above MIN_TEMPERATURE_K.
    excitation = np.minimum(system.values - system.values[0], 800.0 * kt)
    boltzmann = np.exp(-excitation * (1.0 / kt))
    populations = boltzmann / boltzmann.sum()

    # amplitudes[k, a, i, f] = <i| S_1^a +- S_2^a |f>: total (k = 0), staggered (k = 1)
    amplitudes = system.vectors.conj().T @ TOTAL_AND_STAGGERED_SPIN @ system.vectors
    width = lineshape.fwhm / FWHM_OVER_SIGMA
    gaps = system.values[None, :] - system.values[:, None]  # [i, f]
    line = np.exp(-0.5 * ((omega[..., None, None] - gaps) / width) ** 2)  # (..., 4, 4)
    weights = populations[:, None] / (width * math.sqrt(2.0 * math.pi)) * line
    tensors = np.einsum("...if,kaif,kbif->...kab", weights, amplitudes.conj(), amplitudes).real
    qhat = q2d / qnorm[:, None]
    along = np.einsum("...kna,na->...kn", qhat @ tensors, qhat)
    projected = np.trace(tensors, axis1=-2, axis2=-1)[..., None] - along  # (..., 2, N)
    half = 0.5 * model.R * q2d[:, 0]
    total = form_factor(qnorm, ff_params) ** 2 * math.exp(-dw_2w) * (
        np.cos(half) ** 2 * projected[..., 0, :] + np.sin(half) ** 2 * projected[..., 1, :]
    )
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

    chi(T) = 2 N_A g^2 mu_B^2 / [kB T (3 + e^(J/kT))]; reduces to the
    two-spin Curie law N_A g^2 mu_B^2 / (2 kB T) at high temperature and is
    gapped to zero as T -> 0 for antiferromagnetic J.  Requires D = 0.
    """
    _require_isotropic(model)
    kt = thermal_energy(temperature)
    x = model.J / kt
    # kB T in erg is subnormal below about 1.6e-292 K; convert its meV value.
    curie = 2.0 * AVOGADRO * model.g**2 * MU_B_ERG_PER_G**2 * (KB_MEV_PER_K / KB_ERG_PER_K) / kt
    if x > 0.0:
        damp = math.exp(-x)
        return curie * damp / (3.0 * damp + 1.0)
    return curie / (3.0 + math.exp(x))


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
