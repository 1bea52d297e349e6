"""Weighted least-squares extraction of the exchange constant from a spectrum.

The model is a Gaussian peak on a linearly sloping background; the peak
center is the singlet-triplet gap, i.e. the exchange constant itself, and
its fitted uncertainty propagates directly into the entanglement critical
temperature.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .constants import KB_MEV_PER_K
from .spectra import Spectrum

# FWHM of a Gaussian over its standard deviation: 2 sqrt(2 ln 2).
FWHM_OVER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

_MAX_ITERATIONS = 200
_LAMBDA_START = 1e-3
_LAMBDA_CEILING = 1e12
_CHI2_RTOL = 1e-10
_STEP_TOL = 1e-12


class FitError(RuntimeError):
    """Least-squares failure (singular normal equations after damping
    escalation, or a fit that ends on a non-finite chi-square); carries a
    diagnostics dict."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclasses.dataclass(frozen=True)
class FitModelParams:
    """Gaussian peak plus linear background.

    amplitude : peak height, counts
    center    : peak position, meV
    sigma_width : Gaussian standard deviation, meV
    slope, intercept : background line, counts/meV and counts
    """

    amplitude: float
    center: float
    sigma_width: float
    slope: float
    intercept: float

    def __post_init__(self):
        if self.sigma_width <= 0.0:
            raise ValueError(f"sigma_width must be positive, got {self.sigma_width}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")

    def as_array(self):
        return np.array(
            [self.amplitude, self.center, self.sigma_width, self.slope, self.intercept]
        )


@dataclasses.dataclass(frozen=True)
class FitResult:
    """Fit outcome: best parameters, scaled covariance, goodness of fit.

    covariance is (J^T W J)^-1 * chi2_reduced in the parameter order of
    FitModelParams; chi2_history records the chi-square after every
    accepted step.  stop_reason says why the iteration ended: "chi2" (the
    relative chi-square decrease fell below tolerance), "step" (the step
    norm did), "stalled" (no damped step lowers chi-square) or
    "max_iterations" (the cap was hit, converged=False).
    """

    params: FitModelParams
    covariance: np.ndarray
    chi2_reduced: float
    n_iterations: int
    converged: bool
    chi2_history: tuple = ()
    stop_reason: str | None = None

    def center_uncertainty(self):
        return math.sqrt(max(float(self.covariance[1, 1]), 0.0))


def evaluate_model(params, energy):
    """amplitude * exp(-(E-center)^2 / (2 sigma^2)) + slope*E + intercept."""
    energy = np.asarray(energy, dtype=float)
    arg = (energy - params.center) / params.sigma_width
    return params.amplitude * np.exp(-0.5 * arg * arg) + params.slope * energy + params.intercept


def _evaluate_vector(p, energy):
    # p = [amplitude, center, sigma, slope, intercept]; sigma enters squared,
    # so its sign is immaterial during iteration.
    arg = (energy - p[1]) / p[2]
    return p[0] * np.exp(-0.5 * arg * arg) + p[3] * energy + p[4]


def _weighted_jacobian(p, energy, weight):
    arg = (energy - p[1]) / p[2]
    gauss = np.exp(-0.5 * arg * arg)
    jac = np.empty((energy.size, 5))
    jac[:, 0] = gauss
    jac[:, 1] = p[0] * gauss * arg / p[2]
    jac[:, 2] = p[0] * gauss * arg * arg / p[2]
    jac[:, 3] = energy
    jac[:, 4] = 1.0
    return jac * weight[:, None]


def initial_guess(spectrum):
    """Starting parameters from the data alone.

    Background line through the lowest-intensity 30% of points, peak
    center/height from the background-subtracted maximum, width from half
    the span above half maximum with a floor of two grid steps.
    """
    if len(spectrum) < 10:
        raise ValueError(f"need at least 10 points, got {len(spectrum)}")
    energy, intensity = spectrum.energy, spectrum.intensity
    n_low = max(2, int(round(0.3 * len(spectrum))))
    low = np.argsort(intensity)[:n_low]
    slope, intercept = np.polyfit(energy[low], intensity[low], 1)
    residual = intensity - (slope * energy + intercept)
    peak = int(np.argmax(residual))
    amplitude = max(float(residual[peak]), 0.0)
    step = float(np.median(np.diff(energy)))
    above = residual > 0.5 * residual[peak]
    span = float(energy[above].max() - energy[above].min()) if above.any() else 0.0
    sigma_width = max(0.5 * span, 2.0 * step)
    return FitModelParams(
        amplitude=amplitude,
        center=float(energy[peak]),
        sigma_width=sigma_width,
        slope=float(slope),
        intercept=float(intercept),
    )


def _constrain(p):
    """Map the raw parameter vector onto the valid FitModelParams domain."""
    amplitude, center, sigma, slope, intercept = p
    sigma = abs(float(sigma))
    amplitude = float(amplitude)
    if amplitude < 0.0:
        amplitude = 0.0
    return FitModelParams(amplitude, float(center), sigma, float(slope), float(intercept))


def fit_gaussian_linear(spectrum, init=None):
    """Damped Gauss-Newton fit of the Gaussian + line model.

    Minimizes sum_i [(I_i - model(E_i)) / sigma_i]^2.  Damping starts at
    1e-3, is multiplied by 10 on every rejected step and divided by 10 on
    every accepted one; iteration stops when the relative chi-square
    decrease falls below 1e-10, the step norm (in the scaled units below)
    below 1e-12 or no damped step lowers chi-square, with a hard cap of 200
    iterations (converged=False there).  Raises FitError if the damped
    normal equations stay unsolvable through the escalation ladder, or if
    the fit would end on a non-finite chi-square.

    The fit runs on intensity and sigma scaled by 2^-k, with k the binary
    exponent of the largest sigma, so that the weights and chi-square stay
    in the float range whatever the unit of the counts.  Power-of-two
    scaling is exact: amplitude, slope and intercept scale back by 2^k,
    their covariance by the products of those factors, and chi-square does
    not change.
    """
    if len(spectrum) < 10:
        raise ValueError(f"need at least 10 points, got {len(spectrum)}")
    energy = spectrum.energy
    k = math.frexp(float(np.max(spectrum.sigma)))[1]
    exponents = np.array([k, 0, 0, k, k])  # power of two carried by each parameter
    intensity = np.ldexp(spectrum.intensity, -k)
    weight = 1.0 / np.ldexp(spectrum.sigma, -k)
    if init is None:
        init = initial_guess(spectrum)
    p = np.ldexp(init.as_array(), -exponents)

    def chi2_of(vec):
        # trial vectors may wander into sigma ~ 0; the resulting non-finite
        # chi-square just rejects the step
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = (intensity - _evaluate_vector(vec, energy)) * weight
            return float(np.dot(r, r))

    lam = _LAMBDA_START
    chi2 = chi2_of(p)
    history = [chi2]
    stop_reason = "max_iterations"
    n_iterations = 0
    for n_iterations in range(1, _MAX_ITERATIONS + 1):
        residual = (intensity - _evaluate_vector(p, energy)) * weight
        jac = _weighted_jacobian(p, energy, weight)
        # an init far off scale overflows these; the ladder rejects its steps
        with np.errstate(over="ignore", invalid="ignore"):
            normal = jac.T @ jac
            gradient = jac.T @ residual
        scale = np.diag(normal).copy()
        scale[scale <= 0.0] = 1.0

        step = None
        while True:
            try:
                candidate = np.linalg.solve(normal + lam * np.diag(scale), gradient)
            except np.linalg.LinAlgError:
                candidate = None
            if candidate is not None and np.all(np.isfinite(candidate)):
                trial = p + candidate
                chi2_trial = chi2_of(trial)
                if np.isfinite(chi2_trial) and chi2_trial <= chi2:
                    step = candidate
                    break
            lam *= 10.0
            if lam > _LAMBDA_CEILING:
                if candidate is None:
                    raise FitError(
                        "singular normal equations after damping escalation",
                        diagnostics={
                            "params": np.ldexp(p, exponents).tolist(),
                            "chi2": chi2,
                            "lambda": lam,
                            "iteration": n_iterations,
                        },
                    )
                break

        if step is None:
            # No step lowers chi-square any further: the fit has stalled at
            # a minimum, which is convergence for this damping scheme.
            stop_reason = "stalled"
            break
        lam = max(lam / 10.0, 1e-15)
        decrease = chi2 - chi2_trial
        p = trial
        chi2 = chi2_trial
        history.append(chi2)
        if decrease <= _CHI2_RTOL * max(chi2, np.finfo(float).tiny):
            stop_reason = "chi2"
            break
        if float(np.linalg.norm(step)) < _STEP_TOL:
            stop_reason = "step"
            break

    params = _constrain(p)
    if params.amplitude == 0.0 and p[0] < 0.0:
        # The unconstrained optimum went to negative peak height; report the
        # boundary of the physical domain with the background refitted there.
        design = np.stack([energy, np.ones_like(energy)], axis=1) * weight[:, None]
        slope, intercept = np.linalg.lstsq(design, intensity * weight, rcond=None)[0]
        params = dataclasses.replace(params, slope=float(slope), intercept=float(intercept))

    p_final = params.as_array()
    chi2 = chi2_of(p_final)
    if not math.isfinite(chi2):
        raise FitError(
            "non-finite chi-square at the end of the fit",
            diagnostics={
                "params": np.ldexp(p_final, exponents).tolist(),
                "chi2": chi2,
                "lambda": lam,
                "iteration": n_iterations,
                "stop_reason": stop_reason,
            },
        )
    dof = len(spectrum) - 5
    chi2_reduced = chi2 / dof
    jac = _weighted_jacobian(p_final, energy, weight)
    covariance = np.linalg.pinv(jac.T @ jac, hermitian=True) * chi2_reduced
    covariance = 0.5 * (covariance + covariance.T)
    return FitResult(
        params=FitModelParams(*np.ldexp(p_final, exponents).tolist()),
        covariance=np.ldexp(covariance, exponents[:, None] + exponents[None, :]),
        chi2_reduced=chi2_reduced,
        n_iterations=n_iterations,
        converged=stop_reason != "max_iterations",
        chi2_history=tuple(history),
        stop_reason=stop_reason,
    )


def propagate_tc(fit):
    """Entanglement critical temperature center/(kB ln 3) and its one-sigma
    uncertainty from a converged fit."""
    if not fit.converged:
        raise ValueError("cannot propagate from a non-converged fit")
    if fit.params.center <= 0.0:
        raise ValueError(f"fitted center must be positive, got {fit.params.center}")
    scale = KB_MEV_PER_K * math.log(3.0)
    return fit.params.center / scale, fit.center_uncertainty() / scale
