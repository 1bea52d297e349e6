"""Weighted least-squares extraction of the exchange constant from a spectrum.

The model is a Gaussian peak on a linearly sloping background; the peak
center is the singlet-triplet gap, i.e. the exchange constant itself, and
its fitted uncertainty propagates directly into the entanglement critical
temperature.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .correlations import entanglement_tc_closed
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
    escalation, or a fit that ends on a non-finite chi-square or normal
    matrix); carries a diagnostics dict."""

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
    """Fit outcome: best parameters, covariance, goodness of fit.

    covariance is (J^T W J)^-1 at the best parameters, in the parameter
    order of FitModelParams, with W the inverse squares of the spectrum's
    sigma taken as absolute: it is not scaled by chi2_reduced.  A parameter
    the data do not determine (the centre and width at amplitude 0, whose
    columns of J vanish, or every parameter if J^T W J is singular) has
    variance inf, never 0, and covariance nan with the others.
    chi2_history records the chi-square
    after every accepted step.  stop_reason says why the iteration ended:
    "chi2" (the relative chi-square decrease fell below tolerance), "step"
    (the step norm did), "stalled" (no damped step lowers chi-square) or
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
        """One-sigma uncertainty of the center, meV; math.inf where the data
        do not determine the center (at zero amplitude, among others)."""
        return math.sqrt(max(float(self.covariance[1, 1]), 0.0))


def evaluate_model(params, energy):
    """amplitude * exp(-(E-center)^2 / (2 sigma^2)) + slope*E + intercept."""
    return _evaluate_vector(params.as_array(), np.asarray(energy, dtype=float))[2]


def _evaluate_vector(p, energy):
    """(E - center)/sigma, the unit-height Gaussian there and the model at
    p = [amplitude, center, sigma, slope, intercept]; sigma enters squared,
    so its sign is immaterial during iteration."""
    arg = (energy - p[1]) / p[2]
    gauss = np.exp(-0.5 * arg * arg)
    return arg, gauss, p[0] * gauss + p[3] * energy + p[4]


def _fill_jacobian(jac, p, arg, gauss, weight):
    """Write the weighted Gaussian columns of the Jacobian at p into jac,
    whose background columns E w and w are set once per fit."""
    peak = p[0] * gauss * arg
    np.multiply(gauss, weight, out=jac[:, 0])
    np.multiply(peak / p[2], weight, out=jac[:, 1])
    np.multiply(peak * arg / p[2], weight, out=jac[:, 2])


def _grid_step(energy):
    """The median spacing of the energies, with the bits of
    np.median(np.diff(energy)): the middle of the sorted spacings, or the
    mean of the middle two for an even count.  np.median is not called
    because it imports numpy.ma on its first call, 9-18 ms in a fresh
    process (2-CPU Xeon container, numpy 2.4); a prototype that used it
    raised the ins-roundtrip bench's peak RSS from 44.91 to 46.06 MiB in 6
    of 6 run pairs."""
    gaps = energy[1:] - energy[:-1]
    gaps.sort()
    middle = gaps.size // 2
    if gaps.size % 2:
        return float(gaps[middle])
    return float((gaps[middle - 1] + gaps[middle]) / 2.0)


def initial_guess(spectrum):
    """Starting parameters from the data alone.

    Background line through the first and last points, which are background
    at any slope for a peak inside the window; peak center/height from the
    background-subtracted maximum; width from half the span above half
    maximum with a floor of two grid steps, the grid step being the median
    energy spacing (`_grid_step`).  Refuses, naming the counts and energies,
    a spectrum whose guess leaves the float range (fit_gaussian_linear takes
    that guess as it is, and ends in FitError).
    """
    if len(spectrum) < 10:
        raise ValueError(f"need at least 10 points, got {len(spectrum)}")
    with np.errstate(over="ignore", invalid="ignore"):
        guess = _guess(spectrum)
    if not np.isfinite(guess.as_array()).all():
        raise ValueError(f"the initial guess {guess} of counts {spectrum.intensity.min()} to "
                         f"{spectrum.intensity.max()} at energies {spectrum.energy[0]} to "
                         f"{spectrum.energy[-1]} meV leaves the float range")
    return guess


def _guess(spectrum):
    """initial_guess without its checks, for a spectrum of 10 points or more."""
    energy, intensity = spectrum.energy, spectrum.intensity
    slope = (intensity[-1] - intensity[0]) / (energy[-1] - energy[0])
    intercept = intensity[0] - slope * energy[0]
    residual = intensity - (slope * energy + intercept)
    peak = int(residual.argmax())
    amplitude = max(float(residual[peak]), 0.0)
    step = _grid_step(energy)
    above = residual > 0.5 * residual[peak]
    span = float(energy[above].max() - energy[above].min()) if above.any() else 0.0
    sigma_width = max(0.5 * span, 2.0 * step)
    return FitModelParams(amplitude, float(energy[peak]), sigma_width, float(slope),
                          float(intercept))


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
    the fit would end on a non-finite chi-square or normal matrix (counts
    or weights beyond the float range).

    The fit runs on intensity and sigma scaled by 2^-k, with k the binary
    exponent of the largest sigma, so that the weights and chi-square stay
    in the float range whatever the unit of the counts.  Power-of-two
    scaling is exact: amplitude, slope and intercept scale back by 2^k,
    their covariance by the products of those factors, and chi-square does
    not change.

    The covariance is (J^T W J)^-1 at the final point, from the normal
    matrix scaled to a unit diagonal (_covariance).
    """
    if len(spectrum) < 10:
        raise ValueError(f"need at least 10 points, got {len(spectrum)}")
    energy = spectrum.energy
    k = math.frexp(float(spectrum.sigma.max()))[1]
    exponents = np.array([k, 0, 0, k, k])  # power of two carried by each parameter

    def trial_point(vec):
        """(E - center)/sigma, the Gaussian, weighted residual and chi-square at vec."""
        arg, gauss, model = _evaluate_vector(vec, energy)
        r = (intensity - model) * weight
        return arg, gauss, r, float(np.dot(r, r))

    stop_reason = "max_iterations"
    # Counts or weights beyond the float range, trial vectors that wander
    # into sigma ~ 0 and an init far off scale overflow the normal
    # equations: the non-finite chi-square or step that results just
    # rejects the step, and a fit that ends on one raises FitError.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        intensity = np.ldexp(spectrum.intensity, -k)
        weight = 1.0 / np.ldexp(spectrum.sigma, -k)
        if init is None:
            init = _guess(spectrum)
        p = np.ldexp(init.as_array(), -exponents)
        jac = np.empty((energy.size, 5))  # weighted; the background columns are fixed
        np.multiply(energy, weight, out=jac[:, 3])
        jac[:, 4] = weight
        lam = _LAMBDA_START
        arg, gauss, residual, chi2 = trial_point(p)
        history = [chi2]
        for n_iterations in range(1, _MAX_ITERATIONS + 1):
            _fill_jacobian(jac, p, arg, gauss, weight)
            normal = jac.T @ jac
            gradient = jac.T @ residual
            scale = normal.diagonal().copy()
            scale[scale <= 0.0] = 1.0

            step = None
            while True:
                damped = normal.copy()
                damped.ravel()[::6] += lam * scale  # every 6th entry of 5 x 5: the diagonal
                try:
                    candidate = np.linalg.solve(damped, gradient)
                except np.linalg.LinAlgError:
                    candidate = None
                if candidate is not None and np.isfinite(candidate).all():
                    trial = p + candidate
                    *trial_pieces, chi2_trial = trial_point(trial)
                    if math.isfinite(chi2_trial) and chi2_trial <= chi2:
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
                # No step lowers chi-square any further: the fit has stalled
                # at a minimum, which is convergence for this damping scheme.
                stop_reason = "stalled"
                break
            lam = max(lam / 10.0, 1e-15)
            decrease = chi2 - chi2_trial
            p, (arg, gauss, residual), chi2 = trial, trial_pieces, chi2_trial
            history.append(chi2)
            if decrease <= _CHI2_RTOL * max(chi2, sys.float_info.min):
                stop_reason = "chi2"
                break
            if math.sqrt(step.dot(step)) < _STEP_TOL:
                stop_reason = "step"
                break

        params = _constrain(p)
        if params.amplitude == 0.0 and p[0] < 0.0:
            # The unconstrained optimum went to negative peak height; report
            # the boundary of the physical domain with the background
            # refitted there.
            slope, intercept = np.linalg.lstsq(jac[:, 3:], intensity * weight, rcond=None)[0]
            params = dataclasses.replace(params, slope=float(slope), intercept=float(intercept))
        p_final = params.as_array()
        arg, gauss, _, chi2 = trial_point(p_final)
        _fill_jacobian(jac, p_final, arg, gauss, weight)
        normal = jac.T @ jac
        # Back to the units of the counts, where a variance may overflow to inf.
        final = np.ldexp(p_final, exponents).tolist()
        covariance = np.ldexp(_covariance(normal), exponents[:, None] + exponents[None, :])
    if not (math.isfinite(chi2) and np.isfinite(normal).all()):
        raise FitError(
            "non-finite chi-square or normal matrix at the end of the fit",
            diagnostics={
                "params": final,
                "chi2": chi2,
                "lambda": lam,
                "iteration": n_iterations,
                "stop_reason": stop_reason,
            },
        )
    return FitResult(
        params=FitModelParams(*final),
        covariance=covariance,
        chi2_reduced=chi2 / (len(spectrum) - 5),
        n_iterations=n_iterations,
        converged=stop_reason != "max_iterations",
        chi2_history=tuple(history),
        stop_reason=stop_reason,
    )


def _covariance(normal):
    """(J^T W J)^-1 from the normal matrix F = J^T W J, as S (S F S)^-1 S
    with S = diag(F)^(-1/2).  The scaled matrix has a unit diagonal, so
    columns of very different weight (the background columns of a
    spectrum whose sigma is floored near 0 outweigh the centre's by about
    1e18) keep every direction's variance; a pseudo-inverse of F itself
    cuts the weakest one to 0.  A vanishing column, or a scaled matrix that
    is not positive definite (Cholesky fails), gives variance inf and
    covariance nan, as FitResult documents.  Call under the fit's errstate:
    a variance beyond the float range is inf."""
    diagonal = normal.diagonal()
    determined = diagonal > 0.0
    covariance = np.empty(normal.shape)
    covariance.fill(math.nan)
    covariance.ravel()[::6] = math.inf  # every 6th entry of 5 x 5: the diagonal
    index = determined.nonzero()[0]
    block = index[:, None], index
    s = 1.0 / np.sqrt(diagonal[determined])
    # |F_ij| <= sqrt(F_ii F_jj), so each product stays within the float range.
    scaled = normal[block] * s[:, None] * s[None, :]
    try:
        inverse_factor = np.linalg.inv(np.linalg.cholesky(scaled))
    except np.linalg.LinAlgError:
        return covariance
    covariance[block] = s[:, None] * s * (inverse_factor.T @ inverse_factor)
    return covariance


def propagate_tc(fit, spectrum):
    """Entanglement critical temperature (correlations.entanglement_tc_closed)
    of the fitted center, and its one-sigma uncertainty, from a converged fit
    of spectrum with a nonzero amplitude, a finite center uncertainty and a
    center strictly inside the spectrum's energy range (a line off the window
    pins its center to an edge, where the data say nothing of it)."""
    if not fit.converged:
        raise ValueError("cannot propagate from a non-converged fit")
    if fit.params.amplitude == 0.0:
        raise ValueError("fitted amplitude is zero, so the center is undetermined")
    sigma = fit.center_uncertainty()
    if not math.isfinite(sigma):
        raise ValueError(f"the data do not determine the fitted center {fit.params.center}: "
                         "its uncertainty is infinite")
    if fit.params.center <= 0.0:
        raise ValueError(f"fitted center must be positive, got {fit.params.center}")
    lo, hi = float(spectrum.energy[0]), float(spectrum.energy[-1])
    if not lo < fit.params.center < hi:
        raise ValueError(f"the fitted center {fit.params.center} meV is not inside the "
                         f"spectrum's energy range {lo} to {hi} meV")
    tc_sigma = entanglement_tc_closed(sigma) if sigma > 0.0 else 0.0  # Tc is linear in J
    return entanglement_tc_closed(fit.params.center), tc_sigma
