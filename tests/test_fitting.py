import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dimercorr import (
    KB_MEV_PER_K,
    DimerModel,
    FitError,
    FitModelParams,
    FitResult,
    LineShape,
    SynthConfig,
    evaluate_model,
    fit_gaussian_linear,
    initial_guess,
    propagate_tc,
    synth_spectrum,
)
from dimercorr import fitting
from dimercorr.spectra import Spectrum

MODEL = DimerModel(J=7.81)


def make_synth(noise, seed, **overrides):
    base = dict(
        model=MODEL,
        T=10.0,
        lineshape=LineShape(fwhm=1.0),
        background_slope=0.2,
        background_intercept=3.0,
        amplitude=10.0,
        noise_fraction=noise,
        grid=(2.0, 14.0, 200),
        rng_seed=seed,
    )
    base.update(overrides)
    return synth_spectrum(SynthConfig(**base))


class TestEvaluateModel:
    def test_value_at_center(self):
        p = FitModelParams(5.0, 7.81, 0.5, 0.2, 3.0)
        assert abs(evaluate_model(p, 7.81) - (5.0 + 0.2 * 7.81 + 3.0)) < 1e-14

    def test_zero_amplitude_is_pure_line(self):
        p = FitModelParams(0.0, 7.81, 0.5, 0.3, 1.0)
        energy = np.linspace(0.0, 10.0, 11)
        assert np.allclose(evaluate_model(p, energy), 0.3 * energy + 1.0, atol=1e-14)

    def test_one_sigma_point(self):
        p = FitModelParams(1.0, 7.81, 0.5, 0.0, 0.0)
        assert abs(evaluate_model(p, 8.31) - math.exp(-0.5)) < 1e-14

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FitModelParams(1.0, 7.81, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            FitModelParams(-1.0, 7.81, 0.5, 0.0, 0.0)


def zero_residual_spectrum(amplitude, center, sigma, slope, intercept):
    """Gaussian + line sampled exactly on 120 points of 2-14 meV, sigma 1e-9."""
    truth = FitModelParams(amplitude, center, sigma, slope, intercept)
    energy = np.linspace(2.0, 14.0, 120)
    return truth, Spectrum(energy, evaluate_model(truth, energy), np.full(120, 1e-9))


class TestInitialGuess:
    @pytest.mark.parametrize(
        "spectrum, center",
        [
            (make_synth(0.0, 0, background_slope=0.0, background_intercept=0.0), 7.81),
            # a steep line under a small peak: the lowest points all sit at
            # one end, which must not pull the seed to the far grid edge
            (zero_residual_spectrum(1.0, 3.0, 0.5, 0.5, 0.5)[1], 3.0),
            (zero_residual_spectrum(1.0, 4.0, 1.2, 0.25, 0.5)[1], 4.0),
        ],
        ids=["no-background", "steep-slope-near-edge", "steep-slope-wide"],
    )
    def test_noiseless_center_within_one_grid_step(self, spectrum, center):
        guess = initial_guess(spectrum)
        step = spectrum.energy[1] - spectrum.energy[0]
        assert abs(guess.center - center) <= step

    def test_flat_spectrum(self):
        energy = np.linspace(2.0, 14.0, 50)
        spectrum = Spectrum(energy, np.full(50, 5.0), np.full(50, 0.25))
        guess = initial_guess(spectrum)
        assert guess.amplitude < 1e-12
        assert abs(guess.slope) < 1e-12
        assert abs(guess.intercept - 5.0) < 1e-9

    def test_initial_chi2_within_factor_100_of_final(self):
        spectrum = make_synth(0.05, 7)
        guess = initial_guess(spectrum)
        residual = (spectrum.intensity - evaluate_model(guess, spectrum.energy)) / spectrum.sigma
        initial_chi2_red = float(residual @ residual) / (len(spectrum) - 5)
        final = fit_gaussian_linear(spectrum)
        assert initial_chi2_red <= 100.0 * final.chi2_reduced

    def test_too_few_points_rejected(self):
        for points in (5, 9):
            energy = np.linspace(0.0, 1.0, points)
            spectrum = Spectrum(energy, np.ones(points), np.ones(points))
            with pytest.raises(ValueError, match=f"need at least 10 points, got {points}"):
                initial_guess(spectrum)
            with pytest.raises(ValueError, match=f"need at least 10 points, got {points}"):
                fit_gaussian_linear(spectrum)

    def test_ten_points_are_enough(self):
        energy = np.linspace(2.0, 14.0, 10)
        spectrum = Spectrum(energy, 5.0 + np.exp(-0.5 * (energy - energy[4]) ** 2), np.ones(10))
        assert initial_guess(spectrum).center == energy[4]
        assert fit_gaussian_linear(spectrum).converged

    def test_width_floor_is_two_grid_steps(self):
        # one point above half maximum: the half-maximum span is 0
        energy = np.linspace(2.0, 14.0, 121)
        intensity = np.where(np.arange(121) == 60, 10.0, 3.0)
        guess = initial_guess(Spectrum(energy, intensity, np.ones(121)))
        assert guess.sigma_width == 2.0 * fitting._grid_step(energy)

    def test_no_positive_residual_takes_the_width_floor(self):
        # a straight line leaves no residual above half of its maximum, 0
        energy = np.linspace(2.0, 3.0, 11)
        guess = initial_guess(Spectrum(energy, np.full(11, 5.0), np.ones(11)))
        assert guess.amplitude == 0.0
        assert guess.sigma_width == 2.0 * fitting._grid_step(energy) < 0.5


    def test_guess_beyond_the_float_range_is_refused_naming_the_counts(self):
        # The line through counts of +-1e308 at the ends has an overflowing rise.
        counts = np.ones(12)
        counts[0], counts[-1] = sys.float_info.max, -1e308
        spectrum = Spectrum(np.linspace(2.0, 14.0, 12), counts, np.ones(12))
        message = "of counts -1e+308 to 1.7976931348623157e+308 at energies 2.0 to 14.0 meV leaves"
        with pytest.raises(ValueError, match=re.escape(message)):
            initial_guess(spectrum)
        with pytest.raises(FitError, match="non-finite chi-square or normal matrix"):
            fit_gaussian_linear(spectrum)


class TestFitGaussianLinear:
    def test_noiseless_recovery_to_machine_level(self):
        spectrum = make_synth(0.0, 0)
        fit = fit_gaussian_linear(spectrum)
        truth = np.array([9.99652540999396, 7.81, 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0))), 0.2, 3.0])
        recovered = fit.params.as_array()
        assert fit.converged
        assert np.allclose(recovered, truth, rtol=1e-6, atol=1e-9)
        assert fit.chi2_reduced < 1e-10

    def test_seeded_noise_center_recovery(self):
        fit = fit_gaussian_linear(make_synth(0.05, 42))
        assert fit.converged
        assert abs(fit.params.center - 7.81) <= 0.04

    def test_pure_background_amplitude_consistent_with_zero(self):
        rng = np.random.default_rng(3)
        energy = np.linspace(2.0, 14.0, 200)
        base = 5.0 + 0.1 * energy
        noise = 0.05 * base
        spectrum = Spectrum(energy, base + rng.standard_normal(200) * noise, noise)
        fit = fit_gaussian_linear(spectrum)
        amp_sigma = math.sqrt(max(fit.covariance[0, 0], 0.0))
        assert fit.converged
        assert fit.params.amplitude <= 3.0 * amp_sigma

    def test_accepted_steps_never_increase_chi2(self):
        fit = fit_gaussian_linear(make_synth(0.05, 9))
        history = fit.chi2_history
        assert len(history) >= 2
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))

    def test_covariance_is_symmetric_psd(self):
        fit = fit_gaussian_linear(make_synth(0.05, 5))
        cov = fit.covariance
        assert np.allclose(cov, cov.T, atol=1e-9)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        amplitude=st.floats(1.0, 50.0),
        center=st.floats(4.0, 12.0),
        sigma=st.floats(0.2, 1.2),
        slope=st.floats(-0.5, 0.5),
        intercept=st.floats(0.5, 8.0),
    )
    # Steep lines under small peaks: a background fitted through the lowest
    # points seeds these on the far grid edge, from where the fit ends on a
    # wrong centre (the first two) or at the iteration cap (the third).
    @example(amplitude=1.0, center=4.0, sigma=1.0, slope=0.25, intercept=1.0)
    @example(amplitude=1.0, center=3.0, sigma=0.5, slope=0.5, intercept=0.5)
    @example(amplitude=1.0, center=2.5, sigma=0.2, slope=0.5, intercept=0.5)
    def test_zero_residual_exactness(self, amplitude, center, sigma, slope, intercept):
        truth, spectrum = zero_residual_spectrum(amplitude, center, sigma, slope, intercept)
        fit = fit_gaussian_linear(spectrum)
        assert np.allclose(fit.params.as_array(), truth.as_array(), rtol=1e-6, atol=1e-8)

    def test_estimator_calibration_over_noise_realizations(self):
        centers, reported = [], []
        for seed in range(200):
            fit = fit_gaussian_linear(make_synth(0.05, seed))
            centers.append(fit.params.center)
            reported.append(fit.center_uncertainty())
        empirical = float(np.std(centers))
        mean_reported = float(np.mean(reported))
        assert mean_reported / 2.0 <= empirical <= mean_reported * 2.0

    def test_energy_shift_reparameterization(self):
        spectrum = make_synth(0.0, 0)
        shift = 3.0
        shifted = Spectrum(spectrum.energy + shift, spectrum.intensity, spectrum.sigma)
        base = fit_gaussian_linear(spectrum).params
        moved = fit_gaussian_linear(shifted).params
        assert abs(moved.center - (base.center + shift)) < 1e-8
        assert abs(moved.intercept - (base.intercept - base.slope * shift)) < 1e-8
        assert abs(moved.amplitude - base.amplitude) < 1e-8
        assert abs(moved.sigma_width - base.sigma_width) < 1e-8
        assert abs(moved.slope - base.slope) < 1e-8

    def test_explicit_initial_guess_is_honored(self):
        spectrum = make_synth(0.0, 0)
        init = FitModelParams(8.0, 7.5, 0.5, 0.0, 2.0)
        fit = fit_gaussian_linear(spectrum, init=init)
        assert fit.converged
        assert abs(fit.params.center - 7.81) < 1e-8


class TestFitError:
    def test_carries_diagnostics(self):
        err = FitError("boom", diagnostics={"chi2": 1.0})
        assert err.diagnostics["chi2"] == 1.0
        assert "boom" in str(err)

    def test_non_finite_chi2_is_never_converged(self):
        energy = np.linspace(2.0, 14.0, 120)
        intensity = 10.0 * np.exp(-0.5 * ((energy - 7.81) / 0.4) ** 2)
        spectrum = Spectrum(energy, intensity, np.maximum(0.05 * intensity, 1e-9))
        init = FitModelParams(1e200, 7.81, 0.4, 0.0, 0.0)
        # the init overflows the normal equations, so no step is ever finite
        with pytest.raises(FitError) as raised:
            fit_gaussian_linear(spectrum, init=init)
        assert raised.value.diagnostics["chi2"] == math.inf
        assert raised.value.diagnostics["params"][0] == 1e200

    @pytest.mark.parametrize(
        "edits",
        [
            [(24, 2, 5e-324)],  # its weight overflows, or its scaled sigma underflows to 0
            [(8, 2, 1e154)],  # every other weight, squared, overflows the normal matrix
            [(20, 1, 1e308)],  # the count overflows when scaled to the largest sigma
            [(0, 1, 1.7976931348623157e308), (39, 1, -1e308), (5, 2, 1.0)],  # the seed's slope
        ],
        ids=["tiny-sigma", "huge-sigma", "huge-count", "opposite-ends"],
    )
    def test_values_beyond_the_float_range_raise_fit_error(self, edits):
        spectrum = synth_spectrum(SynthConfig(
            model=DimerModel(J=7.81), T=10.0, lineshape=LineShape(fwhm=1.0),
            noise_fraction=0.05, grid=(2.0, 14.0, 40),
        ))
        columns = [spectrum.energy.copy(), spectrum.intensity.copy(), spectrum.sigma.copy()]
        for row, column, value in edits:
            columns[column][row] = value
        message = "non-finite chi-square or normal matrix at the end of the fit"
        with pytest.raises(FitError, match=message):
            fit_gaussian_linear(Spectrum(*columns))


class TestCenterCoverage:
    """The centre's sigma covers the truth.  Over seeds 0-399 of four synth
    families at J = 7.81 meV, 10 K, fwhm 1 meV on 200 points of 2-14 meV
    (the CLI default, noise 0.2, the background 0.2 E + 3, and amplitude 1
    on that background), z = (centre - J) / sigma is standard normal if
    sigma is right.  So the fraction with |z| < 1 must lie within 2 binomial
    standard deviations of 0.683 at the family's count (+-0.047 at 400),
    and |z| < 2 must hold for at least 0.93 (0.954 expected; 0.93 is more
    than 2 standard deviations below it).  A fit that gives no finite sigma
    (amplitude 0, or a runaway line whose normal matrix is singular) claims
    no coverage and is left out; at amplitude 1 that is about 1 fit in 5,
    elsewhere none."""

    FAMILIES = {
        "cli-default": {},
        "noise-0.2": {"noise_fraction": 0.2},
        "background": {"background_slope": 0.2, "background_intercept": 3.0},
        "amplitude-1": {"background_slope": 0.2, "background_intercept": 3.0, "amplitude": 1.0},
    }
    SEEDS = range(400)

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_sigma_covers_the_true_center(self, family):
        z = []
        for seed in self.SEEDS:
            fields = {"noise_fraction": 0.05, **self.FAMILIES[family]}
            fit = fit_gaussian_linear(synth_spectrum(SynthConfig(
                model=MODEL, T=10.0, lineshape=LineShape(fwhm=1.0), rng_seed=seed, **fields
            )))
            sigma = fit.center_uncertainty()
            if fit.converged and math.isfinite(sigma):
                z.append(abs(fit.params.center - MODEL.J) / sigma)
        z = np.array(z)
        assert z.size >= (0.75 if family == "amplitude-1" else 1.0) * len(self.SEEDS)
        spread = 2.0 * math.sqrt(0.683 * 0.317 / z.size)
        assert abs(np.mean(z < 1.0) - 0.683) <= spread
        assert np.mean(z < 2.0) >= 0.93


class TestPropagateTc:
    # The energy range of a 2-14 meV window; propagate_tc reads only its ends.
    WINDOW = Spectrum(np.linspace(2.0, 14.0, 13), np.ones(13), np.ones(13))

    def make_fit(self, center, center_sigma, converged=True):
        params = FitModelParams(10.0, center, 0.42, 0.2, 3.0)
        cov = np.zeros((5, 5))
        cov[1, 1] = center_sigma**2
        return FitResult(
            params=params, covariance=cov, chi2_reduced=1.0,
            n_iterations=4, converged=converged,
        )

    def test_reference_values(self):
        tc, tc_sigma = propagate_tc(self.make_fit(7.81, 0.04), self.WINDOW)
        assert abs(tc - 82.5) < 0.1
        assert abs(tc_sigma - 0.42) < 0.01

    @pytest.mark.parametrize("center_sigma", [0.0, 1e-150, 0.04, 3.0, 1e150])
    def test_tc_and_its_sigma_are_over_kb_ln3(self, center_sigma):
        # a centre sigma of 0 gives a Tc sigma of 0, not the refusal of J = 0
        fit = self.make_fit(7.81, center_sigma)
        scale = KB_MEV_PER_K * math.log(3.0)
        assert propagate_tc(fit, self.WINDOW) == (7.81 / scale, fit.center_uncertainty() / scale)

    def test_unit_consistency(self):
        center = KB_MEV_PER_K * math.log(3.0)
        window = Spectrum(np.linspace(0.0, 1.0, 11), np.ones(11), np.ones(11))
        tc, _ = propagate_tc(self.make_fit(center, 0.01), window)
        assert abs(tc - 1.0) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            propagate_tc(self.make_fit(7.81, 0.04, converged=False), self.WINDOW)
        bad_center = self.make_fit(7.81, 0.04)
        object.__setattr__(bad_center.params, "center", -1.0)
        with pytest.raises(ValueError):
            propagate_tc(bad_center, self.WINDOW)

    def test_center_zero_is_refused(self):
        window = Spectrum(np.linspace(-1.0, 1.0, 11), np.ones(11), np.ones(11))
        with pytest.raises(ValueError, match="center must be positive, got 0.0"):
            propagate_tc(self.make_fit(0.0, 0.04), window)

    def test_undetermined_center_has_no_tc(self):
        with pytest.raises(ValueError, match="do not determine the fitted center 7.81"):
            propagate_tc(self.make_fit(7.81, math.inf), self.WINDOW)

    @pytest.mark.parametrize("center", [2.0, 14.0, 1.0, 20.0])
    def test_center_off_the_window_has_no_tc(self, center):
        with pytest.raises(ValueError, match=rf"center {center} meV is not inside the "
                                             r"spectrum's energy range 2\.0 to 14\.0 meV"):
            propagate_tc(self.make_fit(center, 0.04), self.WINDOW)

    @pytest.mark.parametrize("center", [math.nextafter(2.0, 3.0), 2.5, 13.5,
                                        math.nextafter(14.0, 13.0)])
    def test_center_just_inside_the_window_has_a_tc(self, center):
        tc, _ = propagate_tc(self.make_fit(center, 0.04), self.WINDOW)
        assert tc == center / (KB_MEV_PER_K * math.log(3.0))

    def test_zero_amplitude_has_no_tc(self, zero_amplitude_spectrum):
        fit = fit_gaussian_linear(zero_amplitude_spectrum)
        assert fit.converged and fit.params.amplitude == 0.0
        with pytest.raises(ValueError, match="amplitude is zero"):
            propagate_tc(fit, zero_amplitude_spectrum)

    def test_zero_amplitude_center_is_undetermined(self, zero_amplitude_spectrum):
        fit = fit_gaussian_linear(zero_amplitude_spectrum)
        assert fit.params.amplitude == 0.0
        assert fit.center_uncertainty() == math.inf


def scaled(spectrum, factor):
    """The same spectrum in other units of the counts."""
    return Spectrum(spectrum.energy, spectrum.intensity * factor, spectrum.sigma * factor)


class TestCovariance:
    def test_inverse_of_a_normal_matrix_with_small_diagonal(self):
        # every diagonal entry below 1, and every column determined
        rng = np.random.default_rng(5)
        factor = rng.uniform(-0.1, 0.1, (8, 5))
        normal = factor.T @ factor
        assert (np.diag(normal) < 1.0).all()
        np.testing.assert_allclose(fitting._covariance(normal), np.linalg.inv(normal),
                                   rtol=1e-10)


class TestUnitsOfTheCounts:
    def test_tiny_uncertainties_give_the_same_center(self):
        # at 1e-202 the weighted normal equations used to overflow
        spectrum = make_synth(0.05, 11)
        reference = fit_gaussian_linear(spectrum)
        for factor in (1e-202, 1e-9):
            fit = fit_gaussian_linear(scaled(spectrum, factor))
            assert fit.converged
            assert abs(fit.params.center - reference.params.center) <= 1e-12
            assert abs(fit.params.amplitude / (factor * reference.params.amplitude) - 1.0) < 1e-9

    def test_power_of_two_units_scale_exactly(self):
        spectrum = make_synth(0.05, 11)
        reference = fit_gaussian_linear(spectrum)
        fit = fit_gaussian_linear(scaled(spectrum, 2.0**-600))
        exponents = np.array([-600, 0, 0, -600, -600])
        params = np.ldexp(reference.params.as_array(), exponents)
        covariance = np.ldexp(reference.covariance, np.add.outer(exponents, exponents))
        assert np.array_equal(fit.params.as_array(), params)
        assert np.array_equal(fit.covariance, covariance)
        assert fit.chi2_reduced == reference.chi2_reduced
        assert fit.chi2_history == reference.chi2_history


class TestStopReason:
    CLEAN = FitModelParams(10.0, 7.81, 0.42, 0.2, 3.0)

    def clean_spectrum(self):
        energy = np.linspace(2.0, 14.0, 120)
        return Spectrum(energy, evaluate_model(self.CLEAN, energy), np.ones(120))

    def test_chi2_decrease_below_tolerance(self):
        fit = fit_gaussian_linear(make_synth(0.05, 42))
        assert fit.stop_reason == "chi2" and fit.converged

    def test_step_below_tolerance(self):
        fit = fit_gaussian_linear(self.clean_spectrum())
        assert fit.stop_reason == "step" and fit.converged

    def test_exact_start_stops_on_the_chi2_test(self):
        # chi-square is 0 at the start, and the zero step leaves it there
        fit = fit_gaussian_linear(self.clean_spectrum(), init=self.CLEAN)
        assert fit.stop_reason == "chi2" and fit.n_iterations == 1
        assert fit.params == self.CLEAN and fit.chi2_history == (0.0, 0.0)

    def test_exact_line_keeps_its_background(self):
        # The amplitude ends at 0 without being clipped, so the background
        # is not refitted: a least-squares refit would move its last bits.
        line = FitModelParams(0.0, 7.81, 0.42, 1.0 / 3.0, 2.0 / 7.0)
        energy = np.linspace(2.0, 14.0, 120)
        spectrum = Spectrum(energy, evaluate_model(line, energy), np.linspace(0.5, 1.5, 120))
        fit = fit_gaussian_linear(spectrum, init=line)
        assert fit.stop_reason == "chi2" and fit.params == line

    def test_no_step_lowers_chi2(self, monkeypatch):
        # with the damping ceiling at its start, the first rejected step ends the fit
        monkeypatch.setattr(fitting, "_LAMBDA_CEILING", fitting._LAMBDA_START)
        init = FitModelParams(10.0, 11.0, 0.3, 0.2, 3.0)
        fit = fit_gaussian_linear(self.clean_spectrum(), init=init)
        assert fit.stop_reason == "stalled" and fit.converged

    def test_iteration_cap(self):
        # a second peak the model cannot describe keeps chi-square creeping down
        energy = np.linspace(2.0, 14.0, 200)
        intensity = evaluate_model(self.CLEAN, energy) + 10.0 * np.exp(-2.0 * (energy - 12.0) ** 2)
        fit = fit_gaussian_linear(Spectrum(energy, intensity, np.full(200, 1e-3)))
        assert fit.stop_reason == "max_iterations"
        assert not fit.converged and fit.n_iterations == 200


class TestGridStep:
    """initial_guess's grid step has the bits of np.median(np.diff(energy))."""

    @given(arrays(float, st.integers(2, 60), elements=st.floats(-1e300, 1e300), unique=True))
    def test_uneven_grids(self, energy):
        energy = np.sort(energy)
        assert fitting._grid_step(energy).hex() == float(np.median(np.diff(energy))).hex()

    @pytest.mark.parametrize("points", [10, 11, 200, 201])
    @pytest.mark.parametrize("grid", [np.linspace, np.geomspace])
    def test_odd_and_even_point_counts(self, grid, points):
        energy = grid(2.0, 14.0, points)
        assert fitting._grid_step(energy).hex() == float(np.median(np.diff(energy))).hex()


def bench_spectrum(J, seed, slope=None):
    """A spectrum shaped like the benchmark's round trip: every energy scale
    from J / 7.81, 5 % noise, background 0.2 E / scale + 3 (or `slope` E + 3)."""
    scale = J / 7.81
    return synth_spectrum(SynthConfig(
        model=DimerModel(J=J), T=10.0 * scale, lineshape=LineShape(fwhm=scale),
        background_slope=0.2 / scale if slope is None else slope, background_intercept=3.0,
        amplitude=10.0, noise_fraction=0.05, grid=(2.0 * scale, 14.0 * scale, 200),
        rng_seed=seed,
    ))


def two_peak_spectrum():
    """A second peak the model cannot describe: the fit runs to the iteration cap."""
    energy = np.linspace(2.0, 14.0, 200)
    second = 10.0 * np.exp(-2.0 * (energy - 12.0) ** 2)
    intensity = evaluate_model(TestStopReason.CLEAN, energy) + second
    return Spectrum(energy, intensity, np.full(200, 1e-3))


# name -> (spectrum, init, damping ceiling); "zero_amplitude" is the fixture.
PINNED_FITS = {
    "bench_J1.3_seed3": (lambda: bench_spectrum(1.3, 3), None, None),
    "bench_J7.81_seed17": (lambda: bench_spectrum(7.81, 17), None, None),
    "bench_J19.2_seed2024": (lambda: bench_spectrum(19.2, 2024), None, None),
    "steep_slope_10": (lambda: bench_spectrum(7.81, 5, slope=10.0), None, None),
    "zero_amplitude": (None, None, None),
    "clean_step": (lambda: TestStopReason().clean_spectrum(), None, None),
    "stalled": (
        lambda: TestStopReason().clean_spectrum(),
        FitModelParams(10.0, 11.0, 0.3, 0.2, 3.0),
        fitting._LAMBDA_START,
    ),
    "max_iterations": (two_peak_spectrum, None, None),
}

FIT_PINS = pathlib.Path(__file__).with_name("data") / "fit_pins.json"


def fit_record(fit):
    """Every number a fit reports, as float.hex text so that equality is bit equality."""
    return {
        "params": [value.hex() for value in fit.params.as_array().tolist()],
        "covariance": [value.hex() for value in fit.covariance.ravel().tolist()],
        "chi2_reduced": fit.chi2_reduced.hex(),
        "chi2_history": [value.hex() for value in fit.chi2_history],
        "n_iterations": fit.n_iterations,
        "stop_reason": fit.stop_reason,
    }


class TestPinnedFits:
    """fit_gaussian_linear is bit-identical to the fits recorded in
    data/fit_pins.json: params, covariance, chi-square history, iteration
    count and stop reason.  The pins were recorded before the loop computed
    one Gaussian per trial step (numpy 2.4, x86-64); a change to the
    arithmetic of the loop, or to its order, shows up here."""

    @pytest.mark.parametrize("name", list(PINNED_FITS))
    def test_fit_is_bit_identical_to_pin(self, name, request, monkeypatch):
        build, init, ceiling = PINNED_FITS[name]
        if build is None:
            spectrum = request.getfixturevalue("zero_amplitude_spectrum")
        else:
            spectrum = build()
        if ceiling is not None:
            monkeypatch.setattr(fitting, "_LAMBDA_CEILING", ceiling)
        pins = json.loads(FIT_PINS.read_text())
        assert fit_record(fit_gaussian_linear(spectrum, init=init)) == pins[name]

    def test_pins_cover_every_stop_reason(self):
        pins = json.loads(FIT_PINS.read_text())
        assert {pin["stop_reason"] for pin in pins.values()} == {
            "chi2", "step", "stalled", "max_iterations"
        }
        assert float.fromhex(pins["zero_amplitude"]["params"][0]) == 0.0
