import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        energy = np.linspace(0.0, 1.0, 5)
        spectrum = Spectrum(energy, np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="10 points"):
            initial_guess(spectrum)
        with pytest.raises(ValueError, match="10 points"):
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


class TestPropagateTc:
    def make_fit(self, center, center_sigma, converged=True):
        params = FitModelParams(10.0, center, 0.42, 0.2, 3.0)
        cov = np.zeros((5, 5))
        cov[1, 1] = center_sigma**2
        return FitResult(
            params=params, covariance=cov, chi2_reduced=1.0,
            n_iterations=4, converged=converged,
        )

    def test_reference_values(self):
        tc, tc_sigma = propagate_tc(self.make_fit(7.81, 0.04))
        assert abs(tc - 82.5) < 0.1
        assert abs(tc_sigma - 0.42) < 0.01

    def test_unit_consistency(self):
        tc, _ = propagate_tc(self.make_fit(KB_MEV_PER_K * math.log(3.0), 0.01))
        assert abs(tc - 1.0) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            propagate_tc(self.make_fit(7.81, 0.04, converged=False))
        bad_center = self.make_fit(7.81, 0.04)
        object.__setattr__(bad_center.params, "center", -1.0)
        with pytest.raises(ValueError):
            propagate_tc(bad_center)

    def test_zero_amplitude_has_no_tc(self, zero_amplitude_spectrum):
        fit = fit_gaussian_linear(zero_amplitude_spectrum)
        assert fit.converged and fit.params.amplitude == 0.0
        with pytest.raises(ValueError, match="amplitude is zero"):
            propagate_tc(fit)

    def test_zero_amplitude_center_is_undetermined(self, zero_amplitude_spectrum):
        fit = fit_gaussian_linear(zero_amplitude_spectrum)
        assert fit.params.amplitude == 0.0
        assert fit.center_uncertainty() == math.inf


def scaled(spectrum, factor):
    """The same spectrum in other units of the counts."""
    return Spectrum(spectrum.energy, spectrum.intensity * factor, spectrum.sigma * factor)


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
