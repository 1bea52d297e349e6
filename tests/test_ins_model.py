import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimercorr import (
    DimerModel,
    FormFactorParams,
    LineShape,
    Spectrum,
    SynthConfig,
    bleaney_bowers_chi,
    bleaney_bowers_peak_temperature,
    cross_section,
    default_form_factor,
    form_factor,
    interference_factor,
    load_form_factor,
    powder_intensity,
    synth_spectrum,
    transition_weights,
)
from dimercorr import ins_model, numerics
from dimercorr.constants import AVOGADRO, KB_ERG_PER_K, KB_MEV_PER_K, MU_B_ERG_PER_G
from dimercorr.fitting import FWHM_OVER_SIGMA
from dimercorr.quantum_core import (
    MIN_TEMPERATURE_K,
    SPIN_SITE1,
    SPIN_SITE2,
    build_hamiltonian,
    eigh4,
)
from dimercorr.spectra import even_grid

FLAT_FORM = FormFactorParams(A=1.0, a=0.0, B=0.0, b=0.0, C=0.0, c=0.0, D0=0.0)


def gaussian_peak_height(fwhm):
    """Peak value of the unit-area line shape."""
    return FWHM_OVER_SIGMA / (fwhm * math.sqrt(2.0 * math.pi))


def stokes_weight(model, q_vec, temperature, params):
    """Analytic singlet-to-triplet intensity for ions at 0 and R x_hat.

    Summed over the triplet, the transition tensor is delta_ab/4, so the
    transverse projector contributes (3-1)/4 and the site phases give
    2 - 2 cos(Q_x R).
    """
    p_singlet, _ = transition_weights(model, temperature)
    qn = float(np.linalg.norm(q_vec))
    return (
        p_singlet
        * form_factor(qn, params) ** 2
        * 0.5
        * (2.0 - 2.0 * math.cos(q_vec[0] * model.R))
    )


def per_transition_cross_section(model, q_vec, omega, temperature, ff_params, lineshape):
    """The cross section summed pair by pair, shape (N, M): for every
    direction and ordered eigenstate pair i -> f, the squared norm of the
    site-summed amplitude sum_l e^(i Q.r_l) <i|S_l|f> (an (N, 3, 4, 4)
    array) minus its component along Qhat, weighted by the population of i,
    |F(Q)|^2 and the unit-area Gaussian at E_f - E_i."""
    system = eigh4(build_hamiltonian(model))
    populations = np.exp(-(system.values - system.values[0]) / (KB_MEV_PER_K * temperature))
    populations /= populations.sum()
    elements = np.einsum(  # [l, a, i, f]
        "ki,lakm,mf->laif", system.vectors.conj(), np.stack([SPIN_SITE1, SPIN_SITE2]),
        system.vectors,
    )
    q = np.atleast_2d(np.asarray(q_vec, dtype=float))
    qnorm = np.linalg.norm(q, axis=1)
    qhat = q / qnorm[:, None]
    phases = np.stack([np.ones(len(q)), np.exp(1j * model.R * q[:, 0])], axis=1)
    summed = np.einsum("nl,laif->naif", phases, elements)  # (N, 3, 4, 4)
    along = np.einsum("na,naif->nif", qhat, summed)
    transverse = np.sum(np.abs(summed) ** 2, axis=1) - np.abs(along) ** 2
    scale = form_factor(qnorm, ff_params) ** 2
    strength = populations[None, :, None] * transverse * scale[:, None, None]
    width = lineshape.fwhm / FWHM_OVER_SIGMA
    gaps = system.values[None, :] - system.values[:, None]
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    lines = np.exp(-0.5 * ((omega[:, None, None] - gaps) / width) ** 2)
    lines /= width * math.sqrt(2.0 * math.pi)
    return np.einsum("nif,mif->nm", strength, lines)  # (N, M)


class TestInterferenceFactor:
    def test_zero_momentum(self):
        assert interference_factor(0.0, 4.43) == 0.0

    def test_qr_at_pi(self):
        assert abs(interference_factor(math.pi / 4.43, 4.43) - 1.0) < 1e-12

    def test_first_maximum_by_scan(self):
        # Brute-force oracle for the tan x = x extremum.
        q = np.linspace(0.0, 2.0, 2_000_001)
        values = interference_factor(q, 4.43)
        peak = int(np.argmax(values))
        assert abs(q[peak] - 1.014) < 0.002
        assert abs(values[peak] - 1.2176) < 0.0005

    def test_doubling_separation_halves_extremum(self):
        q = np.linspace(0.0, 2.0, 2_000_001)
        peak_single = q[np.argmax(interference_factor(q, 4.43))]
        peak_double = q[np.argmax(interference_factor(q, 8.86)[: len(q) // 2])]
        assert abs(peak_double - 0.5 * peak_single) < 1e-3

    @settings(max_examples=80)
    @given(q=st.floats(0.0, 50.0), R=st.floats(0.1, 20.0))
    def test_range(self, q, R):
        assert 0.0 <= interference_factor(q, R) <= 1.2177

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            interference_factor(-0.1, 4.43)
        with pytest.raises(ValueError):
            interference_factor(1.0, 0.0)

    # A Q that is negative or NaN, and an R that is not finite, refused by
    # value before any numpy warning, by both momentum-dependent factors.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "function,args,what,value",
        [
            (interference_factor, ([0.5, math.nan], 4.43), "momentum transfer", "nan"),
            (interference_factor, (np.array([0.5, -0.25]), 4.43), "momentum transfer", "-0.25"),
            (interference_factor, (1.0, math.nan), "separation", "nan"),
            (interference_factor, (0.0, math.inf), "separation", "inf"),
            (ins_model.check_separation, (-4.43,), "separation", "-4.43"),
            (form_factor, ([math.nan, 1.0], FLAT_FORM), "momentum transfer", "nan"),
            (form_factor, (-0.5, FLAT_FORM), "momentum transfer", "-0.5"),
            (powder_intensity, (math.nan, DimerModel(J=1.0), FLAT_FORM), "momentum transfer", "nan"),
        ],
        ids=["nan-Q", "negative-Q", "nan-R", "inf-R", "check-negative-R", "form-factor-nan-Q",
             "form-factor-negative-Q", "powder-nan-Q"],
    )
    def test_refusal_names_the_value(self, function, args, what, value):
        rule = {"momentum transfer": "nonnegative", "separation": "positive and finite"}[what]
        with pytest.raises(ValueError, match=f"^{what} must be {rule}, got {re.escape(value)}$"):
            function(*args)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_qr_refused(self):
        with pytest.raises(ValueError, match=r"Q R overflows at Q = 3\.0 1/angstrom, R = 1e\+308"):
            interference_factor(np.linspace(0.0, 3.0, 301), 1e308)
        with pytest.raises(ValueError, match=r"Q = 1e\+308 1/angstrom, R = 4\.43"):
            interference_factor(np.array([0.0, 1e308]), 4.43)
        assert math.isfinite(interference_factor(1e300, 4.43))
        # sinc's pi (Q R/pi) is finite up to Q R at the float maximum
        assert math.isfinite(interference_factor(1e308, 1.0))


class TestFormFactor:
    def test_shipped_coefficients_are_read_once(self):
        from importlib import resources

        shipped = resources.files("dimercorr").joinpath("data/v4plus_j0.txt")
        with resources.as_file(shipped) as path:
            assert default_form_factor() == load_form_factor(path)
        assert default_form_factor() is default_form_factor()

    def test_normalization_of_shipped_coefficients(self):
        params = default_form_factor()
        assert 0.99 <= form_factor(0.0, params) <= 1.01

    def test_independent_evaluation_at_2_invA(self):
        p = default_form_factor()
        s2 = (2.0 / (4.0 * math.pi)) ** 2
        expected = (
            p.A * math.exp(-p.a * s2)
            + p.B * math.exp(-p.b * s2)
            + p.C * math.exp(-p.c * s2)
            + p.D0
        )
        assert abs(form_factor(2.0, p) - expected) < 1e-14

    @settings(max_examples=40)
    @given(
        amps=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
        widths=st.tuples(st.floats(0.5, 20.0), st.floats(0.5, 20.0), st.floats(0.5, 20.0)),
    )
    def test_strictly_decreasing_for_positive_gaussians(self, amps, widths):
        total = sum(amps)
        params = FormFactorParams(
            A=amps[0] / total, a=widths[0],
            B=amps[1] / total, b=widths[1],
            C=amps[2] / total, c=widths[2],
            D0=0.0,
        )
        values = form_factor(np.linspace(0.0, 5.0, 200), params)
        assert np.all(np.diff(values) < 0.0)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            FormFactorParams(A=0.5, a=1.0, B=0.1, b=1.0, C=0.0, c=1.0, D0=0.0)

    def test_normalization_bounds_are_inclusive(self):
        for f0 in (0.99, 1.01):
            assert FormFactorParams(A=f0, a=1.0, B=0.0, b=0.0, C=0.0, c=0.0, D0=0.0).A == f0
        for f0 in (math.nextafter(0.99, 0.0), math.nextafter(1.01, 2.0)):
            message = f"form factor normalization F(0) = {f0} is not within 1% of 1"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                FormFactorParams(A=f0, a=1.0, B=0.0, b=0.0, C=0.0, c=0.0, D0=0.0)

    def test_sums_the_dipole_terms_in_order(self):
        # bit for bit: iq prints these values at 17 significant digits
        p = default_form_factor()
        q = np.concatenate([np.linspace(0.0, 40.0, 4001), [1e-300, 1e3, 1e150, 4e154]])
        s2 = (q / (4.0 * math.pi)) ** 2
        expected = (
            p.A * np.exp(-p.a * s2) + p.B * np.exp(-p.b * s2) + p.C * np.exp(-p.c * s2) + p.D0
        )
        assert form_factor(q, p).tobytes() == expected.tobytes()
        assert [form_factor(x, p) for x in q[::97].tolist()] == expected[::97].tolist()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_exponent_refused(self):
        params = default_form_factor()
        # s^2 alone overflows at 1e200; a s^2 (a = 16.8) from 4.11e154 on, s^2 not.
        for q_top in (1e200, 1e155, 4.2e154):
            with pytest.raises(ValueError, match=re.escape(f"overflows at Q = {q_top} 1/angstrom")):
                form_factor(np.array([1.0, q_top]), params)
        # Just below, every exponential underflows to 0 and F is its limit D0.
        assert form_factor(4e154, params) == params.D0
        flat = FormFactorParams(A=1.0, a=0.0, B=0.0, b=0.0, C=0.0, c=0.0, D0=0.0)
        with pytest.raises(ValueError, match="overflows"):
            form_factor(1e200, flat)
        # s^2 = 1.4e308 itself is finite: the flat factor is 1 there
        assert form_factor(1.5e155, flat) == 1.0


class TestLoadFormFactor:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "ff.txt"
        path.write_text(
            "# comment line\nA = 0.5  # inline\na=2.0\nB = 0.3\nb = 1.0\n"
            "C = 0.1\nc = 0.5\nD0 = 0.1\n"
        )
        params = load_form_factor(path)
        assert params == FormFactorParams(0.5, 2.0, 0.3, 1.0, 0.1, 0.5, 0.1)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "ff.txt"
        path.write_text("A = 1.0\na = 1.0\n")
        with pytest.raises(ValueError, match="missing"):
            load_form_factor(path)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "ff.txt"
        path.write_text("A 1.0\n")
        with pytest.raises(ValueError, match="key = value"):
            load_form_factor(path)


class TestPowderIntensity:
    def test_zero_momentum(self, vodpo_model):
        assert powder_intensity(0.0, vodpo_model, default_form_factor()) == 0.0

    def test_reduces_to_interference_for_flat_form_factor(self, vodpo_model):
        q = np.linspace(0.0, 3.0, 301)
        assert np.array_equal(
            powder_intensity(q, vodpo_model, FLAT_FORM),
            interference_factor(q, vodpo_model.R),
        )

    def test_form_factor_decay_pulls_peak_down_in_q(self, vodpo_model):
        q = np.linspace(0.0, 3.0, 30001)
        realistic = q[np.argmax(powder_intensity(q, vodpo_model, default_form_factor()))]
        flat = q[np.argmax(interference_factor(q, vodpo_model.R))]
        assert realistic < flat
        assert abs(flat - 1.014) < 1e-3


class TestTransitionWeights:
    def test_low_temperature_limit(self, vodpo_model):
        p_singlet, p_triplet = transition_weights(vodpo_model, 0.05)
        assert abs(p_singlet - 1.0) < 1e-12 and p_triplet < 1e-12

    def test_high_temperature_limit(self, vodpo_model):
        # deviation from 1/4 decays like J/(kB T)
        p_singlet, p_triplet = transition_weights(vodpo_model, 1e9)
        assert abs(p_singlet - 0.25) < 1e-7 and abs(p_triplet - 0.25) < 1e-7

    def test_reference_point_where_kT_equals_J(self, vodpo_model):
        # Direct evaluation of e^(3/4) / (e^(3/4) + 3 e^(-1/4)).
        T = vodpo_model.J / KB_MEV_PER_K
        expected = math.exp(0.75) / (math.exp(0.75) + 3.0 * math.exp(-0.25))
        p_singlet, _ = transition_weights(vodpo_model, T)
        assert abs(p_singlet - expected) < 1e-12
        assert abs(expected - 0.4753668864186717) < 1e-12

    def test_rejects_nonpositive_temperature(self, vodpo_model):
        with pytest.raises(ValueError):
            transition_weights(vodpo_model, 0.0)

    @settings(max_examples=60)
    @given(J=st.floats(-20.0, 20.0), T=st.floats(0.5, 1000.0))
    def test_normalization(self, J, T):
        p_singlet, p_triplet = transition_weights(DimerModel(J=J), T)
        assert abs(p_singlet + 3.0 * p_triplet - 1.0) < 1e-14

    def test_singlet_population_decreases_with_temperature(self, vodpo_model):
        temps = np.linspace(1.0, 400.0, 60)
        populations = [transition_weights(vodpo_model, T)[0] for T in temps]
        assert np.all(np.diff(populations) < 0.0)


class TestCrossSection:
    LINE = LineShape(fwhm=1.0)

    def test_single_peak_at_exchange_energy(self, vodpo_model):
        omegas = np.linspace(1.0, 14.0, 1301)
        signal = cross_section(
            vodpo_model, np.array([1.0, 0.4, 0.2]), omegas, 1.0,
            default_form_factor(), self.LINE,
        )
        assert abs(omegas[np.argmax(signal)] - vodpo_model.J) < 0.02

    def test_no_elastic_channel_from_singlet(self, vodpo_model):
        value = cross_section(
            vodpo_model, np.array([1.0, 0.0, 0.0]), 0.0, 1.0,
            default_form_factor(), self.LINE,
        )
        peak = cross_section(
            vodpo_model, np.array([1.0, 0.0, 0.0]), vodpo_model.J, 1.0,
            default_form_factor(), self.LINE,
        )
        assert value < 1e-12 * peak

    @pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.3, 0.8, 0.5), (0.0, 0.0, 1.0)])
    def test_matches_analytic_transition_weight(self, vodpo_model, direction):
        q_vec = 1.1 * np.array(direction) / np.linalg.norm(direction)
        got = cross_section(
            vodpo_model, q_vec, vodpo_model.J, 10.0, default_form_factor(), self.LINE
        )
        expected = stokes_weight(vodpo_model, q_vec, 10.0, default_form_factor())
        expected *= gaussian_peak_height(self.LINE.fwhm)
        assert abs(got - expected) < 1e-10 * max(expected, 1.0)

    def test_integrated_intensity_scales_with_singlet_population(self, vodpo_model):
        omegas = np.linspace(vodpo_model.J - 4.0, vodpo_model.J + 4.0, 2001)
        q_vec = np.array([0.9, 0.5, 0.1])
        areas = {}
        for T in (10.0, 150.0):
            signal = cross_section(
                vodpo_model, q_vec, omegas, T, default_form_factor(), self.LINE
            )
            areas[T] = np.trapezoid(signal, omegas)
        expected = (
            transition_weights(vodpo_model, 150.0)[0]
            / transition_weights(vodpo_model, 10.0)[0]
        )
        assert abs(areas[150.0] / areas[10.0] - expected) < 0.01 * expected

    @pytest.mark.parametrize("fwhm", [0.5, 1.0, 7.81 / 4.0])
    def test_gaussian_broadening_preserves_area(self, vodpo_model, fwhm):
        sigma = fwhm / FWHM_OVER_SIGMA
        omegas = np.linspace(vodpo_model.J - 10 * sigma, vodpo_model.J + 10 * sigma, 4001)
        q_vec = np.array([0.8, 0.3, 0.4])
        signal = cross_section(
            vodpo_model, q_vec, omegas, 1.0, default_form_factor(), LineShape(fwhm=fwhm)
        )
        area = np.trapezoid(signal, omegas)
        expected = stokes_weight(vodpo_model, q_vec, 1.0, default_form_factor())
        assert abs(area - expected) < 1e-3 * expected

    def test_invalid_inputs(self, vodpo_model):
        with pytest.raises(ValueError):
            cross_section(
                vodpo_model, np.zeros(3), 7.81, 10.0, default_form_factor(), self.LINE
            )
        with pytest.raises(ValueError):
            cross_section(
                vodpo_model, np.array([1.0, 0, 0]), 7.81, -1.0,
                default_form_factor(), self.LINE,
            )
        with pytest.raises(ValueError):
            cross_section(
                vodpo_model, np.ones((4, 3)), np.array([1.0, 2.0]), 10.0,
                default_form_factor(), self.LINE,
            )

    @pytest.mark.parametrize("shape", [(2, 3), (1, 5), (4, 1), (2, 2, 2)])
    def test_omega_of_more_than_one_dimension_refused(self, vodpo_model, shape):
        message = f"omega must be a scalar or a 1-D array, got shape {shape}"
        for q_vec in (np.array([1.0, 0.4, 0.2]), np.ones((3, 3))):
            with pytest.raises(ValueError, match=re.escape(message)):
                cross_section(
                    vodpo_model, q_vec, np.full(shape, 7.81), 10.0, default_form_factor(), self.LINE
                )

    @pytest.mark.parametrize("shape", [(3,), (5, 3)])
    def test_underflowing_momentum_is_zero(self, vodpo_model, shape):
        # each square underflows, so |Q| is 0 although no component is
        q_vec = np.full(shape, 1e-170)
        if q_vec.ndim == 2:
            q_vec[:-1] = 1.0  # one tiny vector among ordinary ones
        with pytest.raises(ValueError, match="momentum transfer must be nonzero"):
            cross_section(vodpo_model, q_vec, 7.81, 10.0, default_form_factor(), self.LINE)

    @settings(max_examples=60, deadline=None)
    @given(
        J=st.floats(-20.0, 20.0).filter(lambda J: J != 0.0),
        d_over_j=st.floats(-2.0, 2.0),
        omega=st.floats(-25.0, 25.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_single_q_calls(self, J, d_over_j, omega, seed):
        model = DimerModel(J=J, D=d_over_j * J)
        q_vecs = np.random.default_rng(seed).uniform(-3.0, 3.0, (25, 3))
        args = (omega, 30.0, default_form_factor(), self.LINE)
        stack = cross_section(model, q_vecs, *args)
        singles = [cross_section(model, q_vec, *args) for q_vec in q_vecs]
        assert all(isinstance(value, float) for value in singles)
        assert np.allclose(stack, singles, rtol=1e-15, atol=0.0)


class TestSynthSpectrum:
    def make_config(self, **overrides):
        base = dict(
            model=DimerModel(J=7.81),
            T=10.0,
            lineshape=LineShape(fwhm=1.0),
            background_slope=0.0,
            background_intercept=0.0,
            amplitude=10.0,
            noise_fraction=0.0,
            grid=(2.0, 14.0, 200),
            rng_seed=0,
        )
        base.update(overrides)
        return SynthConfig(**base)

    @pytest.mark.filterwarnings("error")
    def test_grid_to_the_float_maximum(self):
        # linspace's last product rounds past the float maximum; the grid
        # ends on emax all the same
        top = 1.7976931348623157e308
        spectrum = synth_spectrum(self.make_config(grid=(2.0, top, 7), noise_fraction=0.05))
        assert spectrum.energy[-1] == top
        assert np.isfinite(spectrum.energy).all() and np.isfinite(spectrum.intensity).all()

    def test_grid_is_built_once(self, monkeypatch):
        # the config builds it to refuse coinciding energies; the spectrum reuses it
        calls = []

        def counting(*args):
            calls.append(args)
            return even_grid(*args)

        monkeypatch.setattr(ins_model, "even_grid", counting)
        spectrum = synth_spectrum(self.make_config(grid=(2.0, 14.0, 7)))
        assert calls == [(2.0, 14.0, 7)]
        assert spectrum.energy.tolist() == even_grid(2.0, 14.0, 7).tolist()

    def test_noiseless_peak_sits_at_exchange_energy(self):
        spectrum = synth_spectrum(self.make_config())
        peak_energy = spectrum.energy[np.argmax(spectrum.intensity)]
        grid_step = spectrum.energy[1] - spectrum.energy[0]
        assert abs(peak_energy - 7.81) <= 0.5 * grid_step

    def test_same_seed_is_bit_identical(self):
        cfg = self.make_config(noise_fraction=0.05, rng_seed=42)
        first = synth_spectrum(cfg)
        second = synth_spectrum(cfg)
        assert np.array_equal(first.energy, second.energy)
        assert np.array_equal(first.intensity, second.intensity)
        assert np.array_equal(first.sigma, second.sigma)

    def test_different_seeds_differ(self):
        a = synth_spectrum(self.make_config(noise_fraction=0.05, rng_seed=1))
        b = synth_spectrum(self.make_config(noise_fraction=0.05, rng_seed=2))
        assert not np.array_equal(a.intensity, b.intensity)

    def test_sigma_column_floors_at_tiny_positive(self):
        spectrum = synth_spectrum(self.make_config())
        assert np.all(spectrum.sigma >= 1e-9)

    def test_antistokes_line_mirrors_the_stokes_line(self):
        # On a grid symmetric about E = 0 (exact steps of 0.25 meV) the mirror
        # line is the Stokes line reflected through E = 0 and scaled by p_t/p_s.
        grid = (-14.0, 14.0, 113)
        stokes = synth_spectrum(self.make_config(T=300.0, grid=grid))
        both = synth_spectrum(self.make_config(
            T=300.0, grid=grid, include_antistokes=True))
        assert np.array_equal(stokes.energy, -stokes.energy[::-1])
        p_singlet, p_triplet = transition_weights(DimerModel(J=7.81), 300.0)
        mirror = both.intensity - stokes.intensity
        np.testing.assert_allclose(mirror, stokes.intensity[::-1] * (p_triplet / p_singlet),
                                   rtol=1e-12, atol=1e-14 * stokes.intensity.max())

    def test_two_point_grid(self):
        spectrum = synth_spectrum(self.make_config(grid=(2.0, 14.0, 2)))
        assert spectrum.energy.tolist() == [2.0, 14.0]

    def test_antistokes_mirror_peak(self):
        cfg = self.make_config(T=300.0, grid=(-14.0, 14.0, 561))
        without = synth_spectrum(cfg)
        with_mirror = synth_spectrum(
            self.make_config(
                T=300.0, grid=(-14.0, 14.0, 561), include_antistokes=True,
            )
        )
        at_mirror = np.argmin(np.abs(with_mirror.energy + 7.81))
        _, p_triplet = transition_weights(DimerModel(J=7.81), 300.0)
        assert without.intensity[at_mirror] < 1e-6
        assert abs(with_mirror.intensity[at_mirror] - 10.0 * p_triplet) < 0.01

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            self.make_config(grid=(5.0, 2.0, 100))
        with pytest.raises(ValueError):
            self.make_config(grid=(2.0, 14.0, 1))
        with pytest.raises(ValueError):
            self.make_config(noise_fraction=-0.1)
        with pytest.raises(ValueError):
            self.make_config(T=0.0)
        with pytest.raises(ValueError, match="amplitude must be nonnegative, got -1.0"):
            self.make_config(amplitude=-1.0)
        with pytest.raises(ValueError, match="^rng_seed must be nonnegative, got -1$"):
            self.make_config(rng_seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"^rng_seed must be an integer, got {seed!r}$"):
            self.make_config(rng_seed=seed)

    def test_numpy_integer_seed_accepted(self):
        numpy_seeded = synth_spectrum(self.make_config(noise_fraction=0.05, rng_seed=np.int64(7)))
        int_seeded = synth_spectrum(self.make_config(noise_fraction=0.05, rng_seed=7))
        assert np.array_equal(numpy_seeded.intensity, int_seeded.intensity)


class TestNonFiniteFields:
    @pytest.mark.parametrize("fwhm", [math.nan, math.inf, 0.0, -1.0])
    def test_line_shape(self, fwhm):
        with pytest.raises(ValueError, match="^fwhm must be positive and finite"):
            LineShape(fwhm=fwhm)

    @pytest.mark.parametrize(
        "field", ["T", "background_slope", "background_intercept", "amplitude", "noise_fraction"]
    )
    def test_synth_config(self, field):
        base = dict(model=DimerModel(J=7.81), T=10.0, lineshape=LineShape(fwhm=1.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{field} must be a finite real"):
                SynthConfig(**{**base, field: bad})

    def test_synth_config_grid(self):
        for ends in ((2.0, math.inf), (-math.inf, 14.0), (2.0, 2.0)):
            with pytest.raises(ValueError, match="finite Emin < Emax"):
                SynthConfig(
                    model=DimerModel(J=7.81), T=10.0, lineshape=LineShape(fwhm=1.0),
                    grid=(*ends, 200),
                )
        with pytest.raises(ValueError, match=re.escape("grid span 1e+308 - (-1e+308) overflows")):
            SynthConfig(
                model=DimerModel(J=7.81), T=10.0, lineshape=LineShape(fwhm=1.0),
                grid=(-1e308, 1e308, 200),
            )

    @pytest.mark.parametrize(
        "grid, message",
        [
            ((0.0, 5e-324, 40), "Emin 0.0 to Emax 5e-324 meV in 40 points"),
            ((1e16, 1e16 + 8.0, 40), "Emin 1e+16 to Emax 1.0000000000000008e+16 meV in 40 points"),
        ],
        ids=["subnormal-span", "span-of-four-ulps"],
    )
    def test_synth_config_grid_whose_points_coincide(self, grid, message):
        # distinct finite ends whose grid still repeats an energy
        with pytest.raises(ValueError, match=f"^grid from {re.escape(message)} has coinciding"):
            SynthConfig(model=DimerModel(J=7.81), T=10.0, lineshape=LineShape(fwhm=1.0), grid=grid)

    def test_form_factor_params(self):
        with pytest.raises(ValueError, match="c must be a finite real"):
            FormFactorParams(A=1.0, a=0.0, B=0.0, b=0.0, C=0.0, c=math.nan, D0=0.0)

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    def test_negative_exponent_coefficient(self, name):
        # F would grow as e^(|a| s^2) and overflow exp at ordinary Q
        values = dict(A=1.1, a=0.0, B=0.0, b=0.0, C=0.0, c=0.0, D0=-0.1)
        values[name] = -1.0
        with pytest.raises(ValueError, match=f"exponent coefficient {name} must be nonnegative"):
            FormFactorParams(**values)

    @pytest.mark.parametrize("column", ["energy", "intensity", "sigma"])
    def test_spectrum(self, column):
        columns = dict(energy=np.arange(5.0), intensity=np.ones(5), sigma=np.ones(5))
        for bad in (math.nan, math.inf):
            columns[column] = columns[column].copy()
            columns[column][2] = bad
            with pytest.raises(ValueError, match=f"{column} values must be finite"):
                Spectrum(**columns)

    @pytest.mark.parametrize(
        "columns,message",
        [
            (dict(energy=np.arange(5.0).reshape(5, 1)), "columns must be one-dimensional"),
            (dict(sigma=np.ones(4)), "columns must have equal length"),
            (dict(energy=[], intensity=[], sigma=[]), "must contain at least one point"),
            (dict(energy=[0.0, 1.0, 1.0, 2.0, 3.0]), "energies must be strictly increasing"),
            (dict(sigma=[1.0, 1.0, 0.0, 1.0, 1.0]), "uncertainties must be positive"),
            (dict(sigma=[1.0, 1.0, 1.0, 1.0, -1e-300]), "uncertainties must be positive"),
        ],
        ids=["not-1d", "unequal-lengths", "empty", "not-increasing",
             "zero-sigma", "negative-sigma"],
    )
    def test_spectrum_shape(self, columns, message):
        good = dict(energy=np.arange(5.0), intensity=np.ones(5), sigma=np.ones(5))
        with pytest.raises(ValueError, match=message):
            Spectrum(**{**good, **columns})


class TestBleaneyBowers:
    def test_gapped_low_temperature_limit(self, vodpo_model):
        assert bleaney_bowers_chi(vodpo_model, 0.5) < 1e-40

    def test_curie_law_at_high_temperature(self, vodpo_model):
        T = 1e7
        curie = AVOGADRO * vodpo_model.g**2 * MU_B_ERG_PER_G**2 / (2.0 * KB_ERG_PER_K * T)
        assert abs(bleaney_bowers_chi(vodpo_model, T) / curie - 1.0) < 1e-4

    def test_rejects_nonpositive_temperature(self, vodpo_model):
        with pytest.raises(ValueError):
            bleaney_bowers_chi(vodpo_model, -1.0)

    def test_peak_temperature_stable_and_maximal(self, vodpo_model):
        first = bleaney_bowers_peak_temperature(vodpo_model)
        second = bleaney_bowers_peak_temperature(vodpo_model)
        assert abs(first - second) < 0.01
        assert abs(first - 56.519) < 0.01
        peak_chi = bleaney_bowers_chi(vodpo_model, first)
        assert peak_chi > bleaney_bowers_chi(vodpo_model, first - 0.5)
        assert peak_chi > bleaney_bowers_chi(vodpo_model, first + 0.5)

    def test_peak_solves_its_equation_to_adjacent_floats(self, vodpo_model):
        x = ins_model._CHI_PEAK_X
        assert bleaney_bowers_peak_temperature(vodpo_model) == vodpo_model.J / (KB_MEV_PER_K * x)
        below = x if math.exp(x) * (x - 1.0) < 3.0 else math.nextafter(x, 0.0)
        assert math.exp(below) * (below - 1.0) < 3.0
        above = math.nextafter(below, 2.0)
        assert math.exp(above) * (above - 1.0) >= 3.0
        assert x == numerics.bisect_boundary(lambda v: 3.0 - math.exp(v) * (v - 1.0), 1.0, 2.0)

    @pytest.mark.parametrize("J", [5e-324, 0.5, 1.0])
    def test_peak_temperature_of_a_weak_exchange(self, J):
        peak = bleaney_bowers_peak_temperature(DimerModel(J=J))
        assert peak == J / (KB_MEV_PER_K * ins_model._CHI_PEAK_X)

    def test_chi_refuses_dm_coupling(self):
        with pytest.raises(ValueError, match="D = 0.5"):
            bleaney_bowers_chi(DimerModel(J=7.81, D=0.5), 50.0)

    @pytest.mark.parametrize("J", [0.0, -7.81])
    def test_peak_temperature_refuses_nonpositive_exchange(self, J):
        with pytest.raises(ValueError, match="maximum only for an antiferromagnetic J > 0"):
            bleaney_bowers_peak_temperature(DimerModel(J=J))

    def test_peak_temperature_refuses_dm_coupling(self):
        with pytest.raises(ValueError, match="D = -2.0"):
            bleaney_bowers_peak_temperature(DimerModel(J=7.81, D=-2.0))


class TestCrossSectionThermalTensors:
    """cross_section sums seven closed-form lines; it must agree with the
    pair-by-pair sum over the 4x4 eigenstates at any (J, D, T, Q),
    for either sign of J and down to D/J = 1e-8, where one of 1 -+ J/g
    would cancel if it were formed as a difference."""

    AXES = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])

    @staticmethod
    def assert_close(got, expected, floor):
        """Equal to 1e-12 of the largest value, or to `floor` where every
        value lies below the rounding floor of the strong lines."""
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= max(1e-12 * np.max(np.abs(expected)), floor)

    @settings(max_examples=150, deadline=None)
    @given(
        sign=st.sampled_from([1.0, -1.0]),
        log_j=st.floats(-2.0, 2.0),
        d_over_j=st.one_of(
            st.floats(-10.0, 10.0),
            st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-8.0, 1.0)).map(
                lambda pair: pair[0] * 10.0 ** pair[1]
            ),
        ),
        log_x=st.floats(-2.0, math.log10(50.0)),
        q=st.floats(0.05, 5.0),
        fwhm_over_j=st.floats(0.05, 1.0),
        omega_over_gap=st.floats(-1.5, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # along Qhat = z the weak T_perp line, of weight D^2/(4 J^2), is the largest
        sign=1.0, log_j=0.9, d_over_j=1e-8, log_x=math.log10(50.0), q=1.0,
        fwhm_over_j=0.1, omega_over_gap=1.0, seed=0,
    )
    def test_equals_per_transition_sum(
        self, sign, log_j, d_over_j, log_x, q, fwhm_over_j, omega_over_gap, seed
    ):
        J = 10.0**log_j
        model = DimerModel(J=sign * J, D=d_over_j * J)
        temperature = J / (KB_MEV_PER_K * 10.0**log_x)
        gap = math.hypot(model.J, model.D)
        line = LineShape(fwhm=fwhm_over_j * J)
        ff = default_form_factor()
        random = np.random.default_rng(seed).standard_normal((40, 3))
        directions = np.vstack([self.AXES, random / np.linalg.norm(random, axis=1)[:, None]])
        q_vecs = q * directions
        # eigh leaves symmetry-forbidden amplitudes (such as <g|S|g>) at ~1e-17,
        # so both sums carry ~1e-33 per unit line weight, whatever the result
        peak = form_factor(q, ff) ** 2 * FWHM_OVER_SIGMA / (line.fwhm * math.sqrt(2.0 * math.pi))
        floor = 1e-30 * peak

        omega = omega_over_gap * gap
        got = cross_section(model, q_vecs, omega, temperature, ff, line)
        expected = per_transition_cross_section(model, q_vecs, omega, temperature, ff, line)
        self.assert_close(got, expected[:, 0], floor)

        omegas = np.linspace(-1.5 * gap, 1.5 * gap, 61)
        for q_vec in q_vecs[[0, 1, 4]]:
            got = cross_section(model, q_vec, omegas, temperature, ff, line)
            expected = per_transition_cross_section(model, q_vec, omegas, temperature, ff, line)
            self.assert_close(got, expected[0], floor)

    def test_decoupled_spins_equal_per_transition_sum(self):
        # J = D = 0: every line sits at 0 with r = 0, and g = 0 divides nothing
        model, ff, line = DimerModel(J=0.0, D=0.0), default_form_factor(), LineShape(fwhm=0.5)
        q_vecs = np.random.default_rng(3).standard_normal((20, 3))
        omegas = np.linspace(-2.0, 2.0, 41)
        got = cross_section(model, q_vecs, 0.3, 10.0, ff, line)
        expected = per_transition_cross_section(model, q_vecs, 0.3, 10.0, ff, line)
        self.assert_close(got, expected[:, 0], 0.0)
        for q_vec in q_vecs[:3]:
            got = cross_section(model, q_vec, omegas, 10.0, ff, line)
            expected = per_transition_cross_section(model, q_vec, omegas, 10.0, ff, line)
            self.assert_close(got, expected[0], 0.0)

    def test_return_types_and_shapes(self):
        model = DimerModel(J=7.81, D=4.0)
        args = (10.0, default_form_factor(), LineShape(fwhm=1.0))
        single = cross_section(model, np.array([1.0, 0.2, 0.3]), 7.81, *args)
        assert type(single) is float
        many_q = cross_section(model, np.ones((7, 3)), 7.81, *args)
        assert isinstance(many_q, np.ndarray) and many_q.shape == (7,)
        assert cross_section(model, np.zeros((0, 3)), 7.81, *args).shape == (0,)
        many_omega = cross_section(model, np.array([1.0, 0.2, 0.3]), np.linspace(0, 9, 11), *args)
        assert isinstance(many_omega, np.ndarray) and many_omega.shape == (11,)
        assert many_q.dtype == many_omega.dtype == np.float64


class TestNonFinitePhysicsInputs:
    LINE = LineShape(fwhm=1.0)
    Q = np.array([1.0, 0.4, 0.2])

    def section(self, model, q_vec=Q, omega=7.81, temperature=10.0):
        return cross_section(model, q_vec, omega, temperature, default_form_factor(), self.LINE)

    def test_cross_section_q_vec(self, vodpo_model):
        q_vecs = np.ones((5, 3))
        q_vecs[3, 1] = math.nan
        with pytest.raises(ValueError, match="q_vec must be finite"):
            self.section(vodpo_model, q_vec=q_vecs)
        with pytest.raises(ValueError, match="q_vec must be finite"):
            self.section(vodpo_model, q_vec=np.array([1.0, math.inf, 0.0]))
        for shape in ((2,), (5, 4)):
            with pytest.raises(ValueError, match=re.escape(f"3 components, got shape {shape}")):
                self.section(vodpo_model, q_vec=np.ones(shape))

    @pytest.mark.parametrize("bad", [1e200, -2.0**511 * 1.0000000000000002, 1.3e154])
    def test_cross_section_huge_q_component(self, vodpo_model, bad):
        # three squares of a larger component could overflow: refused by name
        q_vecs = np.ones((5, 3))
        q_vecs[3, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q_vec in (q_vecs, q_vecs[3]):
                message = f"q_vec {[1.0, 1.0, bad]} has a component above 2^511"
                with pytest.raises(ValueError, match=re.escape(message)):
                    self.section(vodpo_model, q_vec=q_vec)
            edge = np.full(3, ins_model._Q_COMPONENT_MAX)
            assert math.isfinite(self.section(vodpo_model, q_vec=edge))

    def test_cross_section_huge_q_component_names_the_first_row_above_2_511(self, vodpo_model):
        q_vecs = np.array([[1.0, 1.0, 1.0], [2.0**511, 0.0, 0.0], [0.0, -2.0**512, 0.0]])
        message = f"q_vec {[0.0, -2.0**512, 0.0]} has a component above 2^511"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.section(vodpo_model, q_vec=q_vecs)

    @pytest.mark.filterwarnings("error")
    def test_cross_section_overflowing_phase(self):
        model = DimerModel(J=7.81, R=1e300)
        with pytest.raises(ValueError, match=re.escape("Q_x R/2 overflows at R = 1e+300")):
            self.section(model, q_vec=np.array([0.0, 1e10, 0.0]))
        assert math.isfinite(self.section(model, q_vec=np.array([1e-10, 0.0, 1.0])))

    @pytest.mark.filterwarnings("error")
    def test_cross_section_overflowing_form_factor_exponent(self, vodpo_model):
        steep = FormFactorParams(A=0.5, a=1e3, B=0.5, b=1.0, C=0.0, c=0.0, D0=0.0)
        q_vec = np.array([2.0**511, 1.0, 1.0])
        message = "the form factor's exponent overflows at Q = 6.703903964971299e+153 1/angstrom"
        for q in (q_vec, np.array([[1.0, 0.0, 0.0], q_vec])):
            with pytest.raises(ValueError, match=re.escape(message)):
                cross_section(vodpo_model, q, 7.81, 10.0, steep, self.LINE)
        # the shipped coefficients, a = 16.8 at most, do not overflow there
        assert math.isfinite(self.section(vodpo_model, q_vec=q_vec))

    @pytest.mark.parametrize("fwhm", [1e-310, 5e-324])
    def test_cross_section_too_narrow_a_line(self, vodpo_model, fwhm):
        # the unit-area peak 1/(sigma sqrt(2 pi)) overflows, or sigma underflows to 0
        message = f"fwhm {fwhm} meV is too narrow"
        for omega in (7.81, np.array([7.0, 7.81])):
            with pytest.raises(ValueError, match=re.escape(message)):
                cross_section(vodpo_model, self.Q, omega, 10.0, default_form_factor(),
                              LineShape(fwhm=fwhm))

    def test_cross_section_narrowest_finite_line(self, vodpo_model):
        # the lines far from omega square to inf, and their Gaussians are 0
        line = LineShape(fwhm=1e-300)
        value = cross_section(vodpo_model, [0.1, 0.2, 1.0], 7.81, 10.0, default_form_factor(), line)
        assert value == pytest.approx(7.919792058075856e+298, rel=1e-14)
        assert cross_section(vodpo_model, self.Q, 7.0, 10.0, default_form_factor(), line) == 0.0
        # sigma sqrt(2 pi) at 2.3 over the float maximum, just above the refusal's 2
        edge = LineShape(fwhm=1.2e-308)
        value = cross_section(vodpo_model, self.Q, 7.81, 10.0, default_form_factor(), edge)
        assert 1e307 < value < math.inf

    @pytest.mark.parametrize("omega", [1e200, -1.7976931348623157e308])
    def test_cross_section_far_from_every_line_is_zero(self, vodpo_model, omega):
        assert self.section(vodpo_model, omega=omega) == 0.0
        values = self.section(vodpo_model, omega=np.array([omega, 7.81]))
        assert values[0] == 0.0 and values[1] > 0.0

    def test_cross_section_omega(self, vodpo_model):
        with pytest.raises(ValueError, match="omega must be finite"):
            self.section(vodpo_model, omega=math.nan)
        with pytest.raises(ValueError, match="omega must be finite"):
            self.section(vodpo_model, omega=np.array([1.0, math.nan, 3.0]))

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_cross_section_temperature(self, vodpo_model, temperature):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            self.section(vodpo_model, temperature=temperature)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_transition_weights(self, vodpo_model, temperature):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            transition_weights(vodpo_model, temperature)

    @pytest.mark.parametrize("D", [4.0, -1e-300])
    def test_transition_weights_refuse_dm_coupling(self, D):
        with pytest.raises(ValueError, match=re.escape(f"requires D = 0, got D = {D}")):
            transition_weights(DimerModel(J=7.81, D=D), 10.0)

    def test_synth_config_temperature_is_thermal_energy_checked(self):
        with pytest.raises(ValueError, match=SUBNORMAL_KT):
            SynthConfig(model=DimerModel(J=7.81), T=1e-310, lineshape=LineShape(fwhm=1.0))

    def test_synth_config_width_underflow(self):
        # fwhm / (2 sqrt(2 ln 2)) is 0 at the smallest subnormal fwhm only.
        base = dict(model=DimerModel(J=7.81), T=10.0)
        with pytest.raises(ValueError, match=re.escape("fwhm 5e-324 meV is too narrow")):
            SynthConfig(**base, lineshape=LineShape(fwhm=5e-324))
        spectrum = synth_spectrum(SynthConfig(**base, lineshape=LineShape(fwhm=1e-323)))
        assert np.isfinite(spectrum.intensity).all()

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_bleaney_bowers_chi(self, vodpo_model, temperature):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            bleaney_bowers_chi(vodpo_model, temperature)


class TestLineStrengthMemo:
    """At one scalar omega cross_section takes its four line strengths from
    a memo keyed on (model, T, omega, line shape).  It must change no
    result and skip no refusal."""

    LINE = LineShape(fwhm=1.0)
    SHELLS = (0.3, 0.8, 1.3, 1.9, 2.5)  # |Q| in 1/angstrom, as in criterion 11
    memo = staticmethod(ins_model._scalar_line_strengths)

    def powder_stack(self, model, cold):
        directions = np.random.default_rng(11).standard_normal((500, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        values = []
        for q in self.SHELLS:
            if cold:
                self.memo.cache_clear()
            values.append(
                cross_section(model, q * directions, 7.81, 10.0, default_form_factor(), self.LINE)
            )
        return np.array(values)

    @pytest.mark.parametrize("D", [0.0, 4.0])
    def test_warm_memo_gives_the_same_bits(self, D):
        model = DimerModel(J=7.81, D=D)
        cold = self.powder_stack(model, cold=True)
        self.memo.cache_clear()
        warm = self.powder_stack(model, cold=False)
        assert self.memo.cache_info().hits == len(self.SHELLS) - 1
        assert warm.tobytes() == cold.tobytes()

    def test_memo_is_bounded(self):
        self.memo.cache_clear()
        model = DimerModel(J=7.81)
        for omega in np.linspace(0.0, 10.0, 3 * ins_model._STRENGTH_MEMO_SIZE).tolist():
            cross_section(model, np.array([1.0, 0.2, 0.3]), omega, 10.0, FLAT_FORM, self.LINE)
        assert self.memo.cache_info().currsize == ins_model._STRENGTH_MEMO_SIZE

    # The largest |Q| is 2^511 = 6.7e153 1/angstrom: the shipped form factor
    # is finite there, and STEEP's exponent overflows.
    GOOD = {
        "q_vec": np.array([[2.0**511, 1.0, 1.0], [1.0, 0.0, 0.0]]),
        "omega": 7.81,
        "temperature": 10.0,
        "ff_params": default_form_factor(),
    }
    STEEP = FormFactorParams(A=0.5, a=1e3, B=0.5, b=1.0, C=0.0, c=0.0, D0=0.0)
    DEFECTS = (  # one bad input each, in the order cross_section refuses them
        ("temperature", math.nan, "temperature must be positive and finite"),
        ("q_vec", np.array([[2.0**511, 1.0, 1.0], [math.nan, 0.0, 0.0]]), "q_vec must be finite"),
        ("omega", math.nan, "omega must be finite"),
        ("ff_params", STEEP, "the form factor's exponent overflows at Q = 6.703903964971299e+153"),
    )

    def serve(self, model):
        """Calls cross_section on GOOD, so its key is in the memo."""
        value = cross_section(model, lineshape=self.LINE, **self.GOOD)
        assert np.isfinite(value).all()
        self.memo(model, 10.0, 7.81, self.LINE)
        assert self.memo.cache_info().hits > 0

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("temperature", math.nan, "temperature must be positive and finite, at least"),
            ("temperature", -10.0, "temperature must be positive and finite, at least"),
            ("omega", math.nan, "omega must be finite"),
            ("omega", math.inf, "omega must be finite"),
            ("omega", -math.inf, "omega must be finite"),
            ("q_vec", np.zeros(3), "momentum transfer must be nonzero"),
            ("q_vec", np.zeros((2, 3)), "momentum transfer must be nonzero"),
        ],
    )
    def test_served_key_skips_no_refusal(self, vodpo_model, name, value, message):
        self.serve(vodpo_model)
        inputs = dict(self.GOOD, **{name: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            cross_section(vodpo_model, lineshape=self.LINE, **inputs)

    @pytest.mark.parametrize(
        "defects",
        [pair for size in (1, 2) for pair in itertools.combinations(range(4), size)],
        ids=lambda pair: "+".join(("T", "q_vec", "omega", "exponent")[i] for i in pair),
    )
    def test_first_defect_in_order_is_refused(self, vodpo_model, defects):
        self.serve(vodpo_model)
        inputs = dict(self.GOOD)
        for index in defects:
            name, value, _ = self.DEFECTS[index]
            inputs[name] = value
        with pytest.raises(ValueError, match=re.escape(self.DEFECTS[defects[0]][2])):
            cross_section(vodpo_model, lineshape=self.LINE, **inputs)


SUBNORMAL_KT = "temperature must be positive and finite, at least .* K, got 1e-310"


class TestSubnormalThermalEnergy:
    """At 1e-310 K, k_B T is a subnormal float: each entry point names the
    temperature in a ValueError.  At MIN_TEMPERATURE_K it gives the finite
    T -> 0 limit."""

    Q = np.array([0.9, 0.3, 0.4])

    @pytest.mark.parametrize("J", [7.81, -1.0])
    def test_cross_section(self, J):
        model = DimerModel(J=J, D=4.0)
        args = (self.Q, 7.81)
        tail = (default_form_factor(), LineShape(fwhm=1.0))
        with pytest.raises(ValueError, match=SUBNORMAL_KT):
            cross_section(model, *args, 1e-310, *tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(cross_section(model, *args, MIN_TEMPERATURE_K, *tail))

    @pytest.mark.parametrize("J,limit", [(7.81, (1.0, 0.0)), (-1.0, (0.0, 1.0 / 3.0))])
    def test_transition_weights(self, J, limit):
        with pytest.raises(ValueError, match=SUBNORMAL_KT):
            transition_weights(DimerModel(J=J), 1e-310)
        assert transition_weights(DimerModel(J=J), MIN_TEMPERATURE_K) == limit

    @pytest.mark.parametrize("J", [7.81, -1.0])
    def test_bleaney_bowers_chi(self, J):
        with pytest.raises(ValueError, match=SUBNORMAL_KT):
            bleaney_bowers_chi(DimerModel(J=J), 1e-310)
        chi = bleaney_bowers_chi(DimerModel(J=J), MIN_TEMPERATURE_K)
        if J > 0.0:
            assert chi == 0.0
        else:  # the ferromagnet's triplet ground state: one third of the Curie law
            curie = 2.0 * AVOGADRO * 1.99**2 * MU_B_ERG_PER_G**2 / KB_ERG_PER_K / MIN_TEMPERATURE_K
            assert abs(chi / (curie / 3.0) - 1.0) < 1e-12


LOG10_J = st.floats(-3.0, 3.0)  # J from 1e-3 to 1e3 meV
D_OVER_J = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
LOG10_J_OVER_KT = st.floats(-3.0, 3.0)


class TestCrossSectionTangentForm:
    """cos^2 and sin^2 of the half phase Q_x R/2 come from its tangent.
    With a flat form factor and Qhat_z = 0 a direction's value is
    c^2 V0 + s^2 V1: V0 at half phase 0 (c^2 = 1, s^2 = 0 exactly) and V1 at
    half phase fl(pi/2), where c^2 < 4e-33.  Every direction must match
    that combination through np.cos and np.sin to 1e-14."""

    MODEL = DimerModel(J=7.81, D=15.62, R=2.0)  # R = 2: the half phase is Q_x itself
    ARGS = (0.5 * (7.81 + math.hypot(7.81, 15.62)), 30.0, FLAT_FORM, LineShape(fwhm=1.0))

    @staticmethod
    def near(x, ulps=3):
        """x and its floats up to `ulps` steps away on either side."""
        values = [x]
        for direction in (-math.inf, math.inf):
            y = x
            for _ in range(ulps):
                y = math.nextafter(y, direction)
                values.append(y)
        return values

    def test_matches_cos_sin_reference(self):
        half_phases = [0.0, 1e-300, 1.0]
        for k in [1, 2, 3, 4, 7, 8, 1001, 1002, 123457, 2**40, 2**40 + 1]:
            half_phases += self.near(k * math.pi / 2)
        half_phases += list(10.0 ** np.random.default_rng(5).uniform(-3.0, 153.8, 300))
        bound = ins_model._Q_COMPONENT_MAX
        half_phases += [bound, math.nextafter(bound, 0.0), 1e153, 2.0**500]
        half_phases = np.array(half_phases + [-x for x in half_phases])
        q_vecs = np.zeros((half_phases.size, 3))
        q_vecs[:, 0], q_vecs[:, 1] = half_phases, 0.7

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cross_section(self.MODEL, q_vecs, *self.ARGS)
            pure = np.array([[0.0, 1.0, 0.0], [math.pi / 2, 0.0, 0.0]])
            total, staggered = cross_section(self.MODEL, pure, *self.ARGS)
        assert 0.1 < staggered / total < 10.0  # both parts weigh in
        expected = np.cos(half_phases) ** 2 * total + np.sin(half_phases) ** 2 * staggered
        assert np.all(np.abs(got - expected) <= 1e-14 * expected)


class TestCrossSectionIsFinite:
    @settings(max_examples=150, deadline=None)
    @given(
        log_j=LOG10_J,
        d_over_j=D_OVER_J,
        log_x=LOG10_J_OVER_KT,
        q_vec=st.sampled_from([(1.3, 0.0, 0.0), (0.0, 0.0, 1.3), (0.75, 0.75, 0.75)]),
    )
    def test_many_omega_path(self, log_j, d_over_j, log_x, q_vec):
        J = 10.0**log_j
        model = DimerModel(J=J, D=d_over_j * J)
        temperature = J / (KB_MEV_PER_K * 10.0**log_x)
        omega = np.linspace(-2.0, 2.0, 41) * math.hypot(model.J, model.D)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = cross_section(
                model, np.array(q_vec), omega, temperature, default_form_factor(),
                LineShape(fwhm=0.1 * J),
            )
        assert values.shape == omega.shape
        assert np.isfinite(values).all()
