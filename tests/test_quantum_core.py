import decimal
import math
import re
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimercorr import (
    KB_MEV_PER_K,
    DensityMatrix,
    DimerModel,
    build_hamiltonian,
    critical_temperatures,
    eigh4,
    g_parameter,
    gibbs_state,
    maximally_mixed_state,
    singlet_state,
    spin_correlator,
    transition_weights,
)
from dimercorr.quantum_core import MIN_TEMPERATURE_K, SPIN_SITE1, SPIN_SITE2, level_weights

temperatures = st.floats(1.0, 500.0)
exchanges = st.floats(-20.0, 20.0)
dm_couplings = st.floats(-10.0, 10.0)


def closed_form_thermal_matrix(G):
    """The thermal dimer state written directly in terms of G = (4/3)<S1.S2>."""
    return 0.25 * np.array(
        [
            [1 + G, 0, 0, 0],
            [0, 1 - G, 2 * G, 0],
            [0, 2 * G, 1 - G, 0],
            [0, 0, 0, 1 + G],
        ]
    )


class TestDimerModel:
    def test_defaults_are_valid(self):
        model = DimerModel(J=7.81)
        assert model.g == 1.99 and model.R == 4.43 and model.D == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"J": float("nan")},
            {"J": float("inf")},
            {"J": 1.0, "g": 0.0},
            {"J": 1.0, "g": -2.0},
            {"J": 1.0, "R": 0.0},
            {"J": 1.0, "D": float("nan")},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DimerModel(**kwargs)

    def test_g_and_r_below_one_accepted(self):
        model = DimerModel(J=1.0, g=0.5, R=0.5)
        assert (model.g, model.R) == (0.5, 0.5)

    @pytest.mark.parametrize("J, D", [(1e308, 1e308), (1e308, 0.0), (0.0, -1e308), (-2e307, 0.0)])
    def test_gap_beyond_the_float_range_of_kelvin_rejected(self, J, D):
        with pytest.raises(ValueError, match=re.escape(f"J = {J!r} meV and D = {D!r} meV")):
            DimerModel(J=J, D=D)

    @pytest.mark.parametrize("d_over_j", [0.0, 1.0])
    def test_near_largest_gap_gives_finite_critical_temperatures(self, d_over_j):
        gap = 0.999 * KB_MEV_PER_K * sys.float_info.max
        J = gap / math.hypot(1.0, d_over_j)
        result = critical_temperatures(DimerModel(J=J, D=d_over_j * J))
        for t in (result.tc_entanglement, result.tc_chsh, result.t_cross):
            assert 0.0 < t < gap / KB_MEV_PER_K


class TestBuildHamiltonian:
    def test_pure_heisenberg_spectrum(self):
        values = eigh4(build_hamiltonian(DimerModel(J=1.0))).values
        assert np.allclose(values, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)

    def test_zero_couplings_give_zero_matrix(self):
        assert np.all(build_hamiltonian(DimerModel(J=0.0)) == 0.0)

    def test_dm_split_spectrum_matches_block_diagonalization(self):
        # The |ud>/|du> block is [[-J/4, (J+iD)/2], [(J-iD)/2, -J/4]], so its
        # eigenvalues are -J/4 +- sqrt(J^2+D^2)/2; the |uu>, |dd> states stay at J/4.
        J, D = 1.0, 1.0
        gap = 0.5 * math.sqrt(J * J + D * D)
        expected = sorted([-J / 4 - gap, J / 4, J / 4, -J / 4 + gap])
        values = eigh4(build_hamiltonian(DimerModel(J=J, D=D))).values
        assert np.allclose(values, expected, atol=1e-14)

    def test_is_the_pauli_sum(self):
        # J/4 sum_a sigma_a x sigma_a + D/4 (sigma_x x sigma_y - sigma_y x sigma_x)
        J, D = 1.5, 0.7
        x, y, z = (np.array(m, dtype=complex) for m in
                   ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
        expected = (0.25 * J * (np.kron(x, x) + np.kron(y, y) + np.kron(z, z))
                    + 0.25 * D * (np.kron(x, y) - np.kron(y, x)))
        assert np.max(np.abs(build_hamiltonian(DimerModel(J=J, D=D)) - expected)) < 1e-15

    @given(J=exchanges, D=dm_couplings)
    def test_always_hermitian(self, J, D):
        h = build_hamiltonian(DimerModel(J=J, D=D))
        assert np.max(np.abs(h - h.conj().T)) < 1e-14


class TestEigh4:
    def test_identity(self):
        system = eigh4(np.eye(4, dtype=complex))
        assert np.allclose(system.values, 1.0)

    def test_diagonal_matrix(self):
        system = eigh4(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        assert np.allclose(system.values, [1, 2, 3, 4])
        assert np.allclose(np.abs(system.vectors), np.eye(4))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = a + a.conj().T
            system = eigh4(h)
            rebuilt = (system.vectors * system.values) @ system.vectors.conj().T
            assert np.max(np.abs(rebuilt - h)) < 1e-10
            gram = system.vectors.conj().T @ system.vectors
            assert np.max(np.abs(gram - np.eye(4))) < 1e-10
            assert np.all(np.diff(system.values) >= 0.0)

    def test_eigenvalues_invariant_under_unitary_conjugation(self, unitary_factory):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = a + a.conj().T
        reference = eigh4(h).values
        for _ in range(5):
            u = unitary_factory(rng, 4)
            rotated = eigh4(u @ h @ u.conj().T).values
            assert np.max(np.abs(rotated - reference)) < 1e-10

    def test_deviation_at_the_tolerance_accepted(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        h[0, 1] = 1e-9  # |h - h^H| is 1e-9 = EIGH4_HERMITICITY_TOL in that entry
        assert np.allclose(eigh4(h).values, [1.0, 2.0, 3.0, 4.0])

    def test_non_hermitian_rejected(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            eigh4(bad)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"expected a 4x4 matrix, got shape \(2, 2\)"):
            eigh4(np.eye(2, dtype=complex))


class TestGibbsState:
    def test_nonpositive_temperature_rejected(self, vodpo_model):
        with pytest.raises(ValueError):
            gibbs_state(vodpo_model, 0.0)
        with pytest.raises(ValueError):
            gibbs_state(vodpo_model, -5.0)

    def test_low_temperature_limit_is_singlet(self, vodpo_model):
        rho = gibbs_state(vodpo_model, 0.01)
        assert np.max(np.abs(rho.matrix - singlet_state().matrix)) < 1e-12

    def test_high_temperature_limit_is_maximally_mixed(self):
        rho = gibbs_state(DimerModel(J=0.5), 1e9)
        assert np.max(np.abs(rho.matrix - np.eye(4) / 4)) < 1e-9

    def test_high_temperature_deviation_scales_as_gap_over_temperature(self, vodpo_model):
        # Largest entry deviation is |G|/2 ~ J/(8 kB T); check the bound itself
        # rather than an absolute tolerance that only holds for small J.
        T = 1e9
        rho = gibbs_state(vodpo_model, T)
        bound = vodpo_model.J / (8.0 * KB_MEV_PER_K * T)
        assert np.max(np.abs(rho.matrix - np.eye(4) / 4)) < 1.01 * bound

    def test_state_at_entanglement_threshold(self, vodpo_model):
        # At T = J/(kB ln 3) the Boltzmann factor is exactly 3 and G = -1/3.
        threshold = vodpo_model.J / (KB_MEV_PER_K * math.log(3.0))
        rho = gibbs_state(vodpo_model, threshold)
        assert np.max(np.abs(rho.matrix - closed_form_thermal_matrix(-1.0 / 3.0))) < 1e-12

    @settings(max_examples=60)
    @given(J=exchanges, T=temperatures)
    def test_matches_closed_form_entrywise(self, J, T):
        model = DimerModel(J=J)
        rho = gibbs_state(model, T)
        expected = closed_form_thermal_matrix(g_parameter(model, T))
        assert np.max(np.abs(rho.matrix - expected)) < 1e-12

    @settings(max_examples=60)
    @given(J=exchanges, D=dm_couplings, T=temperatures)
    def test_output_is_a_valid_state(self, J, D, T):
        rho = gibbs_state(DimerModel(J=J, D=D), T)
        m = rho.matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(np.trace(m) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(m)[0] > -1e-12

    @settings(max_examples=60)
    @given(J=exchanges, T=temperatures)
    def test_partition_function_identity(self, J, T):
        values = eigh4(build_hamiltonian(DimerModel(J=J))).values
        beta = 1.0 / (KB_MEV_PER_K * T)
        numeric = np.sum(np.exp(-values * beta))
        closed = math.exp(3 * J * beta / 4) + 3 * math.exp(-J * beta / 4)
        assert abs(numeric - closed) < 1e-12 * closed

    @settings(max_examples=40)
    @given(J=exchanges, T=temperatures)
    def test_heisenberg_isotropy(self, J, T):
        rho = gibbs_state(DimerModel(J=J), T).matrix
        components = [
            float(np.real(np.trace(rho @ (SPIN_SITE1[a] @ SPIN_SITE2[a]))))
            for a in range(3)
        ]
        assert max(components) - min(components) < 1e-12

    @pytest.mark.parametrize("D", [0.0, 4.0])
    def test_ground_state_at_the_lowest_temperature_without_warnings(self, D):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = gibbs_state(DimerModel(J=7.81, D=D), MIN_TEMPERATURE_K).matrix
        assert np.max(np.abs(np.diag(rho) - [0.0, 0.5, 0.5, 0.0])) < 1e-15
        assert np.max(np.abs(rho @ rho - rho)) < 1e-15  # a projector


class TestLevelWeights:
    @settings(max_examples=60)
    @given(J=exchanges, D=dm_couplings, T=st.floats(0.1, 500.0))
    def test_populations_are_the_gibbs_spectrum(self, J, D, T):
        levels = level_weights(DimerModel(J=J, D=D), T)
        populations = [levels.p_plus, levels.p_t, levels.p_t, levels.p_minus]
        spectrum = np.linalg.eigvalsh(gibbs_state(DimerModel(J=J, D=D), T).matrix)
        assert np.max(np.abs(np.sort(populations) - spectrum)) < 1e-12
        assert levels.gap == math.hypot(J, D)

    @pytest.mark.parametrize("D", [0.0, 4.0])
    def test_log_weights_floor_at_minus_800(self, D):
        # At MIN_TEMPERATURE_K every excitation energy exceeds 800 kT.
        levels = level_weights(DimerModel(J=7.81, D=D), MIN_TEMPERATURE_K)
        assert abs(levels.log_t + 800.0) < 1e-12 and abs(levels.log_plus + 800.0) < 1e-12


class TestGParameter:
    def test_limits(self, vodpo_model):
        assert abs(g_parameter(vodpo_model, 0.01) - (-1.0)) < 1e-12
        assert abs(g_parameter(vodpo_model, 1e12)) < 1e-10

    def test_value_at_entanglement_threshold(self, vodpo_model):
        threshold = vodpo_model.J / (KB_MEV_PER_K * math.log(3.0))
        assert abs(g_parameter(vodpo_model, threshold) - (-1.0 / 3.0)) < 1e-4

    def test_rejects_dm_coupling(self):
        with pytest.raises(ValueError, match="D = 0"):
            g_parameter(DimerModel(J=7.81, D=2.0), 50.0)

    def test_zero_exchange_gives_positive_zero(self):
        assert math.copysign(1.0, g_parameter(DimerModel(J=0.0), 10.0)) == 1.0

    @pytest.mark.parametrize("D", [2.0, -1e-300])
    def test_refusal_names_d(self, D):
        with pytest.raises(ValueError, match=re.escape(f"requires D = 0, got D = {D}")):
            g_parameter(DimerModel(J=7.81, D=D), 50.0)

    def test_rejects_nonpositive_temperature(self, vodpo_model):
        with pytest.raises(ValueError):
            g_parameter(vodpo_model, 0.0)

    @settings(max_examples=60)
    @given(J=exchanges, T=temperatures)
    def test_matches_trace_route(self, J, T):
        model = DimerModel(J=J)
        direct = g_parameter(model, T)
        via_trace = (4.0 / 3.0) * spin_correlator(gibbs_state(model, T))
        assert abs(direct - via_trace) < 1e-12
        # mathematically open interval; floats saturate to the -1 edge at low T
        assert -1.0 <= direct <= 1.0 / 3.0


_REFERENCE = decimal.Context(prec=60)


def reference_populations(J, T):
    """p_singlet, p_triplet and G = p_triplet - p_singlet of the D = 0 dimer
    at J (meV) and T (K) in 60-digit decimal arithmetic, the weights taken
    relative to the ground level, so none overflows."""
    with decimal.localcontext(_REFERENCE):
        x = Decimal(J) / (Decimal(KB_MEV_PER_K) * Decimal(T))
        if x >= 0:
            weight = (-x).exp()  # of a triplet level, relative to the singlet
            p_singlet = 1 / (1 + 3 * weight)
            p_triplet = weight * p_singlet
        else:
            weight = x.exp()  # of the singlet, relative to a triplet level
            p_triplet = 1 / (weight + 3)
            p_singlet = weight * p_triplet
        return p_singlet, p_triplet, p_triplet - p_singlet


# The largest relative error of p_singlet and p_triplet at J = +-7.81 meV,
# measured at each J/kT and pinned at about three times it.  It grows as
# J/kT at 1e2, where the rounding of J/kT itself moves e^(-J/kT) by about
# J/kT ulp; at 1e3 the small population underflows to 0, so the bound is
# relative plus one subnormal.  The closed forms these replaced erred alike.
POPULATION_RELATIVE_BOUND = {
    1e-7: 7e-16, 1e-6: 3e-16, 1e-5: 3e-16, 1e-4: 2e-16, 1e-3: 2e-16, 1e-2: 3e-16,
    1e-1: 5e-16, 1e0: 7e-16, 1e1: 6e-16, 1e2: 2e-14, 1e3: 2e-16,
}
# G's largest relative error on the same grid is 1.8e-16 (J/kT = 1e-3),
# pinned at 6e-16.  The former closed form (t - 1)/(3t + 1), t = e^(-J/kT),
# cancelled as J/kT -> 0: 4.9e-10 at 1e-7, 1.6e-11 at 1e-6, 5.7e-13 at 1e-5.
G_RELATIVE_BOUND = 6e-16


class TestPopulationsAgainstDecimalReference:
    @staticmethod
    def check(J, T, bound, g_bound):
        model = DimerModel(J=J)
        got = (*transition_weights(model, T), g_parameter(model, T))
        exact = reference_populations(J, T)
        for name, value, reference, limit in zip(
            ("p_singlet", "p_triplet", "G"), got, exact, (bound, bound, g_bound)
        ):
            error = abs(Decimal(value) - reference)
            assert error <= Decimal(limit) * abs(reference) + Decimal(5e-324), name

    @pytest.mark.parametrize("J", [7.81, -7.81])
    @pytest.mark.parametrize("x", sorted(POPULATION_RELATIVE_BOUND))
    def test_each_decade(self, x, J):
        T = abs(J) / (KB_MEV_PER_K * x)
        self.check(J, T, POPULATION_RELATIVE_BOUND[x], G_RELATIVE_BOUND)

    @pytest.mark.parametrize("J", [7.81, -7.81])
    def test_thermal_energy_edge(self, J):
        # The ground level alone: (1, 0) and G = -1, or (0, 1/3) and G = 1/3.
        self.check(J, MIN_TEMPERATURE_K, 2e-16, 2e-16)
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            g_parameter(DimerModel(J=J), 1e-310)


class TestSpinCorrelator:
    def test_singlet(self):
        assert abs(spin_correlator(singlet_state()) - (-0.75)) < 1e-14

    def test_maximally_mixed(self):
        assert abs(spin_correlator(maximally_mixed_state())) < 1e-14

    def test_value_at_entanglement_threshold(self, vodpo_model):
        threshold = vodpo_model.J / (KB_MEV_PER_K * math.log(3.0))
        rho = gibbs_state(vodpo_model, threshold)
        assert abs(spin_correlator(rho) - (-0.25)) < 1e-4

    def test_range_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = a @ a.conj().T
            rho = DensityMatrix(m / np.trace(m).real)
            assert -0.75 - 1e-9 <= spin_correlator(rho) <= 0.25 + 1e-9


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="^density matrix is not Hermitian to 1e-12$"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match=r"^density matrix trace \(2\+0j\) is not 1 to 1e-12$"):
            DensityMatrix(np.eye(4, dtype=complex) / 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(m)
        with pytest.raises(ValueError, match="negative eigenvalue -0.1"):
            DensityMatrix(np.diag([0.1, -0.1, 0.5, 0.5]).astype(complex))

    def test_every_tolerance_is_inclusive(self):
        # Imaginary diagonals of 0.5e-12: |m - m^H| and |trace - 1| are 1e-12.
        DensityMatrix(np.diag([0.5 + 0.5e-12j, 0.5 + 0.5e-12j, 0.0, 0.0]))
        # An eigenvalue of exactly -1e-12.
        DensityMatrix(np.diag([-1e-12, 1e-12, 0.5, 0.5]).astype(complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            DensityMatrix(np.eye(2, dtype=complex) / 2)
