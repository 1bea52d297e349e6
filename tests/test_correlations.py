import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dimercorr import (
    KB_MEV_PER_K,
    DensityMatrix,
    DimerModel,
    bell_panel,
    chsh_max,
    chsh_tc_closed,
    classical_correlation_closed,
    classical_correlation_optimized,
    concurrence_closed,
    concurrence_wootters,
    correlation_point,
    critical_temperatures,
    discord,
    discord_optimized,
    entanglement_tc_closed,
    find_chsh_tc,
    find_entanglement_tc,
    g_parameter,
    gibbs_state,
    maximally_mixed_state,
    mutual_information,
    mutual_information_from_state,
    singlet_state,
    spin_correlator,
    thermal_panel,
    von_neumann_entropy,
    witness,
)
from dimercorr import cli, correlations
from dimercorr.numerics import bisect_boundary
from dimercorr.quantum_core import MIN_TEMPERATURE_K
from test_numerics import Counted, assert_straddles, bisect_reference

G_DOMAIN = st.floats(-1.0, 1.0 / 3.0)


def direct_mutual_information(G):
    """Independent scalar evaluation of the mutual-information formula."""
    total = 0.0
    for weight, value in ((1.0, 1.0 - 3.0 * G), (3.0, 1.0 + G)):
        if value > 0.0:
            total += weight * value * math.log2(value)
    return 0.25 * total


def direct_classical_correlation(G):
    total = 0.0
    for value in (1.0 - G, 1.0 + G):
        if value > 0.0:
            total += value * math.log2(value)
    return 0.5 * total


PAULI_XYZ = (
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
)


def random_full_rank_state(rng):
    """A two-qubit density matrix G G^dag / tr(G G^dag), G complex Ginibre,
    so full rank with probability 1."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m / np.trace(m).real)


def fibonacci_axes(n):
    """n nearly uniform unit vectors on the sphere (Fibonacci lattice)."""
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    azimuth = np.arange(n) * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(azimuth), r * np.sin(azimuth), z], axis=-1)


def measured_correlation(rho, axes):
    """J(n) = S(rho_A) - sum_+- p_+- S(rho_A|+- / p_+-) for each row n of
    axes, from the projectors Pi_+- = (1 +- n.sigma)/2 on spin 2 and the
    unnormalized branch states rho_A|+- = Tr_B[(1 x Pi_+-) rho], of trace p_+-."""
    axes = np.atleast_2d(axes)
    n_sigma = sum(axes[:, k, None, None] * PAULI_XYZ[k] for k in range(3))
    r4 = rho.matrix.reshape(2, 2, 2, 2)  # r4[a, b, c, d] = <a b| rho |c d>

    def entropy_terms(lam):  # p S(state / p) = -sum lam log2(lam / p)
        p = lam.sum(axis=-1, keepdims=True)
        return -np.sum(lam * np.log2(lam / p), axis=-1)

    rho_a = np.einsum("abcb->ac", r4)
    value = entropy_terms(np.linalg.eigvalsh(rho_a))
    for sign in (1.0, -1.0):
        projector = 0.5 * (np.eye(2) + sign * n_sigma)
        branch = np.einsum("nbe,aecb->nac", projector, r4)
        value = value - entropy_terms(np.linalg.eigvalsh(branch))
    return value


def conjugate_by_local_unitaries(rho, u1, u2):
    u = np.kron(u1, u2)
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


class TestWitness:
    def test_singlet(self):
        value, flag = witness(singlet_state())
        assert abs(value - 0.75) < 1e-14 and flag

    def test_maximally_mixed(self):
        value, flag = witness(maximally_mixed_state())
        assert value < 1e-14 and not flag

    def test_product_state_on_the_bound(self):
        # |up up> has <S1.S2> = 1/4 exactly, the product bound: not entangled
        value, flag = witness(DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)))
        assert (value, flag) == (0.25, False)

    def test_at_threshold_temperature(self, vodpo_model):
        # 82.5 K is the rounded threshold, so the witness sits just below 1/4.
        value, flag = witness(gibbs_state(vodpo_model, 82.5))
        assert abs(value - 0.25) < 1e-4
        assert not flag


class TestConcurrenceClosed:
    @pytest.mark.parametrize("G,expected", [(-1.0, 1.0), (-1.0 / 3.0, 0.0), (0.0, 0.0)])
    def test_reference_points(self, G, expected):
        assert abs(concurrence_closed(G) - expected) < 1e-14

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            concurrence_closed(-1.2)
        with pytest.raises(ValueError):
            concurrence_closed(0.5)

    @given(G=G_DOMAIN)
    def test_bounded(self, G):
        assert 0.0 <= concurrence_closed(G) <= 1.0


class TestConcurrenceWootters:
    def test_singlet(self):
        assert abs(concurrence_wootters(singlet_state()) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert concurrence_wootters(maximally_mixed_state()) == 0.0

    def test_matches_closed_form_at_40K(self, vodpo_model):
        rho = gibbs_state(vodpo_model, 40.0)
        expected = concurrence_closed(g_parameter(vodpo_model, 40.0))
        assert abs(concurrence_wootters(rho) - expected) < 1e-10

    def test_oracle_equivalence_on_random_temperatures(self, vodpo_model):
        rng = np.random.default_rng(11)
        for T in rng.uniform(1.0, 500.0, 200):
            general = concurrence_wootters(gibbs_state(vodpo_model, T))
            closed = concurrence_closed(g_parameter(vodpo_model, T))
            assert abs(general - closed) < 1e-10


class TestMutualInformation:
    def test_pure_singlet_limit(self):
        assert abs(mutual_information(-1.0) - 2.0) < 1e-14

    def test_uncorrelated(self):
        assert mutual_information(0.0) == 0.0

    def test_value_at_threshold(self):
        # Direct evaluation: (1/4)[2 log2 2 + 2 log2(2/3)] = 1 - log2(3)/2.
        expected = direct_mutual_information(-1.0 / 3.0)
        assert abs(expected - (1.0 - math.log2(3.0) / 2.0)) < 1e-15
        assert abs(mutual_information(-1.0 / 3.0) - expected) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(0.34)

    @settings(max_examples=80)
    @given(G=st.floats(-0.999999, 1.0 / 3.0))
    def test_entropy_identity(self, G):
        # I = 2 - S(rho) with spectrum {(1-3G)/4, (1+G)/4 x3}.
        spectrum = np.array([(1.0 - 3.0 * G) / 4.0] + [(1.0 + G) / 4.0] * 3)
        spectrum = spectrum[spectrum > 0.0]
        entropy = float(-np.sum(spectrum * np.log2(spectrum)))
        assert abs(mutual_information(G) - (2.0 - entropy)) < 1e-10


class TestClassicalCorrelation:
    def test_pure_singlet_limit(self):
        assert abs(classical_correlation_closed(-1.0) - 1.0) < 1e-14

    def test_uncorrelated(self):
        assert classical_correlation_closed(0.0) == 0.0

    def test_value_at_threshold(self):
        expected = direct_classical_correlation(-1.0 / 3.0)
        assert abs(expected - 0.08170416594551049) < 1e-15
        assert abs(classical_correlation_closed(-1.0 / 3.0) - expected) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classical_correlation_closed(1.5)

    @pytest.mark.parametrize("T", [15.0, 40.0, 90.0, 250.0])
    def test_matches_measurement_optimizer(self, vodpo_model, T):
        rho = gibbs_state(vodpo_model, T)
        optimized, axis = classical_correlation_optimized(rho)
        closed = classical_correlation_closed(g_parameter(vodpo_model, T))
        assert abs(optimized - closed) < 1e-12
        assert axis.shape == (3,)
        assert abs(np.linalg.norm(axis) - 1.0) <= 1e-15


class TestDiscord:
    def test_pure_singlet_limit(self):
        assert abs(discord(-1.0) - 1.0) < 1e-14

    def test_uncorrelated(self):
        assert discord(0.0) == 0.0

    def test_room_temperature_value(self, vodpo_model):
        # Direct evaluation at G(300 K) = -0.081031: about 8.8e-3 bits,
        # small but strictly positive.
        G = g_parameter(vodpo_model, 300.0)
        expected = direct_mutual_information(G) - direct_classical_correlation(G)
        assert abs(discord(G) - expected) < 1e-12
        assert abs(discord(G) - 8.7958e-3) < 1e-6
        assert discord(G) > 0.0

    def test_positivity_across_domain(self):
        for G in np.linspace(-0.9999, 1.0 / 3.0, 501):
            value = discord(G)
            assert value >= -1e-12
            if abs(G) > 1e-6:
                assert value > 0.0
        assert discord(0.0) == 0.0


@pytest.mark.filterwarnings("error")
class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0, 0.0, 0.0])) == 0.0
        assert abs(von_neumann_entropy(singlet_state().matrix)) < 1e-14

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(maximally_mixed_state().matrix) - 2.0) < 1e-14

    def test_diagonal_state(self):
        # -(1/2 log2 1/2 + 2 (1/4 log2 1/4)) = 1.5 bits
        assert abs(von_neumann_entropy(np.diag([0.5, 0.25, 0.25, 0.0])) - 1.5) < 1e-14

    def test_rounded_negative_eigenvalue_is_clipped(self):
        value = von_neumann_entropy(np.diag([0.5, 0.5, 1e-17, -1e-17]))
        assert math.isfinite(value) and abs(value - 1.0) < 1e-14
        # it counts as exactly 0, so a pure state keeps entropy 0
        assert von_neumann_entropy(np.diag([1.0, 0.0, 0.0, -1e-17])) == 0.0


class TestDiscordOptimized:
    def test_maximally_mixed(self):
        assert abs(discord_optimized(maximally_mixed_state())) < 1e-9

    def test_singlet(self):
        assert abs(discord_optimized(singlet_state()) - 1.0) < 1e-9

    def test_matches_closed_form_at_50K(self, vodpo_model):
        rho = gibbs_state(vodpo_model, 50.0)
        closed = discord(g_parameter(vodpo_model, 50.0))
        assert abs(discord_optimized(rho) - closed) < 1e-12


class TestOptimizerOnGeneralStates:
    """The measurement optimizer on random full-rank states, which are not
    thermal dimer states, against J(n) evaluated from explicit projectors."""

    # at seed 110 a search seeded at the pole alone stops 5e-5 bits short
    @pytest.mark.parametrize("seed", [3, 17, 29, 41, 110])
    def test_value_is_attained_and_not_beaten(self, seed):
        rho = random_full_rank_state(np.random.default_rng(seed))
        value, axis = classical_correlation_optimized(rho)
        assert abs(np.linalg.norm(axis) - 1.0) <= 1e-15
        assert abs(measured_correlation(rho, axis)[0] - value) < 1e-12
        assert measured_correlation(rho, fibonacci_axes(20000)).max() <= value + 1e-12

    def test_axis_at_the_pole_for_a_classical_state(self):
        # a diagonal state is classical along z: the optimum sits at the pole
        # theta = 0, where the measured correlation equals the mutual information
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex))
        value, axis = classical_correlation_optimized(rho)
        assert abs(np.linalg.norm(axis) - 1.0) <= 1e-15
        assert abs(axis[2]) > 1.0 - 1e-12
        assert abs(value - mutual_information_from_state(rho)) < 1e-12


class TestLocalUnitaryInvariance:
    @pytest.mark.parametrize("D", [0.0, 4.0])
    def test_concurrence_and_discord_invariant(self, unitary_factory, D):
        rng = np.random.default_rng(31)
        rho = gibbs_state(DimerModel(J=7.81, D=D), 60.0)
        reference_c = concurrence_wootters(rho)
        reference_d = discord_optimized(rho)
        for _ in range(5):
            rotated = conjugate_by_local_unitaries(
                rho, unitary_factory(rng, 2), unitary_factory(rng, 2)
            )
            assert abs(concurrence_wootters(rotated) - reference_c) < 1e-8
            assert abs(discord_optimized(rotated) - reference_d) < 1e-8


class TestChshMax:
    def test_singlet(self):
        assert abs(chsh_max(singlet_state()) - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_maximally_mixed(self):
        assert chsh_max(maximally_mixed_state()) < 1e-12

    def test_boundary_temperature(self, vodpo_model):
        assert abs(chsh_max(gibbs_state(vodpo_model, 38.3)) - 2.0) < 0.002

    def test_identity_with_g_parameter(self, vodpo_model):
        for T in np.linspace(2.0, 400.0, 40):
            expected = 2.0 * math.sqrt(2.0) * abs(g_parameter(vodpo_model, T))
            assert abs(chsh_max(gibbs_state(vodpo_model, T)) - expected) < 1e-10


class TestCorrelationPoint:
    def test_closed_and_general_paths_agree(self, vodpo_model):
        point = correlation_point(vodpo_model, 45.0)
        rho = gibbs_state(vodpo_model, 45.0)
        assert abs(point.concurrence - concurrence_wootters(rho)) < 1e-10
        assert abs(point.chsh_max - chsh_max(rho)) < 1e-10
        assert abs(point.mutual_info - mutual_information_from_state(rho)) < 1e-10
        assert abs(point.discord - discord_optimized(rho)) < 1e-12

    def test_flags_follow_values(self, vodpo_model):
        cold = correlation_point(vodpo_model, 20.0)
        assert cold.entangled and cold.nonlocal_flag
        warm = correlation_point(vodpo_model, 60.0)
        assert warm.entangled and not warm.nonlocal_flag
        hot = correlation_point(vodpo_model, 200.0)
        assert not hot.entangled and not hot.nonlocal_flag
        assert hot.discord > 0.0

    def test_is_the_panel_row_as_python_scalars(self, vodpo_model):
        point = correlation_point(vodpo_model, 45.0)
        row = tuple(column[0] for column in thermal_panel(vodpo_model, [45.0]))
        assert point == row
        assert [type(value) for value in point] == [float] * 8 + [bool] * 2

    def test_general_path_used_for_dm_coupling(self):
        point = correlation_point(DimerModel(J=7.81, D=4.0), 60.0)
        assert point.entangled
        assert abs(point.discord - (point.mutual_info - point.classical_corr)) < 1e-12


def dm_entanglement_tc_oracle(J, D):
    """Root of the analytic concurrence-death condition for the DM thermal state.

    The thermal state is an X state with rho14 = 0, so its concurrence is
    2 max(0, |rho23| - rho11).  With W = sqrt(J^2 + D^2)/2 the condition
    |rho23| = rho11 reduces to sinh(W/kT) = exp(-J/(2kT)).
    """
    W = 0.5 * math.sqrt(J * J + D * D)

    def height(T):
        return math.sinh(W / (KB_MEV_PER_K * T)) - math.exp(-J / (2.0 * KB_MEV_PER_K * T))

    # kB Tc / 2W lies in [0.56, 0.92]; this bracket is wider and scale-free.
    lo, hi = 0.2 * W / KB_MEV_PER_K, 20.0 * W / KB_MEV_PER_K
    assert height(lo) > 0.0 > height(hi)
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if height(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriticalTemperatures:
    def test_closed_forms(self):
        assert abs(entanglement_tc_closed(7.81) - 82.5) < 0.1
        assert abs(chsh_tc_closed(7.81) - 38.3) < 0.1

    def test_bisection_matches_closed_forms(self, vodpo_model):
        assert abs(find_entanglement_tc(vodpo_model) / entanglement_tc_closed(7.81) - 1.0) < 1e-12
        assert abs(find_chsh_tc(vodpo_model) / chsh_tc_closed(7.81) - 1.0) < 1e-12

    def test_crossing_temperature(self, vodpo_model):
        t_cross = critical_temperatures(vodpo_model).t_cross
        assert abs(t_cross - 53.783) < 5e-3

    def test_full_panel_at_zero_dm(self, vodpo_model):
        result = critical_temperatures(vodpo_model)
        assert abs(result.tc_entanglement - 82.496) < 1e-3
        assert abs(result.tc_chsh - 38.302) < 1e-3
        assert result.tc_chsh < result.t_cross < result.tc_entanglement

    def test_dm_coupling_panel_matches_analytic_oracle(self):
        model = DimerModel(J=7.81, D=2.0)
        result = critical_temperatures(model)
        assert abs(result.tc_entanglement - dm_entanglement_tc_oracle(7.81, 2.0)) < 2e-3
        assert result.tc_chsh < result.tc_entanglement
        assert result.t_cross > 0.0

    def test_repr_names_every_field(self, vodpo_model):
        result = critical_temperatures(vodpo_model)
        assert repr(result) == (
            f"CriticalTemperatures(tc_entanglement={result.tc_entanglement!r}, "
            f"tc_chsh={result.tc_chsh!r}, t_cross={result.t_cross!r})"
        )

    def test_linear_scaling_with_exchange(self):
        doubled = critical_temperatures(DimerModel(J=15.62))
        assert abs(doubled.tc_entanglement - 2.0 * 82.496) < 0.2

    @pytest.mark.parametrize(
        "J, message",
        [
            # every critical temperature lies below the gap J/k_B, so the
            # model whose gap overflows is refused before any is computed
            (1e308, r"J = 1e\+308 meV and D = 0\.0 meV .*got inf K"),
            # Tc would overflow while Tc' and T_cross stay finite
            (2e307, r"J = 2e\+307 meV and D = 0\.0 meV .*got inf K"),
            # k_B Tc is subnormal
            (1e-310, r"^J = 1e-310 meV and D = 0\.0 meV put the lowest critical temperature "
                     r"below MIN_TEMPERATURE_K = 2\.58e-307 K, got 4\.9\d*e-310 K$"),
        ],
        ids=["all-overflow", "tc-overflows", "subnormal"],
    )
    def test_temperatures_outside_the_float_range_rejected(self, J, message):
        with pytest.raises(ValueError, match=message):
            critical_temperatures(DimerModel(J=J))

    def test_ferromagnetic_rejected(self):
        with pytest.raises(ValueError):
            critical_temperatures(DimerModel(J=-7.81))
        with pytest.raises(ValueError, match="antiferromagnetic"):
            critical_temperatures(DimerModel(J=-1.0, D=2.0))
        with pytest.raises(ValueError):
            find_entanglement_tc(DimerModel(J=-1.0))
        with pytest.raises(ValueError):
            find_chsh_tc(DimerModel(J=0.0, D=1.0))
        with pytest.raises(ValueError):
            entanglement_tc_closed(0.0)
        for J in (0.0, -7.81):
            with pytest.raises(ValueError, match="never violates CHSH"):
                chsh_tc_closed(J)


# ---------------------------------------------------------------------------
# The Boltzmann-weight core against the general-state oracles
# ---------------------------------------------------------------------------

class TestThermalPanel:
    @settings(max_examples=150, deadline=None)
    @given(
        J=st.floats(1e-3, 1e3),
        d_over_j=st.floats(0.0, 10.0),
        x=st.floats(1e-2, 50.0),
    )
    def test_matches_state_oracles(self, J, d_over_j, x):
        model = DimerModel(J=J, D=d_over_j * J)
        T = J / (KB_MEV_PER_K * x)
        panel = thermal_panel(model, [T])
        rho = gibbs_state(model, T)
        assert abs(panel.concurrence[0] - concurrence_wootters(rho)) < 1e-10
        assert abs(panel.mutual_info[0] - mutual_information_from_state(rho)) < 1e-10
        assert abs(panel.chsh_max[0] - chsh_max(rho)) < 1e-10
        assert abs(0.75 * panel.G[0] - spin_correlator(rho)) < 1e-10
        assert abs(panel.witness[0] - abs(spin_correlator(rho))) < 1e-10

    @pytest.mark.parametrize(
        "J,D,T",
        [(7.81, 2.0, 15.0), (7.81, 2.0, 120.0), (7.81, 4.0, 45.0),
         (7.81, 8.0, 30.0), (7.81, 8.0, 250.0), (1.0, 1.2, 5.0)],
    )
    def test_discord_matches_measurement_optimizer(self, J, D, T):
        model = DimerModel(J=J, D=D)
        panel = thermal_panel(model, [T])
        assert abs(panel.discord[0] - discord_optimized(gibbs_state(model, T))) < 1e-12

    def test_zero_dm_reduces_to_g_forms(self, vodpo_model):
        temperatures = np.linspace(1.0, 500.0, 97)
        panel = thermal_panel(vodpo_model, temperatures)
        for i, T in enumerate(temperatures):
            G = g_parameter(vodpo_model, T)
            assert abs(panel.G[i] - G) < 1e-14
            assert abs(panel.concurrence[i] - concurrence_closed(G)) < 1e-14
            assert abs(panel.mutual_info[i] - mutual_information(G)) < 1e-13
            assert abs(panel.classical_corr[i] - classical_correlation_closed(G)) < 1e-13
            assert abs(panel.chsh_max[i] - 2.0 * math.sqrt(2.0) * abs(G)) < 1e-14

    def test_nonpositive_temperature_rejected(self, vodpo_model):
        for bad in ([10.0, 0.0], [-1.0], [float("nan")]):
            with pytest.raises(ValueError):
                thermal_panel(vodpo_model, bad)

    def test_sweep_rows_equal_correlation_point(self, tmp_path):
        for D in ("0", "4"):
            out = tmp_path / f"sweep_{D}.csv"
            argv = ["sweep", "--J", "7.81", "--D", D, "--tmin", "1", "--tmax", "300",
                    "--steps", "60", "--out", str(out)]
            assert cli.main(argv) == 0
            lines = out.read_text().splitlines()
            assert lines[0] == cli.SWEEP_HEADER and len(lines) == 62
            model = DimerModel(J=7.81, D=float(D))
            for line in lines[1:]:
                cells = line.split(",")
                point = correlation_point(model, float(cells[0]))
                expected = [point.T, point.G, point.witness, point.concurrence, point.discord,
                            point.mutual_info, point.classical_corr, point.chsh_max]
                assert [float(cell) for cell in cells[:8]] == expected
                assert cells[8:] == ["true" if point.entangled else "false",
                                     "true" if point.nonlocal_flag else "false"]

    def test_sweep_and_critical_never_build_a_state(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("hot path reached a general-state routine")

        for name in ("gibbs_state", "concurrence_wootters", "chsh_max",
                     "classical_correlation_optimized"):
            monkeypatch.setattr(correlations, name, forbidden)
        model = DimerModel(J=7.81, D=2.0)
        critical_temperatures(model)
        correlation_point(model, 60.0)
        argv = ["sweep", "--J", "7.81", "--D", "2", "--steps", "10",
                "--out", str(tmp_path / "sweep.csv")]
        assert cli.main(argv) == 0


def bell_diagonal_state(c_perp, c_z):
    """(1 + sum_a t_a sigma_a x sigma_a) / 4 with correlations t = (-c_perp, -c_perp, c_z)."""
    matrix = np.eye(4, dtype=complex)
    for t, pauli in zip((-c_perp, -c_perp, c_z), PAULI_XYZ):
        matrix = matrix + t * np.kron(pauli, pauli)
    return DensityMatrix(0.25 * matrix)


class TestBellPanel:
    """bell_panel against the 4x4 general-state routines on Bell-diagonal
    states of any eigenvalues, so also where p_minus >= p_t >= p_plus fails
    (c_perp < 0 or |c_z| > |c_perp|) and the panel's max()es matter."""

    @settings(max_examples=60, deadline=None)
    @given(w_minus=st.floats(0.0, 1.0), w_plus=st.floats(0.0, 1.0), w_t=st.floats(0.0, 1.0))
    @example(w_minus=0.1, w_plus=0.5, w_t=0.2)  # c_perp = -0.4, c_z = -0.2
    @example(w_minus=0.1, w_plus=0.1, w_t=0.4)  # c_perp = 0, c_z = 0.6
    @example(w_minus=0.0, w_plus=0.9, w_t=0.05)  # entangled with c_perp < 0
    @example(w_minus=0.6, w_plus=0.0, w_t=0.0)  # the singlet
    @example(w_minus=0.0, w_plus=0.0, w_t=0.5)  # rank 2, c_z = 1
    def test_matches_state_oracles(self, w_minus, w_plus, w_t):
        total = w_minus + w_plus + 2.0 * w_t
        assume(total > 0.0)
        # eigenvalues (1 + 2 c_perp - c_z)/4, (1 - 2 c_perp - c_z)/4 and (1 + c_z)/4 twice
        c_perp, c_z = (w_minus - w_plus) / total, 4.0 * w_t / total - 1.0
        rho = bell_diagonal_state(c_perp, c_z)
        panel = bell_panel(c_perp, c_z, 1.0)
        correlator = spin_correlator(rho)
        assert abs(panel.concurrence - concurrence_wootters(rho)) < 1e-12
        assert abs(panel.mutual_info - mutual_information_from_state(rho)) < 1e-12
        assert abs(panel.discord - discord_optimized(rho)) < 1e-12
        assert abs(panel.chsh_max - chsh_max(rho)) < 1e-12
        assert abs(0.75 * panel.G - correlator) < 1e-12
        assert abs(panel.witness - abs(correlator)) < 1e-12
        assert panel.entangled == (panel.concurrence > 0.0)
        assert panel.nonlocal_flag == (panel.chsh_max > 2.0)

    def test_is_the_g_forms_at_zero_dm(self):
        for G in np.linspace(-1.0, 1.0 / 3.0, 41):
            panel = bell_panel(-G, G, 1.0)
            assert abs(panel.G - G) < 1e-15
            for value, g_form in ((panel.concurrence, concurrence_closed),
                                  (panel.mutual_info, mutual_information),
                                  (panel.classical_corr, classical_correlation_closed),
                                  (panel.discord, discord)):
                assert abs(value - g_form(G)) < 1e-15


_REFERENCE = decimal.Context(prec=60)


def _xlog(value):
    return value * value.ln() if value > 0 else Decimal(0)


def reference_panel(J, D, T):
    """The panel columns after T at J, D (meV) and T (K), in 60-digit decimal
    arithmetic from the four Boltzmann weights: 2 + sum p log2 p and Luo's
    term formed directly, which 60 digits carry through their cancellation."""
    with decimal.localcontext(_REFERENCE):
        kT = Decimal(KB_MEV_PER_K) * Decimal(T)
        J, D = Decimal(J), Decimal(D)
        gap = (J * J + D * D).sqrt()
        w_t, w_plus = (-(J + gap) / (2 * kT)).exp(), (-gap / kT).exp()
        p_minus = 1 / (1 + w_plus + 2 * w_t)
        p_t, p_plus = w_t * p_minus, w_plus * p_minus
        c_perp, c_z = p_minus - p_plus, 2 * p_t - p_minus - p_plus
        correlator = (c_z - 2 * (J / gap) * c_perp) / 4
        ln2 = Decimal(2).ln()
        mutual = 2 + sum(_xlog(p) for p in (p_minus, p_t, p_t, p_plus)) / ln2
        c = max(abs(c_perp), abs(c_z))
        classical = (_xlog(1 - c) + _xlog(1 + c)) / (2 * ln2)
        return {
            "G": correlator * 4 / 3,
            "witness": abs(correlator),
            "concurrence": max(Decimal(0), 2 * p_minus - 1),
            "discord": mutual - classical,
            "mutual_info": mutual,
            "classical_corr": classical,
            "chsh_max": 2 * (c_perp * c_perp + max(c_perp * c_perp, c_z * c_z)).sqrt(),
        }


# The largest relative error of mutual_info and discord over D/J in
# {0, 0.5, 3} at each J/kT, measured and pinned at about three times that.
# The first-order terms of the log1p sums still cancel, so it grows as
# kT/J.  The former 2 + sum p log2 p forms erred by at least 1.5e-2, 2.0e-4,
# 4.0e-6 and 1.5e-8 (relative) at J/kT = 1e-7, 1e-6, 1e-5 and 1e-4, at
# least 1000 times the bounds here, and by up to 0.6 (discord at 1e-7).
ENTROPY_RELATIVE_BOUND = {
    1e-7: 2e-8, 1e-6: 6e-10, 1e-5: 3e-10, 1e-4: 1e-11, 1e-3: 4e-12, 1e-2: 1e-13,
    1e-1: 2e-14, 1e0: 3e-15, 1e1: 3e-15, 1e2: 3e-15, 1e3: 3e-15,
}
# Every column's largest absolute error on the same grid is 1.2e-15
# (mutual_info at J/kT = 10, D/J = 3), pinned at 3e-15; the former forms
# erred by up to 7.6e-16.
PANEL_ABSOLUTE_BOUND = 3e-15


class TestAgainstDecimalReference:
    @pytest.mark.parametrize("d_over_j", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("x", sorted(ENTROPY_RELATIVE_BOUND))
    def test_panel_columns(self, x, d_over_j):
        J = 7.81
        T = J / (KB_MEV_PER_K * x)
        panel = thermal_panel(DimerModel(J=J, D=d_over_j * J), [T])
        reference = reference_panel(J, d_over_j * J, T)
        for name, exact in reference.items():
            error = abs(Decimal(float(getattr(panel, name)[0])) - exact)
            assert error <= PANEL_ABSOLUTE_BOUND, name
            if name in ("mutual_info", "discord"):
                assert error <= Decimal(ENTROPY_RELATIVE_BOUND[x]) * exact, name


class TestCriticalTemperaturesAtDmCoupling:
    @pytest.mark.parametrize(
        "J, D", [(7.81, 0.0), (7.81, 4.0), (0.05, 0.01), (1.0, 30.0), (7.81, 8.0)]
    )
    def test_roots_match_state_bisection(self, J, D):
        model = DimerModel(J=J, D=D)
        result = critical_temperatures(model)
        assert abs(find_entanglement_tc(model) / result.tc_entanglement - 1.0) < 1e-12
        assert abs(find_chsh_tc(model) / result.tc_chsh - 1.0) < 1e-12

    def test_crossing_is_a_sign_change_of_concurrence_minus_discord(self):
        model = DimerModel(J=7.81, D=4.0)
        t_cross = critical_temperatures(model).t_cross
        panel = thermal_panel(model, [t_cross - 2e-3, t_cross + 2e-3])
        assert panel.concurrence[0] > panel.discord[0]
        assert panel.concurrence[1] < panel.discord[1]

    @pytest.mark.parametrize("J,D", [(0.05, 0.0), (0.05, 0.01), (1.0, 30.0)])
    def test_roots_outside_the_old_kelvin_brackets(self, J, D):
        # At J = 0.05 meV every root lies below 1 K (Tc' near 0.25 K); at
        # J = 1, D = 30 meV Tc is near 202 K, above 10 J/kB = 116 K.
        result = critical_temperatures(DimerModel(J=J, D=D))
        expected = dm_entanglement_tc_oracle(J, D)
        assert abs(result.tc_entanglement - expected) < 1e-6 * expected
        assert result.tc_chsh < result.t_cross < result.tc_entanglement

    @pytest.mark.parametrize("J", [1e-3, 0.05, 7.81, 1e3])
    def test_roots_on_the_bracket_end_at_vanishing_dm_coupling(self, J):
        # At D/J = 1e-9, Tc and Tc' sit at the upper (D = 0) ends of their
        # u-ranges, 1/sqrt3 and 0.3064, which the brackets keep strictly inside.
        result = critical_temperatures(DimerModel(J=J, D=1e-9 * J))
        assert abs(result.tc_entanglement / entanglement_tc_closed(J) - 1.0) < 1e-6
        assert abs(result.tc_chsh / chsh_tc_closed(J) - 1.0) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        J=st.floats(1e-3, 1e3),
        d_over_j=st.floats(0.0, 1e3),
        scale=st.floats(1e-3, 1e3),
    )
    def test_scale_free_roots_are_sign_changes(self, J, d_over_j, scale):
        model = DimerModel(J=J, D=d_over_j * J)
        result = critical_temperatures(model)
        scaled = critical_temperatures(DimerModel(J=scale * J, D=scale * d_over_j * J))
        for name in ("tc_entanglement", "tc_chsh", "t_cross"):
            expected = scale * getattr(result, name)
            assert abs(getattr(scaled, name) - expected) <= 1e-6 * expected
        step = 1e-5
        for T, flag in ((result.tc_entanglement, "entangled"), (result.tc_chsh, "nonlocal_flag")):
            below, above = getattr(thermal_panel(model, [T * (1 - step), T * (1 + step)]), flag)
            assert below and not above
        panel = thermal_panel(model, [result.t_cross * (1 - step), result.t_cross * (1 + step)])
        difference = panel.concurrence - panel.discord
        assert difference[0] > 0.0 > difference[1]


class TestSubnormalThermalEnergy:
    @pytest.mark.parametrize("J,D", [(7.81, 0.0), (7.81, 4.0), (-1.0, 0.0)])
    def test_thermal_panel(self, J, D):
        model = DimerModel(J=J, D=D)
        with pytest.raises(ValueError, match="temperature must be positive and finite.*got 1e-310"):
            thermal_panel(model, [10.0, 1e-310])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            panel = thermal_panel(model, [MIN_TEMPERATURE_K])
        assert all(np.isfinite(column).all() for column in panel)
        assert panel.concurrence[0] == (1.0 if J > 0.0 else 0.0)


LOG10_J = st.floats(-3.0, 3.0)  # J from 1e-3 to 1e3 meV
D_OVER_J = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
LOG10_J_OVER_KT = st.floats(-3.0, 3.0)


class TestEveryOutputIsFinite:
    """Over J, D/J and J/kT each spanning 1e-3 to 1e3, no numpy warning is
    raised, every output is finite and the panel's fields agree."""

    @settings(max_examples=200, deadline=None)
    @given(log_j=LOG10_J, d_over_j=D_OVER_J, log_x=LOG10_J_OVER_KT)
    def test_thermal_panel(self, log_j, d_over_j, log_x):
        J = 10.0**log_j
        model = DimerModel(J=J, D=d_over_j * J)
        temperature = J / (KB_MEV_PER_K * 10.0**log_x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            panel = thermal_panel(model, [temperature])
            point = correlation_point(model, temperature)
        assert all(np.isfinite(column).all() for column in panel)
        mutual, classical = panel.mutual_info[0], panel.classical_corr[0]
        assert panel.discord[0] == mutual - classical
        assert -1e-12 <= classical <= mutual + 1e-9
        assert panel.entangled[0] == (panel.concurrence[0] > 0.0)
        assert panel.nonlocal_flag[0] == (panel.chsh_max[0] > 2.0)
        assert point == tuple(column[0] for column in panel)
        assert [type(value) for value in point] == [float] * 8 + [bool] * 2

    @settings(max_examples=100, deadline=None)
    @given(log_j=LOG10_J, d_over_j=D_OVER_J)
    def test_critical_temperatures(self, log_j, d_over_j):
        J = 10.0**log_j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = critical_temperatures(DimerModel(J=J, D=d_over_j * J))
        for value in (result.tc_entanglement, result.tc_chsh, result.t_cross):
            assert 0.0 < value < math.inf


class TestCriticalTemperaturesInU:
    """The roots in u = e^(-g/2kT): the scalar crossing function against the
    panel, the D = 0 closed forms, a path free of thermal_panel, and the
    paper's claim that spin-orbit coupling raises every critical temperature."""

    @settings(max_examples=200, deadline=None)
    @given(log_j=LOG10_J, d_over_j=D_OVER_J, log_x=LOG10_J_OVER_KT)
    def test_concurrence_minus_discord_matches_the_panel(self, log_j, d_over_j, log_x):
        J = 10.0**log_j
        model = DimerModel(J=J, D=d_over_j * J)
        kT = J / 10.0**log_x
        gap = math.hypot(model.J, model.D)
        u = math.exp(-0.5 * gap / kT)
        assume(u > 0.0)  # g/2kT beyond about 745 underflows u, off the open (0, 1)
        panel = thermal_panel(model, [kT / KB_MEV_PER_K])
        expected = panel.concurrence[0] - panel.discord[0]
        assert abs(correlations._concurrence_minus_discord(u, J / gap) - expected) < 1e-13

    @settings(max_examples=200, deadline=None)
    @given(log_j=st.floats(-3.0, 3.0))
    def test_zero_dm_roots_are_the_closed_forms(self, log_j):
        J = 10.0**log_j
        result = critical_temperatures(DimerModel(J=J))
        for value, closed in ((result.tc_entanglement, entanglement_tc_closed(J)),
                              (result.tc_chsh, chsh_tc_closed(J))):
            assert abs(value - closed) <= 4 * math.ulp(closed)

    @pytest.mark.parametrize("D", [0.0, 2.0])
    def test_no_panel_call(self, monkeypatch, D):
        def forbidden(*args, **kwargs):
            raise AssertionError("critical_temperatures called thermal_panel")

        monkeypatch.setattr(correlations, "thermal_panel", forbidden)
        result = critical_temperatures(DimerModel(J=7.81, D=D))
        assert result.tc_chsh < result.t_cross < result.tc_entanglement

    @settings(max_examples=100, deadline=None)
    @given(
        log_j=LOG10_J,
        d_over_j=st.lists(
            st.one_of(st.just(0.0), st.floats(-2.0, 3.0).map(lambda e: 10.0**e)),
            min_size=2, max_size=2,
        ),
        signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
    )
    def test_spin_orbit_coupling_raises_every_critical_temperature(self, log_j, d_over_j, signs):
        J = 10.0**log_j
        small, large = sorted(d_over_j)
        assume(large >= 1.01 * small and large > 0.0)
        lower = critical_temperatures(DimerModel(J=J, D=signs[0] * small * J))
        higher = critical_temperatures(DimerModel(J=J, D=signs[1] * large * J))
        for name in ("tc_entanglement", "tc_chsh", "t_cross"):
            assert getattr(lower, name) < getattr(higher, name)


def bisected_critical_u(model):
    """u at Tc, Tc' and T_cross by plain bisection of the bool comparisons
    that critical_temperatures' signed functions stand for."""
    r = model.J / math.hypot(model.J, model.D)
    u_ent, _ = bisect_reference(lambda u: u * u + 2.0 * u ** (1.0 + r) < 1.0, 0.0, 1.0)
    u_bell, _ = bisect_reference(
        lambda u: (1.0 - u * u) / (1.0 + u * u + 2.0 * u ** (1.0 + r)) > math.sqrt(0.5), 0.0, 1.0
    )
    u_cross, _ = bisect_reference(
        lambda u: correlations._concurrence_minus_discord(u, r) > 0.0, u_bell, u_ent
    )
    return u_ent, u_bell, u_cross


class TestCriticalRootsAgainstBisection:
    """The secant-stepped roots against plain bisection over the ranges of
    TestEveryOutputIsFinite."""

    @settings(max_examples=200, deadline=None)
    @given(log_j=LOG10_J, d_over_j=D_OVER_J)
    def test_same_roots_as_bisection(self, log_j, d_over_j):
        J = 10.0**log_j
        model = DimerModel(J=J, D=d_over_j * J)
        solved = []

        def recording(f, lo, hi):
            solved.append((f, bisect_boundary(f, lo, hi)))
            return solved[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correlations, "bisect_boundary", recording)
            correlations._u_roots.cache_clear()  # so the roots are solved, not looked up
            result = critical_temperatures(model)
        gap = math.hypot(model.J, model.D)
        u_ent, u_bell, u_cross = bisected_critical_u(model)
        assert [u for _, u in solved[:2]] == [u_ent, u_bell]
        assert result.tc_entanglement == correlations._temperature(gap, u_ent)
        assert result.tc_chsh == correlations._temperature(gap, u_bell)
        twin, u_root = solved[2]
        assert_straddles(lambda u: twin(u) > 0.0, u_root)
        bisected = correlations._temperature(gap, u_cross)
        assert abs(result.t_cross - bisected) <= 1e-13 * bisected

    def test_evaluations_per_call(self, monkeypatch):
        counts = []

        def counting(f, lo, hi):
            counted = Counted(f)
            root = bisect_boundary(counted, lo, hi)
            counts.append(counted.calls)
            return root

        monkeypatch.setattr(correlations, "bisect_boundary", counting)
        models = [DimerModel(J=J, D=d_over_j * J) for J in (1e-3, 7.81, 1e3)
                  for d_over_j in [0.0, *np.logspace(-3.0, 3.0, 25)]]
        for model in models:
            correlations._u_roots.cache_clear()  # so the roots are solved, not looked up
            critical_temperatures(model)
        assert len(counts) == 3 * len(models)
        # Plain bisection on (0, 1) takes about 166 per call.
        assert sum(counts) / len(models) <= 32


class TestRootMemo:
    """critical_temperatures takes its three roots in u from a memo keyed on
    r = J/g.  It must change no result and skip no refusal."""

    memo = staticmethod(correlations._u_roots)

    @pytest.mark.parametrize("J", [1e-3, 0.05, 7.81, 1e3])
    def test_warm_memo_gives_the_same_bits(self, J):
        models = [DimerModel(J=J, D=d_over_j * J) for d_over_j in (0.0, 0.5, -0.5, 3.0, 1e3)]
        cold = []
        for model in models:
            self.memo.cache_clear()
            cold.append(critical_temperatures(model))
        self.memo.cache_clear()
        filling = [critical_temperatures(model) for model in models]
        warm = [critical_temperatures(model) for model in models]
        # D/J = -0.5 has the r of 0.5, so one model of the first pass hits too
        assert self.memo.cache_info().hits == len(models) + 1
        for results in (filling, warm):
            assert [[t.hex() for t in result] for result in results] == [
                [t.hex() for t in result] for result in cold
            ]

    def test_zero_dm_models_share_one_solve(self, monkeypatch):
        calls = []

        def counting(f, lo, hi):
            calls.append((lo, hi))
            return bisect_boundary(f, lo, hi)

        monkeypatch.setattr(correlations, "bisect_boundary", counting)
        self.memo.cache_clear()
        for J in (0.05, 1.0, 7.81, 1e3):
            critical_temperatures(DimerModel(J=J))
        assert len(calls) == 3

    def test_memo_is_bounded(self):
        self.memo.cache_clear()
        for d_over_j in np.linspace(0.0, 3.0, 3 * correlations._ROOT_MEMO_SIZE).tolist():
            critical_temperatures(DimerModel(J=7.81, D=d_over_j * 7.81))
        assert self.memo.cache_info().currsize == correlations._ROOT_MEMO_SIZE

    @pytest.mark.parametrize(
        "J, message",
        [
            (0.0, "antiferromagnetic J > 0"),
            (-7.81, "antiferromagnetic J > 0"),
            (1e-310, r"^J = 1e-310 meV and D = 0\.0 meV put the lowest critical temperature "
                     r"below MIN_TEMPERATURE_K = 2\.58e-307 K, got 4\.9042777669633e-310 K$"),
        ],
        ids=["zero", "ferromagnetic", "subnormal"],
    )
    def test_refusals_with_r_one_in_the_memo(self, J, message):
        critical_temperatures(DimerModel(J=7.81))  # puts r = 1 in the memo
        hits = self.memo.cache_info().hits
        with pytest.raises(ValueError, match=message):
            critical_temperatures(DimerModel(J=J))
        if J > 0.0:  # r = 1 was looked up, and the temperature still refused
            assert self.memo.cache_info().hits == hits + 1


class TestRootBrackets:
    """Each root's one u-bracket, shared by its fast root and its oracle,
    has the signs its root function requires at both ends at every model."""

    @settings(max_examples=100, deadline=None)
    @given(
        log_j=LOG10_J,
        d_over_j=st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
    )
    def test_ends_are_inside_at_lo_and_outside_at_hi(self, log_j, d_over_j):
        J = 10.0**log_j
        model = DimerModel(J=J, D=d_over_j * J)
        brackets = []

        def recording(f, lo, hi):
            brackets.append((lo, hi))
            assert f(lo) > 0.0 and not f(hi) > 0.0
            return bisect_boundary(f, lo, hi)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correlations, "bisect_boundary", recording)
            correlations._u_roots.cache_clear()  # so the roots are solved, not looked up
            critical_temperatures(model)
            find_entanglement_tc(model)
            find_chsh_tc(model)
        tc, tc_chsh = correlations._U_TC, correlations._U_TC_CHSH
        assert brackets[:2] + brackets[3:] == [tc, tc_chsh, tc, tc_chsh]


class TestOracleEvaluations:
    """The oracles' evaluations against plain bisection on the same bracket:
    the CHSH bound's secant steps take at most half, and the concurrence,
    0 all the way outside, at most twice, which only Brent's budget of one
    halving per two steps keeps."""

    @pytest.mark.parametrize("d_over_j", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("oracle, bound", [(find_chsh_tc, 0.5), (find_entanglement_tc, 2.0)],
                             ids=["chsh", "entanglement"])
    def test_against_plain_bisection(self, monkeypatch, oracle, bound, d_over_j):
        solved = []

        def counting(f, lo, hi):
            counted = Counted(f)
            root = bisect_boundary(counted, lo, hi)
            solved.append((root, counted.calls, *bisect_reference(lambda u: f(u) > 0.0, lo, hi)))
            return root

        monkeypatch.setattr(correlations, "bisect_boundary", counting)
        oracle(DimerModel(J=7.81, D=d_over_j * 7.81))
        [(root, calls, bisected, bisections)] = solved
        assert root == bisected
        assert calls <= bound * bisections
