"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Known red: criterion 04 requires both concurrence and discord to stay at or
above 0.999 at 10 K for J = 7.81 meV.  The concurrence does (0.999305), but
the exact closed-form discord there is 0.998087, so the discord half of the
gate is unattainable; the check is kept as stated instead of being loosened
to fit the implementation.
"""

import math

import numpy as np

from dimercorr import (
    DimerModel,
    LineShape,
    SynthConfig,
    chsh_max,
    chsh_tc_closed,
    concurrence_closed,
    concurrence_wootters,
    critical_temperatures,
    cross_section,
    default_form_factor,
    discord,
    discord_optimized,
    entanglement_tc_closed,
    find_chsh_tc,
    find_entanglement_tc,
    fit_gaussian_linear,
    g_parameter,
    gibbs_state,
    interference_factor,
    mutual_information,
    powder_intensity,
    spin_correlator,
    synth_spectrum,
    transition_weights,
)

MODEL = DimerModel(J=7.81, D=0.0, g=1.99, R=4.43)


def report(number, name, passed, detail):
    print(f"[criterion {number:02d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_01_entanglement_critical_temperature():
    closed = entanglement_tc_closed(MODEL.J)
    bisected = find_entanglement_tc(MODEL)
    ok = abs(closed - 82.5) <= 0.1 and abs(bisected - 82.5) <= 0.1
    report(1, "entanglement Tc 82.5 +- 0.1 K", ok,
           f"closed {closed:.3f} K, bisection {bisected:.3f} K")
    assert ok


def test_criterion_02_chsh_boundary():
    closed = chsh_tc_closed(MODEL.J)
    bisected = find_chsh_tc(MODEL)
    boundary = chsh_max(gibbs_state(MODEL, 38.3))
    ok = (
        abs(closed - 38.3) <= 0.1
        and abs(bisected - 38.3) <= 0.1
        and abs(boundary - 2.000) <= 0.002
    )
    report(2, "CHSH Tc 38.3 +- 0.1 K, boundary value 2.000 +- 0.002", ok,
           f"closed {closed:.3f} K, bisection {bisected:.3f} K, |<B>|(38.3 K) = {boundary:.4f}")
    assert ok


def test_criterion_03_witness_at_threshold():
    value = abs(spin_correlator(gibbs_state(MODEL, entanglement_tc_closed(MODEL.J))))
    ok = abs(value - 0.250) <= 1e-4
    report(3, "witness 0.250 +- 1e-4 at Tc", ok, f"|<S1.S2>| = {value:.6f}")
    assert ok


def test_criterion_04_low_temperature_saturation():
    G = g_parameter(MODEL, 10.0)
    concurrence_10 = concurrence_closed(G)
    discord_10 = discord(G)
    ok = concurrence_10 >= 0.999 and discord_10 >= 0.999
    report(4, "concurrence and discord >= 0.999 at 10 K", ok,
           f"concurrence {concurrence_10:.6f}, discord {discord_10:.6f}")
    assert ok


def test_criterion_05_room_temperature_discord():
    G = g_parameter(MODEL, 300.0)
    closed = discord(G)
    optimized = discord_optimized(gibbs_state(MODEL, 300.0))
    ok = closed > 0.0 and abs(closed - 8.8e-3) < 2e-4 and abs(closed - optimized) < 1e-6
    report(5, "room-temperature discord ~ 8.8e-3 bits, both routes", ok,
           f"closed {closed:.6e}, optimized {optimized:.6e}")
    assert ok


def test_criterion_06_crossing_temperature():
    t_cross = critical_temperatures(MODEL).t_cross
    ok = abs(t_cross - 53.0) <= 1.0
    report(6, "concurrence-discord crossing at 53 +- 1 K", ok, f"t_cross {t_cross:.3f} K")
    assert ok


def test_criterion_07_oracle_equivalences():
    rng = np.random.default_rng(2024)
    worst_concurrence = 0.0
    for T in rng.uniform(1.0, 500.0, 200):
        delta = abs(
            concurrence_wootters(gibbs_state(MODEL, T))
            - concurrence_closed(g_parameter(MODEL, T))
        )
        worst_concurrence = max(worst_concurrence, delta)

    worst_mi = 0.0
    worst_chsh = 0.0
    for T in np.linspace(1.5, 490.0, 120):
        G = g_parameter(MODEL, T)
        spectrum = np.array([(1 - 3 * G) / 4] + [(1 + G) / 4] * 3)
        spectrum = spectrum[spectrum > 0]
        entropy = float(-np.sum(spectrum * np.log2(spectrum)))
        worst_mi = max(worst_mi, abs(mutual_information(G) - (2.0 - entropy)))
        worst_chsh = max(
            worst_chsh,
            abs(chsh_max(gibbs_state(MODEL, T)) - 2.0 * math.sqrt(2.0) * abs(G)),
        )

    worst_discord = 0.0
    for T in rng.uniform(2.0, 400.0, 50):
        delta = abs(
            discord_optimized(gibbs_state(MODEL, T))
            - discord(g_parameter(MODEL, T))
        )
        worst_discord = max(worst_discord, delta)

    ok = (
        worst_concurrence < 1e-10
        and worst_mi < 1e-10
        and worst_chsh < 1e-10
        and worst_discord < 1e-6
    )
    report(7, "oracle equivalences (concurrence/MI/CHSH/discord)", ok,
           f"max deltas {worst_concurrence:.2e}, {worst_mi:.2e}, "
           f"{worst_chsh:.2e}, {worst_discord:.2e}")
    assert ok


def test_criterion_08_spin_orbit_enhancement():
    temperatures = [
        find_entanglement_tc(DimerModel(J=7.81, D=D)) for D in (0.0, 2.0, 4.0, 8.0)
    ]
    ok = all(b > a for a, b in zip(temperatures, temperatures[1:]))
    ok = ok and abs(temperatures[0] - 82.5) <= 0.1
    report(8, "Tc strictly increasing with DM coupling", ok,
           "Tc(D) = " + ", ".join(f"{t:.2f}" for t in temperatures) + " K")
    assert ok


def test_criterion_09_fit_round_trip():
    noisy = synth_spectrum(
        SynthConfig(
            model=MODEL, T=10.0, lineshape=LineShape(fwhm=1.0),
            background_slope=0.2, background_intercept=3.0, amplitude=10.0,
            noise_fraction=0.05, grid=(2.0, 14.0, 200), rng_seed=42,
        )
    )
    noisy_fit = fit_gaussian_linear(noisy)
    clean = synth_spectrum(
        SynthConfig(
            model=MODEL, T=10.0, lineshape=LineShape(fwhm=1.0),
            background_slope=0.2, background_intercept=3.0, amplitude=10.0,
            noise_fraction=0.0, grid=(2.0, 14.0, 200), rng_seed=42,
        )
    )
    clean_fit = fit_gaussian_linear(clean)
    ok = (
        noisy_fit.converged
        and abs(noisy_fit.params.center - 7.81) <= 0.04
        and clean_fit.chi2_reduced < 1e-10
    )
    report(9, "fit round trip: center +- 0.04 meV, noiseless chi2_red < 1e-10", ok,
           f"center {noisy_fit.params.center:.4f} meV, "
           f"noiseless chi2_red {clean_fit.chi2_reduced:.3e}")
    assert ok


def test_criterion_10_interference_peak_position():
    q = np.linspace(0.0, 2.0, 2_000_001)
    values = interference_factor(q, MODEL.R)
    peak_q = float(q[np.argmax(values)])
    ok = abs(peak_q - 1.014) <= 0.002
    report(10, "first interference maximum at 1.014 +- 0.002 1/A", ok,
           f"argmax {peak_q:.4f} 1/A")
    assert ok


def test_criterion_11_powder_consistency():
    form = default_form_factor()
    line = LineShape(fwhm=1.0)
    temperature = 10.0
    p_singlet, _ = transition_weights(MODEL, temperature)
    peak_height = 1.0 / ((line.fwhm / (2 * math.sqrt(2 * math.log(2)))) * math.sqrt(2 * math.pi))

    rng = np.random.default_rng(20260810)
    count = 10_000
    # Stratified uniform directions: jittered cosine along the dimer axis,
    # uniform azimuth about it.  Marginally uniform on the sphere, but with
    # far lower variance than iid draws at the same count.
    cosines = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count * 2.0 - 1.0
    azimuths = rng.uniform(0.0, 2.0 * np.pi, count)
    sines = np.sqrt(1.0 - cosines**2)
    directions = np.stack(
        [cosines, sines * np.cos(azimuths), sines * np.sin(azimuths)], axis=1
    )

    ratios = []
    for q in (0.3, 0.8, 1.3, 1.9, 2.5):
        monte_carlo = cross_section(
            MODEL, q * directions, MODEL.J, temperature, form, line
        ).mean()
        reference = powder_intensity(q, MODEL, form) * p_singlet * peak_height
        ratios.append(monte_carlo / reference)
    ratios = np.array(ratios)
    spread = float(np.max(np.abs(ratios / ratios.mean() - 1.0)))
    ok = spread < 0.01
    report(11, "Monte-Carlo powder average within 1% of closed form", ok,
           f"max relative deviation {spread:.2e} over 5 Q values")
    assert ok
