"""A seeded fuzz of the public functions that take floats: each call gives
finite values or a ValueError (FitError for the fit) that names a drawn
input, and no warning."""

import math
import random
import re
import sys
import warnings

import numpy as np

from dimercorr import (
    DimerModel,
    FitError,
    FormFactorParams,
    LineShape,
    Spectrum,
    SynthConfig,
    critical_temperatures,
    cross_section,
    fit_gaussian_linear,
    form_factor,
    g_parameter,
    initial_guess,
    interference_factor,
    synth_spectrum,
    thermal_panel,
    transition_weights,
)

# The pool of the CLI fuzz (tests/test_cli.py), as floats.
POOL = [
    0.0, -0.0, 1.0, -1.0, 5e-324, 1e-308, 1e154, 1e-154, 1e300, 1e-300,
    1e308, -1e308, sys.float_info.max, math.inf, -math.inf, math.nan, 2.0, 3.0, 7.0, -3.0,
]

MODEL = {"J": 7.81, "D": 0.0, "R": 4.43}
# The shipped V4+ coefficients (src/dimercorr/data/v4plus_j0.txt).
FORM = {"A": 0.3106, "a": 16.816002, "B": 0.7198, "b": 7.0489, "C": -0.0521, "c": 0.302,
        "D0": 0.0221}
SPECTRUM = synth_spectrum(SynthConfig(
    model=DimerModel(J=7.81), T=10.0, lineshape=LineShape(fwhm=1.0),
    noise_fraction=0.05, grid=(2.0, 14.0, 40),
))
CELLS = {f"{column}{row}": (column, row) for column in ("E", "I", "sigma") for row in range(40)}


def model(s):
    return DimerModel(J=s["J"], D=s["D"], R=s["R"])


def form(s):
    return FormFactorParams(**{key: s[key] for key in FORM})


def spectrum(s):
    columns = {"E": SPECTRUM.energy.copy(), "I": SPECTRUM.intensity.copy(),
               "sigma": SPECTRUM.sigma.copy()}
    for name, (column, row) in CELLS.items():
        columns[column][row] = s[name]
    return Spectrum(columns["E"], columns["I"], columns["sigma"])


def synth(s):
    return synth_spectrum(SynthConfig(
        model=model(s), T=s["T"], lineshape=LineShape(s["fwhm"]),
        background_slope=s["slope"], background_intercept=s["intercept"],
        amplitude=s["amplitude"], noise_fraction=s["noise"], grid=(s["emin"], s["emax"], 40),
        include_antistokes=s["antistokes"] > 0.0,
    ))


def section(s):
    q = [s["qx"], s["qy"], s["qz"]]
    line = LineShape(s["fwhm"])
    if s["stack"] > 0.0:  # many directions at one omega
        return cross_section(model(s), [q, [1.0, 0.2, 0.3]], s["omega"], s["T"], form(s), line)
    return cross_section(model(s), q, [s["omega"], 7.81], s["T"], form(s), line)


# name -> (function of the settings, its default settings)
TARGETS = {
    "cross_section": (section, {**MODEL, **FORM, "qx": 0.9, "qy": 0.3, "qz": 0.4,
                                "omega": 7.81, "T": 10.0, "fwhm": 1.0, "stack": 1.0}),
    "form_factor": (lambda s: form_factor([s["Q"], 1.0], form(s)), {**FORM, "Q": 1.0}),
    "interference_factor": (lambda s: interference_factor([s["Q"], 1.0], s["R"]),
                            {"Q": 1.0, "R": 4.43}),
    "thermal_panel": (lambda s: thermal_panel(model(s), [s["T"], s["T2"]]),
                      {**MODEL, "T": 10.0, "T2": 300.0}),
    "critical_temperatures": (lambda s: critical_temperatures(model(s)), MODEL),
    "transition_weights": (lambda s: transition_weights(model(s), s["T"]), {**MODEL, "T": 10.0}),
    "g_parameter": (lambda s: g_parameter(model(s), s["T"]), {**MODEL, "T": 10.0}),
    "synth_spectrum": (synth, {**MODEL, "T": 10.0, "fwhm": 1.0, "antistokes": 0.0,
                               "slope": 0.0, "intercept": 0.0, "amplitude": 10.0,
                               "noise": 0.05, "emin": 2.0, "emax": 14.0}),
    "initial_guess": (lambda s: initial_guess(spectrum(s)),
                      {name: float(getattr(SPECTRUM, {"E": "energy", "I": "intensity"}.get(
                          column, column))[row]) for name, (column, row) in CELLS.items()}),
}
TARGETS["fit_gaussian_linear"] = (
    lambda s: fit_gaussian_linear(spectrum(s)), TARGETS["initial_guess"][1]
)

# The words by which a refusal names each setting; a switch names nothing.
ALIASES = {
    "stack": "(?!)", "antistokes": "(?!)",
    "J": r"\bJ\b", "D": r"\bD\b", "R": r"\bR\b|separation", "T": r"\bT\b|temperature",
    "T2": "temperature", "qx": r"q_vec|\bQ\b|momentum", "qy": r"q_vec|\bQ\b|momentum",
    "qz": r"q_vec|\bQ\b|momentum", "Q": r"\bQ\b|momentum", "omega": "omega", "fwhm": "fwhm",
    "slope": "slope", "intercept": "intercept", "amplitude": "amplitude",
    "noise": "noise", "emin": "Emin|grid|energ", "emax": "Emax|grid|energ",
    **{key: rf"\b{key}\b|form factor|F\(0\)" for key in FORM},
    **{name: {"E": "energ", "I": "intensit|count", "sigma": "sigma|uncertaint"}[column]
       for name, (column, _) in CELLS.items()},
}


def finite(value):
    """Whether every number in a result is finite (flags and None aside)."""
    if isinstance(value, Spectrum):
        return True  # Spectrum refuses non-finite columns itself
    if hasattr(value, "params"):  # a FitResult
        return finite(value.params) and math.isfinite(value.chi2_reduced)
    if hasattr(value, "as_array"):  # FitModelParams
        return bool(np.isfinite(value.as_array()).all())
    if isinstance(value, tuple):
        return all(finite(item) for item in value)
    array = np.asarray(value)
    return array.dtype == bool or bool(np.isfinite(array).all())


class TestLibraryFuzz:
    """Each call sets 1-4 of its target's settings to values from POOL."""

    SEED = 3217
    CALLS = 1500

    def test_every_function(self):
        rng = random.Random(self.SEED)
        problems = []
        for _ in range(self.CALLS):
            name = rng.choice(list(TARGETS))
            call, defaults = TARGETS[name]
            drawn = {key: rng.choice(POOL) for key in
                     rng.sample(list(defaults), rng.randint(1, min(4, len(defaults))))}
            shown = f"{name} with {drawn}"
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    result = call({**defaults, **drawn})
            except FitError:
                if name != "fit_gaussian_linear":
                    problems.append(f"{shown}: FitError outside the fit")
                continue
            except ValueError as exc:
                if not re.search("|".join(ALIASES[key] for key in drawn), str(exc)):
                    problems.append(f"{shown}: refusal names no drawn input: {exc}")
                continue
            except Exception as exc:  # a warning turned error, or an escaped exception
                problems.append(f"{shown}: raised {exc!r}")
                continue
            if not finite(result):
                problems.append(f"{shown}: non-finite result {result}")
        assert not problems, "\n".join(problems[:10])
