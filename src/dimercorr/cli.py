"""Command-line surface: temperature sweeps to CSV, critical-temperature
reports, spectrum synthesis and fitting, and Q-dependence tables.

Exit codes: 0 success, 1 usage or domain error, 2 I/O error, 3 numerical
failure.  All outputs are deterministic given the flags and seed; files are
written atomically (temp file then rename) and floats carry 17 significant
digits so round trips are exact.

`main` may be called many times in one process.  It builds the argument
parser once, on its first call, and reuses it; the settings (flags, the
--config file and DIMERCORR_CONFIG) are read afresh on every call.  Each CSV
row is one `%.17g` template applied to the row's Python floats.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .correlations import critical_temperatures, thermal_panel
from .fitting import FWHM_OVER_SIGMA, FitError, fit_gaussian_linear, propagate_tc
from .ins_model import (
    LineShape,
    SynthConfig,
    default_form_factor,
    form_factor,
    interference_factor,
    load_form_factor,
    read_key_values,
    synth_spectrum,
)
from .quantum_core import DimerModel
from .spectra import Spectrum

CONFIG_ENV_VAR = "DIMERCORR_CONFIG"

SWEEP_HEADER = (
    "T_K,G,witness,concurrence,discord,mutual_info_bits,"
    "classical_corr_bits,chsh_max,entangled,nonlocal"
)
_SWEEP_ROW = ",".join(["%.17g"] * 8) + ",%s,%s"
_FLAG_TEXT = ("false", "true")

_DEFAULTS = {
    "J": 7.81, "D": 0.0, "g": 1.99, "R": 4.43,
    "tmin": 1.0, "tmax": 300.0, "steps": 300,
    "seed": 0, "fwhm": 1.0, "noise": 0.05,
    "T": 10.0, "emin": 2.0, "emax": 14.0, "epoints": 200,
    "amplitude": 10.0, "slope": 0.0, "intercept": 0.0,
    "qmax": 3.0, "qsteps": 300,
    "antistokes": False, "out": None, "ffile": None,
}


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# the parser of each config key's value text
_CONFIG_PARSERS = {
    **dict.fromkeys((
        "J", "D", "g", "R", "tmin", "tmax", "fwhm", "noise", "T",
        "emin", "emax", "amplitude", "slope", "intercept", "qmax",
    ), float),
    **dict.fromkeys(("steps", "seed", "epoints", "qsteps"), int),
    "antistokes": _parse_bool,
    "out": str,
    "ffile": str,
}


def _load_config(path):
    values = {}
    for lineno, key, text in read_key_values(path):
        parse = _CONFIG_PARSERS.get(key)
        if parse is None:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


class _Settings:
    """Flag > config file > built-in default resolution."""

    def __init__(self, args):
        self._args = args
        path = args.config or os.environ.get(CONFIG_ENV_VAR)
        self._config = _load_config(path) if path else {}

    def __getattr__(self, key):
        if key.startswith("_") or key not in _DEFAULTS:
            raise AttributeError(key)
        flag = getattr(self._args, key, None)
        if flag is not None:
            return flag
        if key in self._config:
            return self._config[key]
        return _DEFAULTS[key]

    def model(self):
        return DimerModel(J=self.J, D=self.D, g=self.g, R=self.R)

    def require_out(self):
        out = self.out
        if out is None:
            raise ValueError("an output path is required (--out or config 'out')")
        return out


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dimercorr-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _grid(lo, hi, steps, what):
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"{what} grid requires finite min < max, got ({lo}, {hi})")
    if steps < 2:
        raise ValueError(f"{what} grid needs at least 2 steps, got {steps}")
    return np.linspace(lo, hi, steps + 1)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_sweep(args):
    settings = _Settings(args)
    panel = thermal_panel(
        settings.model(), _grid(settings.tmin, settings.tmax, settings.steps, "temperature")
    )
    lines = [SWEEP_HEADER]
    lines.extend(
        _SWEEP_ROW % (*values, _FLAG_TEXT[entangled], _FLAG_TEXT[nonlocal_flag])
        for *values, entangled, nonlocal_flag in zip(*(column.tolist() for column in panel))
    )
    _write_atomic(settings.require_out(), "\n".join(lines) + "\n")
    return 0


def _cmd_critical(args):
    settings = _Settings(args)
    result = critical_temperatures(settings.model())
    print(
        '{"tc_entanglement_K": %.17g, "tc_chsh_K": %.17g, "t_cross_K": %.17g}'
        % (result.tc_entanglement, result.tc_chsh, result.t_cross)
    )
    return 0


def _synth_config(settings):
    return SynthConfig(
        model=settings.model(),
        T=settings.T,
        lineshape=LineShape(fwhm=settings.fwhm, include_antistokes=settings.antistokes),
        background_slope=settings.slope,
        background_intercept=settings.intercept,
        amplitude=settings.amplitude,
        noise_fraction=settings.noise,
        grid=(settings.emin, settings.emax, settings.epoints),
        rng_seed=settings.seed,
    )


def _cmd_synth(args):
    settings = _Settings(args)
    spectrum = synth_spectrum(_synth_config(settings))
    lines = ["E_meV,intensity,sigma"]
    lines.extend(
        "%.17g,%.17g,%.17g" % row
        for row in zip(
            spectrum.energy.tolist(), spectrum.intensity.tolist(), spectrum.sigma.tolist()
        )
    )
    _write_atomic(settings.require_out(), "\n".join(lines) + "\n")
    return 0


def read_spectrum_csv(path):
    """Parse a 3-column E,intensity,sigma CSV, tolerating one header line."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            values = [float(part) for part in parts]
        except ValueError:
            if lineno == 1:
                continue  # header
            raise ValueError(f"{path}: malformed CSV row at line {lineno}") from None
        if len(values) != 3:
            raise ValueError(f"{path}: expected 3 columns at line {lineno}, got {len(values)}")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}: non-finite value at line {lineno}")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows)
    return Spectrum(data[:, 0], data[:, 1], data[:, 2])


def _cmd_fit(args):
    spectrum = read_spectrum_csv(args.path)
    fit = fit_gaussian_linear(spectrum)
    payload = {
        "center_meV": fit.params.center,
        "center_sigma_meV": fit.center_uncertainty(),
        "amplitude": fit.params.amplitude,
        "fwhm_meV": fit.params.sigma_width * FWHM_OVER_SIGMA,
        "slope": fit.params.slope,
        "intercept": fit.params.intercept,
        "chi2_reduced": fit.chi2_reduced,
        "n_iterations": fit.n_iterations,
        "converged": fit.converged,
        "tc_K": None,
        "tc_sigma_K": None,
    }
    if fit.converged and fit.params.center > 0.0:
        tc, tc_sigma = propagate_tc(fit)
        payload["tc_K"] = tc
        payload["tc_sigma_K"] = tc_sigma
    print(json.dumps(payload))
    return 0


def _cmd_iq(args):
    settings = _Settings(args)
    model = settings.model()
    if not 0.0 < settings.qmax < math.inf:
        raise ValueError(f"qmax must be positive and finite, got {settings.qmax}")
    ffile = settings.ffile
    params = load_form_factor(ffile) if ffile else default_form_factor()
    q = _grid(0.0, settings.qmax, settings.qsteps, "Q")
    interference = interference_factor(q, model.R)
    factors = form_factor(q, params)
    intensity = factors**2 * interference
    top = intensity.max()
    if top > 0.0:
        intensity = intensity / top
    lines = ["Q_invA,interference,form_factor,intensity"]
    lines.extend(
        "%.17g,%.17g,%.17g,%.17g" % row
        for row in zip(q.tolist(), interference.tolist(), factors.tolist(), intensity.tolist())
    )
    _write_atomic(settings.require_out(), "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser & entry point
# ---------------------------------------------------------------------------

def _add_model_flags(parser):
    parser.add_argument("--J", type=float, help="exchange constant, meV")
    parser.add_argument("--D", type=float, help="DM coupling along z, meV")
    parser.add_argument("--g", type=float, help="Lande factor")
    parser.add_argument("--R", type=float, help="intra-dimer separation, angstrom")
    parser.add_argument("--config", help="key = value config file (flags override)")


def build_parser():
    parser = _Parser(prog="dimercorr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="correlation panel vs temperature, to CSV")
    _add_model_flags(sweep)
    sweep.add_argument("--tmin", type=float, help="lowest temperature, K")
    sweep.add_argument("--tmax", type=float, help="highest temperature, K")
    sweep.add_argument("--steps", type=int, help="temperature steps (steps+1 rows)")
    sweep.add_argument("--out", help="output CSV path")
    sweep.set_defaults(handler=_cmd_sweep)

    critical = sub.add_parser("critical", help="critical temperatures, JSON to stdout")
    _add_model_flags(critical)
    critical.set_defaults(handler=_cmd_critical)

    synth = sub.add_parser("synth", help="synthesize a seeded spectrum, to CSV")
    _add_model_flags(synth)
    synth.add_argument("--T", type=float, help="sample temperature, K")
    synth.add_argument("--fwhm", type=float, help="Gaussian line width (FWHM), meV")
    synth.add_argument("--noise", type=float, help="noise fraction of the signal")
    synth.add_argument("--seed", type=int, help="RNG seed")
    synth.add_argument("--amplitude", type=float, help="peak amplitude, counts")
    synth.add_argument("--slope", type=float, help="background slope, counts/meV")
    synth.add_argument("--intercept", type=float, help="background intercept, counts")
    synth.add_argument("--emin", type=float, help="lowest energy transfer, meV")
    synth.add_argument("--emax", type=float, help="highest energy transfer, meV")
    synth.add_argument("--epoints", type=int, help="number of energy points")
    synth.add_argument(
        "--antistokes", action="store_const", const=True,
        help="include the energy-gain mirror peak",
    )
    synth.add_argument("--out", help="output CSV path")
    synth.set_defaults(handler=_cmd_synth)

    fit = sub.add_parser("fit", help="fit Gaussian + linear background, JSON to stdout")
    fit.add_argument("path", help="input spectrum CSV (E_meV,intensity,sigma)")
    fit.set_defaults(handler=_cmd_fit)

    iq = sub.add_parser("iq", help="powder-averaged Q dependence, to CSV")
    _add_model_flags(iq)
    iq.add_argument("--ffile", help="form-factor coefficient file")
    iq.add_argument("--qmax", type=float, help="largest momentum transfer, 1/angstrom")
    iq.add_argument("--qsteps", type=int, help="Q steps (qsteps+1 rows)")
    iq.add_argument("--out", help="output CSV path")
    iq.set_defaults(handler=_cmd_iq)
    return parser


@functools.cache
def _parser():
    """The process-wide parser: built on the first `main` call, not at import."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.handler(args)
    except FitError as exc:
        diagnostics = {
            key: (value if isinstance(value, (int, float, str)) else repr(value))
            for key, value in exc.diagnostics.items()
        }
        print(json.dumps({"error": str(exc), "diagnostics": diagnostics}), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"dimercorr: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dimercorr: I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
