"""Command-line surface: temperature sweeps to CSV, critical-temperature
reports, spectrum synthesis and fitting, and Q-dependence tables.

Exit codes: 0 success, 1 usage or domain error, 2 I/O error, 3 numerical
failure.  All outputs are deterministic given the flags and seed; files are
written atomically (temp file then rename) and floats carry 17 significant
digits so round trips are exact.

Every setting is declared once, in one table, with its type, default and
help; its flag `--name` and its config key `name` share the name.  Each call
resolves each setting of its subcommand once: the flag, else the `--config`
file (or the file DIMERCORR_CONFIG names), else the default.  `main` may be
called many times in one process: it builds the argument parser on its first
call and reuses it.  Each CSV row is one `%.17g` template.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
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


# Every setting: name (its flag --name and its config key) -> (parser of the
# flag and config text, default, help).  A _parse_bool setting is a bare flag.
_OPTIONS = {
    "J": (float, 7.81, "exchange constant, meV"),
    "D": (float, 0.0, "DM coupling along z, meV"),
    "R": (float, 4.43, "intra-dimer separation, angstrom"),
    "tmin": (float, 1.0, "lowest temperature, K"),
    "tmax": (float, 300.0, "highest temperature, K"),
    "steps": (int, 300, "temperature steps (steps+1 rows)"),
    "T": (float, 10.0, "sample temperature, K"),
    "fwhm": (float, 1.0, "Gaussian line width (FWHM), meV"),
    "noise": (float, 0.05, "noise fraction of the signal"),
    "seed": (int, 0, "RNG seed"),
    "amplitude": (float, 10.0, "peak amplitude, counts"),
    "slope": (float, 0.0, "background slope, counts/meV"),
    "intercept": (float, 0.0, "background intercept, counts"),
    "emin": (float, 2.0, "lowest energy transfer, meV"),
    "emax": (float, 14.0, "highest energy transfer, meV"),
    "epoints": (int, 200, "number of energy points"),
    "antistokes": (_parse_bool, False, "include the energy-gain mirror peak"),
    "ffile": (str, None, "form-factor coefficient file"),
    "qmax": (float, 3.0, "largest momentum transfer, 1/angstrom"),
    "qsteps": (int, 300, "Q steps (qsteps+1 rows)"),
    "out": (str, None, "output CSV path"),
}


def _settings(args):
    """The command's settings, each resolved once: its flag, else its key in
    the config file (which may set any key of _OPTIONS), else its default."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    parsers = {name: parse for name, (parse, _, _) in _OPTIONS.items()}
    config = read_key_values(path, parsers) if path else {}
    resolved = {}
    for name in _COMMANDS[args.command][2]:
        flag = getattr(args, name)
        resolved[name] = flag if flag is not None else config.get(name, _OPTIONS[name][1])
    return argparse.Namespace(**resolved)


def _model(settings):
    return DimerModel(J=settings.J, D=settings.D, R=settings.R)


def _write_out(path, text):
    if path is None:
        raise ValueError("an output path is required (--out or config 'out')")
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
    settings = _settings(args)
    panel = thermal_panel(
        _model(settings), _grid(settings.tmin, settings.tmax, settings.steps, "temperature")
    )
    lines = [SWEEP_HEADER]
    lines.extend(
        _SWEEP_ROW % (*values, _FLAG_TEXT[entangled], _FLAG_TEXT[nonlocal_flag])
        for *values, entangled, nonlocal_flag in zip(*(column.tolist() for column in panel))
    )
    _write_out(settings.out, "\n".join(lines) + "\n")
    return 0


def _cmd_critical(args):
    settings = _settings(args)
    result = critical_temperatures(_model(settings))
    print(
        '{"tc_entanglement_K": %.17g, "tc_chsh_K": %.17g, "t_cross_K": %.17g}'
        % (result.tc_entanglement, result.tc_chsh, result.t_cross)
    )
    return 0


def _cmd_synth(args):
    settings = _settings(args)
    config = SynthConfig(
        model=_model(settings),
        T=settings.T,
        lineshape=LineShape(fwhm=settings.fwhm, include_antistokes=settings.antistokes),
        background_slope=settings.slope,
        background_intercept=settings.intercept,
        amplitude=settings.amplitude,
        noise_fraction=settings.noise,
        grid=(settings.emin, settings.emax, settings.epoints),
        rng_seed=settings.seed,
    )
    spectrum = synth_spectrum(config)
    lines = ["E_meV,intensity,sigma"]
    lines.extend(
        "%.17g,%.17g,%.17g" % row
        for row in zip(
            spectrum.energy.tolist(), spectrum.intensity.tolist(), spectrum.sigma.tolist()
        )
    )
    _write_out(settings.out, "\n".join(lines) + "\n")
    return 0


def _row_values(line):
    """The numbers of one CSV row, or None if a cell is not a number."""
    try:
        return list(map(float, line.split(",")))
    except ValueError:
        return None


def read_spectrum_csv(path):
    """Parse a 3-column E,intensity,sigma CSV, tolerating one header line.

    Blank lines are skipped, and a line 1 that is not all numbers is the
    header.  The other lines are parsed in one sweep; only if a row is
    malformed, has other than 3 columns or holds a non-finite value are they
    scanned again, to name the first such line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = 1 if lines and lines[0].strip() and _row_values(lines[0]) is None else 0
    body = list(filter(str.strip, lines[start:]))
    if not body:
        raise ValueError(f"{path}: no data rows")
    data = None
    if set(map(str.count, body, itertools.repeat(","))) == {2}:
        values = _row_values(",".join(body))
        data = None if values is None else np.array(values).reshape(-1, 3)
    if data is None or not np.isfinite(data).all():
        for lineno, line in enumerate(lines[start:], start=start + 1):
            if not line.strip():
                continue
            values = _row_values(line)
            if values is None:
                raise ValueError(f"{path}: malformed CSV row at line {lineno}")
            if len(values) != 3:
                raise ValueError(f"{path}: expected 3 columns at line {lineno}, got {len(values)}")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: non-finite value at line {lineno}")
    return Spectrum(data[:, 0], data[:, 1], data[:, 2])


def _cmd_fit(args):
    spectrum = read_spectrum_csv(args.path)
    fit = fit_gaussian_linear(spectrum)
    center_sigma = fit.center_uncertainty()
    payload = {
        "center_meV": fit.params.center,
        "center_sigma_meV": center_sigma if math.isfinite(center_sigma) else None,
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
    with contextlib.suppress(ValueError):  # no Tc from this fit: the nulls stand
        payload["tc_K"], payload["tc_sigma_K"] = propagate_tc(fit)
    print(json.dumps(payload))
    return 0


def _cmd_iq(args):
    settings = _settings(args)
    model = _model(settings)
    if not 0.0 < settings.qmax < math.inf:
        raise ValueError(f"qmax must be positive and finite, got {settings.qmax}")
    params = load_form_factor(settings.ffile) if settings.ffile else default_form_factor()
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
    _write_out(settings.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser & entry point
# ---------------------------------------------------------------------------

_MODEL = ("J", "D", "R")

# subcommand -> (handler, help, the settings it takes), in --help order
_COMMANDS = {
    "sweep": (_cmd_sweep, "correlation panel vs temperature, to CSV",
              (*_MODEL, "tmin", "tmax", "steps", "out")),
    "critical": (_cmd_critical, "critical temperatures, JSON to stdout", _MODEL),
    "synth": (_cmd_synth, "synthesize a seeded spectrum, to CSV",
              (*_MODEL, "T", "fwhm", "noise", "seed", "amplitude", "slope", "intercept",
               "emin", "emax", "epoints", "antistokes", "out")),
    "fit": (_cmd_fit, "fit Gaussian + linear background, JSON to stdout", ()),
    "iq": (_cmd_iq, "powder-averaged Q dependence, to CSV",
           (*_MODEL, "ffile", "qmax", "qsteps", "out")),
}


def build_parser():
    parser = _Parser(prog="dimercorr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, command_help, names) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=command_help)
        for name in names:
            parse, _, option_help = _OPTIONS[name]
            if parse is _parse_bool:
                kind = {"action": "store_const", "const": True}
            else:
                kind = {"type": parse}
            command_parser.add_argument(f"--{name}", help=option_help, **kind)
        if names:
            command_parser.add_argument(
                "--config", help="key = value config file (flags override)"
            )
        command_parser.set_defaults(handler=handler)
    sub.choices["fit"].add_argument("path", help="input spectrum CSV (E_meV,intensity,sigma)")
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
