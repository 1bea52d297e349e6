"""Command-line surface: temperature sweeps to CSV, critical-temperature
reports, spectrum synthesis and fitting, and Q-dependence tables.

Exit codes, all set by `main`: 0 success, 1 usage or domain error, 2 I/O
error, 3 numerical failure.  All outputs are deterministic given the flags
and seed; files are written atomically (temp file then rename) with the mode
a new file gets under the umask, and floats carry 17 significant digits so
round trips are exact.

Every setting is declared once, in one table, with its type, default and
help; its flag `--name` and its config key `name` share the name.  Each call
resolves each setting of its subcommand once: the flag, else the `--config`
file (or the file DIMERCORR_CONFIG names), else the default.  `main` may be
called many times in one process.  A call spelled out as the subcommand and
exact `--name value` pairs is read straight from that table; any other call
builds the argument parser, the one source of help, usage errors and every
other spelling.  Every CSV body comes from `csvtext.format_rows`, the one
owner of the `%.17g` number format.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .correlations import critical_temperatures, thermal_panel
from .csvtext import format_rows
from .fitting import FWHM_OVER_SIGMA, FitError, fit_gaussian_linear, propagate_tc
from .ins_model import (
    LineShape,
    SynthConfig,
    check_separation,
    default_form_factor,
    form_factor,
    interference_factor,
    load_form_factor,
    read_key_values,
    synth_spectrum,
)
from .quantum_core import DimerModel
from .spectra import Spectrum, check_range, even_grid

CONFIG_ENV_VAR = "DIMERCORR_CONFIG"

SWEEP_HEADER = (
    "T_K,G,witness,concurrence,discord,mutual_info_bits,"
    "classical_corr_bits,chsh_max,entangled,nonlocal"
)


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
_PARSERS = {name: parse for name, (parse, _, _) in _OPTIONS.items()}


def _settings(args):
    """The command's settings, each resolved once: its flag, else its key in
    the config file (which may set any key of _OPTIONS), else its default."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    config = read_key_values(path, _PARSERS) if path else {}
    resolved = {}
    for name in _COMMANDS[args.command][2]:
        flag = getattr(args, name)
        resolved[name] = flag if flag is not None else config.get(name, _OPTIONS[name][1])
    return argparse.Namespace(**resolved)


def _write_out(path, text):
    if not path:
        raise ValueError("an output path is required (--out or config 'out')")
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), ".dimercorr-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)  # less the umask
    try:
        with open(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _grid(lo, hi, steps, what):
    """steps + 1 evenly spaced points from lo to hi."""
    check_range(lo, hi, f"{what} grid", "min < max")
    if steps < 2:
        raise ValueError(f"{what} grid needs at least 2 steps, got {steps}")
    return even_grid(lo, hi, steps + 1)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_sweep(args):
    settings = _settings(args)
    model = DimerModel(settings.J, settings.D)
    panel = thermal_panel(model, _grid(settings.tmin, settings.tmax, settings.steps, "temperature"))
    _write_out(settings.out, SWEEP_HEADER + "\n" + format_rows(panel[:8], panel[8:]))


def _cmd_critical(args):
    settings = _settings(args)
    result = critical_temperatures(DimerModel(settings.J, settings.D))
    print(
        '{"tc_entanglement_K": %.17g, "tc_chsh_K": %.17g, "t_cross_K": %.17g}'
        % (result.tc_entanglement, result.tc_chsh, result.t_cross)
    )


def _cmd_synth(args):
    settings = _settings(args)
    config = SynthConfig(
        model=DimerModel(settings.J, settings.D),
        T=settings.T,
        lineshape=LineShape(fwhm=settings.fwhm),
        background_slope=settings.slope,
        background_intercept=settings.intercept,
        amplitude=settings.amplitude,
        noise_fraction=settings.noise,
        grid=(settings.emin, settings.emax, settings.epoints),
        rng_seed=settings.seed,
        include_antistokes=settings.antistokes,
    )
    spectrum = synth_spectrum(config)
    body = format_rows((spectrum.energy, spectrum.intensity, spectrum.sigma))
    _write_out(settings.out, "E_meV,intensity,sigma\n" + body)


def _row_values(line):
    """The numbers of one CSV row, or None if a cell is not a number."""
    try:
        return list(map(float, line.split(",")))
    except ValueError:
        return None


def read_spectrum_csv(path):
    """Parse a 3-column E,intensity,sigma CSV, tolerating one header line.

    The file is UTF-8; a leading byte-order mark is dropped, so it neither
    makes a numeric line 1 look like a header nor reaches a cell.  Blank
    lines are skipped, and a line 1 that is not all numbers is the header.
    The other lines are parsed in one `np.loadtxt` call, which reads each
    cell to the bits Python's float gives.  Only if it refuses a cell, or a
    row has other than 3 columns, or a value is non-finite, are the lines
    scanned again with float, to name the first such line; numpy refuses
    some cells that float takes (full-width and other Unicode digits,
    underscores), and a rescan that finds no bad line returns its rows.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        lines = handle.read().splitlines()
    start = 1 if lines and lines[0].strip() and _row_values(lines[0]) is None else 0
    body = list(filter(str.strip, lines[start:]))
    if not body:
        raise ValueError(f"{path}: no data rows")
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != 3 or not np.isfinite(data).all():
        rows = []
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
            rows.append(values)
        data = np.array(rows)
    return Spectrum(data[:, 0], data[:, 1], data[:, 2])


def _cmd_fit(args):
    spectrum = read_spectrum_csv(args.path)
    fit = fit_gaussian_linear(spectrum)
    payload = {
        "center_meV": fit.params.center,
        "center_sigma_meV": _finite_or_none(fit.center_uncertainty()),
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
        payload["tc_K"], tc_sigma = propagate_tc(fit, spectrum)
        payload["tc_sigma_K"] = _finite_or_none(tc_sigma)
    print(json.dumps(payload))


def _finite_or_none(sigma):
    """sigma, or None (JSON null) where the fit leaves it infinite."""
    return sigma if math.isfinite(sigma) else None


def _cmd_iq(args):
    settings = _settings(args)
    check_separation(settings.R)  # before the form-factor file is read
    if not 0.0 < settings.qmax < math.inf:
        raise ValueError(f"qmax must be positive and finite, got {settings.qmax}")
    params = load_form_factor(settings.ffile) if settings.ffile else default_form_factor()
    q = _grid(0.0, settings.qmax, settings.qsteps, "Q")
    interference = interference_factor(q, settings.R)
    factors = form_factor(q, params)
    intensity = factors**2 * interference
    top = intensity.max()
    if top > 0.0:
        intensity = intensity / top
    body = format_rows((q, interference, factors, intensity))
    _write_out(settings.out, "Q_invA,interference,form_factor,intensity\n" + body)


# ---------------------------------------------------------------------------
# Parser & entry point
# ---------------------------------------------------------------------------

# subcommand -> (handler, help, the settings it takes), in --help order
_COMMANDS = {
    "sweep": (_cmd_sweep, "correlation panel vs temperature, to CSV",
              ("J", "D", "tmin", "tmax", "steps", "out")),
    "critical": (_cmd_critical, "critical temperatures, JSON to stdout", ("J", "D")),
    "synth": (_cmd_synth, "synthesize a seeded spectrum, to CSV",
              ("J", "D", "T", "fwhm", "noise", "seed", "amplitude", "slope", "intercept",
               "emin", "emax", "epoints", "antistokes", "out")),
    "fit": (_cmd_fit, "fit Gaussian + linear background, JSON to stdout", ()),
    "iq": (_cmd_iq, "powder-averaged Q dependence, to CSV",
           ("R", "ffile", "qmax", "qsteps", "out")),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="dimercorr", description=__doc__)
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


def _spelled_out(argv):
    """The namespace build_parser() gives argv, read from _COMMANDS and
    _OPTIONS, when argv is a subcommand followed only by exact `--name value`
    pairs of its settings or --config (--antistokes bare), or `fit PATH`;
    None for any other argv, which is left to argparse.

    No value may start with '-': argparse's reading of such a value (a
    negative number, or an option) differs between Python versions.  A value
    the option's parser rejects gives None, so argparse reports it.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, *tokens = argv
    handler, _, names = _COMMANDS[command]
    if command == "fit":
        if len(tokens) != 1 or tokens[0].startswith("-"):
            return None
        return argparse.Namespace(command=command, path=tokens[0], handler=handler)
    values = dict.fromkeys((*names, "config"))
    tokens = iter(tokens)
    for token in tokens:
        name = token[2:]
        if not token.startswith("--") or name not in values:
            return None
        parse = _OPTIONS[name][0] if name in _OPTIONS else str  # --config: a path
        if parse is _parse_bool:
            values[name] = True
            continue
        text = next(tokens, "-")  # a missing value is refused as one starting with '-'
        if text.startswith("-"):
            return None
        try:
            values[name] = parse(text)
        except ValueError:
            return None
    return argparse.Namespace(command=command, **values, handler=handler)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _spelled_out(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse: 0 after help, 2 on a usage error
            return 1 if exc.code else 0
    try:
        args.handler(args)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
