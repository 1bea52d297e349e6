import argparse
import codecs
import contextlib
import io
import itertools
import json
import math
import os
import random
import runpy
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dimercorr import (
    KB_MEV_PER_K,
    DimerModel,
    LineShape,
    Spectrum,
    SynthConfig,
    critical_temperatures,
    default_form_factor,
    form_factor,
    interference_factor,
    synth_spectrum,
    thermal_panel,
)
from dimercorr import cli, csvtext
from dimercorr.cli import SWEEP_HEADER, main, read_spectrum_csv
from dimercorr.fitting import FWHM_OVER_SIGMA, FitError, fit_gaussian_linear


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_sweep(path):
    lines = path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(
            {
                "T": float(parts[0]),
                "concurrence": float(parts[3]),
                "discord": float(parts[4]),
                "entangled": parts[8],
                "nonlocal": parts[9],
            }
        )
    return rows


class TestSweep:
    def test_writes_csv_with_exact_header(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep", "--J", "7.81", "--tmin", "1", "--tmax", "300",
             "--steps", "300", "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = parse_sweep(out)
        assert len(rows) == 301

    def test_concurrence_dies_by_825K(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep", "--J", "7.81", "--D", "0", "--tmin", "1", "--tmax", "300",
             "--steps", "300", "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = parse_sweep(out)
        nearest = min(rows, key=lambda row: abs(row["T"] - 82.5))
        assert nearest["concurrence"] <= 1e-3

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--J", "7.81", "--tmin", "1", "--tmax", "120", "--steps", "60"]
        assert run(args + ["--out", str(first)], capsys)[0] == 0
        assert run(args + ["--out", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_dm_coupling_extends_entangled_range(self, tmp_path, capsys):
        results = {}
        for D in ("0", "8"):
            out = tmp_path / f"sweep_{D}.csv"
            code, _, _ = run(
                ["sweep", "--J", "7.81", "--D", D, "--tmin", "1", "--tmax", "300",
                 "--steps", "100", "--out", str(out)],
                capsys,
            )
            assert code == 0
            rows = parse_sweep(out)
            results[D] = max(row["T"] for row in rows if row["concurrence"] > 0.0)
        assert results["8"] > results["0"]

    def test_flags_match_values(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--tmin", "1", "--tmax", "300", "--steps", "100", "--out", str(out)], capsys)
        for row in parse_sweep(out):
            assert row["entangled"] == ("true" if row["concurrence"] > 0.0 else "false")

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            ["sweep", "--steps", "2", "--tmax", "10", "--out", "/nonexistent/dir/x.csv"],
            capsys,
        )
        assert code == 2
        # the rename onto a directory fails after the temp file is written:
        # the temp file is removed
        target = tmp_path / "taken"
        target.mkdir()
        code, out, err = run(["sweep", "--steps", "2", "--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("dimercorr: I/O error: ")
        assert [path.name for path in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_file_has_the_mode_of_a_new_file(self, tmp_path, umask, mode):
        out = tmp_path / "s.csv"
        subprocess.run(
            [sys.executable, "-m", "dimercorr", "sweep", "--steps", "2", "--out", str(out)],
            check=True, umask=umask,
        )
        assert out.stat().st_mode & 0o777 == mode

    def test_main_never_changes_the_umask(self, tmp_path, capsys, monkeypatch):
        # the umask is process-wide: while a call had it at 0, a file that
        # another thread created would get mode 0666
        def forbidden(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        monkeypatch.setattr(os, "umask", forbidden)
        for argv in (["sweep", "--steps", "2"], ["synth"], ["iq"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert run([*argv, "--out", str(out)], capsys)[0] == 0
            assert out.stat().st_size > 0
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == ["iq.csv", "sweep.csv", "synth.csv"]

    def test_bad_grid_exits_1(self, tmp_path, capsys):
        code, _, _ = run(
            ["sweep", "--tmin", "10", "--tmax", "5", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 1
        code, _, err = run(["sweep", "--steps", "1", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert err == "dimercorr: error: temperature grid needs at least 2 steps, got 1\n"
        assert not (tmp_path / "x.csv").exists()


class TestCritical:
    def test_reference_values(self, capsys):
        code, out, _ = run(["critical", "--J", "7.81", "--D", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["tc_entanglement_K"] - 82.5) <= 0.1
        assert abs(payload["tc_chsh_K"] - 38.3) <= 0.1
        assert abs(payload["t_cross_K"] - 53.783) <= 0.01

    def test_printed_values_round_trip_exactly(self, capsys):
        _, out, _ = run(["critical", "--J", "7.81"], capsys)
        expected = critical_temperatures(DimerModel(J=7.81))
        assert json.loads(out) == {
            "tc_entanglement_K": expected.tc_entanglement,
            "tc_chsh_K": expected.tc_chsh,
            "t_cross_K": expected.t_cross,
        }

    def test_doubling_J_doubles_tc(self, capsys):
        _, out, _ = run(["critical", "--J", "15.62", "--D", "0"], capsys)
        assert abs(json.loads(out)["tc_entanglement_K"] - 165.0) <= 0.2

    def test_ferromagnetic_exits_1(self, capsys):
        code, _, err = run(["critical", "--J", "-7.81"], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("J", ["1e308", "2e307"])
    def test_overflowing_tc_exits_1(self, J, capsys):
        code, out, err = run(["critical", "--J", J], capsys)
        assert code == 1
        assert out == ""
        assert "got inf" in err

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--J", "1e308", "--D", "1e308", "--tmin", "1", "--tmax", "10", "--steps", "4"],
         ["critical", "--J", "1e308", "--D", "1e308"],
         ["critical", "--J", "1e308", "--D", "0"]],
        ids=["sweep", "critical", "critical-D0"],
    )
    def test_overflowing_gap_exits_1_naming_J(self, tmp_path, argv, capsys):
        out = tmp_path / "sweep.csv"
        argv = argv + ["--out", str(out)] if argv[0] == "sweep" else argv
        code, stdout, err = run(argv, capsys)
        assert code == 1 and stdout == ""
        assert "J = 1e+308 meV" in err and "temperature" not in err
        assert not out.exists()

    def test_underflowing_tc_exits_1_naming_J_and_D(self, capsys):
        code, out, err = run(["critical", "--J", "1e-308"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("dimercorr: error: J = 1e-308 meV and D = 0.0 meV put the lowest ")
        assert "below MIN_TEMPERATURE_K = 2.58e-307 K, got 4.9" in err


class TestSynthAndFit:
    def test_round_trip_recovers_center(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        code, _, _ = run(["synth", "--J", "7.81", "--seed", "42", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().splitlines()[0] == "E_meV,intensity,sigma"
        code, fit_out, _ = run(["fit", str(out)], capsys)
        assert code == 0
        payload = json.loads(fit_out)
        assert abs(payload["center_meV"] - 7.81) <= 0.04
        assert payload["converged"] is True
        assert abs(payload["tc_K"] - 82.5) < 1.0
        for key in ("center_sigma_meV", "tc_sigma_K", "chi2_reduced"):
            assert key in payload

    @pytest.mark.parametrize("J,seed", [("7.81", "42"), ("5", "3"), ("11.5", "7")])
    def test_fit_and_critical_give_the_same_tc(self, tmp_path, capsys, J, seed):
        # one D = 0 law: fit's Tc of its centre is critical's Tc of that J
        out = tmp_path / "spectrum.csv"
        window = ["--emin", "1", "--emax", "16", "--epoints", "300"]
        assert run(["synth", "--J", J, "--seed", seed, *window, "--out", str(out)], capsys)[0] == 0
        code, fit_out, _ = run(["fit", str(out)], capsys)
        assert code == 0
        fit = json.loads(fit_out)
        code, critical_out, _ = run(["critical", "--J", repr(fit["center_meV"])], capsys)
        assert code == 0
        assert fit["tc_K"] == json.loads(critical_out)["tc_entanglement_K"]
        assert fit["tc_sigma_K"] == fit["center_sigma_meV"] / (KB_MEV_PER_K * math.log(3.0))

    def test_library_defaults_are_the_cli_defaults_but_noiseless(self, tmp_path, capsys):
        # SynthConfig's defaults are the CLI's, except noise_fraction 0
        given = dict(model=DimerModel(J=7.81), T=10.0, lineshape=LineShape(fwhm=1.0))
        out = tmp_path / "synth.csv"
        for flags, overrides in ((["--noise", "0"], {}), ([], {"noise_fraction": 0.05})):
            assert run(["synth", *flags, "--out", str(out)], capsys)[0] == 0
            spectrum = synth_spectrum(SynthConfig(**given, **overrides))
            body = csvtext.format_rows((spectrum.energy, spectrum.intensity, spectrum.sigma))
            assert out.read_text() == "E_meV,intensity,sigma\n" + body

    def test_fit_prints_the_fitted_fwhm(self, tmp_path, capsys):
        # On a line over a background the fit is well conditioned: its FWHM,
        # the fitted sigma times 2 sqrt(2 ln 2), recovers the synth's.
        out = tmp_path / "spectrum.csv"
        run(["synth", "--fwhm", "1.5", "--slope", "0.2", "--intercept", "3", "--out", str(out)],
            capsys)
        code, fit_out, _ = run(["fit", str(out)], capsys)
        assert code == 0
        fwhm = json.loads(fit_out)["fwhm_meV"]
        sigma = fit_gaussian_linear(read_spectrum_csv(out)).params.sigma_width
        assert fwhm == sigma * FWHM_OVER_SIGMA
        assert abs(fwhm - 1.5) < 0.05

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fwhm", ["1e-310", "1e-200"])
    @pytest.mark.parametrize("mirror", [[], ["--antistokes"]], ids=["stokes", "antistokes"])
    def test_vanishing_width_synthesizes_no_peak_and_no_warning(
        self, tmp_path, capsys, fwhm, mirror
    ):
        # the Gaussian of a width whose (E - J)/width squared overflows is 0
        # at every grid point, the spectrum of a zero amplitude
        background = ["--slope", "0.2", "--intercept", "3", *mirror]
        narrow, absent = tmp_path / "narrow.csv", tmp_path / "absent.csv"
        assert run(["synth", "--fwhm", fwhm, *background, "--out", str(narrow)], capsys) == (
            0, "", ""
        )
        assert run(["synth", "--amplitude", "0", *background, "--out", str(absent)], capsys)[0] == 0
        assert narrow.read_bytes() == absent.read_bytes()

    @pytest.mark.filterwarnings("error")
    def test_fit_whose_variances_scale_back_past_the_float_maximum(self, tmp_path, capsys):
        # the counts reach 1e308: the fit runs on them scaled by 2^-k, and
        # the amplitude's variance scaled back by 2^2k is inf, without a warning
        out = tmp_path / "spectrum.csv"
        assert run(["synth", "--amplitude", "1e308", "--out", str(out)], capsys) == (0, "", "")
        code, fit_out, err = run(["fit", str(out)], capsys)
        assert (code, err) == (0, "")
        fit = fit_gaussian_linear(read_spectrum_csv(out))
        assert fit.covariance[0, 0] == math.inf
        assert json.loads(fit_out)["amplitude"] == fit.params.amplitude

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_1_naming_it(self, tmp_path, capsys, source):
        out = tmp_path / "spectrum.csv"
        config = tmp_path / "run.conf"
        config.write_text("seed = -1\n")
        setting = ["--seed", "-1"] if source == "flag" else ["--config", str(config)]
        code, stdout, err = run(["synth", *setting, "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err == "dimercorr: error: rng_seed must be nonnegative, got -1\n"
        assert not out.exists()

    def test_noiseless_round_trip_is_zero_residual(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        run(["synth", "--noise", "0", "--seed", "1", "--out", str(out)], capsys)
        code, fit_out, _ = run(["fit", str(out)], capsys)
        assert code == 0
        assert json.loads(fit_out)["chi2_reduced"] < 1e-10

    def test_csv_round_trip_is_exact(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        run(["synth", "--seed", "7", "--noise", "0.05", "--out", str(out)], capsys)
        config = SynthConfig(
            model=DimerModel(J=7.81),
            T=10.0,
            lineshape=LineShape(fwhm=1.0),
            amplitude=10.0,
            noise_fraction=0.05,
            grid=(2.0, 14.0, 200),
            rng_seed=7,
        )
        expected = synth_spectrum(config)
        loaded = read_spectrum_csv(out)
        assert np.array_equal(loaded.energy, expected.energy)
        assert np.array_equal(loaded.intensity, expected.intensity)
        assert np.array_equal(loaded.sigma, expected.sigma)

    def test_malformed_row_names_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        rows = ["E_meV,intensity,sigma"]
        rows += [f"{e},1.0,0.1" for e in range(12)]
        rows[4] = "3.0,oops,0.1"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(["fit", str(path)], capsys)
        assert code == 1
        assert "line 5" in err

    def test_wrong_column_count_names_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        rows = [f"{e},1.0,0.1" for e in range(12)]
        rows[6] = "6.0,1.0"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(["fit", str(path)], capsys)
        assert code == 1
        assert "line 7" in err

    def test_too_few_points_exits_1(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("\n".join(f"{e},1.0,0.1" for e in range(5)) + "\n")
        code, _, err = run(["fit", str(path)], capsys)
        assert code == 1
        assert "10 points" in err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["fit", str(tmp_path / "absent.csv")], capsys)
        assert code == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "spectrum.csv"
        run(["synth", "--seed", "3", "--out", str(out)], capsys)

        def explode(spectrum):
            raise FitError("synthetic failure", diagnostics={"chi2": 1.0})

        monkeypatch.setattr(cli, "fit_gaussian_linear", explode)
        code, _, err = run(["fit", str(out)], capsys)
        assert code == 3
        assert "synthetic failure" in err

    def test_zero_amplitude_fit_prints_null_tc(self, tmp_path, capsys, zero_amplitude_spectrum):
        spectrum = zero_amplitude_spectrum
        path = tmp_path / "flat.csv"
        rows = [f"{e!r},{i!r},{s!r}" for e, i, s in zip(
            spectrum.energy.tolist(), spectrum.intensity.tolist(), spectrum.sigma.tolist()
        )]
        path.write_text("\n".join(rows) + "\n")
        code, fit_out, err = run(["fit", str(path)], capsys)
        assert code == 0, err
        payload = json.loads(fit_out)
        assert payload["converged"] is True and payload["amplitude"] == 0.0
        assert payload["tc_K"] is None and payload["tc_sigma_K"] is None
        assert payload["center_sigma_meV"] is None
        assert "Infinity" not in fit_out and "NaN" not in fit_out

    def test_undetermined_line_prints_null_sigmas(self, tmp_path, capsys):
        # A weak line on a background: the fit converges on a line the data
        # do not determine (seed 288: a centre of 8.8e28 meV, 6.9e30 meV
        # wide; 310: 3.2e9 meV; 313: a 0.004 meV wide line at 13.03 meV),
        # whose normal matrix is singular.  Both sigmas are infinite and
        # print as null, and so does Tc, which that centre does not give.
        for seed in (288, 310, 313):
            out = tmp_path / f"weak-{seed}.csv"
            run(["synth", "--amplitude", "1", "--slope", "0.2", "--intercept", "3",
                 "--seed", str(seed), "--out", str(out)], capsys)
            code, fit_out, err = run(["fit", str(out)], capsys)
            assert code == 0, err
            payload = json.loads(fit_out)
            assert payload["converged"] is True and payload["amplitude"] > 0.0
            assert payload["tc_K"] is None
            assert payload["center_sigma_meV"] is None and payload["tc_sigma_K"] is None
            assert "Infinity" not in fit_out and "NaN" not in fit_out

    def test_line_off_the_window_prints_null_tc(self, tmp_path, capsys):
        # The default 2-14 meV window holds no line at J = 20 meV: the fit
        # converges with its centre pinned at the window's lower edge, which
        # says nothing of J, so no Tc is printed for it.
        out = tmp_path / "j20.csv"
        code, _, err = run(["synth", "--J", "20", "--out", str(out)], capsys)
        assert code == 0, err
        code, fit_out, err = run(["fit", str(out)], capsys)
        assert code == 0, err
        payload = json.loads(fit_out)
        assert payload["converged"] is True and payload["center_meV"] == 2.0
        assert payload["tc_K"] is None and payload["tc_sigma_K"] is None

    def test_tiny_uncertainties_fit(self, tmp_path, capsys):
        spectrum = synth_spectrum(
            SynthConfig(
                model=DimerModel(J=7.81), T=10.0, lineshape=LineShape(fwhm=1.0),
                background_slope=0.2, background_intercept=3.0, noise_fraction=0.05, rng_seed=11,
            )
        )
        centers = []
        for factor in (1.0, 1e-202):
            path = tmp_path / f"spectrum-{factor}.csv"
            rows = ["E_meV,intensity,sigma"] + [
                f"{e!r},{i * factor!r},{s * factor!r}"
                for e, i, s in zip(
                    spectrum.energy.tolist(), spectrum.intensity.tolist(), spectrum.sigma.tolist()
                )
            ]
            path.write_text("\n".join(rows) + "\n")
            code, fit_out, err = run(["fit", str(path)], capsys)
            assert code == 0, err
            centers.append(json.loads(fit_out)["center_meV"])
        assert abs(centers[1] - centers[0]) <= 1e-12


class TestIq:
    @pytest.fixture
    def flat_ffile(self, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("A = 1\na = 0\nB = 0\nb = 0\nC = 0\nc = 0\nD0 = 0\n")
        return path

    def test_flat_form_factor_peak_position(self, tmp_path, capsys, flat_ffile):
        out = tmp_path / "iq.csv"
        code, _, _ = run(
            ["iq", "--R", "4.43", "--ffile", str(flat_ffile), "--qmax", "2.0",
             "--qsteps", "2000", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "Q_invA,interference,form_factor,intensity"
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert data[0, 0] == 0.0 and data[0, 3] == 0.0
        grid_step = data[1, 0] - data[0, 0]
        peak_q = data[np.argmax(data[:, 1]), 0]
        assert abs(peak_q - 1.014) <= grid_step + 1e-9
        assert abs(data[:, 3].max() - 1.0) < 1e-12

    def test_doubling_R_halves_extremum(self, tmp_path, capsys, flat_ffile):
        peaks = {}
        for R in ("4.43", "8.86"):
            out = tmp_path / f"iq_{R}.csv"
            run(
                ["iq", "--R", R, "--ffile", str(flat_ffile), "--qmax", "1.2",
                 "--qsteps", "4800", "--out", str(out)],
                capsys,
            )
            lines = out.read_text().splitlines()[1:]
            data = np.array([[float(x) for x in line.split(",")] for line in lines])
            interference = data[:, 1]
            interior = slice(1, len(interference) - 1)
            is_peak = (interference[interior] > interference[:-2][: len(interference) - 2]) & (
                interference[interior] > interference[2:]
            )
            peaks[R] = data[1 + np.argmax(is_peak), 0]
        assert abs(peaks["8.86"] - 0.5 * peaks["4.43"]) < 1e-3

    def test_default_packaged_form_factor(self, tmp_path, capsys):
        out = tmp_path / "iq.csv"
        code, _, _ = run(["iq", "--out", str(out)], capsys)
        assert code == 0

    def test_intensity_peaking_below_one_is_normalised(self, tmp_path, capsys):
        # below Q = 0.5 the largest |F|^2 (1 - sin(QR)/(QR)) is about 0.62
        out = tmp_path / "iq.csv"
        code, _, _ = run(["iq", "--qmax", "0.5", "--qsteps", "40", "--out", str(out)], capsys)
        assert code == 0
        intensity = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
        assert max(intensity) == intensity[-1] == 1.0

    @pytest.mark.parametrize("R", ["-1", "nan"])
    def test_bad_separation_exits_1_naming_it(self, tmp_path, capsys, R):
        # refused before the form-factor file is read
        out = tmp_path / "iq.csv"
        code, stdout, err = run(
            ["iq", "--R", R, "--ffile", str(tmp_path / "absent.txt"), "--out", str(out)], capsys
        )
        assert (code, stdout) == (1, "")
        assert err == f"dimercorr: error: separation must be positive and finite, got {float(R)}\n"
        assert not out.exists()

    def test_missing_form_factor_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["iq", "--ffile", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "iq.csv")],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "line,message",
        [("aa = 1", "unknown key 'aa'"),
         ("a = 0.5.1", "bad value for a: could not convert string to float: '0.5.1'")],
    )
    def test_bad_form_factor_line_names_file_line_and_key(
        self, tmp_path, capsys, flat_ffile, line, message
    ):
        lines = flat_ffile.read_text().splitlines()
        lines.insert(2, line)
        flat_ffile.write_text("\n".join(lines) + "\n")
        out = tmp_path / "iq.csv"
        code, stdout, err = run(["iq", "--ffile", str(flat_ffile), "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert f"{flat_ffile}:3: {message}" in err
        assert not out.exists()


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "flag,field",
        [("--T", "T"), ("--fwhm", "fwhm"), ("--amplitude", "amplitude"),
         ("--noise", "noise_fraction"), ("--slope", "background_slope")],
    )
    def test_synth_rejects_nan(self, tmp_path, capsys, flag, field):
        out = tmp_path / "spectrum.csv"
        code, _, err = run(["synth", flag, "nan", "--out", str(out)], capsys)
        assert code == 1
        assert f"error: {field} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "settings",
        [["--slope", "1e308"], ["--intercept", "1e308", "--amplitude", "1e308"],
         ["--amplitude", "1e308", "--noise", "10"], ["--slope", "1e308", "--noise", "0"],
         ["--intercept", "1.7e308", "--amplitude", "0"]],
        ids=["slope", "intercept+amplitude", "noise", "noiseless", "noise-sum"],
    )
    def test_synth_overflow_exits_1_naming_the_settings(self, tmp_path, capsys, settings):
        out = tmp_path / "spectrum.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["synth", *settings, "--out", str(out)], capsys)
        assert code == 1
        assert "error: the synthetic intensity or its noise overflows: amplitude" in err
        assert all(f"{float(value)!r}" in err for value in settings[1::2])
        assert not out.exists()

    def test_sweep_rejects_infinite_tmax(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, err = run(["sweep", "--tmax", "inf", "--out", str(out)], capsys)
        assert code == 1
        assert "temperature grid requires finite min < max" in err
        assert not out.exists()

    def test_iq_rejects_infinite_qmax(self, tmp_path, capsys):
        out = tmp_path / "iq.csv"
        code, _, err = run(["iq", "--qmax", "inf", "--out", str(out)], capsys)
        assert code == 1
        assert "qmax" in err
        assert not out.exists()

    @pytest.mark.parametrize("qmax", ["0", "-0.5", "nan"])
    def test_iq_refuses_a_nonpositive_qmax_naming_it(self, tmp_path, capsys, qmax):
        out = tmp_path / "iq.csv"
        code, _, err = run(["iq", "--qmax", qmax, "--out", str(out)], capsys)
        assert code == 1
        assert err == f"dimercorr: error: qmax must be positive and finite, got {float(qmax)}\n"
        assert not out.exists()

    def test_sweep_to_the_float_maximum_is_finite(self, tmp_path, capsys):
        # linspace's last product rounds past the float maximum; the grid
        # ends on tmax all the same
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--tmax", "1.7976931348623157e308", "--steps", "7", "--out", str(out)]
        assert run(argv, capsys) == (0, "", "")
        rows = [line.split(",")[:8] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 8 and rows[-1][0] == "1.7976931348623157e+308"
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_iq_to_the_float_maximum_names_the_overflow(self, tmp_path, capsys):
        out = tmp_path / "iq.csv"
        argv = ["iq", "--qmax", "1.7976931348623157e308", "--qsteps", "3", "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err == (
            "dimercorr: error: Q R overflows at Q = 1.7976931348623157e+308 1/angstrom, "
            "R = 4.43 angstrom\n"
        )
        assert not out.exists()

    def test_synth_span_that_overflows_is_refused(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        argv = ["synth", "--emin=-1e308", "--emax", "1e308", "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert (code, err) == (1, "dimercorr: error: grid span 1e+308 - (-1e+308) overflows\n")
        assert not out.exists()

    def test_synth_grid_whose_points_coincide_is_refused(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        argv = ["synth", "--emin", "0", "--emax", "5e-324", "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert (code, err) == (1, "dimercorr: error: grid from Emin 0.0 to Emax 5e-324 meV in "
                                  "200 points has coinciding energies\n")
        assert not out.exists()

    def test_sweep_span_that_overflows_is_refused(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--tmin=-1e308", "--tmax", "1.7976931348623157e308", "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err == (
            "dimercorr: error: temperature grid span 1.7976931348623157e+308 - (-1e+308) "
            "overflows\n"
        )
        assert not out.exists()

    def test_iq_rejects_nan_form_factor_coefficient(self, tmp_path, capsys):
        ffile = tmp_path / "nan.txt"
        ffile.write_text("A = 1\na = nan\nB = 0\nb = 0\nC = 0\nc = 0\nD0 = 0\n")
        out = tmp_path / "iq.csv"
        code, _, err = run(["iq", "--ffile", str(ffile), "--out", str(out)], capsys)
        assert code == 1
        assert "a must be a finite real" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    def test_iq_rejects_negative_exponent_coefficient(self, tmp_path, capsys, name):
        # with a = -1 and D0 = -0.1, F(400) = 1.1 e^(1013) used to overflow exp
        values = dict(A="1.1", a="0", B="0", b="0", C="0", c="0", D0="-0.1")
        values[name] = "-1"
        ffile = tmp_path / "negative.txt"
        ffile.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        out = tmp_path / "iq.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(
                ["iq", "--ffile", str(ffile), "--qmax", "400", "--out", str(out)], capsys
            )
        assert code == 1
        assert f"exponent coefficient {name} must be nonnegative, got -1.0" in err
        assert not out.exists()

    def test_fit_names_the_line_of_a_nan_cell(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        rows = ["E_meV,intensity,sigma"] + [f"{e},1.0,0.1" for e in range(12)]
        rows[8] = "7.0,nan,0.1"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(["fit", str(path)], capsys)
        assert code == 1
        assert "non-finite value at line 9" in err

    def test_fit_beyond_the_float_range_exits_3(self, tmp_path, capsys):
        # one sigma of 1e154 makes every other weight's square overflow
        path = tmp_path / "wide.csv"
        rows = ["E_meV,intensity,sigma"] + [f"{e},{10 - abs(e - 7)},0.5" for e in range(2, 14)]
        rows[5] = "6,9,1e154"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(["fit", str(path)], capsys)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == (
            "non-finite chi-square or normal matrix at the end of the fit"
        )

    def test_fit_no_longer_takes_config(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        run(["synth", "--seed", "3", "--out", str(out)], capsys)
        code, _, err = run(["fit", str(out), "--config", str(tmp_path / "x.conf")], capsys)
        assert code == 1
        assert "--config" in err


def per_line_read(path):
    """The spectrum reader as a loop over the lines, kept as the reference
    for read_spectrum_csv: blank lines skipped, a non-numeric line 1 taken
    as the header, and the first bad line, in file order, named."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            values = [float(part) for part in line.split(",")]
        except ValueError:
            if lineno == 1:
                continue
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


CSV_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "x", "", " 1.5 ", "1e999", "E_meV", "１.５", "١٢"]),
)
CSV_LINES = st.one_of(
    st.lists(CSV_CELLS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "  ", "E_meV,intensity,sigma"]),
)


class TestSpectrumReader:
    """read_spectrum_csv names the first offending line, in file order."""

    @staticmethod
    def write(tmp_path, lines):
        path = tmp_path / "spectrum.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def good_rows(self, count):
        return [f"{e}.5,1.0,0.1" for e in range(count)]

    def test_four_columns_names_line_and_count(self, tmp_path):
        lines = self.good_rows(6)
        lines[2] = "2.5,1.0,0.1,9"
        with pytest.raises(ValueError, match="expected 3 columns at line 3, got 4"):
            read_spectrum_csv(self.write(tmp_path, lines))

    def test_a_short_row_does_not_balance_a_long_one(self, tmp_path):
        lines = self.good_rows(6)
        lines[2], lines[4] = "2.5,1.0,0.1,9", "4.5,1.0"
        with pytest.raises(ValueError, match="expected 3 columns at line 3, got 4"):
            read_spectrum_csv(self.write(tmp_path, lines))

    @pytest.mark.parametrize("bad", [(3, 5), (5, 3)])
    def test_first_bad_line_wins(self, tmp_path, bad):
        malformed, nan = bad
        lines = ["E_meV,intensity,sigma"] + self.good_rows(8)
        lines[malformed - 1] = "2.0,oops,0.1"
        lines[nan - 1] = "4.0,nan,0.1"
        with pytest.raises(ValueError, match="line 3$"):
            read_spectrum_csv(self.write(tmp_path, lines))

    def test_blank_first_line_makes_text_a_malformed_row(self, tmp_path):
        lines = ["", "E_meV,intensity,sigma"] + self.good_rows(4)
        with pytest.raises(ValueError, match="malformed CSV row at line 2"):
            read_spectrum_csv(self.write(tmp_path, lines))

    def test_header_only_has_no_data_rows(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            read_spectrum_csv(self.write(tmp_path, ["E_meV,intensity,sigma"]))

    def test_numeric_first_line_is_data(self, tmp_path):
        spectrum = read_spectrum_csv(self.write(tmp_path, self.good_rows(3)))
        assert spectrum.energy.tolist() == [0.5, 1.5, 2.5]

    @pytest.mark.parametrize("header", [["E_meV,intensity,sigma"], []], ids=["header", "no-header"])
    def test_byte_order_mark_is_dropped(self, tmp_path, header):
        path = tmp_path / "spectrum.csv"
        path.write_text("\n".join(header + self.good_rows(12)) + "\n", encoding="utf-8-sig")
        spectrum = read_spectrum_csv(path)
        assert spectrum.energy.tolist() == [e + 0.5 for e in range(12)]

    def test_unicode_digits_are_read_as_float_reads_them(self, tmp_path):
        # numpy's parser refuses these cells; the rescan takes them as float does.
        lines = ["E_meV,intensity,sigma"] + self.good_rows(4)
        lines[2] = "１.５,١٢,0.1"
        spectrum = read_spectrum_csv(self.write(tmp_path, lines))
        assert spectrum.energy.tolist() == [0.5, 1.5, 2.5, 3.5]
        assert spectrum.intensity.tolist() == [1.0, 12.0, 1.0, 1.0]

    @pytest.mark.parametrize("header", [["E_meV,intensity,sigma"], []], ids=["header", "no-header"])
    @pytest.mark.parametrize("count", [1, 200])
    def test_good_file_takes_no_rescan(self, tmp_path, monkeypatch, header, count):
        # One np.loadtxt call reads the rows; float sees line 1 only, to tell
        # a header from data.
        seen, row_values = [], cli._row_values
        monkeypatch.setattr(cli, "_row_values", lambda line: seen.append(line) or row_values(line))
        lines = header + self.good_rows(count)
        spectrum = read_spectrum_csv(self.write(tmp_path, lines))
        assert seen == lines[:1]
        assert spectrum.energy.tolist() == [e + 0.5 for e in range(count)]

    def test_float_range_edges_read_back_bit_for_bit(self, tmp_path):
        energy = np.array([-1.7976931348623157e308, -1e308, -5e-324, 0.0, 5e-324,
                           2.2250738585072014e-308, 1e308, 1.7976931348623157e308])
        signed = np.array([-0.0, 0.0, -5e-324, 5e-324, -1e308, 1e308, -2.5e-310, 1.0])
        sigma = np.abs(signed) + 5e-324
        path = tmp_path / "spectrum.csv"
        path.write_text("E_meV,intensity,sigma\n" + csvtext.format_rows((energy, signed, sigma)))
        spectrum = read_spectrum_csv(path)
        assert spectrum.energy.tobytes() == energy.tobytes()
        assert spectrum.intensity.tobytes() == signed.tobytes()
        assert spectrum.sigma.tobytes() == sigma.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(rows=st.integers(1, 100), data=st.data())
    def test_written_spectrum_reads_back_bit_for_bit(self, tmp_path_factory, rows, data):
        # Both format_rows paths (below and above BULK_MIN_CELLS cells), with
        # subnormals, signed zeros and values at the ends of the float range.
        edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                 1e308, -1e308, 1.7976931348623157e308])
        finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), edges)
        energy = np.sort(data.draw(arrays(float, rows, elements=finite, unique=True)))
        intensity = data.draw(arrays(float, rows, elements=finite))
        sigma = np.abs(data.draw(arrays(float, rows, elements=finite.filter(bool))))
        path = tmp_path_factory.mktemp("csv") / "spectrum.csv"
        path.write_text("E_meV,intensity,sigma\n" + csvtext.format_rows((energy, intensity, sigma)))
        spectrum = read_spectrum_csv(path)
        for read, written in zip((spectrum.energy, spectrum.intensity, spectrum.sigma),
                                 (energy, intensity, sigma)):
            assert read.tobytes() == written.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(CSV_LINES, max_size=6))
    def test_equals_per_line_reference(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("csv") / "spectrum.csv"
        path.write_text("\n".join(lines) + "\n")

        def outcome(reader):
            try:
                spectrum = reader(path)
            except ValueError as exc:
                return str(exc)
            return np.stack([spectrum.energy, spectrum.intensity, spectrum.sigma]).tolist()

        assert outcome(read_spectrum_csv) == outcome(per_line_read)


class TestConfigResolution:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("# halved exchange\nJ = 3.905\nD = 0\n")
        _, out, _ = run(["critical", "--config", str(config)], capsys)
        assert abs(json.loads(out)["tc_entanglement_K"] - 41.248) < 0.01

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("J = 3.905\n")
        _, out, _ = run(["critical", "--config", str(config), "--J", "7.81"], capsys)
        assert abs(json.loads(out)["tc_entanglement_K"] - 82.496) < 0.01

    def test_env_var_supplies_default_config(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "env.conf"
        config.write_text("J = 3.905\n")
        monkeypatch.setenv("DIMERCORR_CONFIG", str(config))
        _, out, _ = run(["critical"], capsys)
        assert abs(json.loads(out)["tc_entanglement_K"] - 41.248) < 0.01

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("Jay = 7.81\n")
        code, _, _ = run(["critical", "--config", str(config)], capsys)
        assert code == 1

    @pytest.mark.parametrize("line", ["J = abc", "steps = 3.5", "antistokes = maybe"])
    def test_bad_config_value_names_file_line_and_key(self, tmp_path, capsys, line):
        config = tmp_path / "run.conf"
        config.write_text(f"# bad value on line 2\n{line}\n")
        key = line.split(" = ")[0]
        code, out, err = run(["critical", "--config", str(config)], capsys)
        assert code == 1
        assert out == ""
        assert f"{config}:2: bad value for {key}: " in err

    def test_hash_inside_a_value_is_kept(self, tmp_path, capsys):
        out = tmp_path / "run#1.csv"
        config = tmp_path / "run.conf"
        config.write_text(f"# output name with a hash\nout = {out}  # inline\nsteps = 2\ntmax = 10\n")
        code, _, _ = run(["sweep", "--config", str(config)], capsys)
        assert code == 0
        assert out.exists()
        assert not (tmp_path / "run").exists()

    def test_hash_inside_a_form_factor_path_is_kept(self, tmp_path, capsys):
        ffile = tmp_path / "ff#1.txt"
        ffile.write_text("A = 1\na = 0\nB = 0\nb = 0\nC = 0\nc = 0\nD0 = 0\n")
        config = tmp_path / "iq.conf"
        config.write_text(f"ffile = {ffile}\nout = {tmp_path / 'config.csv'}\n")
        code, _, _ = run(["iq", "--config", str(config)], capsys)
        assert code == 0
        code, _, _ = run(["iq", "--ffile", str(ffile), "--out", str(tmp_path / "flags.csv")], capsys)
        assert code == 0
        assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()

    def test_false_spelling_of_a_bare_flag(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        outputs = {}
        for spelling in ("no", "yes", None):
            # the energy-gain mirror peak sits at E = -J
            config.write_text("emin = -14\n" + (f"antistokes = {spelling}\n" if spelling else ""))
            out = tmp_path / f"{spelling}.csv"
            assert run(["synth", "--config", str(config), "--out", str(out)], capsys)[0] == 0
            outputs[spelling] = out.read_bytes()
        assert outputs["no"] == outputs[None] != outputs["yes"]

    def test_config_with_a_byte_order_mark(self, tmp_path, capsys):
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):  # utf-8-sig writes a leading BOM
            config = tmp_path / f"{encoding}.conf"
            config.write_text("J = 3.905\nD = 1.5\n", encoding=encoding)
            outputs.append(run(["critical", "--config", str(config)], capsys))
        assert config.read_bytes().startswith(codecs.BOM_UTF8)
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_form_factor_file_with_a_byte_order_mark(self, tmp_path, capsys):
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            ffile = tmp_path / f"{encoding}.txt"
            ffile.write_text("A = 0.5\na = 2\nB = 0.5\nb = 1\nC = 0\nc = 0\nD0 = 0\n",
                             encoding=encoding)
            out = tmp_path / f"{encoding}.csv"
            assert run(["iq", "--ffile", str(ffile), "--out", str(out)], capsys) == (0, "", "")
            outputs.append(out.read_bytes())
        assert ffile.read_bytes().startswith(codecs.BOM_UTF8)
        assert outputs[1] == outputs[0]

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["critical", "--config", str(tmp_path / "none.conf")], capsys)
        assert code == 2

    def test_missing_out_exits_1(self, capsys):
        code, _, err = run(["sweep", "--steps", "2", "--tmax", "10"], capsys)
        assert code == 1
        assert "output path" in err

    def test_empty_out_exits_1_and_leaves_no_temp_file(self, tmp_path, capsys, monkeypatch):
        # the directory of '' as an absolute path is the working directory's parent
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, _, err = run(["iq", "--out", ""], capsys)
        assert code == 1
        assert err == "dimercorr: error: an output path is required (--out or config 'out')\n"
        assert list(work.glob(".dimercorr-*")) == list(tmp_path.glob(".dimercorr-*")) == []


# The settings each subcommand takes, as flag and config key names.  Only iq
# takes the separation R, and iq takes neither J nor D.
COMMAND_SETTINGS = {
    "sweep": ("J", "D", "tmin", "tmax", "steps", "out"),
    "critical": ("J", "D"),
    "synth": (
        "J", "D", "T", "fwhm", "noise", "seed", "amplitude", "slope", "intercept",
        "emin", "emax", "epoints", "antistokes", "out",
    ),
    "fit": (),
    "iq": ("R", "ffile", "qmax", "qsteps", "out"),
}
DEFAULTS = {
    "J": 7.81, "D": 0.0, "R": 4.43, "tmin": 1.0, "tmax": 300.0, "steps": 300,
    "T": 10.0, "fwhm": 1.0, "noise": 0.05, "seed": 0, "amplitude": 10.0,
    "slope": 0.0, "intercept": 0.0, "emin": 2.0, "emax": 14.0, "epoints": 200,
    "antistokes": False, "ffile": None, "qmax": 3.0, "qsteps": 300, "out": None,
}
# A value other than the default for each setting but ffile and out, which
# are paths; the mirror peak at E = -J = -7.81 meV lies on the emin grid.
OTHER_VALUES = {
    "J": "5.5", "D": "1.5", "R": "3.9", "tmin": "2", "tmax": "150", "steps": "40",
    "T": "20", "fwhm": "0.8", "noise": "0.1", "seed": "9", "amplitude": "12",
    "slope": "0.1", "intercept": "2", "emin": "-8", "emax": "12", "epoints": "90",
    "antistokes": "yes", "qmax": "2.5", "qsteps": "50",
}
FORM_FACTOR_TEXT = "A = 0.6\na = 10\nB = 0.4\nb = 3\nC = 0\nc = 1\nD0 = 0\n"
# Each setting but out of each subcommand, as the CLI declares them.  synth
# takes D but draws its line at E = J whatever D is (ROADMAP item 4, the
# benchmark's known failure synth-ignores-D), the one setting not yet read.
NOT_YET_READ = {("synth", "D")}
EVERY_SETTING = [
    pytest.param(
        command, name,
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
        if (command, name) in NOT_YET_READ else (),
    )
    for command, (_, _, names) in cli._COMMANDS.items()
    for name in names
    if name != "out"
]


class TestCliSurface:
    """The subcommands, their flags, config keys and defaults, pinned."""

    def test_subcommands_and_their_option_strings(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(COMMAND_SETTINGS)
        for command, names in COMMAND_SETTINGS.items():
            actions = sub.choices[command]._actions
            options = {option for action in actions for option in action.option_strings}
            expected = {"-h", "--help"} | {f"--{name}" for name in names}
            if names:
                expected.add("--config")
            assert options == expected, command
            positionals = [action.dest for action in actions if not action.option_strings]
            assert positionals == (["path"] if command == "fit" else []), command

    def test_lande_factor_is_no_setting(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--g", "2", "--out", str(out)], capsys)[0] == 1
        config = tmp_path / "run.conf"
        config.write_text("g = 2\n")
        code, _, err = run(["critical", "--config", str(config)], capsys)
        assert code == 1
        assert f"{config}:1: unknown key 'g'" in err
        # nor is a setting of a command that never reads it: R of sweep,
        # critical and synth, J and D of iq.  A config file, which may set
        # the keys of every command, still may set them.
        config.write_text(f"R = 5\nJ = 5\nD = 5\nsteps = 2\nout = {out}\n")
        for command, name in (
            ("sweep", "R"), ("critical", "R"), ("synth", "R"), ("iq", "J"), ("iq", "D")
        ):
            code, _, err = run([command, f"--{name}", "5"], capsys)
            assert code == 1
            assert err.endswith(f"dimercorr: error: unrecognized arguments: --{name} 5\n")
            assert run([command, "--config", str(config)], capsys)[0] == 0
        assert out.exists()

    @pytest.mark.parametrize("command,name", EVERY_SETTING)
    def test_every_setting_is_read(self, tmp_path, capsys, monkeypatch, command, name):
        monkeypatch.delenv("DIMERCORR_CONFIG", raising=False)
        ffile = tmp_path / "ff.txt"
        ffile.write_text(FORM_FACTOR_TEXT)
        out = tmp_path / "out.csv"
        base = [command, "--out", str(out)] if command != "critical" else [command]
        if name == "antistokes":
            base += ["--emin", OTHER_VALUES["emin"]]
        changed = [f"--{name}"] if name == "antistokes" else [
            f"--{name}", str(ffile) if name == "ffile" else OTHER_VALUES[name]
        ]

        def outcome(argv):
            code, stdout, err = run(argv, capsys)
            assert (code, err) == (0, ""), argv
            return stdout, out.read_bytes() if out.exists() else None

        assert outcome(base + changed) != outcome(base)

    @pytest.mark.parametrize("command", ["sweep", "critical", "synth", "iq"])
    def test_every_default(self, monkeypatch, command):
        monkeypatch.delenv("DIMERCORR_CONFIG", raising=False)
        resolved = vars(cli._settings(cli.build_parser().parse_args([command])))
        expected = {name: DEFAULTS[name] for name in COMMAND_SETTINGS[command]}
        assert {name: (value, type(value)) for name, value in resolved.items()} == {
            name: (value, type(value)) for name, value in expected.items()
        }

    @pytest.mark.parametrize("source", ["--config", "DIMERCORR_CONFIG"])
    def test_config_file_equals_flags(self, tmp_path, capsys, monkeypatch, source):
        ffile = tmp_path / "ff.txt"
        ffile.write_text(FORM_FACTOR_TEXT)
        out = tmp_path / "out.csv"
        values = {**OTHER_VALUES, "ffile": str(ffile), "out": str(out)}
        assert set(values) == set(DEFAULTS)
        config = tmp_path / "run.conf"
        config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        monkeypatch.delenv("DIMERCORR_CONFIG", raising=False)
        for command in ("sweep", "synth", "iq"):
            flags = [command]
            for name in COMMAND_SETTINGS[command]:
                flags += [f"--{name}"] if name == "antistokes" else [f"--{name}", values[name]]
            assert run(flags, capsys)[0] == 0
            by_flags = out.read_bytes()
            out.unlink()
            if source == "--config":
                assert run([command, "--config", str(config)], capsys)[0] == 0
            else:
                monkeypatch.setenv("DIMERCORR_CONFIG", str(config))
                assert run([command], capsys)[0] == 0
                monkeypatch.delenv("DIMERCORR_CONFIG")
            assert out.read_bytes() == by_flags, command
            out.unlink()


def readme_command_lines():
    """The `dimercorr ...` lines of README's "Command line" code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("dimercorr ")]


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch, build_count):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DIMERCORR_CONFIG", raising=False)
    commands = readme_command_lines()
    assert {argv[0] for argv in commands} == set(COMMAND_SETTINGS)
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)
    assert build_count == []  # spelled out, so read without argparse


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_bad_flag_value_exits_1(self, capsys):
        assert run(["critical", "--J", "notanumber"], capsys)[0] == 1

    def test_module_entry_point(self, tmp_path):
        def module(*argv):
            result = subprocess.run(
                [sys.executable, "-W", "error", "-m", "dimercorr", *argv],
                capture_output=True, text=True,
            )
            assert (result.returncode, result.stderr) == (0, ""), argv
            return result.stdout

        stdout = module("critical", "--J", "7.81")
        assert abs(json.loads(stdout)["tc_entanglement_K"] - 82.496) < 0.01
        # A 301-row sweep and the default iq table take the bulk formatter,
        # so a numpy warning on its path fails here.
        sweep, iq = tmp_path / "sweep.csv", tmp_path / "iq.csv"
        module("sweep", "--steps", "300", "--out", str(sweep))
        module("iq", "--out", str(iq))
        assert len(sweep.read_text().splitlines()) == 302
        assert len(iq.read_text().splitlines()) == 302
        # A Q R or a form-factor exponent that overflows is refused by name,
        # before any numpy warning.
        for argv, message in (
            (("--R", "1e308"), "Q R overflows at Q = 3.0 1/angstrom, R = 1e+308 angstrom"),
            (("--qmax", "1e308"), "Q R overflows at Q = 1e+308 1/angstrom, R = 4.43 angstrom"),
            (("--qmax", "1e200"), "the form factor's exponent overflows at Q = 1e+200 1/angstrom"),
        ):
            refused = subprocess.run(
                [sys.executable, "-W", "error", "-m", "dimercorr", "iq", *argv,
                 "--out", str(tmp_path / "refused.csv")],
                capture_output=True, text=True,
            )
            assert (refused.returncode, refused.stderr) == (1, f"dimercorr: error: {message}\n")
            assert not (tmp_path / "refused.csv").exists()


@pytest.fixture
def build_count(monkeypatch):
    """The list of argument-parser builds from here on, one entry each."""
    calls = []
    real = cli.build_parser

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    return calls


class TestParserReuse:
    """`main` called many times in one process: nothing keyed on a call's
    inputs may carry over to the next call."""

    def test_parser_is_not_built_at_import(self):
        # no argument parser at import, none for a spelled-out call, and one
        # for each call that needs one
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)\n"
            "from dimercorr import cli\n"
            "assert built == []\n"
            "real = cli.build_parser\n"
            "builds = []\n"
            "cli.build_parser = lambda: builds.append(1) or real()\n"
            "assert cli.main(['critical']) == 0\n"
            "assert builds == [] and built == []\n"
            "assert cli.main(['--help']) == 0\n"
            "assert cli.main(['critical', '--J', 'notanumber']) == 1\n"
            "assert len(builds) == 2\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_flag_of_one_call_does_not_reach_the_next(self, tmp_path, capsys):
        first, second, default = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        assert run(["sweep", "--J", "2", "--steps", "5", "--out", str(first)], capsys)[0] == 0
        assert run(["sweep", "--steps", "5", "--out", str(second)], capsys)[0] == 0
        assert run(["sweep", "--J", "7.81", "--steps", "5", "--out", str(default)], capsys)[0] == 0
        assert second.read_bytes() == default.read_bytes()
        assert second.read_bytes() != first.read_bytes()

    def test_config_env_var_is_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "env.conf"
        config.write_text("J = 3.905\n")
        monkeypatch.delenv("DIMERCORR_CONFIG", raising=False)
        _, before, _ = run(["critical"], capsys)
        monkeypatch.setenv("DIMERCORR_CONFIG", str(config))
        _, during, _ = run(["critical"], capsys)
        monkeypatch.delenv("DIMERCORR_CONFIG")
        _, after, _ = run(["critical"], capsys)
        assert round(json.loads(before)["tc_entanglement_K"], 3) == 82.496
        assert round(json.loads(during)["tc_entanglement_K"], 3) == 41.248
        assert after == before

    def test_usage_error_then_valid_call(self, capsys):
        code, out, err = run(["critical", "--J", "notanumber"], capsys)
        assert code == 1 and out == ""
        assert "usage: dimercorr critical" in err
        assert "invalid float value" in err
        code, out, err = run(["critical", "--J", "7.81"], capsys)
        assert code == 0 and err == ""
        assert {key: round(value, 3) for key, value in json.loads(out).items()} == {
            "tc_entanglement_K": 82.496, "tc_chsh_K": 38.302, "t_cross_K": 53.783
        }

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_then_valid_call(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.startswith("usage: dimercorr")
        code, out, _ = run(["critical", "--J", "15.62", "--D", "0"], capsys)
        assert code == 0
        assert abs(json.loads(out)["tc_entanglement_K"] - 165.0) <= 0.2


# Tokens for argv sequences: every option string, abbreviations, the
# --name=value and -- spellings, unknown flags, and values: negative numbers,
# text int() and float() read in unusual forms or refuse, and option names.
OPTION_STRINGS = sorted(
    {f"--{name}" for names in COMMAND_SETTINGS.values() for name in names}
    | {"--config", "--help", "-h"}
)
ODD_TOKENS = ["--st", "--tm", "--e", "--anti", "--conf", "--J=3", "--", "-", "--g", "--foo", "-x"]
VALUES = [
    "-2", "-1e-3", "-inf", "nan", "", "a b", "1_0", " 7 ", "0x10", "3", "0.25", "1e400",
    "yes", "J", "--J", "sweep", "x.csv",
]
NUMBERS = ["3", "12", "0.25", "1_0", " 7 ", "1e400", "nan"]


@st.composite
def argv_tokens(draw):
    """A first token, mostly a subcommand, and `--name value` pairs of its
    own settings, with up to two tokens of any kind put in or swapped in."""
    command = draw(st.sampled_from([*COMMAND_SETTINGS, "frobnicate", "-h", "--"]))
    names = COMMAND_SETTINGS.get(command, ())
    own = [f"--{name}" for name in names] + ["--config"] if names else OPTION_STRINGS
    pairs = draw(st.lists(st.tuples(st.sampled_from(own), st.sampled_from(NUMBERS)), max_size=4))
    tokens = [command, *itertools.chain.from_iterable(pairs)]
    for _ in range(draw(st.integers(0, 2))):
        spoiler = draw(st.sampled_from(OPTION_STRINGS + ODD_TOKENS + VALUES))
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at + draw(st.integers(0, 1))] = [spoiler]
    return tokens


# argv shaped as the benchmark's and the panel script's calls
BENCH_ARGV = [
    ["sweep", "--J", "11.73", "--D", "6.0812", "--tmin", "1", "--tmax", "408.4",
     "--steps", "96", "--out", "sweep.csv"],
    ["critical", "--J", "11.73", "--D", "6.0812"],
    ["synth", "--J", "3.4", "--D", "0.0", "--T", "4.353", "--fwhm", "0.4353", "--noise", "0.05",
     "--seed", "123456789", "--emin", "0.8706", "--emax", "6.094", "--slope", "0.4594",
     "--intercept", "3", "--out", "spectrum.csv"],
    ["fit", "spectrum.csv"],
    ["iq", "--out", "iq.csv"],
    ["synth", "--antistokes", "--config", "run.conf", "--out", "mirror.csv"],
]
USAGE_ARGV = [
    ["critical", "--J", "notanumber"], ["sweep", "--tm", "1"], ["critical", "--D", "-2"],
    ["--help"], ["synth", "--help"], ["critical", "--J=3"], ["fit"], ["frobnicate"], [],
]


# Spellings at the edge of the table-driven parse, each checked every run:
# argparse reads a value of "-2" as a number but "-1e-3" as an option,
# takes "--st" for --steps but refuses the ambiguous "--tm", and reads
# "fit -" as the path "-".
EDGE_ARGV = [
    ["critical", "--D", "-2"], ["critical", "--J", "-1e-3"], ["critical", "--J", "-inf"],
    ["critical", "--J", "--D", "1"], ["critical", "--J"], ["critical", "--J=3"],
    ["critical", "--", "--J", "3"], ["critical", "-h"], ["critical", "--config", "--J"],
    ["critical", "--J", "nan", "--J", "3"], ["sweep", "--st", "5"], ["sweep", "--tm", "1"],
    ["sweep", "--steps", "1_0"], ["sweep", "--steps", "0.5"], ["synth", "--antistokes", "yes"],
    ["synth", "--antistokes", "--antistokes"], ["iq", "--out", ""], ["iq", "--out", "a b"],
    ["fit", "-"], ["fit", "-x"], ["fit", ""], ["fit", "a", "b"], ["fit"], ["--help"], [],
]


def argparse_namespace(argv):
    """The namespace argparse gives argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


def assert_agrees_with_argparse(argv):
    """Where the table-driven parse gives a namespace, argparse gives an
    equal one; where argparse exits, the table-driven parse gives None."""
    fast = cli._spelled_out(argv)
    slow = argparse_namespace(argv)
    if slow is None:
        assert fast is None
    if fast is not None:
        assert repr(fast) == repr(slow)  # NaN-aware


class TestSpelledOut:
    """The table-driven parse of spelled-out calls against argparse."""

    @settings(max_examples=500, deadline=None)
    @given(argv_tokens())
    def test_agrees_with_argparse(self, argv):
        assert_agrees_with_argparse(argv)

    @pytest.mark.parametrize("argv", EDGE_ARGV, ids=shlex.join)
    def test_agrees_with_argparse_at_the_edges(self, argv):
        assert_agrees_with_argparse(argv)

    def test_argparse_gives_the_same_outcomes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DIMERCORR_CONFIG", raising=False)
        argvs = [*readme_command_lines(), *BENCH_ARGV, *USAGE_ARGV]

        def outcomes(directory):
            directory.mkdir()
            (directory / "run.conf").write_text("J = 5.5\nD = 1.5\nfwhm = 0.8\n")
            monkeypatch.chdir(directory)
            codes_and_streams = [run(argv, capsys) for argv in argvs]
            return codes_and_streams, {path.name: path.read_bytes() for path in directory.iterdir()}

        fast = outcomes(tmp_path / "fast")
        monkeypatch.setattr(cli, "_spelled_out", lambda argv: None)
        assert outcomes(tmp_path / "argparse") == fast

    def test_bench_lines_build_no_parser(self, tmp_path, capsys, monkeypatch, build_count):
        monkeypatch.delenv("DIMERCORR_CONFIG", raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.conf").write_text("J = 5.5\n")
        for argv in BENCH_ARGV:
            assert run(argv, capsys)[0] == 0, argv
        assert build_count == []

    def test_panel_script_builds_no_parser(self, tmp_path, capsys, monkeypatch, build_count):
        script = Path(__file__).resolve().parents[1] / "scripts" / "correlation_panel.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--outdir", str(tmp_path)])
        runpy.run_path(str(script), run_name="__main__")
        assert len(list(tmp_path.glob("sweep_D*.csv"))) == 4
        assert build_count == []


def per_value_csv(header, rows):
    """The row formatting the CLI had before its one-template rows, kept as
    the reference: every value through float() and '.17g' on its own, flags
    as true/false."""
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                ("true" if v else "false") if isinstance(v, (bool, np.bool_))
                else f"{float(v):.17g}"
                for v in row
            )
        )
    return ("\n".join(lines) + "\n").encode()


# Floats whose 17-digit text is easy to get wrong: signed zero, subnormals,
# the ends of the normal range, and values that need all 17 digits.
AWKWARD_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, 0.1, 0.30000000000000004, 1 / 3,
    2.0 / 3.0, 9007199254740993.0, 1e23, 1e16, 123456789012345678.0, 0.5e-16,
    math.inf, -math.inf, math.nan,
]
ROW_FLOATS = st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats(), st.floats(-1e-300, 1e-300))


def table_rows(width):
    """Row counts of a `width`-column table on each side of the bulk
    formatter's threshold, and one far above it."""
    below = (csvtext.BULK_MIN_CELLS - 1) // width
    return [1, below, below + 1, 301]


def _powers_of_ten_and_neighbours():
    for exponent in range(-6, 18):
        power = 10.0**exponent
        yield from (power, math.nextafter(power, 0.0), math.nextafter(power, math.inf))


# Values the bulk formatter can get wrong: powers of ten and their neighbours
# (where log10 is off by one), both ends of its range, ties that %.17g
# rounds half to even (down, then up), signed zero, subnormals, nan and inf.
EDGE_FLOATS = [
    *_powers_of_ten_and_neighbours(),
    1e-4, math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0),
    1000000000000000.25, 1000000000000000.75, 562949953421312.125, 562949953421312.375,
    1 + 1 / 2**17, 1 + 3 / 2**17, 131073 / 2**18, 131075 / 2**18,
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.nan, math.inf, -math.inf,
]
EDGE_FLOATS += [-value for value in EDGE_FLOATS]


class TestRowFormatting:
    """Every CSV the CLI writes equals the per-value reference byte for byte."""

    @pytest.mark.parametrize("D", ["0", "4"])
    @pytest.mark.parametrize(
        "grid", [("1", "300", "300"), ("1e-3", "1e5", "400"), ("1", "300", "10")]
    )
    def test_sweep_equals_per_value_join(self, tmp_path, capsys, D, grid):
        tmin, tmax, steps = grid
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--J", "7.81", "--D", D, "--tmin", tmin, "--tmax", tmax,
                "--steps", steps, "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        panel = thermal_panel(
            DimerModel(J=7.81, D=float(D)),
            np.linspace(float(tmin), float(tmax), int(steps) + 1),
        )
        assert out.read_bytes() == per_value_csv(SWEEP_HEADER, zip(*panel))

    @pytest.mark.parametrize("D", ["0", "4"])
    def test_synth_equals_per_value_join(self, tmp_path, capsys, D):
        out = tmp_path / "spectrum.csv"
        argv = ["synth", "--J", "7.81", "--D", D, "--T", "30", "--fwhm", "0.7",
                "--noise", "0.05", "--seed", "11", "--amplitude", "12", "--slope", "0.2",
                "--intercept", "3", "--emin", "1e-3", "--emax", "20", "--epoints", "257",
                "--antistokes", "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        spectrum = synth_spectrum(
            SynthConfig(
                model=DimerModel(J=7.81, D=float(D)), T=30.0,
                lineshape=LineShape(fwhm=0.7), include_antistokes=True,
                background_slope=0.2, background_intercept=3.0, amplitude=12.0,
                noise_fraction=0.05, grid=(1e-3, 20.0, 257), rng_seed=11,
            )
        )
        expected = per_value_csv(
            "E_meV,intensity,sigma", zip(spectrum.energy, spectrum.intensity, spectrum.sigma)
        )
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("qmax,qsteps", [(3.0, 300), (40.0, 1000), (1e-300, 50)])
    def test_iq_equals_per_value_join(self, tmp_path, capsys, qmax, qsteps):
        out = tmp_path / "iq.csv"
        argv = ["iq", "--R", "4.43", "--qmax", repr(qmax), "--qsteps", str(qsteps),
                "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        q = np.linspace(0.0, qmax, qsteps + 1)
        interference = interference_factor(q, 4.43)
        factors = form_factor(q, default_form_factor())
        intensity = factors**2 * interference
        if intensity.max() > 0.0:
            intensity = intensity / intensity.max()
        expected = per_value_csv(
            "Q_invA,interference,form_factor,intensity",
            zip(q, interference, factors, intensity),
        )
        assert out.read_bytes() == expected

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(ROW_FLOATS, min_size=1, max_size=64),
        flags=st.lists(st.booleans(), min_size=1, max_size=16),
        rows=st.sampled_from(table_rows(8)),
    )
    def test_sweep_rows_equal_per_value_join(self, values, flags, rows):
        columns = np.resize(np.array(values), (8, rows))
        flag_columns = np.resize(np.array(flags), (2, rows))
        body = csvtext.format_rows(columns, flag_columns)
        assert body.encode() == per_value_csv("", zip(*columns, *flag_columns))[1:]

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(ROW_FLOATS, min_size=1, max_size=64),
        rows=st.sampled_from(table_rows(4)),
    )
    def test_float_rows_equal_per_value_join(self, values, rows):
        columns = np.resize(np.array(values), (4, rows))
        assert csvtext.format_rows(columns).encode() == per_value_csv("", zip(*columns))[1:]

    @pytest.mark.parametrize("rows", table_rows(1))
    def test_one_column_equals_per_value_join(self, rows):
        values = np.resize(np.array(EDGE_FLOATS), rows)
        assert csvtext.format_rows([values]).encode() == per_value_csv("", zip(values))[1:]

    @pytest.mark.parametrize(
        "argv",
        [["sweep"], ["sweep", "--D", "4"], ["iq"], ["synth", "--slope", "0.2", "--intercept", "3"]],
        ids=["sweep", "sweep-D4", "iq", "synth-background"],
    )
    def test_bulk_tables_rarely_take_the_fallback(self, tmp_path, capsys, monkeypatch, argv):
        # These tables hold no value below 1e-4, so the bulk digits serve
        # nearly every cell.  A bulk path that sends most cells to `%`
        # writes the same bytes at about three times the cost: only the
        # share of cells through the fallback shows it.
        fallback = []
        percent_texts = csvtext._percent_texts
        monkeypatch.setattr(csvtext, "_percent_texts",
                            lambda values: fallback.extend(values) or percent_texts(values))
        out = tmp_path / "table.csv"
        assert run([*argv, "--out", str(out)], capsys)[0] == 0
        cells = [cell for line in out.read_text().splitlines()[1:]
                 for cell in line.split(",") if cell not in ("true", "false")]
        assert len(cells) >= csvtext.BULK_MIN_CELLS
        assert len(fallback) <= 0.01 * len(cells)

    # Fast values whose largest integer part needs 0, 1, 2, 3 and 4 groups of
    # four digits (each top but 12345.5 just below a power of 10^4), and
    # values every layout writes through `%` (subnormals, signed zeros, 1e16
    # and above, nan, inf, just below 1e-4).
    GROUP_TOPS = [
        0.9999999999999999, 9999.999999999998, 99999999.99999999, 999999999999.9999,
        9999999999999998.0, 12345.5,
    ]
    SLOW_FLOATS = [
        5e-324, -2.2250738585072009e-308, 0.0, -0.0, 1e16, -1.2345678901234567e300,
        math.nan, math.inf, -math.inf, math.nextafter(1e-4, 0.0), -9.999999999999999e-05,
    ]

    @pytest.mark.parametrize("index", range(len(GROUP_TOPS)))
    @pytest.mark.parametrize("n_flags", [0, 2])
    def test_table_sized_layout_equals_per_value_join(self, index, n_flags):
        rng = np.random.default_rng(index)
        top = self.GROUP_TOPS[index]
        values = top * rng.uniform(1e-3, 1.0, (3, 301)) * rng.choice([-1.0, 1.0], (3, 301))
        values[:, :2] = [top, -top]  # the table's largest integer part
        values[:, 2 : 2 + len(self.SLOW_FLOATS)] = np.array(self.SLOW_FLOATS)[None, :]
        flags = rng.integers(0, 2, (n_flags, 301)).astype(bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = csvtext.format_rows(values, flags)
        assert body.encode() == per_value_csv("", zip(*values, *flags))[1:]
        cells = [line.split(",")[:3] for line in body.splitlines()]
        assert [cell for row in cells for cell in row] == ["%.17g" % x for x in values.T.ravel()]

    @pytest.mark.parametrize("rows", table_rows(4))
    def test_edge_values_equal_per_value_join(self, rows):
        values = np.resize(np.array(EDGE_FLOATS), (4, rows))
        flags = np.resize(np.array([True, False, False]), (1, rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = csvtext.format_rows(values, flags)
        assert body.encode() == per_value_csv("", zip(*values, *flags))[1:]



# The pool the fuzz draws every setting from: zeros of both signs, the
# smallest subnormal, powers of ten up to the float maximum, the non-finite
# values and small integers (the only values an int setting accepts).
FUZZ_POOL = [
    "0", "-0", "1", "-1", "5e-324", "1e-308", "1e154", "1e-154", "1e300", "1e-300",
    "1e308", "-1e308", "1.7976931348623157e308", "inf", "-inf", "nan", "2", "3", "7", "-3",
]


def fuzz_call(rng, directory, index):
    """argv of one drawn call, its output file (None if it writes none) and
    a description that shows every drawn value.  The call is a subcommand
    with 1-4 settings from FUZZ_POOL, each given as a flag or in a --config
    file; half the iq calls also read a fuzzed form-factor file; fit reads a
    40-row synth spectrum with 1-4 cells from the pool."""
    command = rng.choice(list(COMMAND_SETTINGS))
    out = directory / f"out{index}.csv"
    if command == "fit":
        spectrum = synth_spectrum(SynthConfig(
            model=DimerModel(J=7.81), T=10.0, lineshape=LineShape(fwhm=1.0),
            noise_fraction=0.05, grid=(2.0, 14.0, 40),
        ))
        rows = [row.split(",") for row in csvtext.format_rows(
            (spectrum.energy, spectrum.intensity, spectrum.sigma)).splitlines()]
        edits = [(rng.randrange(len(rows)), rng.randrange(3), rng.choice(FUZZ_POOL))
                 for _ in range(rng.randint(1, 4))]
        for row, column, value in edits:
            rows[row][column] = value
        out.write_text("E_meV,intensity,sigma\n" + "".join(",".join(r) + "\n" for r in rows))
        return [command, str(out)], None, f"fit with (row, column, value) cells {edits}"
    names = [name for name in COMMAND_SETTINGS[command] if name not in ("ffile", "out")]
    argv, config = [command], ""
    for name in rng.sample(names, rng.randint(1, min(4, len(names)))):
        value = rng.choice(FUZZ_POOL)
        if rng.random() < 0.5:
            config += f"{name} = {value}\n"
        elif name == "antistokes":
            argv.append("--antistokes")
        else:  # argparse takes a value that starts with '-' only after '='
            argv += [f"--{name}={value}"] if value.startswith("-") else [f"--{name}", value]
    ffile_rng = random.Random(index)  # its own, so the other settings keep their draws
    ffile = fuzz_form_factor(ffile_rng, directory, index) if command == "iq" else None
    if ffile is not None and ffile_rng.random() < 0.5:
        config += f"ffile = {ffile}\n"
    elif ffile is not None:
        argv += ["--ffile", str(ffile)]
    if config:
        path = directory / f"run{index}.conf"
        path.write_text(config)
        argv += ["--config", str(path)]
    shown = shlex.join(argv) + (f" with config {config!r}" if config else "")
    if ffile is not None:
        shown += f" and form factor {ffile.read_text()!r}"
    if "out" not in COMMAND_SETTINGS[command]:
        return argv, None, shown
    return argv + ["--out", str(out)], out, shown


def fuzz_form_factor(rng, directory, index):
    """For half the calls, the path of a form-factor file with 1-3 of the
    shipped V4+ coefficients replaced by values from FUZZ_POOL; else None."""
    if rng.random() < 0.5:
        return None
    coefficients = {name: repr(value) for name, value in vars(default_form_factor()).items()}
    for name in rng.sample(sorted(coefficients), rng.randint(1, 3)):
        coefficients[name] = rng.choice(FUZZ_POOL)
    path = directory / f"form{index}.txt"
    path.write_text("".join(f"{name} = {value}\n" for name, value in coefficients.items()))
    return path


def non_finite_numbers(text):
    """The values of a JSON object, or the cells of a CSV body, that are not
    finite numbers (JSON nulls and booleans and CSV flags aside)."""
    if text.startswith("{"):
        values = json.loads(text).values()
        return [v for v in values if not (v is None or isinstance(v, int) or math.isfinite(v))]
    cells = itertools.chain.from_iterable(line.split(",") for line in text.splitlines())
    return [c for c in cells if c not in ("true", "false") and not math.isfinite(float(c))]


class TestCliFuzz:
    """Every call gives finite output or a named refusal, and no warning.

    Checked on each drawn call: the exit code is 0, 1 or (for fit) 3; on
    exit 1 the last line of stderr names the error; a failed call leaves no
    output file; every number on stdout and in the output file is finite.
    Not yet checked: sweep's discord and mutual information >= 0 (ROADMAP
    item 13), as `sweep --tmax 1.7976931348623157e308` still writes
    -1.1e-322 in both.
    """

    SEED = 2131
    CALLS = 1200

    def test_every_subcommand(self, tmp_path, capsys):
        rng = random.Random(self.SEED)
        problems = []
        for index in range(self.CALLS):
            argv, out, shown = fuzz_call(rng, tmp_path, index)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(argv)
            except Exception as exc:  # a warning turned error, or an escaped exception
                capsys.readouterr()
                problems.append(f"{shown}: raised {exc!r}")
                continue
            stdout, stderr = capsys.readouterr()
            if code not in ((0, 1, 3) if argv[0] == "fit" else (0, 1)):
                problems.append(f"{shown}: exit {code}, stderr {stderr!r}")
            elif code == 1 and ": error: " not in stderr.splitlines()[-1]:
                problems.append(f"{shown}: exit 1 with no named error in {stderr!r}")
            elif code and out is not None and out.exists():
                problems.append(f"{shown}: exit {code} left its output file")
            elif code == 0:
                text = stdout if out is None else out.read_text().split("\n", 1)[1]
                if non_finite_numbers(text):
                    problems.append(f"{shown}: non-finite output {non_finite_numbers(text)}")
        assert not problems, "\n".join(problems[:10])
