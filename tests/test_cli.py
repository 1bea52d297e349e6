import argparse
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimercorr import (
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
from dimercorr import cli
from dimercorr.cli import SWEEP_HEADER, main, read_spectrum_csv
from dimercorr.fitting import FitError


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

    def test_unwritable_path_exits_2(self, capsys):
        code, _, err = run(
            ["sweep", "--steps", "2", "--tmax", "10", "--out", "/nonexistent/dir/x.csv"],
            capsys,
        )
        assert code == 2

    def test_bad_grid_exits_1(self, tmp_path, capsys):
        code, _, _ = run(
            ["sweep", "--tmin", "10", "--tmax", "5", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 1


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

    def test_iq_rejects_nan_form_factor_coefficient(self, tmp_path, capsys):
        ffile = tmp_path / "nan.txt"
        ffile.write_text("A = 1\na = nan\nB = 0\nb = 0\nC = 0\nc = 0\nD0 = 0\n")
        out = tmp_path / "iq.csv"
        code, _, err = run(["iq", "--ffile", str(ffile), "--out", str(out)], capsys)
        assert code == 1
        assert "a must be a finite real" in err
        assert not out.exists()

    def test_fit_names_the_line_of_a_nan_cell(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        rows = ["E_meV,intensity,sigma"] + [f"{e},1.0,0.1" for e in range(12)]
        rows[8] = "7.0,nan,0.1"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(["fit", str(path)], capsys)
        assert code == 1
        assert "non-finite value at line 9" in err

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
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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
    st.sampled_from(["nan", "inf", "-inf", "x", "", " 1.5 ", "1e999", "E_meV"]),
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

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["critical", "--config", str(tmp_path / "none.conf")], capsys)
        assert code == 2

    def test_missing_out_exits_1(self, capsys):
        code, _, err = run(["sweep", "--steps", "2", "--tmax", "10"], capsys)
        assert code == 1
        assert "output path" in err


# The settings each subcommand takes, as flag and config key names.
MODEL_SETTINGS = ("J", "D", "R")
COMMAND_SETTINGS = {
    "sweep": MODEL_SETTINGS + ("tmin", "tmax", "steps", "out"),
    "critical": MODEL_SETTINGS,
    "synth": MODEL_SETTINGS + (
        "T", "fwhm", "noise", "seed", "amplitude", "slope", "intercept",
        "emin", "emax", "epoints", "antistokes", "out",
    ),
    "fit": (),
    "iq": MODEL_SETTINGS + ("ffile", "qmax", "qsteps", "out"),
}
DEFAULTS = {
    "J": 7.81, "D": 0.0, "R": 4.43, "tmin": 1.0, "tmax": 300.0, "steps": 300,
    "T": 10.0, "fwhm": 1.0, "noise": 0.05, "seed": 0, "amplitude": 10.0,
    "slope": 0.0, "intercept": 0.0, "emin": 2.0, "emax": 14.0, "epoints": 200,
    "antistokes": False, "ffile": None, "qmax": 3.0, "qsteps": 300, "out": None,
}


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
        ffile.write_text("A = 0.6\na = 10\nB = 0.4\nb = 3\nC = 0\nc = 1\nD0 = 0\n")
        out = tmp_path / "out.csv"
        values = {
            "J": "5.5", "D": "1.5", "R": "3.9", "tmin": "2", "tmax": "150", "steps": "40",
            "T": "20", "fwhm": "0.8", "noise": "0.1", "seed": "9", "amplitude": "12",
            "slope": "0.1", "intercept": "2", "emin": "-8", "emax": "12", "epoints": "90",
            "antistokes": "yes", "ffile": str(ffile), "qmax": "2.5", "qsteps": "50",
            "out": str(out),
        }
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


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DIMERCORR_CONFIG", raising=False)
    commands = readme_command_lines()
    assert {argv[0] for argv in commands} == set(COMMAND_SETTINGS)
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_bad_flag_value_exits_1(self, capsys):
        assert run(["critical", "--J", "notanumber"], capsys)[0] == 1

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "dimercorr", "critical", "--J", "7.81"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert abs(json.loads(result.stdout)["tc_entanglement_K"] - 82.496) < 0.01


class TestParserReuse:
    """`main` reuses one parser per process; nothing keyed on a call's
    inputs may carry over to the next call."""

    @pytest.fixture
    def build_count(self, monkeypatch):
        calls = []
        real = cli.build_parser

        def counting():
            calls.append(1)
            return real()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        yield calls
        cli._parser.cache_clear()

    def test_parser_is_built_once_across_calls(self, build_count, capsys):
        for J in ("7.81", "3.905", "15.62"):
            assert run(["critical", "--J", J], capsys)[0] == 0
        assert run(["critical", "--J", "notanumber"], capsys)[0] == 1
        assert run(["critical"], capsys)[0] == 0
        assert len(build_count) == 1

    def test_parser_is_not_built_at_import(self):
        script = (
            "from dimercorr import cli\n"
            "assert cli._parser.cache_info().currsize == 0\n"
            "assert cli.main(['critical']) == 0\n"
            "assert cli._parser.cache_info().currsize == 1\n"
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


class TestRowFormatting:
    """Every CSV the CLI writes equals the per-value reference byte for byte."""

    @pytest.mark.parametrize("D", ["0", "4"])
    @pytest.mark.parametrize("grid", [("1", "300", "300"), ("1e-3", "1e5", "400")])
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
                lineshape=LineShape(fwhm=0.7, include_antistokes=True),
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
        values=st.lists(ROW_FLOATS, min_size=8, max_size=8),
        flags=st.tuples(st.booleans(), st.booleans()),
    )
    def test_sweep_template_equals_per_value_join(self, values, flags):
        row = cli._SWEEP_ROW % (*values, *(cli._FLAG_TEXT[flag] for flag in flags))
        assert (row + "\n").encode() == per_value_csv("", [[*values, *flags]])[1:]

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(ROW_FLOATS, min_size=4, max_size=4))
    def test_float_template_equals_per_value_join(self, values):
        row = ",".join(["%.17g"] * 4) % tuple(values)
        assert (row + "\n").encode() == per_value_csv("", [values])[1:]
