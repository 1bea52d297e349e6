import json
import subprocess
import sys

import numpy as np
import pytest

from dimercorr import DimerModel, LineShape, SynthConfig, synth_spectrum
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

    def test_three_decimal_formatting(self, capsys):
        _, out, _ = run(["critical", "--J", "7.81"], capsys)
        assert out.strip() == (
            '{"tc_entanglement_K": 82.496, "tc_chsh_K": 38.302, "t_cross_K": 53.783}'
        )

    def test_doubling_J_doubles_tc(self, capsys):
        _, out, _ = run(["critical", "--J", "15.62", "--D", "0"], capsys)
        assert abs(json.loads(out)["tc_entanglement_K"] - 165.0) <= 0.2

    def test_ferromagnetic_exits_1(self, capsys):
        code, _, err = run(["critical", "--J", "-7.81"], capsys)
        assert code == 1
        assert "error" in err


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

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["critical", "--config", str(tmp_path / "none.conf")], capsys)
        assert code == 2

    def test_missing_out_exits_1(self, capsys):
        code, _, err = run(["sweep", "--steps", "2", "--tmax", "10"], capsys)
        assert code == 1
        assert "output path" in err


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
