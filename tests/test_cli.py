import json

import numpy as np
import pytest

from bundleqm.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, ConfigError,
                          RunConfig, canonical_json, cmd_husimi, cmd_simulate,
                          cmd_spectrum, format_float, main)
from bundleqm.errors import InvalidChargeError


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("BUNDLEQM_OUT", str(tmp_path / "out"))
    return tmp_path / "out"


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.params.w2 == 1.0

    def test_unread_fields_are_unknown_keys(self, tmp_path, capsys):
        # grid_points, fock_truncation and quad_order were never read by a
        # command; a config file naming one is rejected like any unknown key.
        for key, value in (("grid_points", 257), ("fock_truncation", 32),
                           ("quad_order", 128)):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({key: value}))
            with pytest.raises(ConfigError, match=key):
                RunConfig.load(path)
            assert main(["--config", str(path), "spectrum", "--n-max", "1"]) == EXIT_USAGE
            assert "unknown config keys" in capsys.readouterr().err

    def test_positivity(self):
        with pytest.raises(ConfigError):
            RunConfig(m=0.0)

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"mass": 2.0}')
        with pytest.raises(ConfigError):
            RunConfig.load(path)

    def test_load(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"omega": 2.0, "tolerances": {"ccr": 0.01}}')
        config = RunConfig.load(path)
        assert config.omega == 2.0
        assert config.tolerance("ccr", 1e-3) == 0.01
        assert config.tolerance("other", 1e-3) == 1e-3


class TestSerialization:
    def test_float_formatting(self):
        assert format_float(0.5) == "0.5"
        assert format_float(1e-300) == "1e-300"
        # 17 significant digits round-trip exactly
        x = 1.0 / 3.0
        assert float(format_float(x)) == x

    def test_canonical_json_sorted_and_stable(self):
        doc = {"b": [1.5, 2], "a": {"y": True, "x": None}}
        text = canonical_json(doc)
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == doc


class TestSpectrumCommand:
    def test_levels_written(self):
        path = cmd_spectrum(RunConfig(), 2)
        doc = json.loads(path.read_text())
        particle = [row for row in doc if row["q_v"] == 1]
        assert [row["E"] for row in particle] == [0.5, 1.5, 2.5]
        anti = [row for row in doc if row["q_v"] == -1]
        assert [row["q_l"] for row in anti] == [0, -1, -2]

    def test_n_max_zero(self):
        doc = json.loads(cmd_spectrum(RunConfig(omega=3.0), 0).read_text())
        assert len(doc) == 2
        assert all(row["E"] == 1.5 for row in doc)

    def test_omega2_n3(self):
        doc = json.loads(cmd_spectrum(RunConfig(omega=2.0), 3).read_text())
        assert [row for row in doc if row["n"] == 3][0]["E"] == 7.0

    def test_byte_identical_reruns(self):
        first = cmd_spectrum(RunConfig(), 5).read_bytes()
        second = cmd_spectrum(RunConfig(), 5).read_bytes()
        assert first == second

    def test_main_exit_codes(self):
        assert main(["spectrum", "--n-max", "4"]) == EXIT_OK
        assert main(["spectrum", "--n-max", "-1"]) == EXIT_USAGE


class TestSimulateCommand:
    def test_closed_trajectory_and_winding(self, capsys):
        path = cmd_simulate(RunConfig(), 1.0 + 0j, +1, 1.0, 257)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (257, 5)
        assert np.max(np.abs(rows[0, 1:] - rows[-1, 1:])) < 1e-9
        assert "winding number: 1" in capsys.readouterr().out

    def test_antiparticle_two_periods(self, capsys):
        cmd_simulate(RunConfig(), 1.0 + 0j, -1, 2.0, 513)
        assert "winding number: -2" in capsys.readouterr().out

    def test_x_p_columns_solve_the_oscillator(self):
        # x(t) = x0 cos(wt) + v0 sin(wt)/w for charge +1
        config = RunConfig(omega=2.0)
        params = config.params
        x0, p0 = 1.0, 0.5
        z0 = (x0 - 1j * params.w2 * p0) / np.sqrt(2.0)
        path = cmd_simulate(config, z0, +1, 1.0, 101)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        t = rows[:, 0]
        v0 = p0 / params.m
        expected_x = x0 * np.cos(params.omega * t) + v0 * np.sin(params.omega * t) / params.omega
        expected_p = p0 * np.cos(params.omega * t) - params.m * params.omega * x0 * np.sin(params.omega * t)
        assert np.max(np.abs(rows[:, 1] - expected_x)) < 1e-12
        assert np.max(np.abs(rows[:, 2] - expected_p)) < 1e-12

    def test_excluded_origin(self):
        assert main(["simulate", "--z0", "0j"]) == EXIT_USAGE

    @pytest.mark.parametrize("bad", [2, 0, True, 1.0])
    def test_invalid_charge_is_typed_and_writes_nothing(self, out_dir, bad):
        with pytest.raises(InvalidChargeError):
            cmd_simulate(RunConfig(), 1.0 + 0j, bad, 1.0, 17)
        assert not out_dir.exists()

    def test_invalid_charge_exits_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--z0", "1", "--charge", "2"])
        assert exc.value.code == EXIT_USAGE

    def test_open_run_reports_no_winding(self, capsys):
        cmd_simulate(RunConfig(), 1.0 + 0j, +1, 0.5, 65)
        assert "winding number: n/a" in capsys.readouterr().out


class TestHusimiCommand:
    def test_vacuum_peaks_at_center(self):
        # odd resolution puts a grid point exactly at the origin
        path = cmd_husimi(RunConfig(), 0, +1, 65)
        sidecar = json.loads((path.parent / "husimi.json").read_text())
        assert sidecar["max_radius_sq"] == pytest.approx(0.0, abs=1e-12)
        assert sidecar["max_value"] == pytest.approx(1 / np.pi, rel=1e-10)

    def test_excited_state_ring(self):
        path = cmd_husimi(RunConfig(), 4, +1, 257)
        sidecar = json.loads((path.parent / "husimi.json").read_text())
        cell = sidecar["cell"]
        assert abs(np.sqrt(sidecar["max_radius_sq"]) - 2.0) <= np.sqrt(2) * cell

    def test_pgm_headers(self, out_dir):
        p5 = cmd_husimi(RunConfig(), 1, +1, 32)
        assert p5.read_bytes().startswith(b"P5\n32 32\n255\n")
        p2 = cmd_husimi(RunConfig(), 1, +1, 32, ascii_mode=True)
        text = p2.read_text()
        assert text.startswith("P2\n32 32\n255\n")
        assert max(int(v) for v in text.split()[4:]) == 255

    def test_resolution_floor(self):
        assert main(["husimi", "--n", "1", "--resolution", "8"]) == EXIT_USAGE

    @pytest.mark.parametrize("bad", [2, 0, True, 1.0])
    def test_invalid_charge_is_typed_and_writes_nothing(self, out_dir, bad):
        with pytest.raises(InvalidChargeError):
            cmd_husimi(RunConfig(), 1, bad, 32)
        assert not out_dir.exists()


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "holonomy"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_unknown_suite(self):
        assert main(["verify", "--suite", "nope"]) == EXIT_USAGE

    def test_tolerance_override_can_fail_a_suite(self, tmp_path, capsys):
        config = tmp_path / "strict.json"
        config.write_text('{"tolerances": {"ccr": 0.0}}')
        assert main(["--config", str(config), "verify", "--suite", "ccr"]) == EXIT_CHECK_FAILED
        assert "[FAIL]" in capsys.readouterr().out

    def test_report_written(self, out_dir, capsys):
        assert main(["verify", "--suite", "husimi"]) == EXIT_OK
        reports = list(out_dir.glob("verify-*/report.json"))
        assert len(reports) == 1
        doc = json.loads(reports[0].read_text())
        assert all(row["passed"] for row in doc)

    def test_bad_config_file(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert main(["--config", str(config), "verify", "--suite", "ccr"]) == EXIT_USAGE


class TestOutputLayout:
    def test_env_override_and_stamping(self, out_dir):
        path = cmd_spectrum(RunConfig(output_dir="ignored"), 1)
        assert str(path).startswith(str(out_dir))
        assert path.parent.name.startswith("spectrum-")

    def test_distinct_args_get_distinct_stamps(self):
        a = cmd_spectrum(RunConfig(), 1)
        b = cmd_spectrum(RunConfig(), 2)
        assert a.parent != b.parent
