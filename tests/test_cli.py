import functools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bundleqm.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE,
                          ConfigError, RunConfig, canonical_json, cmd_husimi,
                          cmd_simulate, cmd_spectrum, main)
from bundleqm import bundles, checks, cli, orbifold, oscillator, polarizations
from bundleqm.errors import (BundleqmError, DecayViolationError, InvalidChargeError,
                             NonFiniteError)
from bundleqm.oscillator import husimi_levels


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

    @pytest.mark.parametrize("config, command, args, name", [
        (RunConfig(), "verify", {"suite": "all"}, "verify-e59147a8aa"),
        (RunConfig(), "spectrum", {"n_max": 10}, "spectrum-2d72896738"),
        # a numpy sign is stored as the int it stands for
        (RunConfig(frequency_sign=np.int8(1)), "verify", {"suite": "all"}, "verify-e59147a8aa"),
        # numpy numbers are stored as the floats they stand for
        (RunConfig(m=np.float32(1.0)), "verify", {"suite": "all"}, "verify-e59147a8aa"),
        (RunConfig(grid_half_width=np.int64(8)), "verify", {"suite": "all"}, "verify-e59147a8aa"),
    ], ids=["verify", "spectrum", "numpy sign", "numpy m", "numpy grid_half_width"])
    def test_run_stamps_are_pinned(self, out_dir, config, command, args, name):
        # the stamp names the output directory: a changed stamp renames them all
        assert cli.run_directory(config, command, args) == out_dir / name

    def test_int_beyond_2_53_stamps_as_its_float(self, out_dir):
        # an int field is stored as a float: 2**62 stamps as 4.6116860184273879e+18,
        # and 2**62 + 1, which a float cannot hold, as the float it rounds to
        configs = [RunConfig(m=m) for m in (2 ** 62, 2 ** 62 + 1, float(2 ** 62))]
        assert configs[0] == configs[1] == configs[2] and type(configs[0].m) is float
        assert {cli.run_directory(c, "verify", {"suite": "all"}) for c in configs} == {
            out_dir / "verify-de8043339f"}

    def test_positivity(self):
        with pytest.raises(ConfigError):
            RunConfig(m=0.0)

    @pytest.mark.parametrize("text", ['{"m": Infinity}', '{"omega": NaN}'])
    def test_non_finite_parameters(self, tmp_path, monkeypatch, capsys, text):
        # husimi never builds OscillatorParams, so only the config check stops it
        monkeypatch.setenv("BUNDLEQM_OUT", str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="finite"):
            RunConfig.load(path)
        assert main(["--config", str(path), "husimi", "--n", "1"]) == EXIT_USAGE
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # each factor is finite and positive, but m*omega under- or overflows:
    # simulate once ended in a ZeroDivisionError or wrote inf into its CSV
    @pytest.mark.parametrize("doc", [{"m": 1e-200, "omega": 1e-200},
                                     {"m": 1e300, "omega": 1e300}])
    def test_derived_scales_out_of_range_exit_usage(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        env = dict(os.environ, BUNDLEQM_OUT=str(tmp_path / "out"),
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        done = subprocess.run([sys.executable, "-m", "bundleqm.cli", "--config", str(path),
                               "simulate", "--z0", "1"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_USAGE
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "m*omega" in done.stderr and "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"mass": 2.0}')
        with pytest.raises(ConfigError):
            RunConfig.load(path)

    def test_load(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"omega": 2.0, "grid_half_width": 6}')
        config = RunConfig.load(path)
        assert config == RunConfig(omega=2.0, grid_half_width=6)


class TestConfigContract:
    @pytest.mark.parametrize("text, message", [
        ('{"m": "1"}', "m must be a number"),
        # ints that a float cannot hold once ended in an OverflowError traceback
        pytest.param('{"m": 1' + "0" * 400 + '}', "m is outside the float range",
                     id="m=10**400"),
        pytest.param('{"m": 1' + "0" * 200 + ', "omega": 1' + "0" * 200 + '}', "m*omega",
                     id="m=omega=10**200"),
        pytest.param('{"grid_half_width": 1' + "0" * 400 + '}',
                     "grid_half_width is outside the float range", id="grid_half_width=10**400"),
        ('{"omega": true}', "omega must be a number"),
        ('{"grid_half_width": "8"}', "grid_half_width must be a number"),
        ('{"grid_half_width": Infinity}', "grid_half_width must be finite"),
        ('{"frequency_sign": 3}', "frequency_sign must be the integer +1 or -1"),
        ('{"frequency_sign": 1.0}', "frequency_sign must be the integer +1 or -1"),
        ('{"output_dir": 3}', "output_dir must be a string"),
        ('[]', "must hold a JSON object"),
        ('"out"', "must hold a JSON object"),
        ('{"m": 1', "is not valid JSON"),
    ])
    def test_invalid_config_exits_usage_with_one_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            RunConfig.load(path)
        assert main(["--config", str(path), "spectrum", "--n-max", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"m": "\xff"}')
        assert main(["--config", str(path), "spectrum", "--n-max", "1"]) == EXIT_USAGE
        assert "is not valid JSON" in capsys.readouterr().err

    def test_config_error_is_a_bundleqm_error(self):
        assert issubclass(ConfigError, BundleqmError)


CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2))
CONFIG_FIELDS = {
    "m": CONFIG_VALUES,
    "omega": CONFIG_VALUES,
    "grid_half_width": CONFIG_VALUES,
    "frequency_sign": st.one_of(st.sampled_from([1, -1]), CONFIG_VALUES),
    # relative, so a run that passes the checks writes under the working directory
    "output_dir": st.one_of(st.just("out"), CONFIG_VALUES.filter(
        lambda v: not isinstance(v, str))),
}


@settings(deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.fixed_dictionaries({}, optional=CONFIG_FIELDS))
def test_any_config_object_exits_ok_or_usage(doc, tmp_path, monkeypatch):
    monkeypatch.delenv("BUNDLEQM_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "spectrum", "--n-max", "1"]) in (EXIT_OK, EXIT_USAGE)


class TestSerialization:
    def test_canonical_json_sorted_and_stable(self):
        doc = {"b": [1.5, 2, 0.5, 1e-300, 1.0 / 3.0], "a": {"y": True, "x": None}}
        text = canonical_json(doc)
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == doc
        assert canonical_json(0.5) == "0.5"
        assert canonical_json(1e-300) == "1e-300"

    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_canonical_json_floats_round_trip(self, x):
        # 17 significant digits round-trip every finite float64, -0.0 included
        back = float(canonical_json(x))
        assert back == x and np.signbit(back) == np.signbit(x)


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

    def test_sample_floor(self, out_dir):
        assert main(["simulate", "--z0", "1", "--samples", "1"]) == EXIT_USAGE
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad", [2, 0, True, 1.0])
    def test_invalid_charge_is_typed_and_writes_nothing(self, out_dir, bad):
        with pytest.raises(InvalidChargeError):
            cmd_simulate(RunConfig(), 1.0 + 0j, bad, 1.0, 17)
        assert not out_dir.exists()

    def test_invalid_charge_exits_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--z0", "1", "--charge", "2"])
        assert exc.value.code == EXIT_USAGE

    # each of these once wrote nan rows into trajectory.csv and exited 0
    @pytest.mark.parametrize("args", [["--z0", "1", "--periods", "nan"],
                                      ["--z0", "1", "--periods", "inf"],
                                      ["--z0", "1", "--periods", "1e308"],
                                      ["--z0", "nan+1j"]])
    def test_non_finite_input_exits_usage(self, out_dir, capsys, args):
        assert main(["simulate"] + args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("charge", [+1, -1])
    @pytest.mark.parametrize("resolution", [256, 257])
    @pytest.mark.parametrize("n", [0, 4, 30, 128])
    def test_field_matches_the_radial_form(self, monkeypatch, n, resolution, charge):
        # the field the command writes is Q_n of the eigenstate n: within
        # 4(n + 1) units of the last place of husimi_levels' radial form
        # wherever it is at least 1e-290, and the sidecar states its values
        fields = []
        write_pgm = cli.write_pgm
        monkeypatch.setattr(cli, "write_pgm", lambda path, field2d, ascii_mode=False:
                            fields.append(field2d) or write_pgm(path, field2d, ascii_mode))
        path = cmd_husimi(RunConfig(), n, charge, resolution)
        q, = fields
        u = np.linspace(-8.0, 8.0, resolution)
        *_, radial = husimi_levels(n, u, u)
        held = q >= 1e-290
        assert np.all(np.abs(radial - q)[held] <= 4 * (n + 1) * 2.0 ** -52 * q[held])
        assert np.all(radial[~held] <= 2e-290)
        sidecar = json.loads((path.parent / "husimi.json").read_text())
        i, j = np.unravel_index(int(np.argmax(q)), q.shape)
        assert [sidecar["min_value"], sidecar["max_value"]] == [q.min(), q.max()]
        assert sidecar["max_location"] == [u[i], u[j]] and sidecar["cell"] == u[1] - u[0]
        assert abs(np.sqrt(sidecar["max_radius_sq"]) - np.sqrt(n)) <= np.sqrt(2) * sidecar["cell"]

    def test_pgm_headers(self, out_dir):
        p5 = cmd_husimi(RunConfig(), 1, +1, 32)
        assert p5.read_bytes().startswith(b"P5\n32 32\n255\n")
        p2 = cmd_husimi(RunConfig(), 1, +1, 32, ascii_mode=True)
        text = p2.read_text()
        assert text.startswith("P2\n32 32\n255\n")
        assert max(int(v) for v in text.split()[4:]) == 255

    def test_non_finite_field_exits_usage(self, tmp_path, out_dir, capsys):
        # |z'|^600 overflows on [-30, 30]^2: the command once wrote a garbage
        # PGM and "max_value": nan, and exited 0
        config = tmp_path / "wide.json"
        config.write_text('{"grid_half_width": 30}')
        argv = ["--config", str(config), "husimi", "--n", "300", "--resolution", "64"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: Husimi field must be finite\n"
        assert not out_dir.exists()

    def test_resolution_floor(self):
        assert main(["husimi", "--n", "1", "--resolution", "8"]) == EXIT_USAGE

    @pytest.mark.parametrize("bad", [2, 0, True, 1.0])
    def test_invalid_charge_is_typed_and_writes_nothing(self, out_dir, bad):
        with pytest.raises(InvalidChargeError):
            cmd_husimi(RunConfig(), 1, bad, 32)
        assert not out_dir.exists()


# Each once leaked numpy's allocation error as a traceback with exit code 1.
# The cap is checked before anything is allocated, so these allocate nothing.
@pytest.mark.parametrize("argv", [
    ["husimi", "--n", "4", "--resolution", "100000"],
    ["husimi", "--n", "4", "--resolution", "2049"],
    ["husimi", "--n", "1000000000"],
    ["simulate", "--z0", "1", "--samples", "1000000000"],
    ["simulate", "--z0", "1", "--samples", str(2 ** 22 + 1)],
], ids=["husimi resolution 1e5", "husimi resolution 2049", "husimi n 1e9",
        "simulate samples 1e9", "simulate samples 2**22+1"])
def test_oversized_inputs_exit_usage(out_dir, capsys, argv):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "over the cap of 4194304" in err
    assert not out_dir.exists()


# Arguments under the sample cap that the commands still refuse, with exit 2
# and no run directory: a Husimi ring beyond the grid's corners (once a blank
# PGM and exit 0) and a spectrum over its level cap (once minutes of work).
@pytest.mark.parametrize("argv, message", [
    (["husimi", "--n", "1000"], "lies beyond the corners of the grid [-8, 8]^2"),
    (["spectrum", "--n-max", "1000000000"], "over the cap of 65536"),
], ids=["husimi n 1000", "spectrum n-max 1e9"])
def test_refused_inputs_exit_usage(out_dir, capsys, argv, message):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out_dir.exists()


def test_husimi_ring_at_the_grid_corners_is_drawn(out_dir):
    # n = 2 * 8^2 puts the ring through the corners of the default grid
    path = cmd_husimi(RunConfig(), 128, +1, 32)
    assert json.loads((path.parent / "husimi.json").read_text())["max_value"] > 0


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", sorted(checks.SUITES))
    def test_single_suite_passes(self, capsys, suite):
        # a suite run alone prints the lines it prints in the `all` run
        assert main(["verify", "--suite", suite]) == EXIT_OK
        *alone, summary = capsys.readouterr().out.splitlines(keepends=True)
        assert alone and all(line.startswith("[PASS] ") for line in alone)
        assert summary == f"{len(alone)}/{len(alone)} checks passed\n"
        assert main(["verify", "--suite", "all"]) == EXIT_OK
        assert "\n" + "".join(alone) in "\n" + capsys.readouterr().out

    # omega = 0.2 puts the spectrum suite's n = 10 turning point beyond x = 10
    @pytest.mark.parametrize("doc", [{"omega": 0.5}, {"omega": 2}, {"m": 4},
                                     {"m": 0.25, "omega": 3}, {"omega": 0.2},
                                     {"frequency_sign": -1}])
    def test_all_suites_pass_at_other_scales(self, tmp_path, capsys, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "verify"]) == EXIT_OK
        assert "[FAIL]" not in capsys.readouterr().out

    @settings(deadline=None)
    @given(decades=st.sampled_from([3.0, 60.0]), data=st.data())
    def test_resized_grids_keep_their_margins(self, decades, data):
        # the round trip, the cone loops and the coordinate matrix run on grids
        # sized in units of w, well inside their bounds at (m, omega)
        # log-uniform over [1e-3, 1e3] and [1e-60, 1e60]; pytest's settings
        # make any warning an error
        exponent = st.floats(-decades, decades)
        m, omega = (10.0 ** data.draw(exponent, label=label) for label in ("m", "omega"))
        config = RunConfig(m=m, omega=omega)
        round_trip = checks.suite_bargmann(config)[2]
        assert round_trip.name == "bargmann round-trip norm error"
        assert round_trip.measured <= 1e-14
        holonomy = checks.suite_holonomy(config)
        assert len(holonomy) == 10 and max(c.measured for c in holonomy) <= 1e-14
        matrix = checks.suite_spectrum(config)[1]
        assert matrix.name == "spectrum coordinate matrix: max eigenvalue error"
        assert matrix.measured <= 0.2 * checks.TOLERANCES["spectrum_matrix"]

    def test_unknown_suite(self, out_dir, capsys):
        assert main(["verify", "--suite", "nope"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown suite 'nope'")
        assert not out_dir.exists()

    def test_report_written(self, out_dir, capsys):
        assert main(["verify", "--suite", "husimi"]) == EXIT_OK
        reports = list(out_dir.glob("verify-*/report.json"))
        assert len(reports) == 1
        doc = json.loads(reports[0].read_text())
        assert all(row["passed"] for row in doc)

    def test_gauge_curvature_is_extrapolated(self):
        # the raw curvature on the 51^2 probe reads 3.4e-4: only Richardson's
        # step with the 26^2 subgrid brings it below 2e-5
        results = checks.suite_gauge(RunConfig())
        values = [c.measured for c in results if c.name.endswith("|comm/psi + i|")]
        assert len(values) == 4 and max(values) < 2e-5

    def test_gauge_probe_and_subgrid_show_second_order(self):
        # the premise of the extrapolation: curvature_numeric's error falls
        # as h^2 from the 26^2 subgrid to the 51^2 probe
        fine = checks._symmetric_probe()
        coarse = bundles.GridSection(fine.x[::2], fine.p[::2], fine.values[::2, ::2])
        for _, conn in checks._gauge_family():
            err_coarse, err_fine = (abs(bundles.curvature_numeric(conn, g) + 1j)
                                    for g in (coarse, fine))
            assert np.log2(err_coarse / err_fine) >= 1.9

    def test_tolerances_key_exits_usage(self, tmp_path, out_dir, capsys):
        # verify's bounds are pinned in checks.TOLERANCES: a config file once
        # could loosen them, even to Infinity, and turn a FAIL into exit 0
        config = tmp_path / "loose.json"
        config.write_text('{"tolerances": {}}')
        assert main(["--config", str(config), "verify", "--suite", "ccr"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: unknown config keys: ['tolerances']\n"
        assert not out_dir.exists()

    def test_non_finite_measurement_writes_no_report(self, out_dir, monkeypatch, capsys):
        monkeypatch.setitem(checks.SUITES, "ccr",
                            lambda config: [checks.Check("ccr nan", float("nan"), 1e-3)])
        assert main(["verify", "--suite", "ccr"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, np.float64(np.inf)])
    def test_canonical_json_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteError):
            canonical_json({"a": [1.0, bad]})

    def test_bad_config_file(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert main(["--config", str(config), "verify", "--suite", "ccr"]) == EXIT_USAGE


class TestVerifyRunsInOrder:
    """verify runs its suites one after another on the calling thread, in
    sorted name order, with no thread of its own; the first suite that
    raises ends the run."""

    @staticmethod
    def _verify(monkeypatch, tmp_path, capsys, run="run", suite="all"):
        monkeypatch.setenv("BUNDLEQM_OUT", str(tmp_path / run))
        code = main(["verify", "--suite", suite])
        out, err = capsys.readouterr()
        reports = list((tmp_path / run).glob("verify-*/report.json"))
        return code, out, err, [r.read_bytes() for r in reports]

    @staticmethod
    def _record(monkeypatch, raising=()):
        """Replace every suite with one that records its name and thread, and
        raises if named in `raising`."""
        taken = []

        def record(name):
            def suite(config):
                taken.append((name, threading.current_thread()))
                if name in raising:
                    raise DecayViolationError(f"injected in {name}")
                return []
            return suite

        for name in checks.SUITES:
            monkeypatch.setitem(checks.SUITES, name, record(name))
        return taken

    def test_output_bytes_do_not_depend_on_the_core_count(self, tmp_path, monkeypatch,
                                                          capsys):
        runs = [self._verify(monkeypatch, tmp_path, capsys, run) for run in ("a", "b")]
        assert runs[0][0] == EXIT_OK and len(runs[0][3]) == 1
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_every_suite_runs_on_the_calling_thread(self, tmp_path, monkeypatch, capsys,
                                                    traced):
        taken = self._record(monkeypatch)
        if traced:      # a call tracer wraps the commands, as bench/tracing.py does
            verify = cli.cmd_verify
            monkeypatch.setattr(cli, "cmd_verify",
                                functools.wraps(verify)(lambda *args: verify(*args)))
        before = threading.active_count()
        code, out, _err, reports = self._verify(monkeypatch, tmp_path, capsys)
        assert code == EXIT_OK and len(reports) == 1 and out == "0/0 checks passed\n"
        assert taken == [(name, threading.current_thread()) for name in sorted(checks.SUITES)]
        assert threading.active_count() == before

    def test_raising_suite_gives_one_error_line(self, tmp_path, monkeypatch, capsys):
        taken = self._record(monkeypatch, raising=("gauge",))
        code, out, err, reports = self._verify(monkeypatch, tmp_path, capsys)
        assert code == EXIT_USAGE and out == "" and reports == []
        assert err == "error: injected in gauge\n"
        # the suites after it in name order do not run
        names = sorted(checks.SUITES)
        assert [name for name, _ in taken] == names[:names.index("gauge") + 1]

    @pytest.mark.parametrize("first, second", [("gauge", "spectrum"), ("bargmann", "ccr")])
    def test_first_raising_suite_in_name_order_is_reported(self, tmp_path, monkeypatch,
                                                           capsys, first, second):
        self._record(monkeypatch, raising=(first, second))
        code, _out, err, _reports = self._verify(monkeypatch, tmp_path, capsys)
        assert code == EXIT_USAGE and err == f"error: injected in {first}\n"

    def test_check_faults_fail_verify(self, tmp_path, monkeypatch, capsys):
        # the connection's sign flipped makes the curvature +1 (gauge suite), and
        # x and p swapped make [p, x] = +i (ccr suite)
        monkeypatch.setattr(bundles, "vacuum_connection", lambda: bundles.GaugeConnection(
            a_x=lambda x, p: -0.5 * p, a_p=lambda x, p: 0.5 * x))
        canonical = bundles.canonical_operators
        monkeypatch.setattr(bundles, "canonical_operators", lambda rep: canonical(rep)[::-1])
        code, out, _err, reports = self._verify(monkeypatch, tmp_path, capsys)
        assert code == EXIT_CHECK_FAILED and len(reports) == 1
        assert "[FAIL] curvature vacuum" in out
        assert "[FAIL] ccr coordinate charge +1" in out

    @staticmethod
    def _drop_last_bargmann_term(monkeypatch):
        inverse = polarizations.bargmann_inverse

        def dropped(state, x, params):
            coeffs = state.coeffs.copy()
            coeffs[-1] = 0.0
            return inverse(polarizations.FockState(coeffs, state.charge), x, params)
        monkeypatch.setattr(polarizations, "bargmann_inverse", dropped)

    @staticmethod
    def _holonomy_off_by_one_degree(monkeypatch):
        transport = orbifold.levi_civita_transport

        def moved(result):
            angle = (result.holonomy_angle + np.deg2rad(1.0)) % (2 * np.pi)
            return result._replace(holonomy_angle=angle)

        def shifted(loop, n):
            results = transport(loop, n)
            return tuple(map(moved, results)) if type(n) is tuple else moved(results)
        monkeypatch.setattr(orbifold, "levi_civita_transport", shifted)

    @staticmethod
    def _scaled_coordinate_matrix(monkeypatch):
        matrix = oscillator.coordinate_hamiltonian_matrix
        monkeypatch.setattr(oscillator, "coordinate_hamiltonian_matrix",
                            lambda *args, **kwargs: matrix(*args, **kwargs) * (1 + 1e-6))

    @pytest.mark.parametrize("fault, failing", [
        (_drop_last_bargmann_term, ["bargmann round-trip norm error"]),
        (_holonomy_off_by_one_degree,
         [f"holonomy n={n} {loop}: |angle - defect|"
          for n in (2, 3, 5) for loop in ("circle", "square", "ellipse")]),
        (_scaled_coordinate_matrix, ["spectrum coordinate matrix: max eigenvalue error"]),
    ], ids=["bargmann term dropped", "holonomy off by a degree", "matrix scaled by 1+1e-6"])
    def test_resized_grid_checks_see_their_faults(self, tmp_path, monkeypatch, capsys,
                                                  fault, failing):
        # the round trip, the cone loops and the coordinate matrix run on grids
        # sized to their bounds; each still fails on a fault in what it measures
        fault(monkeypatch)
        code, out, _err, reports = self._verify(monkeypatch, tmp_path, capsys)
        assert code == EXIT_CHECK_FAILED and len(reports) == 1
        failed = {row["name"] for row in json.loads(reports[0]) if not row["passed"]}
        assert failed >= set(failing)
        for name in failing:
            assert f"[FAIL] {name}: " in out


class TestOutputLayout:
    def test_env_override_and_stamping(self, out_dir):
        path = cmd_spectrum(RunConfig(output_dir="ignored"), 1)
        assert str(path).startswith(str(out_dir))
        assert path.parent.name.startswith("spectrum-")

    def test_distinct_args_get_distinct_stamps(self):
        a = cmd_spectrum(RunConfig(), 1)
        b = cmd_spectrum(RunConfig(), 2)
        assert a.parent != b.parent
