"""Byte identity of the chunked text writers, and the grid file contracts."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from bundleqm.cli import RunConfig, cmd_simulate, write_pgm
from bundleqm.errors import ChargeMismatchError, GridFormatError
from bundleqm.sections import (ROW_CHUNK, GridSection, load_grid, read_grid_binary,
                               read_grid_csv, save_grid, write_grid_binary,
                               write_grid_csv, write_rows)

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0 ** 53, 0.1, 1 / 3]


def _rows_text(header, rows):
    fh = io.StringIO()
    write_rows(fh, header, np.asarray(rows, dtype=float))
    return fh.getvalue()


def _grid(charge=-1, n=9, m=11, seed=0):
    rng = np.random.default_rng(seed)
    return GridSection(x=np.linspace(-1.0, 1.0, n), p=np.linspace(-2.0, 2.0, m),
                       values=rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)),
                       charge=charge)


def _signed_zero_grid(charge):
    """A random grid whose even rows hold imaginary parts of -0.0 (a saved
    1-0j once loaded as 1+0j) and whose odd rows hold +0.0."""
    sec = _grid(charge=charge)
    sec.values.imag[::2] = -0.0
    sec.values.imag[1::2] = 0.0
    return sec


def _assert_round_trip_bit_exact(sec, path):
    save_grid(sec, path)
    back = load_grid(path)
    for part in ("x", "p", "values"):
        a, b = getattr(back, part), getattr(sec, part)
        assert a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()
    assert back.charge == sec.charge
    back.values[0, 0] = 2.0             # loaded values are writable


class TestRowWriter:
    def test_edge_values_match_reference(self):
        rows = np.array(EDGE_VALUES).reshape(-1, 1) * np.array([1.0, -1.0, 1.0])
        assert _rows_text("a,b,c", rows) == oracles.format_rows_reference("a,b,c", rows)
        assert "-0,0,-0\n" in _rows_text("a,b,c", rows)

    @pytest.mark.parametrize("n", [0, 1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1,
                                   2 * ROW_CHUNK + 3])
    def test_chunk_boundaries(self, n):
        rows = np.random.default_rng(n).normal(size=(n, 3)) * 10.0 ** np.arange(-3, 6, 4)
        assert _rows_text("u,v,w", rows) == oracles.format_rows_reference("u,v,w", rows)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_random_finite_arrays_match_reference(self, rows):
        assert _rows_text("h", rows) == oracles.format_rows_reference("h", rows)

    def test_integer_fields(self):
        pixels = np.array([[0, 7, 255], [255, 0, 13]], dtype=np.uint8)
        fh = io.StringIO()
        write_rows(fh, "P2\n3 2\n255", pixels, field="%d", sep=" ")
        assert fh.getvalue() == oracles.pgm_p2_reference(pixels)


class TestCommandBytes:
    @pytest.fixture(autouse=True)
    def out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BUNDLEQM_OUT", str(tmp_path / "out"))

    def test_simulate_reruns_match_reference(self):
        samples = ROW_CHUNK + 5
        first = cmd_simulate(RunConfig(), 1.2 - 0.4j, -1, 2.0, samples).read_bytes()
        path = cmd_simulate(RunConfig(), 1.2 - 0.4j, -1, 2.0, samples)
        assert path.read_bytes() == first
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (samples, 5)
        assert first.decode() == oracles.format_rows_reference("t,x,p,re_z,im_z", rows)

    def test_pgm_p2_bytes_unchanged(self, tmp_path):
        u = np.linspace(-3.0, 3.0, 37)
        field = np.exp(-np.add.outer(u ** 2, 0.5 * u ** 2))
        path = tmp_path / "q.pgm"
        write_pgm(path, field, ascii_mode=True)
        pixels = np.rint(255 * field / field.max()).astype(np.uint8)
        assert path.read_text() == oracles.pgm_p2_reference(pixels)


class TestGridCsv:
    def test_round_trip_bit_exact_with_charge(self, tmp_path):
        _assert_round_trip_bit_exact(_grid(charge=-1), tmp_path / "g.csv")
        _assert_round_trip_bit_exact(_signed_zero_grid(+1), tmp_path / "z.csv")

    def test_negative_zero_axis_round_trip(self, tmp_path):
        sec = GridSection(x=np.array([-1.0, -0.0, 1.0]), p=np.array([-0.0, 1.0, 2.0]),
                          values=np.ones((3, 3)), charge=+1)
        path = tmp_path / "g.csv"
        write_grid_csv(sec, path)
        back = read_grid_csv(path)
        assert back.x.tobytes() == sec.x.tobytes()
        assert back.p.tobytes() == sec.p.tobytes()

    def test_bytes_are_reference_plus_charge_column(self, tmp_path):
        sec = _grid(charge=-1)
        path = tmp_path / "g.csv"
        write_grid_csv(sec, path)
        X, P = np.meshgrid(sec.x, sec.p, indexing="ij")
        rows = np.column_stack([X.ravel(), P.ravel(), sec.values.real.ravel(),
                                sec.values.imag.ravel(), np.full(X.size, -1.0)])
        expect = oracles.format_rows_reference("x,p,re,im,charge", rows)
        assert path.read_text() == expect
        assert all(line.endswith(",-1") for line in expect.splitlines()[1:])

    def test_caller_charge_must_agree(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(_grid(charge=-1), path)
        assert read_grid_csv(path, charge=-1).charge == -1
        with pytest.raises(ChargeMismatchError):
            load_grid(path, charge=+1)

    def test_legacy_four_column_file(self, tmp_path):
        sec = _grid(charge=+1)
        X, P = np.meshgrid(sec.x, sec.p, indexing="ij")
        rows = np.column_stack([X.ravel(), P.ravel(), sec.values.real.ravel(),
                                sec.values.imag.ravel()])
        path = tmp_path / "old.csv"
        path.write_text(oracles.format_rows_reference("x,p,re,im", rows))
        assert read_grid_csv(path).charge == +1
        back = read_grid_csv(path, charge=-1)
        assert back.charge == -1
        assert np.array_equal(back.values, sec.values)

    def test_rows_not_x_major(self, tmp_path):
        sec = _grid()
        X, P = np.meshgrid(sec.x, sec.p, indexing="ij")
        rows = np.column_stack([X.T.ravel(), P.T.ravel(), sec.values.T.real.ravel(),
                                sec.values.T.imag.ravel(), np.full(X.size, -1.0)])
        path = tmp_path / "pmajor.csv"
        path.write_text(oracles.format_rows_reference("x,p,re,im,charge", rows))
        with pytest.raises(GridFormatError):
            read_grid_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(_grid(), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GridFormatError):
            read_grid_csv(path)

    def test_mixed_charges(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(_grid(charge=-1), path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5][:-len(",-1")] + ",1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GridFormatError):
            read_grid_csv(path)

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(GridFormatError):
            read_grid_csv(path)


class TestGridBinary:
    def _write(self, tmp_path, charge=-1):
        path = tmp_path / "g.bqgs"
        write_grid_binary(_grid(charge=charge), path)
        return path

    def test_round_trip_bit_exact_with_charge(self, tmp_path):
        _assert_round_trip_bit_exact(_grid(charge=-1), tmp_path / "g.bqgs")
        _assert_round_trip_bit_exact(_signed_zero_grid(+1), tmp_path / "z.bqgs")

    def test_caller_charge_must_agree(self, tmp_path):
        path = self._write(tmp_path)
        assert load_grid(path, charge=-1).charge == -1
        with pytest.raises(ChargeMismatchError):
            load_grid(path, charge=+1)

    def test_bad_magic(self, tmp_path):
        path = self._write(tmp_path)
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(GridFormatError):
            read_grid_binary(path)

    def test_bad_version(self, tmp_path):
        path = self._write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<H", 99) + data[6:])
        with pytest.raises(GridFormatError):
            read_grid_binary(path)

    @pytest.mark.parametrize("keep", [0, 10, 16, 100, -8])
    def test_truncated(self, tmp_path, keep):
        path = self._write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:keep])
        with pytest.raises(GridFormatError):
            read_grid_binary(path)
