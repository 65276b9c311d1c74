"""Byte identity of the chunked text writers, and the grid file contracts."""

import io
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from bundleqm.cli import RunConfig, cmd_simulate, write_pgm
from bundleqm.errors import ChargeMismatchError, GridFormatError
from bundleqm.sections import (_KERNEL_VALUES, FLOAT_FORMAT, GridSection,
                               _decimal_digits, _text_tables, load_grid, read_grid_binary,
                               read_grid_csv, save_grid, write_grid_binary,
                               write_grid_csv, write_rows)

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0 ** 53, 0.1, 1 / 3]
# rows of 3 values per call of the float kernel
KERNEL_ROWS = _KERNEL_VALUES // 3


def _rows_text(header, rows):
    fh = io.StringIO()
    write_rows(fh, header, rows)
    return fh.getvalue()


def _percent_text(header, rows):
    """The rows as FLOAT_FORMAT % v formats each value, the oracle of the
    float kernel."""
    return header + "\n" + "".join(",".join(FLOAT_FORMAT % v for v in row) + "\n"
                                   for row in np.asarray(rows).tolist())


def _assert_like_percent(values, cols=3):
    """Format values (both signs, `cols` to a row) and compare with `%`."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, -values])
    rows = values[:values.size - values.size % cols].reshape(-1, cols)
    assert _rows_text("v", rows) == _percent_text("v", rows)


def _undecided(values):
    return _decimal_digits(np.asarray(values, dtype=float), _text_tables()[0])[2]


def _scaled(v):
    """v * 10**s exactly, with s = 16 - the decimal exponent of v's first
    digit, so the product lies in [1e16, 1e17); and s."""
    s = 16 - math.floor(math.log10(abs(v)))
    while True:
        x = Fraction(abs(v)) * Fraction(10) ** s
        if x < 10 ** 16:
            s += 1
        elif x >= 10 ** 17:
            s -= 1
        else:
            return x, s


def _near_ties():
    """Floats v whose 17-digit product v * 10**s is within 2**-46 of a rounding
    tie while 10**s is not a float (s outside 0..22).  With v = m / 2**(c + s)
    the product is m 5**s / 2**c, and with v = m 2**(j + n), s = -n, it is
    m 2**j / 5**n; m is solved modulo 2**c or 5**n for a fractional part of
    1/2 + r / 2**c or 1/2 + (2r + 1) / (2 * 5**n), r small."""
    out = []
    for s, c in ((23, 50), (24, 50), (24, 52)):
        inv = pow(5 ** s, -1, 2 ** c)
        lo = -(-10 ** 16 * 2 ** c // 5 ** s)
        for r in range(-4, 5):
            m = (2 ** (c - 1) + r) * inv % 2 ** c
            m += -(-(lo - m) // 2 ** c) * 2 ** c        # the first such m >= lo
            out.append(math.ldexp(m, -(c + s)))
    for n in (21, 22):
        j = math.ceil(math.log2(11.2 * 5 ** n))         # product < 1e17 for m < 2**53
        inv = pow(2 ** j, -1, 5 ** n)
        lo = -(-10 ** 16 * 5 ** n // 2 ** j)
        for r in range(-4, 4):
            m = ((5 ** n - 1) // 2 - r) * inv % 5 ** n
            m += -(-(lo - m) // 5 ** n) * 5 ** n
            out.append(math.ldexp(m, j + n))
    return out


def _edge_table():
    """Powers of ten from 1e-300 to 1e300 (as 10.0 ** e and as the literal)
    with both neighbours, 2**53 and its neighbours, the 1e16 and 1e17 edges,
    the %g switch from the fixed to the e form near 1e-4 and 1e17, a signed
    zero, NaN and inf."""
    exps = range(-300, 301)
    powers = np.concatenate([10.0 ** np.arange(-300, 301), [float(f"1e{e}") for e in exps]])
    specials = [2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1e16, 1e17, 99999999999999990.0,
                99999999999999984.0, 1.0000000000000002e17, 1e-4, 9.9999999999999991e-05,
                1.0000000000000001e-04, 0.00010000000000000002, 1e-5, 1.5e-5,
                -0.0, np.nan, np.inf]
    values = np.concatenate([powers, specials])
    return np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])


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

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8195, KERNEL_ROWS - 1,
                                   KERNEL_ROWS, KERNEL_ROWS + 1])
    def test_chunk_boundaries(self, n):
        rows = np.random.default_rng(n).normal(size=(n, 3)) * 10.0 ** np.arange(-3, 6, 4)
        assert _rows_text("u,v,w", rows) == oracles.format_rows_reference("u,v,w", rows)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_random_finite_arrays_match_reference(self, rows):
        assert _rows_text("h", rows) == oracles.format_rows_reference("h", rows)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    def test_other_dtypes_are_written_as_float64(self, dtype):
        # the kernel's arithmetic assumes float64: float16 or longdouble
        # values reaching it unconverted come out wrong without an error
        rows = np.array([[0.1, -2.5], [1e-3, 1 / 3]], dtype=dtype)
        assert _rows_text("h", rows) == _percent_text("h", rows.astype(np.float64))

    def test_lists_are_written_as_float64(self):
        assert _rows_text("h", [[1, -2], [0, 7]]) == "h\n1,-2\n0,7\n"


class TestFloatKernel:
    """The numpy float formatter against `%`, its oracle."""

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
           st.integers(1, 4))
    def test_raw_bit_patterns_match_percent(self, bits, cols):
        # integers viewed as float64 reach subnormals and every exponent
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        rows = values[:values.size - values.size % cols].reshape(-1, cols)
        text = _rows_text("h", rows)
        assert text == _percent_text("h", rows)
        assert text == oracles.format_rows_reference("h", rows)

    def test_edge_table_matches_percent(self):
        _assert_like_percent(_edge_table())

    def test_near_ties_are_left_to_percent(self):
        values = np.array(_near_ties())
        for v in values:
            x, s = _scaled(v)
            assert not 0 <= s <= 22
            assert abs(x - math.floor(x) - Fraction(1, 2)) < Fraction(1, 2 ** 46)
        assert _undecided(np.concatenate([values, -values])).all()
        _assert_like_percent(values)

    def test_exact_ties_are_decided_half_even(self):
        # m / 2**(s + 1), m odd, is a tie at an exact power 10**s
        values = []
        for s in range(12, 23):
            m = -(-2 * 10 ** 16 // 5 ** s) | 1          # product >= 1e16
            values += [math.ldexp(m + 2 * i, -(s + 1)) for i in range(4)]
        for v in values:
            x, s = _scaled(v)
            assert x - math.floor(x) == Fraction(1, 2) and 0 <= s <= 22
        assert not _undecided(values).any()
        _assert_like_percent(values)

    def test_decade_edges_are_decided(self):
        # the powers of ten and their neighbours need no `%` (inside the range
        # the kernel scales, |v| about 1e-290..1e290)
        values = _edge_table()
        values = values[(np.abs(values) >= 1e-289) & (np.abs(values) <= 1e289)]
        assert not _undecided(values).any()


class TestCommandBytes:
    @pytest.fixture(autouse=True)
    def out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BUNDLEQM_OUT", str(tmp_path / "out"))

    def test_simulate_reruns_match_reference(self):
        samples = 4101
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

    @pytest.mark.parametrize("shape", [(16, 16), (8, 32), (256, 1)])
    def test_pgm_p2_ramp_uses_every_pixel_value(self, tmp_path, shape):
        ramp = np.arange(256, dtype=float).reshape(shape)
        path = tmp_path / "ramp.pgm"
        write_pgm(path, ramp, ascii_mode=True)
        pixels = ramp.astype(np.uint8)
        assert path.read_bytes() == oracles.pgm_p2_reference(pixels).encode()

    def test_pgm_p2_blank_field(self, tmp_path):
        path = tmp_path / "blank.pgm"
        write_pgm(path, np.zeros((3, 5)), ascii_mode=True)
        assert path.read_bytes() == oracles.pgm_p2_reference(np.zeros((3, 5), np.uint8)).encode()
        assert path.read_bytes() == b"P2\n5 3\n255\n" + b"0 0 0 0 0\n" * 3

    def test_pgm_p2_one_column(self, tmp_path):
        field = np.array([[0.0], [0.5], [1.0]])
        path = tmp_path / "column.pgm"
        write_pgm(path, field, ascii_mode=True)
        assert path.read_bytes() == b"P2\n1 3\n255\n0\n128\n255\n"
        assert path.read_bytes() == oracles.pgm_p2_reference(
            np.array([[0], [128], [255]], np.uint8)).encode()


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
