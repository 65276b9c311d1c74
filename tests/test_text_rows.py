"""Byte identity of the chunked text writers, and the grid file contracts."""

import io
import math
import os
import struct
import tempfile
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from bundleqm.cli import RunConfig, cmd_simulate, write_pgm
from bundleqm.errors import BundleqmError, ChargeMismatchError, GridFormatError
from bundleqm.sections import (_KERNEL_VALUES, FLOAT_FORMAT, GridSection,
                               _decimal_digits, _text_tables, load_grid, read_grid_binary,
                               read_grid_csv, save_grid, write_grid_binary,
                               write_grid_csv, write_rows)

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0 ** 53, 0.1, 1 / 3]
# Row counts at a block edge of write_rows, which formats _KERNEL_VALUES //
# columns rows at a time, each with the number of columns that puts it within
# 3 rows of an edge: blocks of 4096 rows of 2 columns or 682 rows of 12.
BLOCK_EDGE_COLUMNS = {0: 3, 1: 3, 681: 12, 682: 12, 683: 12,
                      4095: 2, 4096: 2, 4097: 2, 8195: 2}


def _rows_text(header, rows):
    fh = io.BytesIO()
    write_rows(fh, header, rows)
    return fh.getvalue().decode("ascii")


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


def _grid_reference(sec):
    """The grid CSV as the oracle formats it: five columns, one row per point."""
    X, P = np.meshgrid(sec.x, sec.p, indexing="ij")
    rows = np.column_stack([X.ravel(), P.ravel(), sec.values.real.ravel(),
                            sec.values.imag.ravel(), np.full(X.size, float(sec.charge))])
    return oracles.format_rows_reference("x,p,re,im,charge", rows)


@st.composite
def _axes(draw, n):
    """n uniform samples k, k + 1, ... times a scale, some scales so extreme
    that the axis records are left to `%`; where the axis crosses 0, the
    zero may be -0.0."""
    scale = draw(st.sampled_from([1.0, 1e-300, 3e-299, 1e295, 5e-324])
                 | st.floats(1e-3, 1e3))
    first = draw(st.integers(-(n - 1), 3))
    axis = scale * np.arange(first, first + n, dtype=float)
    if draw(st.booleans()):
        axis[axis == 0] = -0.0
    return axis


@st.composite
def _grids(draw, max_side=40):
    """Grid sections of 3 to max_side samples a side at either charge, with
    re and im parts drawn as raw float64 bit patterns (those of NaN and inf
    moved to finite values by clearing one exponent bit)."""
    nx, np_ = draw(st.integers(3, max_side)), draw(st.integers(3, max_side))
    bits = draw(hnp.arrays(np.uint64, (nx, np_, 2)))
    bits[~np.isfinite(bits.view(np.float64))] ^= np.uint64(1 << 62)
    return GridSection(x=draw(_axes(nx)), p=draw(_axes(np_)),
                       values=bits.view(np.complex128).reshape(nx, np_),
                       charge=draw(st.sampled_from([1, -1])))


# Texts a grid CSV field may be changed to: numbers of other spellings, the
# 57-byte exact decimal of 0.1, texts over 24 bytes whose first 25 or 3
# bytes read as another number, non-finite values, charges, a NUL, a blank,
# and a text that is not a number.
FIELD_TEXTS = ["0", "-0", "+0", "1", "-1", "+1", "1.0", "1e0", " 1", "1 ", "-1.0",
               "0.1000000000000000055511151231257827021181583404541015625",
               "1" + "0" * 24 + "e-24", "-1.5", "nan", "-nan", "inf", "-inf", "1\0", "",
               " ", "x"]
NOT_ASCII_DIGITS = ["\u0661", "\uff15", "\u00b2"]     # Arabic-Indic 1, fullwidth 5, superscript 2


def _respellings(text):
    """Texts of the same number as a %.17g text: a trailing zero, an
    exponent, a sign, a blank on either side, the sign of a zero flipped
    (none for a text that is not a number)."""
    try:
        zero = float(text) == 0
    except ValueError:
        return []
    mant, e, exp = text.partition("e")
    out = [mant + ("0" if "." in mant else ".0") + e + exp, " " + text, text + " ",
           text + "e0" if not e else f"{mant}E{exp}"]
    if not text.startswith("-"):
        out.append("+" + text)
    if zero:
        out.append(text[1:] if text.startswith("-") else "-" + text)
    return out


@st.composite
def _mutations(draw, rows):
    """One change to the rows of a grid CSV (a header and lists of fields)."""
    body = rows[1:]
    r = draw(st.integers(0, len(body) - 1))
    kind = draw(st.sampled_from(["field", "run", "digit", "neighbour", "swap", "repeat",
                                 "drop", "ragged", "legacy", "shape"]))
    if kind in ("field", "run", "digit", "neighbour"):
        c = draw(st.integers(0, len(rows[0]) - 1))
        old = body[r][c]
        if kind == "neighbour":     # moves the edge of an x-row where c is x
            new = body[max(r - 1, 0) if draw(st.booleans()) else min(r + 1, len(body) - 1)][c]
        elif kind == "digit":
            digits = [i for i, ch in enumerate(old) if ch.isdigit()] or [0]
            i = draw(st.sampled_from(digits))
            new = old[:i] + draw(st.sampled_from(NOT_ASCII_DIGITS)) + old[i + 1:]
        else:
            new = draw(st.sampled_from(FIELD_TEXTS + _respellings(old)))
        # one field, or every field of the column that holds the same text
        for row in (body if kind == "run" else [body[r]]):
            if row[c] == old:
                row[c] = new
    elif kind == "swap":
        s = draw(st.integers(0, len(body) - 1))
        body[r], body[s] = body[s], body[r]
    elif kind == "repeat":
        body.insert(r, list(body[r]))
    elif kind == "drop" and len(body) > 1:
        del body[r]
    elif kind == "ragged":
        body[r] = body[r][:-1] if draw(st.booleans()) else body[r] + ["0"]
    elif kind == "legacy" and rows[0][-1] == "charge":
        for row in rows:
            del row[4:]
    elif kind == "shape":
        # a 1 x N, N x 1 or 1 x 1 grid: the first x-row, the first row of each
        # x-row, or the first row
        first_x = [row for row in body if row[0] == body[0][0]]
        n = len(first_x)
        body[:] = draw(st.sampled_from([first_x, body[::n], body[:1]]))
    return rows


def _read_outcome(read, path):
    """What a grid reader loads, as bits (x, p, values, charge), or the class
    of the BundleqmError it raises; numpy's warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sec = read(path)
        except BundleqmError as err:
            return type(err)
    return sec.x.tobytes(), sec.p.tobytes(), sec.values.tobytes(), sec.charge


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

    @pytest.mark.parametrize("n", sorted(BLOCK_EDGE_COLUMNS))
    def test_chunk_boundaries(self, n):
        cols = BLOCK_EDGE_COLUMNS[n]
        block = _KERNEL_VALUES // cols
        assert n < 2 or min(n % block, -n % block) <= 3     # still at a block edge
        rows = (np.random.default_rng(n).normal(size=(n, cols))
                * 10.0 ** (4 * (np.arange(cols) % 3) - 3))
        header = ",".join(f"c{j}" for j in range(cols))
        assert _rows_text(header, rows) == oracles.format_rows_reference(header, rows)

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
        expect = _grid_reference(sec)
        assert path.read_text() == expect
        assert all(line.endswith(",-1") for line in expect.splitlines()[1:])

    @settings(max_examples=60, deadline=None)
    @given(_grids())
    def test_any_grid_matches_reference(self, sec):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.csv"
            write_grid_csv(sec, path)
            assert path.read_text() == _grid_reference(sec)

    # the writer formats at most _KERNEL_VALUES // 2 re/im pairs at a time
    @pytest.mark.parametrize("nx, np_, charge", [
        (3, _KERNEL_VALUES // 2 + 3, -1),
        (3, _KERNEL_VALUES + 1, +1),
        (4, _KERNEL_VALUES // 2, +1),
        (2 * (_KERNEL_VALUES // 80) + 5, 40, -1),
    ], ids=["row wider than a block", "row over two blocks", "row fills a block",
            "rows past two blocks"])
    def test_block_edges_match_reference(self, tmp_path, nx, np_, charge):
        rng = np.random.default_rng(nx * np_)
        sec = GridSection(x=np.linspace(-1.0, 1.0, nx), p=np.linspace(-2.0, 2.0, np_),
                          values=rng.normal(size=(nx, np_)) + 1j * rng.normal(size=(nx, np_)),
                          charge=charge)
        path = tmp_path / "g.csv"
        write_grid_csv(sec, path)
        assert path.read_text() == _grid_reference(sec)

    def test_non_contiguous_values(self, tmp_path):
        sec = _grid(n=11, m=9)
        sec = sec.like(np.asfortranarray(sec.values))
        path = tmp_path / "g.csv"
        write_grid_csv(sec, path)
        assert not sec.values.flags.c_contiguous
        assert path.read_text() == _grid_reference(sec)

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
        with pytest.raises(GridFormatError) as err:
            read_grid_csv(path)
        assert str(err.value) == f"{path}: unrecognised grid CSV header 'a,b'"

    @settings(deadline=None)
    @given(_grids(max_side=6), st.data())
    def test_changed_files_read_as_every_field_parsed_as_float(self, sec, data):
        # the reader parses each distinct x, p and charge text once; on any
        # file it loads the bits, or raises the error class, of the reader
        # that parses every field
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.csv"
            save_grid(sec, path)
            rows = [line.split(",") for line in path.read_text().splitlines()]
            for _ in range(data.draw(st.integers(1, 3))):
                rows = data.draw(_mutations(rows))
            path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
            assert (_read_outcome(read_grid_csv, path)
                    == _read_outcome(oracles.read_grid_csv_reference, path))

    @pytest.mark.parametrize("x_text", ["-1.0", "-1e0", "-1" + "0" * 30 + "e-30"])
    def test_respelled_x_row_loads_as_parsed(self, tmp_path, x_text):
        # the texts of the first x-row respelled, one of them 35 bytes long:
        # its first 25 bytes, all the reader keeps of a text, read -1e24
        sec = _grid(charge=-1)
        path = tmp_path / "g.csv"
        save_grid(sec, path)
        text = path.read_text().replace("\n-1,", f"\n{x_text},")
        path.write_text(text)
        back = read_grid_csv(path)
        assert back.x[0] == float(x_text) and back.x[1:].tobytes() == sec.x[1:].tobytes()
        assert _read_outcome(read_grid_csv, path) == _read_outcome(
            oracles.read_grid_csv_reference, path)

    @pytest.mark.parametrize("column", [0, 1, 4])
    def test_blank_column_is_refused(self, tmp_path, column):
        path = tmp_path / "g.csv"
        save_grid(_grid(), path)
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[column] = ""
        path.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
        with pytest.raises(GridFormatError, match="could not convert"):
            read_grid_csv(path)

    def test_two_texts_of_one_x_are_one_x_row(self, tmp_path):
        # "1" and "1.0" read as one x, so the float read finds the rows of
        # two x-rows under one x and refuses them
        path = tmp_path / "g.csv"
        path.write_text("x,p,re,im,charge\n" + "".join(f"{x},{p},0,0,1\n" for x in ("1", "1.0")
                                                      for p in (0, 1, 2)))
        with pytest.raises(GridFormatError, match="x-major"):
            read_grid_csv(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_pipe_is_read_once(self, tmp_path):
        # a pipe cannot be read again, so the reader takes it as floats at once
        sec = _grid(charge=-1)
        save_grid(sec, tmp_path / "g.csv")
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        loaded = []
        threads = [threading.Thread(target=pipe.write_bytes, daemon=True,
                                    args=((tmp_path / "g.csv").read_bytes(),)),
                   threading.Thread(target=lambda: loaded.append(read_grid_csv(pipe)),
                                    daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)    # a second open would block
        back, = loaded
        assert back.values.tobytes() == sec.values.tobytes() and back.charge == -1

    def test_nul_in_an_axis_text_is_refused(self, tmp_path):
        # a text field would drop the NUL and read "1"; the float read refuses it
        path = tmp_path / "g.csv"
        save_grid(_grid(), path)
        path.write_text(path.read_text().replace("\n1,", "\n1\0,"))
        with pytest.raises(GridFormatError, match="could not convert"):
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
