"""Typed errors for invalid charges, non-finite samples, malformed grids and
closed loops."""

import numpy as np
import pytest

from bundleqm.classical import ClassicalState, closed_loop_ratios, winding_number
from bundleqm.errors import (BundleqmError, GridFormatError, InvalidChargeError,
                             NonFiniteError, OpenCurveError, UndersampledError,
                             ZeroCrossingError)
from bundleqm.orbifold import levi_civita_transport
from bundleqm.oscillator import eigenstate
from bundleqm.polarizations import FockState
from bundleqm.sections import (GridSection, LineSection, check_charge, read_grid_binary,
                               read_grid_csv, write_grid_binary, write_grid_csv)

AXIS = np.linspace(-1.0, 1.0, 3)

BAD_CHARGES = [True, False, 1.0, -1.0, 0, 2, -2, np.float64(1.0), "1", None]


def _grid(charge=+1):
    return GridSection(x=AXIS, p=AXIS, values=np.ones((3, 3)), charge=charge)


class TestCharge:
    @pytest.mark.parametrize("bad", BAD_CHARGES)
    def test_rejects_all_but_integer_unit(self, bad):
        with pytest.raises(InvalidChargeError):
            check_charge(bad)

    @pytest.mark.parametrize("good", [1, -1, np.int64(1), np.int32(-1), np.int8(1)])
    def test_accepts_integer_unit(self, good):
        q = check_charge(good)
        assert q == good and type(q) is int

    @pytest.mark.parametrize("bad", [True, 1.0, 0, 2])
    def test_containers_reject(self, bad):
        with pytest.raises(InvalidChargeError):
            _grid(charge=bad)
        with pytest.raises(InvalidChargeError):
            LineSection(axis="x", coords=AXIS, values=np.ones(3), charge=bad)
        with pytest.raises(InvalidChargeError):
            FockState([1.0], charge=bad)
        with pytest.raises(InvalidChargeError):
            ClassicalState(1.0 + 0j, charge=bad)
        with pytest.raises(InvalidChargeError):
            eigenstate(1, charge=bad)

    def test_loader_caller_charge(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(_grid(), path)
        with pytest.raises(InvalidChargeError):
            read_grid_csv(path, charge=2)

    def test_is_a_bundleqm_error(self):
        assert issubclass(InvalidChargeError, BundleqmError)
        assert issubclass(NonFiniteError, BundleqmError)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_containers(self, bad):
        values = np.ones((3, 3), dtype=complex)
        values[1, 2] = bad
        with pytest.raises(NonFiniteError):
            GridSection(x=AXIS, p=AXIS, values=values)
        with pytest.raises(NonFiniteError):
            LineSection(axis="p", coords=AXIS, values=values[1])
        with pytest.raises(NonFiniteError):
            FockState(values[1])

    def test_non_contiguous_values(self):
        values = np.ones((3, 3), dtype=complex)
        assert GridSection(x=AXIS, p=AXIS, values=values.T).values.shape == (3, 3)
        values[0, 2] = np.nan
        with pytest.raises(NonFiniteError):
            GridSection(x=AXIS, p=AXIS, values=values.T)

    def test_csv_with_one_nan(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(_grid(), path)
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = "nan"
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteError):
            read_grid_csv(path)

    def test_binary_with_one_nan(self, tmp_path):
        path = tmp_path / "g.bqgs"
        write_grid_binary(_grid(-1), path)
        buf = bytearray(path.read_bytes())
        buf[-8:] = np.array([np.nan]).astype("<f8").tobytes()
        path.write_bytes(bytes(buf))
        with pytest.raises(NonFiniteError):
            read_grid_binary(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)])
    def test_loops(self, bad):
        loop = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 65))
        loop[10] = bad
        with pytest.raises(NonFiniteError):
            winding_number(loop)
        with pytest.raises(NonFiniteError):
            levi_civita_transport(loop, 3)


class TestGridFormat:
    def test_csv_with_one_x_moved(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(_grid(), path)
        text = path.read_text().replace("\n1,", "\n1.5,")
        assert text.count("\n1.5,") == 3
        path.write_text(text)
        with pytest.raises(GridFormatError):
            read_grid_csv(path)

    def test_non_uniform_axes(self):
        with pytest.raises(GridFormatError):
            GridSection(x=[-1.0, 0.0, 1.5], p=AXIS, values=np.ones((3, 3)))
        with pytest.raises(GridFormatError):
            GridSection(x=AXIS, p=AXIS[::-1], values=np.ones((3, 3)))
        with pytest.raises(GridFormatError):
            LineSection(axis="x", coords=[0.0, 1.0, 3.0], values=np.ones(3))

    def test_shape_mismatch(self):
        with pytest.raises(GridFormatError):
            GridSection(x=AXIS, p=AXIS, values=np.ones((3, 4)))
        with pytest.raises(GridFormatError):
            LineSection(axis="x", coords=AXIS, values=np.ones(4))


# (samples, what winding_number returns or raises, the loop_winding that
# levi_civita_transport returns or what it raises); the errors are those the
# two functions raised before they shared closed_loop_ratios.  Transport does
# not bound the angular step, so an undersampled closed loop still passes.
CIRCLE = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 65))
LOOP_CASES = [
    ([1.0 + 0j], OpenCurveError, OpenCurveError),
    ([], OpenCurveError, OpenCurveError),
    ([1.0, 1.0], 0, OpenCurveError),
    ([0.0, 0.0, 0.0], ZeroCrossingError, ZeroCrossingError),
    ([1.0, 0.0, 1.0], ZeroCrossingError, ZeroCrossingError),
    ([1.0, 1e-12, 1.0], ZeroCrossingError, ZeroCrossingError),
    ([1.0, 1j, -1.0], OpenCurveError, OpenCurveError),
    (CIRCLE[:60], OpenCurveError, OpenCurveError),
    ([1.0, -1.0, 1.0], UndersampledError, 0),
    (np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 3)), UndersampledError, 1),
    ([1.0, 1.0, 1.0], 0, 0),
    (CIRCLE, 1, 1),
    (np.conj(CIRCLE), -1, -1),
]


@pytest.mark.parametrize("samples, winding, transport", LOOP_CASES)
def test_closed_loop_checks(samples, winding, transport):
    for run, expected in ((lambda: winding_number(samples), winding),
                          (lambda: levi_civita_transport(samples, 3).loop_winding,
                           transport)):
        if isinstance(expected, int):
            assert run() == expected
        else:
            with pytest.raises(expected):
                run()


def test_loop_ratios():
    z = np.array([2.0, 2j, -2.0, -2j, 2.0])
    assert np.array_equal(closed_loop_ratios(z, 2), z[1:] / z[:-1])
    with pytest.raises(OpenCurveError):
        closed_loop_ratios(z[:2], 3)
