"""Typed errors for invalid charges, non-finite samples, malformed grids and
closed loops, and a package import that leaves scipy out."""

import json
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundleqm.bundles import (GaugeConnection, canonical_operators, covariant_derivative,
                              curvature_numeric, decompose, hermitian_pairing, recompose,
                              translate_operator, vacuum_connection)
from bundleqm.classical import (ClassicalState, ComplexStructure, OscillatorParams,
                                PhasePoint, complex_coordinate, evolve_classical,
                                hamiltonian_energy, hamiltonian_vector_field, moment_map,
                                phase_coordinates, rotation_generator, symplectic_reduce,
                                trajectory_times, winding_number)
from bundleqm.errors import (BundleqmError, GridFormatError, GridTooSmallError,
                             InvalidArgumentError, InvalidChargeError, NonFiniteError,
                             NonMonotoneError, OpenCurveError, ResolutionInsufficientError,
                             UndersampledError, ZeroCrossingError)
from bundleqm.orbifold import (ConeGeometry, branched_cover, circle_loop, cone_metric,
                               cover_inverse, ellipse_loop, levi_civita_transport,
                               loop_from_spec, square_loop)
from bundleqm import oscillator
from bundleqm.cli import RunConfig, cmd_husimi
from bundleqm.oscillator import (MAX_SPECTRUM_N, bargmann_function, charge_density,
                                 coordinate_hamiltonian_matrix, eigenstate, energy,
                                 evolve_schrodinger, hamiltonian_apply, husimi, husimi_levels,
                                 laplacian_consistency, spectrum, winding_charges)
from bundleqm.polarizations import (FockState, Polarization, bargmann_inverse,
                                    bargmann_pairing,
                                    bargmann_transform, hermite_basis, hermite_functions,
                                    holomorphic_gauge, ladder_apply, ladder_coordinate,
                                    polarization_limit_check)
from bundleqm.sections import (MAX_SAMPLES, DoubledSection, GridSection, LineSection,
                               check_array, check_charge, check_int, check_pair, check_real,
                               check_samples, finite_result, load_grid,
                               read_grid_binary, read_grid_csv, write_grid_binary,
                               write_grid_csv)

AXIS = np.linspace(-1.0, 1.0, 3)
EMPTY = np.zeros(0)

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


class TestArgumentRules:
    @pytest.mark.parametrize("good", [2, 7, np.int64(2), np.uint8(3)])
    def test_int_accepts_integers_from_the_minimum(self, good):
        n = check_int(good, "n", 2)
        assert n == good and type(n) is int

    @pytest.mark.parametrize("bad", [1, -3, True, 2.0, np.float64(3.0), "3", None, 3j])
    def test_int_rejects(self, bad):
        with pytest.raises(InvalidArgumentError, match="n must be an int >= 2"):
            check_int(bad, "n", 2)

    @pytest.mark.parametrize("good", [1, -2.5, np.float64(0.5), np.int32(4)])
    def test_real_accepts_real_numbers(self, good):
        x = check_real(good, "m")
        assert type(x) is float and x == good

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_real_rejects_nan_and_inf(self, bad):
        with pytest.raises(NonFiniteError, match="m must be finite"):
            check_real(bad, "m")

    @pytest.mark.parametrize("bad", [True, np.bool_(True), "1", 1j, None, [1.0]])
    def test_real_rejects(self, bad):
        with pytest.raises(InvalidArgumentError, match="m must be a number"):
            check_real(bad, "m")

    def test_real_rejects_an_int_beyond_floats(self):
        assert check_real(10 ** 300, "m") == 1e300
        with pytest.raises(InvalidArgumentError, match="m is outside the float range"):
            check_real(10 ** 400, "m")

    def test_value_types_pass_as_sequences(self):
        # a value type is a tuple, so it is read wherever a pair or an array is
        point = PhasePoint(1.0, 2.0)
        assert check_pair(point, "center") == 1 + 2j
        arr = check_array(point, float, "x")
        assert arr.dtype == float and arr.tolist() == [1.0, 2.0]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf)])
    def test_classical_initial_datum(self, bad):
        with pytest.raises(NonFiniteError, match="z0"):
            ClassicalState(z0=bad, charge=-1)

    @pytest.mark.parametrize("periods", [np.nan, np.inf, -np.inf, 1e308])
    def test_trajectory_end_time(self, periods):
        with pytest.raises(NonFiniteError):
            trajectory_times(periods, 17, OscillatorParams())

    def test_husimi_field_overflow(self):
        # |z'|^600 overflows at |z'| = 30, so the field would hold inf * 0
        u = np.linspace(-30.0, 30.0, 16)
        with pytest.raises(NonFiniteError, match="Husimi"):
            husimi(eigenstate(300), u, u)

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

    @pytest.mark.parametrize("f", [lambda x, p: np.ones((4, 5, 2)),
                                   lambda x, p: np.ones((5, 4)),
                                   lambda x, p: np.ones(3)],
                             ids=["3-d", "transposed", "wrong length"])
    def test_from_function_result_must_broadcast(self, f):
        with pytest.raises(GridFormatError, match="broadcast"):
            GridSection.from_function(f, (-1.0, 1.0), (-1.0, 1.0), 4, 5)

    @pytest.mark.parametrize("f, expected", [(lambda x, p: 2.0 - 1j, 2.0 - 1j),
                                             (lambda x, p: x, np.linspace(-1, 1, 4)[:, None]),
                                             (lambda x, p: p, np.linspace(0, 2, 5))],
                             ids=["scalar", "x only", "p only"])
    def test_from_function_broadcasts_to_the_grid(self, f, expected):
        sec = GridSection.from_function(f, (-1.0, 1.0), (0.0, 2.0), 4, 5)
        assert sec.values.shape == (4, 5)
        assert np.array_equal(sec.values, np.broadcast_to(expected, (4, 5)))
        sec.values[0, 0] = 7.0          # a writable array of its own
        assert sec.values[1, 1] != 7.0

    def test_overflowing_spacing_warns_nothing(self):
        # the spacings of this finite axis overflow to -inf and inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridFormatError):
                GridSection(x=[1e308, -1e308, 1.7e308], p=AXIS, values=np.ones((3, 3)))

    def test_csv_without_rows_warns_nothing(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("x,p,re,im,charge\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridFormatError):
                read_grid_csv(path)


# (samples, what winding_number returns or raises, the loop_winding that
# levi_civita_transport returns or what it raises).  Both functions take the
# loop integral from classical.loop_log, which bounds the angular step, so an
# undersampled closed loop raises UndersampledError from either, whichever way
# it rounds.
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
    ([1.0, -1.0, 1.0], UndersampledError, UndersampledError),
    (np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 3)), UndersampledError, UndersampledError),
    ([1.0, 1.0, 1.0], 0, 0),
    (CIRCLE, 1, 1),
    (np.conj(CIRCLE), -1, -1),
    # the rule holds at any scale: subnormal samples, where numpy's complex
    # division overflows, and samples near the float maximum
    (5e-324 * CIRCLE, 1, 1),
    (1e-310 * CIRCLE, 1, 1),
    (1e300 * CIRCLE, 1, 1),
    ([5e-324, 5e-324j, -5e-324, -5e-324j, 5e-324], 1, 1),
    # a sample at 0 where 1e-9 of the largest modulus underflows to 0
    ([5e-324, 0.0, 5e-324j, -5e-324, 5e-324], ZeroCrossingError, ZeroCrossingError),
    ([1e-318, 1e-318j, 0.0, -1e-318j, 1e-318], ZeroCrossingError, ZeroCrossingError),
    # parts of 1.5e308: the corners' moduli are beyond the float range
    (1.5e308 * np.array([1, 1 + 1j, 1j, -1 + 1j, -1, -1 - 1j, -1j, 1 - 1j, 1]), 1, 1),
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


@pytest.mark.parametrize("scale", [5e-324, 1e-310, 1e300, 1e308])
def test_transport_at_any_scale(scale):
    # the unit circle's holonomy and transported vector at every size
    unit, scaled = (levi_civita_transport(z * CIRCLE, 3) for z in (1.0, scale))
    assert scaled.loop_winding == 1
    assert abs(scaled.holonomy_angle - unit.holonomy_angle) < 1e-12
    assert abs(scaled.vector - unit.vector) < 1e-12


@st.composite
def _loops(draw):
    """Circles of at least 3 samples turning -3..3 times, which may miss 0, be
    undersampled, end open, or pass through or near 0 at one sample."""
    samples = draw(st.integers(3, 24))
    turns = draw(st.integers(-3, 3))
    radius = draw(st.floats(0.1, 2.0))
    center = radius * draw(st.complex_numbers(max_magnitude=1.5))
    z = center + radius * np.exp(2j * np.pi * turns * np.linspace(0.0, 1.0, samples))
    fault = draw(st.sampled_from(["none", "open", "zero", "near zero"]))
    k = draw(st.integers(0, samples - 1))
    if fault == "open":
        z[-1] *= 1.0 + draw(st.floats(1e-12, 1e-6))
    elif fault == "zero":
        z[k] = 0.0
    elif fault == "near zero":
        z[k] = draw(st.floats(1e-11, 1e-7)) * np.max(np.abs(z))
    return z


@settings(deadline=None)
@given(loop=_loops(), n=st.integers(1, 6))
def test_one_loop_rule(loop, n):
    # levi_civita_transport and winding_number read one loop integral: the
    # transport fails where the winding does, and agrees with it elsewhere,
    # unless the integral is off a whole turn, which only the winding refuses
    try:
        transport = levi_civita_transport(loop, n)
    except BundleqmError as err:
        with pytest.raises(BundleqmError) as winding_err:
            winding_number(loop)
        assert type(winding_err.value) is type(err)
        return
    try:
        assert winding_number(loop) == transport.loop_winding
    except OpenCurveError as err:
        assert "not an integer" in str(err)


def _load_file(suffix, data):
    """load_grid on a temporary file holding data (text for .csv, else bytes)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"grid{suffix}"
        if isinstance(data, str):
            path.write_text(data)
        else:
            path.write_bytes(data)
        return load_grid(path)


# An axis with infinite ends once passed the uniformity check with spacing inf.
INF_AXIS = np.array([-np.inf, 0.0, np.inf])
INF_AXIS_CSV = "x,p,re,im,charge\n" + "".join(f"{x},{p},1,0,1\n" for x in INF_AXIS
                                              for p in AXIS)
INF_AXIS_BINARY = (struct.pack("<4sHhII", b"BQGS", 1, 1, 3, 3)
                   + np.concatenate([AXIS, INF_AXIS, np.ones(18)]).astype("<f8").tobytes())
ZERO_CHARGE_BINARY = (struct.pack("<4sHhII", b"BQGS", 1, 0, 3, 3)
                      + np.concatenate([AXIS, AXIS, np.ones(18)]).astype("<f8").tobytes())
FOUR_COLUMN_ROWS_CSV = "x,p,re,im,charge\n" + "".join(f"{x},{p},1,0\n" for x in AXIS
                                                    for p in AXIS)
# CSV grids that are not UTF-8: a UTF-16 byte-order mark, and a stray byte in a row
GRID_CSV = "x,p,re,im,charge\n" + "".join(f"{x},{p},1,0,1\n" for x in AXIS for p in AXIS)
UTF16_CSV = b"\xff\xfe" + GRID_CSV.encode("utf-16-le")
STRAY_BYTE_CSV = GRID_CSV.encode().replace(b",1,0,1\n", b",1,\xff0,1\n", 1)


def _fock_json(**doc):
    """FockState.from_json on a valid document with the fields of doc replaced
    (a value of None drops the field)."""
    full = {"coeffs": [[1.0, 0.0]], "charge": 1, "w": 1.0}
    full.update(doc)
    return FockState.from_json(json.dumps({k: v for k, v in full.items() if v is not None}))


# Entry points that once raised a bare ValueError for an invalid argument, or
# accepted a non-finite axis, with the BundleqmError subclass each raises now.
def _bad_calls():
    params = OscillatorParams()
    line = LineSection(axis="x", coords=AXIS, values=np.ones(3))
    gauss = lambda x: np.exp(-x ** 2)
    ones = lambda x, p: 1.0 + 0.0 * x

    def never(*coords):
        pytest.fail(f"f called on {coords}")
    odd = GaugeConnection(a_x=lambda x, p: 0.0 * x, a_p=lambda x, p: 0.0 * p)
    return [
        ("laplacian n=9", lambda: laplacian_consistency(9, params), ResolutionInsufficientError),
        ("LineSection axis q", lambda: LineSection(axis="q", coords=AXIS, values=np.ones(3)),
         InvalidArgumentError),
        ("covariant_derivative z", lambda: covariant_derivative(_grid(), "z", vacuum_connection()),
         InvalidArgumentError),
        ("canonical_operators bad", lambda: canonical_operators("bad", 1), InvalidArgumentError),
        ("ConeGeometry(0)", lambda: ConeGeometry(0), InvalidArgumentError),
        ("ladder_apply up", lambda: ladder_apply(eigenstate(1), "up"), InvalidArgumentError),
        ("OscillatorParams m=inf", lambda: OscillatorParams(m=np.inf), InvalidArgumentError),
        ("OscillatorParams omega=inf", lambda: OscillatorParams(omega=np.inf),
         InvalidArgumentError),
        ("OscillatorParams m=nan", lambda: OscillatorParams(m=np.nan), InvalidArgumentError),
        ("OscillatorParams m=0", lambda: OscillatorParams(m=0.0), InvalidArgumentError),
        ("ComplexStructure sign 0", lambda: ComplexStructure(0), InvalidArgumentError),
        ("ComplexStructure sign 1.0", lambda: ComplexStructure(1.0), InvalidArgumentError),
        ("evolve_classical frequency_sign=3",
         lambda: evolve_classical(ClassicalState(1j), 0.5, params, frequency_sign=3),
         InvalidArgumentError),
        ("evolve_classical frequency_sign=-1.0",
         lambda: evolve_classical(ClassicalState(1j), 0.5, params, frequency_sign=-1.0),
         InvalidArgumentError),
        ("evolve_schrodinger frequency_sign=3",
         lambda: evolve_schrodinger(eigenstate(1), 0.5, params, 3),
         InvalidArgumentError),
        ("evolve_schrodinger frequency_sign=True",
         lambda: evolve_schrodinger(eigenstate(1), 0.5, params, True),
         InvalidArgumentError),
        ("limit check w=0", lambda: polarization_limit_check(params, [1.0, 0.0]),
         InvalidArgumentError),
        ("limit check w<0", lambda: polarization_limit_check(params, [-0.5, -1.0]),
         InvalidArgumentError),
        ("limit check w=inf", lambda: polarization_limit_check(params, [1.0, np.inf]),
         InvalidArgumentError),
        ("limit check w=nan", lambda: polarization_limit_check(params, [np.nan, 1.0]),
         InvalidArgumentError),
        ("limit check w^2 underflow",
         lambda: polarization_limit_check(params, [1e200, 1e201]), InvalidArgumentError),
        ("symplectic_reduce 2 samples", lambda: symplectic_reduce(1.0, 2), InvalidArgumentError),
        ("branched_cover n=0", lambda: branched_cover(1j, 0), InvalidArgumentError),
        ("cover_inverse n=0", lambda: cover_inverse(1j, 0, 0), InvalidArgumentError),
        ("cone_metric n=0", lambda: cone_metric(1j, 0), InvalidArgumentError),
        ("transport n=0", lambda: levi_civita_transport(CIRCLE, 0), InvalidArgumentError),
        ("loop spec 3", lambda: loop_from_spec(3), InvalidArgumentError),
        ("loop spec hexagon", lambda: loop_from_spec({"shape": "hexagon"}),
         InvalidArgumentError),
        ("spectrum n_max=-1", lambda: spectrum(-1, params), InvalidArgumentError),
        ("eigenstate n=-1", lambda: eigenstate(-1), InvalidArgumentError),
        ("Polarization kind", lambda: Polarization("diagonal"), InvalidArgumentError),
        ("FockState empty", lambda: FockState(np.zeros(0)), InvalidArgumentError),
        ("holomorphic_gauge non-vacuum", lambda: holomorphic_gauge(odd, params),
         InvalidArgumentError),
        ("ladder_coordinate up", lambda: ladder_coordinate(line, "up", params),
         InvalidArgumentError),
        ("bargmann_transform n_max=-1",
         lambda: bargmann_transform(lambda x: np.exp(-x ** 2), -1, 8, params),
         InvalidArgumentError),
        ("DoubledSection shapes", lambda: DoubledSection(np.ones(2), np.ones(3)),
         GridFormatError),
        ("GridSection x inf", lambda: GridSection(x=INF_AXIS, p=AXIS, values=np.ones((3, 3))),
         NonFiniteError),
        ("GridSection p nan",
         lambda: GridSection(x=AXIS, p=[0.0, np.nan, 1.0], values=np.ones((3, 3))),
         NonFiniteError),
        ("LineSection x inf", lambda: LineSection("x", INF_AXIS, np.ones(3)), NonFiniteError),
        ("LineSection p -inf",
         lambda: LineSection("p", [-np.inf, -1.0, 0.0], np.ones(3)), NonFiniteError),
        ("grid CSV x inf", lambda: _load_file(".csv", INF_AXIS_CSV), NonFiniteError),
        ("grid binary p inf", lambda: _load_file(".bqgs", INF_AXIS_BINARY), NonFiniteError),
        ("grid binary charge 0", lambda: _load_file(".bqgs", ZERO_CHARGE_BINARY),
         GridFormatError),
        ("grid CSV 4-column rows", lambda: _load_file(".csv", FOUR_COLUMN_ROWS_CSV),
         GridFormatError),
        ("grid CSV UTF-16", lambda: _load_file(".csv", UTF16_CSV), GridFormatError),
        ("grid CSV stray byte", lambda: _load_file(".csv", STRAY_BYTE_CSV), GridFormatError),
        ("curvature 4x4 probe",
         lambda: curvature_numeric(vacuum_connection(),
                                   GridSection.from_function(ones, (-1, 1), (-1, 1), 4, 4)),
         GridTooSmallError),
        ("limit check one w", lambda: polarization_limit_check(params, [1.0]),
         NonMonotoneError),
        # counts, degrees, levels and indices are ints, not bools or floats
        ("eigenstate(True)", lambda: eigenstate(True), InvalidArgumentError),
        ("eigenstate(2.5)", lambda: eigenstate(2.5), InvalidArgumentError),
        ("spectrum(2.5)", lambda: spectrum(2.5, params), InvalidArgumentError),
        ("hermite_functions(2.5)", lambda: hermite_functions(2.5, AXIS), InvalidArgumentError),
        ("bargmann_transform n_max=2.5", lambda: bargmann_transform(gauss, 2.5, 16, params),
         InvalidArgumentError),
        ("bargmann_transform quad_order='x'",
         lambda: bargmann_transform(gauss, 2, "x", params), InvalidArgumentError),
        ("laplacian n=-1", lambda: laplacian_consistency(-1, params), InvalidArgumentError),
        ("laplacian n=2.5", lambda: laplacian_consistency(2.5, params), InvalidArgumentError),
        ("ConeGeometry(2.5)", lambda: ConeGeometry(2.5), InvalidArgumentError),
        ("ConeGeometry(True)", lambda: ConeGeometry(True), InvalidArgumentError),
        ("transport n=2.5", lambda: levi_civita_transport(circle_loop(), 2.5),
         InvalidArgumentError),
        ("cover_inverse branch=1.5", lambda: cover_inverse(1j, 2, 1.5), InvalidArgumentError),
        ("cover_inverse branch=-1", lambda: cover_inverse(1j, 2, -1), InvalidArgumentError),
        ("symplectic_reduce 3.5 samples", lambda: symplectic_reduce(1j, 3.5),
         InvalidArgumentError),
        ("trajectory_times 2.5 samples", lambda: trajectory_times(1, 2.5, params),
         InvalidArgumentError),
        ("trajectory_times 1 sample", lambda: trajectory_times(1, 1, params),
         InvalidArgumentError),
        ("circle_loop -3 samples", lambda: circle_loop(samples=-3), InvalidArgumentError),
        ("ellipse_loop 2.0 samples", lambda: ellipse_loop(samples=2.0), InvalidArgumentError),
        ("square_loop True samples", lambda: square_loop(samples=True), InvalidArgumentError),
        ("GridSection.from_function nx=2.5",
         lambda: GridSection.from_function(ones, (-1, 1), (-1, 1), 2.5, 3),
         InvalidArgumentError),
        ("LineSection.from_function n=-1",
         lambda: LineSection.from_function(gauss, "x", -1.0, 1.0, -1), InvalidArgumentError),
        # m, omega and w are real numbers
        ("OscillatorParams m='1'", lambda: OscillatorParams(m="1"), InvalidArgumentError),
        ("OscillatorParams m=True", lambda: OscillatorParams(m=True), InvalidArgumentError),
        ("OscillatorParams omega=1j", lambda: OscillatorParams(omega=1j),
         InvalidArgumentError),
        ("OscillatorParams m=10**400", lambda: OscillatorParams(m=10 ** 400),
         InvalidArgumentError),
        ("OscillatorParams int m*omega overflow",
         lambda: OscillatorParams(m=10 ** 200, omega=10 ** 200), InvalidArgumentError),
        ("limit check w='x'", lambda: polarization_limit_check(params, ["x", 1.0]),
         InvalidArgumentError),
        # numpy turned these lists into floats, so True ran as w = 1.0
        ("limit check w=[True, 0.5]", lambda: polarization_limit_check(params, [True, 0.5]),
         InvalidArgumentError),
        ("limit check w=[2.0, np.True_]",
         lambda: polarization_limit_check(params, [2.0, np.True_]), InvalidArgumentError),
        # the two JSON documents README describes
        ("FockState JSON not JSON", lambda: FockState.from_json("{"), InvalidArgumentError),
        ("FockState JSON list", lambda: FockState.from_json("[]"), InvalidArgumentError),
        ("FockState JSON no w", lambda: _fock_json(w=None), InvalidArgumentError),
        ("FockState JSON w=-1", lambda: _fock_json(w=-1), InvalidArgumentError),
        ("FockState JSON w=NaN", lambda: _fock_json(w=float("nan")), InvalidArgumentError),
        ("FockState JSON w='1'", lambda: _fock_json(w="1"), InvalidArgumentError),
        ("FockState JSON w=10**400", lambda: _fock_json(w=10 ** 400), InvalidArgumentError),
        ("FockState JSON coeffs 1", lambda: _fock_json(coeffs=1), InvalidArgumentError),
        ("FockState JSON coeff [1]", lambda: _fock_json(coeffs=[[1.0]]), InvalidArgumentError),
        ("FockState JSON coeff 'x'", lambda: _fock_json(coeffs=[[1.0, "x"]]),
         InvalidArgumentError),
        ("loop spec center 'ab'", lambda: loop_from_spec({"center": "ab"}),
         InvalidArgumentError),
        ("loop spec center 3 parts", lambda: loop_from_spec({"center": [0, 0, 0]}),
         InvalidArgumentError),
        ("loop spec radius 'x'", lambda: loop_from_spec({"radius": "x"}),
         InvalidArgumentError),
        ("loop spec ellipse radius 3 parts",
         lambda: loop_from_spec({"shape": "ellipse", "radius": [1, 2, 3]}),
         InvalidArgumentError),
        ("loop spec samples 2.7", lambda: loop_from_spec({"samples": 2.7}),
         InvalidArgumentError),
        ("loop spec point 'a'", lambda: loop_from_spec([[1.0, "a"]]), InvalidArgumentError),
        # array arguments numpy cannot read, and a loop that is not 1D
        ("winding_number 2D samples", lambda: winding_number(np.ones((3, 3))),
         InvalidArgumentError),
        ("transport loop 'abc'", lambda: levi_civita_transport("abc", 3), InvalidArgumentError),
        ("FockState('ab')", lambda: FockState("ab"), InvalidArgumentError),
        ("husimi u 'a'", lambda: husimi(eigenstate(1), "a", [0.0]), InvalidArgumentError),
        ("husimi_levels v 'a'", lambda: husimi_levels(1, [0.0], "a"), InvalidArgumentError),
        ("husimi_levels n_max=-1", lambda: husimi_levels(-1, [0.0], [0.0]),
         InvalidArgumentError),
        ("bargmann_function z='abc'", lambda: bargmann_function(eigenstate(1), "abc"),
         InvalidArgumentError),
        ("bargmann_function z=[nan]", lambda: bargmann_function(eigenstate(1), [np.nan]),
         NonFiniteError),
        # z^3 overflows: once numpy's RuntimeWarning and an inf result
        ("bargmann_function z=[1e200]", lambda: bargmann_function(eigenstate(3), [1e200]),
         NonFiniteError),
        # grid widths and steps are finite and positive
        ("hamiltonian matrix h=0", lambda: coordinate_hamiltonian_matrix(3, params, h=0.0),
         InvalidArgumentError),
        ("hamiltonian matrix h=nan",
         lambda: coordinate_hamiltonian_matrix(3, params, h=np.nan), InvalidArgumentError),
        ("hamiltonian matrix half_width=nan",
         lambda: coordinate_hamiltonian_matrix(3, params, half_width=np.nan),
         InvalidArgumentError),
        ("laplacian h=0", lambda: laplacian_consistency(1, params, h=0.0), InvalidArgumentError),
        ("laplacian h=nan", lambda: laplacian_consistency(1, params, h=np.nan),
         InvalidArgumentError),
        ("laplacian half_width=nan", lambda: laplacian_consistency(1, params, half_width=np.nan),
         InvalidArgumentError),
        # grids too large to allocate are refused before numpy tries
        ("hamiltonian matrix h=1e-300",
         lambda: coordinate_hamiltonian_matrix(3, params, h=1e-300), InvalidArgumentError),
        ("hamiltonian matrix h=1e-9",
         lambda: coordinate_hamiltonian_matrix(3, params, h=1e-9), InvalidArgumentError),
        ("laplacian h=1e-300", lambda: laplacian_consistency(1, params, h=1e-300),
         InvalidArgumentError),
        ("laplacian h=1e-9", lambda: laplacian_consistency(1, params, h=1e-9),
         InvalidArgumentError),
        # 6001 samples per axis pass alone, but the 6001^2 grid is over the cap
        ("laplacian h=1e-3", lambda: laplacian_consistency(1, params, h=1e-3),
         InvalidArgumentError),
        # each axis of 10**6 samples passes alone; the 10**12-cell Husimi grid once
        # raised numpy's allocation error
        ("husimi grid 10**6 x 10**6",
         lambda: husimi(eigenstate(0), np.linspace(-1, 1, 10 ** 6), np.linspace(-1, 1, 10 ** 6)),
         InvalidArgumentError),
        ("husimi_levels grid 10**6 x 10**6",
         lambda: husimi_levels(0, np.linspace(-1, 1, 10 ** 6), np.linspace(-1, 1, 10 ** 6)),
         InvalidArgumentError),
        # so are coefficient and time arrays over the same cap of 2**22 samples
        ("eigenstate n=2**22", lambda: eigenstate(2 ** 22), InvalidArgumentError),
        ("eigenstate n=10**9", lambda: eigenstate(10 ** 9), InvalidArgumentError),
        ("trajectory_times 2**22+1 samples",
         lambda: trajectory_times(1, 2 ** 22 + 1, params), InvalidArgumentError),
        ("trajectory_times 10**9 samples", lambda: trajectory_times(1, 10 ** 9, params),
         InvalidArgumentError),
        # each of these once raised numpy's allocation error before any cap
        ("circle_loop 2**40 samples", lambda: circle_loop(samples=2 ** 40),
         InvalidArgumentError),
        ("ellipse_loop 2**40 samples", lambda: ellipse_loop(samples=2 ** 40),
         InvalidArgumentError),
        ("square_loop 2**40 samples", lambda: square_loop(samples=2 ** 40),
         InvalidArgumentError),
        ("loop spec samples 2**40", lambda: loop_from_spec({"samples": 2 ** 40}),
         InvalidArgumentError),
        ("symplectic_reduce 2**40 samples", lambda: symplectic_reduce(1j, 2 ** 40),
         InvalidArgumentError),
        ("LineSection.from_function n=2**40",
         lambda: LineSection.from_function(gauss, "x", -1.0, 1.0, 2 ** 40), InvalidArgumentError),
        ("GridSection.from_function 2**21 x 2**21",
         lambda: GridSection.from_function(ones, (-1, 1), (-1, 1), 2 ** 21, 2 ** 21),
         InvalidArgumentError),
        ("hermite_functions 2**30 levels x 4096 points",
         lambda: hermite_functions(2 ** 30 - 1, np.zeros(4096)), InvalidArgumentError),
        ("FockState.padded 2**40", lambda: FockState([1.0]).padded(2 ** 40),
         InvalidArgumentError),
        ("FockState.padded 2.5", lambda: FockState([1.0]).padded(2.5), InvalidArgumentError),
        ("FockState.padded -3", lambda: FockState([1.0]).padded(-3), InvalidArgumentError),
        # a spectrum is a list of Python objects, so its levels have a cap of their own
        ("spectrum n_max=2**16+1", lambda: spectrum(MAX_SPECTRUM_N + 1, params),
         InvalidArgumentError),
        ("spectrum n_max=10**9", lambda: spectrum(10 ** 9, params), InvalidArgumentError),
        # a Husimi ring beyond the grid's corners once gave a blank field and exit 0
        ("husimi n=129 on [-8, 8]^2", lambda: cmd_husimi(RunConfig(), 129, +1, 32),
         ResolutionInsufficientError),
        ("husimi n=1000 on [-8, 8]^2", lambda: cmd_husimi(RunConfig(), 1000, -1, 32),
         ResolutionInsufficientError),
        ("husimi n=3 on [-1.2, 1.2]^2",
         lambda: cmd_husimi(RunConfig(grid_half_width=1.2), 3, +1, 32),
         ResolutionInsufficientError),
        # times, points, centers and radii are finite numbers: each of these once
        # returned NaN or leaked a ValueError or numpy's UFuncTypeError
        ("evolve_classical t=nan", lambda: evolve_classical(ClassicalState(1j), np.nan, params),
         NonFiniteError),
        ("evolve_classical t=[0, inf]",
         lambda: evolve_classical(ClassicalState(1j), [0.0, np.inf], params), NonFiniteError),
        ("evolve_classical t='x'", lambda: evolve_classical(ClassicalState(1j), "x", params),
         InvalidArgumentError),
        ("symplectic_reduce z0=nan", lambda: symplectic_reduce(np.nan, 4), NonFiniteError),
        ("symplectic_reduce z0='x'", lambda: symplectic_reduce("x", 4), InvalidArgumentError),
        ("cone_metric psi=nan", lambda: cone_metric(np.nan, 3), NonFiniteError),
        ("cone_metric psi='x'", lambda: cone_metric("x", 3), InvalidArgumentError),
        ("cover_inverse psi=nan", lambda: cover_inverse(np.nan, 3, 0), NonFiniteError),
        ("cover_inverse psi='x'", lambda: cover_inverse("x", 3, 0), InvalidArgumentError),
        ("branched_cover z=nan", lambda: branched_cover(np.nan, 3), NonFiniteError),
        ("branched_cover z='x'", lambda: branched_cover("x", 3), InvalidArgumentError),
        ("branched_cover z=[1, inf]", lambda: branched_cover([1.0, np.inf], 3),
         NonFiniteError),
        ("circle_loop radius=nan", lambda: circle_loop(radius=np.nan), NonFiniteError),
        ("circle_loop radius='x'", lambda: circle_loop(radius="x"), InvalidArgumentError),
        ("ellipse_loop ry=inf", lambda: ellipse_loop(ry=np.inf), NonFiniteError),
        ("square_loop center=nan", lambda: square_loop(center=np.nan), NonFiniteError),
        ("loop spec radius NaN", lambda: loop_from_spec(json.loads('{"radius": NaN}')),
         NonFiniteError),
        ("loop spec ellipse radius Infinity",
         lambda: loop_from_spec(json.loads('{"shape": "ellipse", "radius": [1, Infinity]}')),
         NonFiniteError),
        ("loop spec point NaN", lambda: loop_from_spec(json.loads('[[1, 0], [NaN, 0]]')),
         NonFiniteError),
        ("hermite_functions t=[nan]", lambda: hermite_functions(2, [np.nan]), NonFiniteError),
        ("hermite_functions t='x'", lambda: hermite_functions(2, "x"), InvalidArgumentError),
        ("hermite_basis x=[nan]", lambda: hermite_basis(2, [np.nan], params), NonFiniteError),
        ("bargmann_inverse x='x'", lambda: bargmann_inverse(eigenstate(1), "x", params),
         InvalidArgumentError),
        ("decompose nan", lambda: decompose(np.nan, 0.0), NonFiniteError),
        ("decompose 'x'", lambda: decompose("x", 0.0), InvalidArgumentError),
        ("DoubledSection inf", lambda: DoubledSection([np.inf], [0.0]), NonFiniteError),
        # an axis that is not 1D is malformed, not short
        ("LineSection 2D axis",
         lambda: LineSection("x", np.zeros((3, 3)), np.zeros((3, 3))), GridFormatError),
        ("GridSection 2D x axis",
         lambda: GridSection(x=np.zeros((3, 1)), p=AXIS, values=np.ones((3, 3))),
         GridFormatError),
        # text in the section containers once leaked numpy's conversion ValueError
        ("GridSection x='abc'", lambda: GridSection(x="abc", p=AXIS, values=np.ones((3, 3))),
         InvalidArgumentError),
        ("LineSection coords 'abc'", lambda: LineSection("x", "abc", np.ones(3)),
         InvalidArgumentError),
        ("LineSection values 'abc'", lambda: LineSection("x", AXIS, "abc"),
         InvalidArgumentError),
        ("hermitian_pairing 'x'", lambda: hermitian_pairing("x", 1), InvalidArgumentError),
        # finite inputs whose arithmetic overflows once returned NaN or inf, or
        # raised Python's OverflowError
        ("evolve_classical omega*t overflow",
         lambda: evolve_classical(ClassicalState(1j), 1e308, OscillatorParams(omega=10.0)),
         NonFiniteError),
        ("circle_loop center=radius=1e308", lambda: circle_loop(center=1e308, radius=1e308),
         NonFiniteError),
        ("ellipse_loop center=rx=1e308", lambda: ellipse_loop(center=1e308, rx=1e308),
         NonFiniteError),
        ("square_loop center=half_side=1e308",
         lambda: square_loop(center=1e308, half_side=1e308), NonFiniteError),
        ("branched_cover z=1e200", lambda: branched_cover(1e200, 3), NonFiniteError),
        ("branched_cover z=[1e200]", lambda: branched_cover([1e200], 3), NonFiniteError),
        # phase points and their functions once overflowed into Python's
        # OverflowError, NaN or inf, or leaked a TypeError for text
        ("hamiltonian_energy x=p=1e200",
         lambda: hamiltonian_energy(PhasePoint(1e200, 1e200), params), NonFiniteError),
        ("hamiltonian_energy x=nan", lambda: hamiltonian_energy(PhasePoint(np.nan, 0), params),
         NonFiniteError),
        ("hamiltonian_vector_field overflow",
         lambda: hamiltonian_vector_field(PhasePoint(1e308, 0), OscillatorParams(1e-3, 1e3)),
         NonFiniteError),
        ("rotation_generator at m=omega=1e-3",
         lambda: rotation_generator(PhasePoint(0, 1e303), OscillatorParams(1e-3, 1e-3)),
         NonFiniteError),
        ("z_plus x=p=1e308 at m=omega=1e-3",
         lambda: PhasePoint(1e308, 1e308).z_plus(OscillatorParams(1e-3, 1e-3)),
         NonFiniteError),
        ("PhasePoint x='a'", lambda: PhasePoint("a", 0), InvalidArgumentError),
        ("PhasePoint.from_z_plus 'a'", lambda: PhasePoint.from_z_plus("a", params),
         InvalidArgumentError),
        ("PhasePoint.from_z_plus 1.7e308", lambda: PhasePoint.from_z_plus(1.7e308, params),
         NonFiniteError),
        ("moment_map 1e308+1e308j", lambda: moment_map(complex(1e308, 1e308)), NonFiniteError),
        ("moment_map nan", lambda: moment_map(np.nan), NonFiniteError),
        ("moment_map 'a'", lambda: moment_map("a"), InvalidArgumentError),
        ("ClassicalState 'a'", lambda: ClassicalState("a"), InvalidArgumentError),
        # the coordinate maps once leaked TypeError or AttributeError for text
        # and returned nan-infj for an overflow; translate_operator took any x0
        ("complex_coordinate x='a'", lambda: complex_coordinate("a", 0, 1, params),
         InvalidArgumentError),
        ("complex_coordinate p=['a']", lambda: complex_coordinate(0, ["a"], 1, params),
         InvalidArgumentError),
        ("complex_coordinate x=p=1e308 at m=omega=1e-3",
         lambda: complex_coordinate(1e308, 1e308, 1, OscillatorParams(1e-3, 1e-3)),
         NonFiniteError),
        ("complex_coordinate x=[nan]", lambda: complex_coordinate([np.nan], [0.0], 1, params),
         NonFiniteError),
        # a real scalar once skipped its check: True read as 1, and an int
        # beyond the float range raised NonFiniteError
        *((f"complex_coordinate {name}={label}",
           lambda args=args: complex_coordinate(*args, 1, params), InvalidArgumentError)
          for label, v in (("True", True), ("10**400", 10 ** 400))
          for name, args in (("x", (v, 0)), ("p", (0, v)))),
        ("phase_coordinates 'a'", lambda: phase_coordinates("a", 1, params),
         InvalidArgumentError),
        # the coordinate maps once took any charge, and leaked TypeError for text
        *((f"complex_coordinate charge={q!r}", lambda q=q: complex_coordinate(1.0, 1.0, q, params),
           InvalidChargeError) for q in (2, True, 0.5, 0, "x")),
        *((f"phase_coordinates charge={q!r}", lambda q=q: phase_coordinates(1 + 1j, q, params),
           InvalidChargeError) for q in (2, True, 0.5, 0, "x")),
        ("phase_coordinates 1e308+1e308j at m=omega=1e3",
         lambda: phase_coordinates(complex(1e308, 1e308), 1, OscillatorParams(1e3, 1e3)),
         NonFiniteError),
        ("phase_coordinates [inf]", lambda: phase_coordinates(np.array([np.inf]), -1, params),
         NonFiniteError),
        ("translate_operator 'a'", lambda: translate_operator("a"), InvalidArgumentError),
        ("translate_operator True", lambda: translate_operator(True), InvalidArgumentError),
        ("translate_operator nan", lambda: translate_operator(np.nan), NonFiniteError),
        ("translate_operator -inf", lambda: translate_operator(-np.inf), NonFiniteError),
        # the cone metric once returned g_phi_phi = inf, and an abs(psi) beyond
        # the float range raised Python's OverflowError
        ("cone_metric psi=1e308+1e308j", lambda: cone_metric(complex(1e308, 1e308), 2),
         NonFiniteError),
        ("cone_metric |psi| beyond the float range",
         lambda: cone_metric(complex(1.5e308, 1.5e308), 3), NonFiniteError),
        ("cover_inverse |psi| beyond the float range",
         lambda: cover_inverse(complex(1.5e308, 1.5e308), 3, 0), NonFiniteError),
        # scalar arguments that once leaked numpy's or Python's own errors
        ("LineSection.from_function lo='a'",
         lambda: LineSection.from_function(gauss, "x", "a", 1.0, 5), InvalidArgumentError),
        ("GridSection.from_function x range 'a'",
         lambda: GridSection.from_function(ones, ("a", 1.0), (-1, 1), 5, 5),
         InvalidArgumentError),
        # hi - lo beyond the float range: refused before f sees the samples
        ("LineSection.from_function -1e308..1e308",
         lambda: LineSection.from_function(never, "x", -1e308, 1e308, 5), NonFiniteError),
        ("GridSection.from_function x range -1e308..1e308",
         lambda: GridSection.from_function(never, (-1e308, 1e308), (-1, 1), 5, 5),
         NonFiniteError),
        ("GridSection.from_function p range 1.5e308..-1.5e308",
         lambda: GridSection.from_function(never, (-1, 1), (1.5e308, -1.5e308), 5, 5),
         NonFiniteError),
        ("GridSection.from_function p range inf",
         lambda: GridSection.from_function(ones, (-1, 1), (0.0, np.inf), 5, 5), NonFiniteError),
        ("trajectory_times periods='a'", lambda: trajectory_times("a", 5, params),
         InvalidArgumentError),
        ("evolve_schrodinger dt='a'", lambda: evolve_schrodinger(eigenstate(1), "a", params),
         InvalidArgumentError),
        ("DoubledSection.rotate_fiber 'a'", lambda: DoubledSection(1, 1).rotate_fiber("a"),
         InvalidArgumentError),
        ("decompose shapes (2,) and (3,)", lambda: decompose([1, 2], [1, 2, 3]),
         GridFormatError),
        # pairings, norms and recomposed components once returned NaN or inf, or
        # leaked numpy's RuntimeWarning, for finite inputs near the float maximum
        ("hermitian_pairing nan", lambda: hermitian_pairing(np.nan, 1), NonFiniteError),
        ("hermitian_pairing 1e200", lambda: hermitian_pairing(1e200, 1e200), NonFiniteError),
        ("recompose 1e308", lambda: recompose(DoubledSection(1e308, 1e308)), NonFiniteError),
        ("bargmann_pairing 1e200",
         lambda: bargmann_pairing(FockState([1e200]), FockState([1e200])), NonFiniteError),
        ("FockState.norm_sq 1e200", lambda: FockState([1e200]).norm_sq(), NonFiniteError),
        ("LineSection.norm_sq 1e200",
         lambda: LineSection("x", AXIS, np.full(3, 1e200)).norm_sq(), NonFiniteError),
        ("DoubledSection.norm_sq 1e200",
         lambda: DoubledSection([1e200], [1e200]).norm_sq(), NonFiniteError),
        # an overflowing total once gave the empty report ({}, 1), or a warning
        # before NotNormalizedError
        ("winding_charges 1e200", lambda: winding_charges(FockState([1e200, 1e200])),
         NonFiniteError),
        ("charge_density 1e200", lambda: charge_density(FockState([1e200])), NonFiniteError),
        # these leaked numpy's RuntimeWarning before a typed error
        ("DoubledSection.rotate_fiber inf", lambda: DoubledSection(1, 1).rotate_fiber(np.inf),
         NonFiniteError),
        ("hamiltonian_apply 1e308 at omega=1e10",
         lambda: hamiltonian_apply(FockState([1e308]), OscillatorParams(1, 1e10)),
         NonFiniteError),
        ("evolve_schrodinger dt=1e308",
         lambda: evolve_schrodinger(FockState([1, 1, 1]), 1e308, OscillatorParams()),
         NonFiniteError),
        # this one returned inf
        ("energy 1e308 at omega=10", lambda: energy(1e308, OscillatorParams(1, 10)),
         NonFiniteError),
        # an option name that is not a str once leaked numpy's "truth value of
        # an empty array is ambiguous", or was accepted as a one-element array
        ("canonical_operators rep=[]", lambda: canonical_operators(EMPTY, 1),
         InvalidArgumentError),
        ("canonical_operators rep=array(['momentum'])",
         lambda: canonical_operators(np.array(["momentum"]), 1), InvalidArgumentError),
        ("ladder_apply which=[]", lambda: ladder_apply(eigenstate(1), EMPTY),
         InvalidArgumentError),
        ("ladder_coordinate which=[]", lambda: ladder_coordinate(line, EMPTY, params),
         InvalidArgumentError),
        ("covariant_derivative direction=[]",
         lambda: covariant_derivative(_grid(), EMPTY, vacuum_connection()),
         InvalidArgumentError),
        ("covariant_derivative direction=array(['p'])",
         lambda: covariant_derivative(_grid(), np.array(["p"]), vacuum_connection()),
         InvalidArgumentError),
        ("LineSection axis=[]", lambda: LineSection(EMPTY, AXIS, np.ones(3)),
         InvalidArgumentError),
        ("Polarization kind=[]", lambda: Polarization(EMPTY), InvalidArgumentError),
        ("loop spec shape=[]", lambda: loop_from_spec({"shape": EMPTY}), InvalidArgumentError),
        # numeric text was once read as the number it spells, and an int beyond
        # the float range leaked OverflowError or was reported as NonFiniteError
        ("evolve_classical t='1.5'",
         lambda: evolve_classical(ClassicalState(1j), "1.5", params), InvalidArgumentError),
        ("husimi u='1.5'", lambda: husimi(eigenstate(1), "1.5", [0.0]), InvalidArgumentError),
        ("hermite_functions t='0.5'", lambda: hermite_functions(2, "0.5"), InvalidArgumentError),
        ("branched_cover z='1+1j'", lambda: branched_cover("1+1j", 2), InvalidArgumentError),
        ("FockState(['1', '0'])", lambda: FockState(["1", "0"]), InvalidArgumentError),
        ("cone_metric psi='2'", lambda: cone_metric("2", 2), InvalidArgumentError),
        ("decompose '1', '2'", lambda: decompose("1", "2"), InvalidArgumentError),
        ("PhasePoint.from_z_plus '1+1j'", lambda: PhasePoint.from_z_plus("1+1j", params),
         InvalidArgumentError),
        ("FockState([10**400])", lambda: FockState([10 ** 400]), InvalidArgumentError),
        # numpy's conversion parsed text held in an object array, and read None
        # as NaN, reported as NonFiniteError
        ("FockState(object array ['1', '0'])",
         lambda: FockState(np.array(["1", "0"], dtype=object)), InvalidArgumentError),
        ("husimi u=object array ['0.5']",
         lambda: husimi(eigenstate(0), np.array(["0.5"], dtype=object), [0.0]),
         InvalidArgumentError),
        ("moment_map None", lambda: moment_map(None), InvalidArgumentError),
        ("husimi u=None", lambda: husimi(eigenstate(0), None, [0.0]), InvalidArgumentError),
        ("evolve_classical t=10**400",
         lambda: evolve_classical(ClassicalState(1j), 10 ** 400, params), InvalidArgumentError),
        ("husimi u=[10**400]", lambda: husimi(eigenstate(1), [10 ** 400], [0.0]),
         InvalidArgumentError),
        # the value checked is the value used: each of these passed its check and
        # failed later with Python's TypeError, or was accepted
        ("ClassicalState([1+1j, 2])", lambda: ClassicalState([1 + 1j, 2]),
         InvalidArgumentError),
        ("moment_map []", lambda: moment_map([]), InvalidArgumentError),
        ("limit check w_sequence=nan", lambda: polarization_limit_check(params, np.nan),
         InvalidArgumentError),
        ("limit check w_sequence generator",
         lambda: polarization_limit_check(params, (w for w in (1.0, 0.5))),
         InvalidArgumentError),
        ("bargmann_transform sec=1.0", lambda: bargmann_transform(1.0, 2, 8, params),
         InvalidArgumentError),
        # a callable's samples follow the argument rule; numpy once parsed its
        # text (or leaked ValueError), read None as NaN, or leaked its broadcast error
        ("GridSection.from_function f -> text",
         lambda: GridSection.from_function(lambda x, p: "abc", (-1, 1), (-1, 1), 3, 3),
         InvalidArgumentError),
        ("GridSection.from_function f -> None",
         lambda: GridSection.from_function(lambda x, p: None, (-1, 1), (-1, 1), 3, 3),
         InvalidArgumentError),
        ("LineSection.from_function f -> text",
         lambda: LineSection.from_function(lambda x: "abc", "x", -1.0, 1.0, 3),
         InvalidArgumentError),
        ("LineSection.from_function f -> None",
         lambda: LineSection.from_function(lambda x: None, "x", -1.0, 1.0, 3),
         InvalidArgumentError),
        ("bargmann_transform sec -> text",
         lambda: bargmann_transform(lambda x: "abc", 2, 8, params), InvalidArgumentError),
        ("bargmann_transform sec -> None",
         lambda: bargmann_transform(lambda x: None, 2, 8, params), InvalidArgumentError),
        ("bargmann_transform sec -> 3 samples",
         lambda: bargmann_transform(lambda x: np.ones(3), 2, 8, params), GridFormatError),
        # arrays that do not broadcast once leaked numpy's ValueError
        ("complex_coordinate shapes (2,) and (3,)",
         lambda: complex_coordinate([1.0, 2.0], [1.0, 2.0, 3.0], 1, params), GridFormatError),
        ("hermitian_pairing shapes (2,) and (3,)",
         lambda: hermitian_pairing([1j, 2], [1, 2, 3]), GridFormatError),
        # a Laplacian interior that is empty, or holds only the origin or values
        # that underflow, once gave a NaN report (n = 0 at 5 samples: the 5% error)
        ("laplacian 3 samples", lambda: laplacian_consistency(0, params, 1.0, 1.0),
         GridTooSmallError),
        ("laplacian n=0 at 4 samples", lambda: laplacian_consistency(0, params, 3.0, 2.0),
         GridTooSmallError),
        ("laplacian n=0 at 5 samples", lambda: laplacian_consistency(0, params, 2.0, 1.0),
         GridTooSmallError),
        ("laplacian n=2 at 5 samples", lambda: laplacian_consistency(2, params, 3.0, 1.5),
         GridTooSmallError),
        ("laplacian n=8 at 5 samples", lambda: laplacian_consistency(8, params, 3.0, 1.5, -1),
         GridTooSmallError),
        ("laplacian interior underflows", lambda: laplacian_consistency(0, params, 200.0, 80.0),
         ResolutionInsufficientError),
    ]


BAD_CALLS = _bad_calls()


@pytest.mark.parametrize("call, error", [c[1:] for c in BAD_CALLS],
                         ids=[c[0] for c in BAD_CALLS])
def test_invalid_arguments_raise_typed_errors(call, error, tmp_path, monkeypatch):
    monkeypatch.setenv("BUNDLEQM_OUT", str(tmp_path / "out"))
    with pytest.raises(error):
        call()
    assert not (tmp_path / "out").exists()


# The hostile numbers, as JSON text, that each number field of the three JSON
# documents README describes is given.
JSON_NUMBERS = ["NaN", "Infinity", "1e400", "true", str(2 ** 62), "5e-324", "-0.0", "1e308"]
_LOADS_FLOATS = {str(2 ** 62), "5e-324", "-0.0", "1e308"}
# field: (its document, with "#" where the number goes; the numbers it loads)
JSON_NUMBER_FIELDS = {
    "FockState coeff re": ('{"coeffs": [[#, 0.0]], "charge": 1, "w": 1.0}', _LOADS_FLOATS),
    "FockState coeff im": ('{"coeffs": [[1.0, #]], "charge": 1, "w": 1.0}', _LOADS_FLOATS),
    "FockState charge": ('{"coeffs": [[1.0, 0.0]], "charge": #, "w": 1.0}', set()),
    "FockState w": ('{"coeffs": [[1.0, 0.0]], "charge": 1, "w": #}',
                    {str(2 ** 62), "5e-324", "1e308"}),
    "RunConfig m": ('{"m": #}', {str(2 ** 62)}),
    "RunConfig omega": ('{"omega": #}', {str(2 ** 62)}),
    "RunConfig grid_half_width": ('{"grid_half_width": #}', {str(2 ** 62), "5e-324", "1e308"}),
    "RunConfig frequency_sign": ('{"frequency_sign": #}', set()),
    # a radius of 0 or -0.0 loads as an all-zero loop, refused where it is used
    "loop radius": ('{"radius": #, "samples": 8}', _LOADS_FLOATS),
    "loop ellipse [rx, ry]": ('{"shape": "ellipse", "radius": [#, #], "samples": 8}',
                              _LOADS_FLOATS),
    "loop samples": ('{"samples": #}', set()),
    "loop center": ('{"center": [#, 0.0], "samples": 8}', _LOADS_FLOATS),
    "loop pair": ('[[#, 0.0], [0.0, 1.0], [-1.0, 0.0]]', _LOADS_FLOATS),
}


def _load_json(field, text, path):
    if field.startswith("FockState"):
        state, w = FockState.from_json(text)
        return [state.coeffs, w]
    if field.startswith("loop"):
        return [loop_from_spec(json.loads(text))]
    path.write_text(text)
    config = RunConfig.load(path)
    return [config.m, config.omega, config.grid_half_width, config.frequency_sign]


@pytest.mark.parametrize("number", JSON_NUMBERS)
@pytest.mark.parametrize("field", sorted(JSON_NUMBER_FIELDS))
def test_json_number_fields(field, number, tmp_path):
    # each number loads as a finite value or raises a BundleqmError, with
    # numpy's warnings as errors
    template, loads = JSON_NUMBER_FIELDS[field]
    text = template.replace("#", number)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if number not in loads:
            with pytest.raises(BundleqmError):
                _load_json(field, text, tmp_path / "config.json")
            return
        result = _load_json(field, text, tmp_path / "config.json")
    assert all(np.isfinite(value).all() for value in result)


@pytest.mark.parametrize("shape, radius, winding", [
    ("circle", -1, 1), ("square", -1, 1), ("ellipse", [-2, -0.5], 1), ("ellipse", [-2, 0.5], -1)])
def test_negative_loop_radius(shape, radius, winding):
    # a negative radius traces the same loop from the antipodal point, so it
    # winds as the positive one does; one negative semi-axis mirrors an ellipse
    loop = loop_from_spec({"shape": shape, "radius": radius, "samples": 8})
    assert winding_number(loop) == winding == levi_civita_transport(loop, 2).loop_winding
    if winding == 1:
        positive = loop_from_spec({"shape": shape, "radius": (-np.array(radius)).tolist(),
                                   "samples": 8})
        assert np.array_equal(loop, -positive)


@pytest.mark.parametrize("shape", ["circle", "square", "ellipse"])
@pytest.mark.parametrize("radius", [0, -0.0])
def test_zero_loop_radius_is_refused_where_used(shape, radius):
    zero = loop_from_spec({"shape": shape, "radius": radius, "samples": 8})
    assert not zero.any()
    for use in (winding_number, lambda z: levi_civita_transport(z, 2)):
        with pytest.raises(ZeroCrossingError):
            use(zero)


# Every option name of the package, as the call that takes it.
_PARAMS = OscillatorParams()
_OPTION_CALLS = {
    "LineSection axis": lambda v: LineSection(v, AXIS, np.ones(3)),
    "covariant_derivative direction": lambda v: covariant_derivative(_grid(), v,
                                                                     vacuum_connection()),
    "canonical_operators rep": lambda v: canonical_operators(v, 1),
    "Polarization kind": lambda v: Polarization(v),
    "ladder_apply which": lambda v: ladder_apply(eigenstate(1), v),
    "ladder_coordinate which": lambda v: ladder_coordinate(
        LineSection("x", AXIS, np.ones(3)), v, _PARAMS),
    "loop_from_spec shape": lambda v: loop_from_spec({"shape": v}),
}
_NAMES = st.sampled_from(["x", "p", "coordinate", "momentum", "holomorphic",
                          "antiholomorphic", "lower", "raise", "circle", "square", "ellipse"])
_NOT_STR = st.one_of(
    st.sampled_from([np.zeros(0), np.array([], dtype=str), np.array([], dtype=object)]),
    _NAMES.map(np.array), st.lists(_NAMES, min_size=1, max_size=3).map(np.array),
    st.none(), st.integers(), st.lists(_NAMES, max_size=3),
    _NAMES.map(str.encode), st.binary(max_size=8))


@given(call=st.sampled_from(sorted(_OPTION_CALLS)), value=_NOT_STR)
def test_option_names_must_be_str(call, value):
    # a valid name inside an array, a list or bytes is not that name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError):
            _OPTION_CALLS[call](value)


# Number and array arguments, one call each, with the argument replaced.
_NUMBER_CALLS = {
    "evolve_classical t": lambda v: evolve_classical(ClassicalState(1j), v, _PARAMS),
    "evolve_schrodinger dt": lambda v: evolve_schrodinger(eigenstate(1), v, _PARAMS),
    "trajectory_times periods": lambda v: trajectory_times(v, 5, _PARAMS),
    "ClassicalState z0": lambda v: ClassicalState(v),
    "PhasePoint x": lambda v: PhasePoint(v, 0.0),
    "PhasePoint.from_z_plus z": lambda v: PhasePoint.from_z_plus(v, _PARAMS),
    "OscillatorParams m": lambda v: OscillatorParams(m=v),
    "complex_coordinate x": lambda v: complex_coordinate(v, 0.0, 1, _PARAMS),
    "phase_coordinates z": lambda v: phase_coordinates(v, 1, _PARAMS),
    "moment_map z": lambda v: moment_map(v),
    "symplectic_reduce z0": lambda v: symplectic_reduce(v, 4),
    "winding_number samples": lambda v: winding_number(v),
    "husimi u": lambda v: husimi(eigenstate(1), v, [0.0]),
    "husimi_levels v": lambda v: husimi_levels(1, [0.0], v),
    "bargmann_function z": lambda v: bargmann_function(eigenstate(1), v),
    "hermite_functions t": lambda v: hermite_functions(2, v),
    "hermite_basis x": lambda v: hermite_basis(2, v, _PARAMS),
    "bargmann_inverse x": lambda v: bargmann_inverse(eigenstate(1), v, _PARAMS),
    "FockState coeffs": lambda v: FockState(v),
    "limit check w_sequence": lambda v: polarization_limit_check(_PARAMS, v),
    "branched_cover z": lambda v: branched_cover(v, 2),
    "cover_inverse psi": lambda v: cover_inverse(v, 2, 0),
    "cone_metric psi": lambda v: cone_metric(v, 2),
    "circle_loop center": lambda v: circle_loop(center=v, samples=8),
    "circle_loop radius": lambda v: circle_loop(radius=v, samples=8),
    "levi_civita_transport loop": lambda v: levi_civita_transport(v, 2),
    "decompose psi1": lambda v: decompose(v, 0.0),
    "hermitian_pairing psi": lambda v: hermitian_pairing(v, 1.0),
    "translate_operator x0": lambda v: translate_operator(v),
    "DoubledSection psi_plus": lambda v: DoubledSection(v, 0.0),
    "DoubledSection.rotate_fiber theta": lambda v: DoubledSection(1, 1).rotate_fiber(v),
    "GridSection x": lambda v: GridSection(x=v, p=AXIS, values=np.ones((3, 3))),
    "LineSection values": lambda v: LineSection("x", AXIS, v),
}
_NUMERIC_TEXT = st.one_of(st.floats().map(repr), st.integers().map(str),
                          st.complex_numbers().map(lambda z: str(z).strip("()")))
_TEXT = st.one_of(
    _NUMERIC_TEXT, st.text(max_size=6), _NUMERIC_TEXT.map(str.encode),
    st.lists(_NUMERIC_TEXT, min_size=1, max_size=3),
    st.lists(_NUMERIC_TEXT, min_size=1, max_size=3).map(np.array))


@given(call=st.sampled_from(sorted(_NUMBER_CALLS)), value=_TEXT)
def test_text_is_not_a_number(call, value):
    # numeric text too: README's rule is that text raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError):
            _NUMBER_CALLS[call](value)


@pytest.mark.parametrize("n", range(9))
def test_laplacian_at_six_samples_is_finite_or_refused(n):
    # the least grid laplacian_consistency takes: its interior is 2 x 2 cells
    for charge in (+1, -1):
        try:
            report = laplacian_consistency(n, OscillatorParams(), 2.5, 1.0, charge)
        except ResolutionInsufficientError:
            continue
        assert np.isfinite(report.rel_error) and np.isfinite(report.measured)


_complex = st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
                     st.floats(allow_nan=False, allow_infinity=False))
_three = st.lists(_complex, min_size=3, max_size=3)


@given(a=_three, b=_three)
def test_pairings_and_norms_are_finite_or_refused(a, b):
    # finite inputs over the whole float64 range: a finite value or
    # NonFiniteError, and never a RuntimeWarning
    calls = [lambda: hermitian_pairing(a, b), lambda: recompose(DoubledSection(a, b)),
             lambda: bargmann_pairing(FockState(a), FockState(b)),
             lambda: FockState(a).norm_sq(), lambda: LineSection("x", AXIS, a).norm_sq(),
             lambda: DoubledSection(a, b).norm_sq()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            try:
                value = call()
            except NonFiniteError:
                continue
            for v in value if isinstance(value, tuple) else (value,):
                assert np.all(np.isfinite(v))


def test_bargmann_transform_takes_a_scalar_callable_result():
    # a constant broadcasts to the nodes: its only coefficients are the even ones
    state = bargmann_transform(lambda x: 1.0, 3, 8, OscillatorParams())
    assert np.abs(state.coeffs[1::2]).max() < 1e-12 < np.abs(state.coeffs[0])


@pytest.mark.parametrize("make", [
    lambda: GridSection(AXIS, AXIS, np.ones((3, 3))),
    lambda: LineSection("x", AXIS, np.ones(3)),
    lambda: DoubledSection(AXIS, AXIS),
    lambda: DoubledSection(1.0, 1.0),
    lambda: FockState([1.0, 0.5]),
    lambda: FockState([1.0]),
], ids=["grid", "line", "doubled", "doubled 0-d", "fock", "fock 1 coefficient"])
def test_containers_compare_by_identity(make):
    # equal samples are not equal containers; no array truth value is asked
    a, b = make(), make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) != hash(b)


# a point stores its coordinates as floats: a float32 coordinate was once kept,
# so these overflowed float32 to NonFiniteError where float64 is finite, or
# returned a float32
POINT_CALLS = [
    ("hamiltonian_energy x=float32(3e38)", np.float32(3e38),
     lambda c: hamiltonian_energy(PhasePoint(c, 0.0), OscillatorParams())),
    ("hamiltonian_vector_field p=float32(3e38) at m=1e-3", np.float32(3e38),
     lambda c: hamiltonian_vector_field(PhasePoint(0.0, c), OscillatorParams(m=1e-3))),
    ("rotation_generator p=float32(3e38) at m=1e-3", np.float32(3e38),
     lambda c: rotation_generator(PhasePoint(0.0, c), OscillatorParams(m=1e-3))),
    ("hamiltonian_energy x=float32(0.1)", np.float32(0.1),
     lambda c: hamiltonian_energy(PhasePoint(c, 0.0), OscillatorParams())),
]


@pytest.mark.parametrize("coordinate, call", [c[1:] for c in POINT_CALLS],
                         ids=[c[0] for c in POINT_CALLS])
def test_a_float32_point_gives_the_float64_value(coordinate, call):
    value = call(coordinate)
    assert value == call(float(coordinate))
    assert all(type(v) is float for v in (value if type(value) is tuple else (value,)))


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.complex64])
def test_an_overflow_to_any_numpy_precision_is_refused(dtype):
    # finite_result's rule covers numpy scalars of every precision, not float64 alone
    overflow = finite_result("product")(lambda: dtype(np.finfo(dtype).max) * dtype(2))
    with pytest.raises(NonFiniteError, match="product must be finite"):
        overflow()


def test_nan_dt_is_named():
    with pytest.raises(NonFiniteError, match="dt must be finite"):
        evolve_schrodinger(eigenstate(1), np.nan, OscillatorParams())


@pytest.mark.parametrize("n", [3, 5])
def test_reduced_orbit_near_the_float_maximum_is_finite_and_silent(n):
    # numpy's AVX-512 complex product once warned of an overflow here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z0, circle = symplectic_reduce(complex(1e308, 1e308), n)
    assert z0 == complex(1e308, 1e308) and circle[0] == z0
    assert np.all(np.isfinite(circle))
    assert np.allclose(np.abs(circle / 1e308), np.sqrt(2.0), rtol=1e-15)


@pytest.mark.parametrize("t", [40.0, 1e200, -1e200, 1.5e308, -np.finfo(float).max])
def test_hermite_weight_that_underflows_is_zero(t):
    # the weight exp(-t^2/2) is 0 there, so is every e_n: no overflow warning,
    # and no NaN from sqrt(2) t = inf times the weight
    values = hermite_functions(3, [t, 0.5])
    assert not np.any(values[:, 0]) and np.all(values[:, 1] != 0)


def test_spectrum_cap_bounds():
    assert MAX_SPECTRUM_N == 2 ** 16
    assert len(spectrum(MAX_SPECTRUM_N, OscillatorParams())) == 2 * (MAX_SPECTRUM_N + 1)


def test_spectrum_takes_every_level_from_one_energy_call(monkeypatch):
    calls = []
    monkeypatch.setattr(oscillator, "energy",
                        lambda n, params: calls.append(n) or energy(n, params))
    params = OscillatorParams(0.7, 2.3)
    levels = spectrum(MAX_SPECTRUM_N, params)
    assert len(calls) == 1
    assert all(type(level.E) is float for level in levels)
    assert [level.E for level in levels] == 2 * [params.omega * (n + 0.5)
                                                 for n in range(MAX_SPECTRUM_N + 1)]


@pytest.mark.parametrize("plus, minus, diagonal", [
    (1.7e308, -1.7e308, False),
    (complex(1.7e308, 1.7e308), 0, False),
    (complex(1.7e308, -1.7e308), complex(1.7e308, -1.7e308), True),
    (np.zeros(0), np.zeros(0), True),
])
def test_is_diagonal_near_the_float_maximum_and_empty(plus, minus, diagonal):
    # the difference once overflowed with a RuntimeWarning, and an empty
    # section raised numpy's ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert DoubledSection(plus, minus).is_diagonal() is diagonal


def test_blank_husimi_field_is_refused(tmp_path, monkeypatch):
    # a field that underflows to 0 everywhere, as n = 1000 did on [-8, 8]^2
    monkeypatch.setenv("BUNDLEQM_OUT", str(tmp_path / "out"))
    monkeypatch.setattr(oscillator, "husimi", lambda state, u, v: np.zeros((u.size, v.size)))
    with pytest.raises(ResolutionInsufficientError, match="field is 0"):
        cmd_husimi(RunConfig(), 4, +1, 32)
    assert not (tmp_path / "out").exists()


def test_sample_cap_bounds():
    # 2048^2 is the largest husimi grid; the benchmark's 1025^2 and 5e4 samples pass
    assert check_samples(MAX_SAMPLES, "grid") == MAX_SAMPLES == 2048 ** 2
    assert check_samples(1025 ** 2, "grid") == 1025 ** 2
    assert check_samples(50_000, "trajectory") == 50_000
    with pytest.raises(InvalidArgumentError, match="over the cap of 4194304"):
        check_samples(MAX_SAMPLES + 1, "grid")


def test_package_does_not_import_scipy():
    # scipy is a test-only oracle; importing it made up most of a command's start-up
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", "import bundleqm.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_verify_does_not_import_numpy_random(tmp_path):
    # verify's states come from a closed form: importing numpy.random adds to
    # the start-up time and the memory of every process
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               BUNDLEQM_OUT=str(tmp_path))
    code = ("import sys; from bundleqm.cli import RunConfig, cmd_verify; "
            "assert cmd_verify(RunConfig(), 'all') == 0; "
            "assert 'numpy.random' not in sys.modules")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
