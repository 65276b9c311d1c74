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

from bundleqm.bundles import (GaugeConnection, canonical_operators, covariant_derivative,
                              curvature_numeric, decompose, hermitian_pairing,
                              vacuum_connection)
from bundleqm.classical import (ClassicalState, ComplexStructure, OscillatorParams,
                                PhasePoint, closed_loop_ratios, evolve_classical,
                                hamiltonian_energy, hamiltonian_vector_field, moment_map,
                                rotation_generator, symplectic_reduce, trajectory_times,
                                winding_number)
from bundleqm.errors import (BundleqmError, GridFormatError, GridTooSmallError,
                             InvalidArgumentError, InvalidChargeError, NonFiniteError,
                             NonMonotoneError, OpenCurveError, ResolutionInsufficientError,
                             UndersampledError, ZeroCrossingError)
from bundleqm.orbifold import (ConeGeometry, branched_cover, circle_loop, cone_metric,
                               cover_inverse, ellipse_loop, levi_civita_transport,
                               loop_from_spec, square_loop)
from bundleqm import oscillator
from bundleqm.cli import RunConfig, cmd_husimi
from bundleqm.oscillator import (MAX_SPECTRUM_N, bargmann_function,
                                 coordinate_hamiltonian_matrix, eigenstate, evolve_schrodinger,
                                 husimi, husimi_levels, laplacian_consistency, spectrum)
from bundleqm.polarizations import (FockState, Polarization, bargmann_inverse,
                                    bargmann_transform, hermite_basis, hermite_functions,
                                    holomorphic_gauge, ladder_apply, ladder_coordinate,
                                    polarization_limit_check)
from bundleqm.sections import (MAX_SAMPLES, DoubledSection, GridSection, LineSection,
                               check_charge, check_int, check_real, check_samples, load_grid,
                               read_grid_binary, read_grid_csv, write_grid_binary,
                               write_grid_csv)

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


class TestArgumentRules:
    @pytest.mark.parametrize("good", [2, 7, np.int64(2), np.uint8(3)])
    def test_int_accepts_integers_from_the_minimum(self, good):
        n = check_int(good, "n", 2)
        assert n == good and type(n) is int

    @pytest.mark.parametrize("bad", [1, -3, True, 2.0, np.float64(3.0), "3", None, 3j])
    def test_int_rejects(self, bad):
        with pytest.raises(InvalidArgumentError, match="n must be an int >= 2"):
            check_int(bad, "n", 2)

    @pytest.mark.parametrize("good", [1, -2.5, np.float64(0.5), np.int32(4), np.nan])
    def test_real_accepts_real_numbers(self, good):
        x = check_real(good, "m")
        assert type(x) is float and (x == good or np.isnan(good))

    @pytest.mark.parametrize("bad", [True, np.bool_(True), "1", 1j, None, [1.0]])
    def test_real_rejects(self, bad):
        with pytest.raises(InvalidArgumentError, match="m must be a number"):
            check_real(bad, "m")

    def test_real_rejects_an_int_beyond_floats(self):
        assert check_real(10 ** 300, "m") == 1e300
        with pytest.raises(InvalidArgumentError, match="m is outside the float range"):
            check_real(10 ** 400, "m")


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
# levi_civita_transport returns or what it raises).  Both functions bound the
# angular step with check_angular_steps, so an undersampled closed loop
# raises UndersampledError from either, whichever way it rounds.
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
        ("husimi_levels charge=0", lambda: husimi_levels(1, [0.0], [0.0], 0),
         InvalidChargeError),
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
    ]


BAD_CALLS = _bad_calls()


@pytest.mark.parametrize("call, error", [c[1:] for c in BAD_CALLS],
                         ids=[c[0] for c in BAD_CALLS])
def test_invalid_arguments_raise_typed_errors(call, error, tmp_path, monkeypatch):
    monkeypatch.setenv("BUNDLEQM_OUT", str(tmp_path / "out"))
    with pytest.raises(error):
        call()
    assert not (tmp_path / "out").exists()


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
