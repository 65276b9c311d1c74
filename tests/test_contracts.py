"""Typed errors for invalid charges, non-finite samples, malformed grids and
closed loops, and a package import that leaves scipy out."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bundleqm.bundles import (GaugeConnection, canonical_operators, covariant_derivative,
                              vacuum_connection)
from bundleqm.classical import (ClassicalState, ComplexStructure, OscillatorParams,
                                closed_loop_ratios, evolve_classical, symplectic_reduce,
                                trajectory_times, winding_number)
from bundleqm.errors import (BundleqmError, GridFormatError, InvalidArgumentError,
                             InvalidChargeError, NonFiniteError, OpenCurveError,
                             ResolutionInsufficientError, UndersampledError,
                             ZeroCrossingError)
from bundleqm.orbifold import (ConeGeometry, branched_cover, cone_metric, cover_inverse,
                               levi_civita_transport, loop_from_spec)
from bundleqm.oscillator import (EvolvingState, eigenstate, evolve_schrodinger, husimi,
                                 laplacian_consistency, spectrum)
from bundleqm.polarizations import (FockState, Polarization, bargmann_transform,
                                    holomorphic_gauge, ladder_apply, ladder_coordinate,
                                    polarization_limit_check)
from bundleqm.sections import (DoubledSection, GridSection, LineSection, check_charge,
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


# Entry points that once raised a bare ValueError for an invalid argument,
# with the BundleqmError subclass each raises now.
def _bad_calls():
    params = OscillatorParams()
    line = LineSection(axis="x", coords=AXIS, values=np.ones(3))
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
         lambda: evolve_schrodinger(EvolvingState(eigenstate(1)), 0.5, params, 3),
         InvalidArgumentError),
        ("evolve_schrodinger frequency_sign=True",
         lambda: evolve_schrodinger(EvolvingState(eigenstate(1)), 0.5, params, True),
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
    ]


BAD_CALLS = _bad_calls()


@pytest.mark.parametrize("call, error", [c[1:] for c in BAD_CALLS],
                         ids=[c[0] for c in BAD_CALLS])
def test_invalid_arguments_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_package_does_not_import_scipy():
    # scipy is a test-only oracle; importing it made up most of a command's start-up
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", "import bundleqm.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
