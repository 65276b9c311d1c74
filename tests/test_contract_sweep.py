"""One sweep of the argument rule over every export of bundleqm and over the
module-level functions that take numbers outside its exports.

Each of these that takes a number has one valid base call below, written as
a function of its number and array arguments.  The sweep substitutes NaN,
inf, -inf and complex(nan, 0) into each of them in turn, under warnings as
errors: a finite-number argument raises NonFiniteError, a real one
InvalidArgumentError for complex(nan, 0) (a complex number is not real), and
a parameter that must be positive InvalidArgumentError for all four.  In an
array argument the hostile value replaces the last element.  True, np.True_
and 10**400 in any scalar argument, and an array of bools in place of any
array argument, raise InvalidArgumentError: a bool is not a number, and
10**400 is not one of the float range.  The other hostile values, 0, -1,
1e308, -1e308, 5e-324, 2**62 and 2.5 in any scalar argument and an empty
list or array in any array argument, give a finite result or a
BundleqmError.
"""

import inspect
import warnings

import numpy as np
import pytest

import bundleqm
from bundleqm import (ClassicalState, DoubledSection, FockState, GridSection, LineSection,
                      OscillatorParams, PhasePoint, bargmann_inverse, branched_cover,
                      cone_metric, cover_inverse, decompose, eigenstate, evolve_classical,
                      evolve_schrodinger, hermite_basis, husimi, husimi_levels,
                      laplacian_consistency, levi_civita_transport, loop_from_spec, moment_map,
                      polarization_limit_check, symplectic_reduce, translate_operator,
                      winding_number)
from bundleqm.bundles import hermitian_pairing
from bundleqm.classical import closed_loop, complex_coordinate, loop_log, phase_coordinates
from bundleqm.errors import BundleqmError, InvalidArgumentError, NonFiniteError
from bundleqm.orbifold import circle_loop, ellipse_loop, square_loop
from bundleqm.oscillator import bargmann_function

P = OscillatorParams()
AXIS = np.linspace(-1.0, 1.0, 3)
LOOP = 2.0 * np.exp(2j * np.pi * np.arange(9) / 8)   # closed: its last sample is its first


def _ones(x, p):
    return np.ones(np.broadcast(x, p).shape)


# export (or export.method; text after a space names a second form) ->
# (call of the named numbers, their valid base values)
SWEEP = {
    "ClassicalState": (lambda z0: ClassicalState(z0), {"z0": 1 + 0.5j}),
    "OscillatorParams": (lambda m, omega: OscillatorParams(m, omega), {"m": 1.0, "omega": 1.0}),
    "PhasePoint": (lambda x, p: PhasePoint(x, p), {"x": 1.0, "p": 0.5}),
    "PhasePoint.from_z_plus": (lambda z: PhasePoint.from_z_plus(z, P), {"z": 1 + 1j}),
    "evolve_classical": (lambda t: evolve_classical(ClassicalState(1j), t, P), {"t": [0.0, 0.5]}),
    "moment_map": (moment_map, {"z": 1 + 1j}),
    "symplectic_reduce": (lambda z0: symplectic_reduce(z0, 4), {"z0": 1 + 1j}),
    "winding_number": (winding_number, {"samples": LOOP}),
    "DoubledSection": (DoubledSection, {"psi_plus": [1 + 0j, 2j], "psi_minus": [0j, 1 + 0j]}),
    "DoubledSection.rotate_fiber": (lambda theta: DoubledSection(1, 1).rotate_fiber(theta),
                                    {"theta": 0.5}),
    "GridSection": (GridSection, {"x": AXIS, "p": AXIS, "values": np.ones((3, 3), complex)}),
    "GridSection.from_function": (
        lambda lo, hi: GridSection.from_function(_ones, (lo, 1.0), (-1.0, hi), 5, 5),
        {"lo": -1.0, "hi": 1.0}),
    "LineSection": (lambda coords, values: LineSection("x", coords, values),
                    {"coords": AXIS, "values": np.ones(3, complex)}),
    "LineSection.from_function": (lambda lo, hi: LineSection.from_function(np.cos, "x", lo, hi, 5),
                                  {"lo": -1.0, "hi": 1.0}),
    "decompose": (decompose, {"psi1": [1 + 0j, 2.0], "psi2": [0j, 1.0 + 0j]}),
    "translate_operator": (translate_operator, {"x0": 0.5}),
    "FockState": (FockState, {"coeffs": [1 + 0j, 0.5j]}),
    "bargmann_inverse": (lambda x: bargmann_inverse(eigenstate(1), x, P),
                         {"x": np.linspace(-3.0, 3.0, 7)}),
    "hermite_basis": (lambda x: hermite_basis(2, x, P), {"x": [0.0, 0.5]}),
    "polarization_limit_check": (lambda w: polarization_limit_check(P, w), {"w": [1.0, 0.5]}),
    "evolve_schrodinger": (lambda dt: evolve_schrodinger(eigenstate(1), dt, P), {"dt": 0.5}),
    "husimi": (lambda u, v: husimi(eigenstate(1), u, v), {"u": [0.0, 0.5], "v": [0.0]}),
    "husimi_levels": (lambda u, v: husimi_levels(1, u, v), {"u": [0.0, 0.5], "v": [0.0]}),
    "laplacian_consistency": (lambda half_width, h: laplacian_consistency(0, P, half_width, h),
                              {"half_width": 3.0, "h": 0.25}),
    "branched_cover": (lambda z: branched_cover(z, 2), {"z": [1 + 1j, 0.5 + 0j]}),
    "cone_metric": (lambda psi: cone_metric(psi, 2), {"psi": 1 + 1j}),
    "cover_inverse": (lambda psi: cover_inverse(psi, 2, 0), {"psi": 1 + 1j}),
    "levi_civita_transport": (lambda loop: levi_civita_transport(loop, 2), {"loop": LOOP}),
    "loop_from_spec": (
        lambda re, radius: loop_from_spec({"center": [re, 0.0], "radius": radius, "samples": 8}),
        {"re": 0.0, "radius": 1.0}),
    "loop_from_spec [pairs]": (
        lambda re: loop_from_spec([[re, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]]),
        {"re": 1.0}),
}

# Module-level functions outside bundleqm's exports that take numbers, in the
# same form.
MODULE_SWEEP = {
    "complex_coordinate": (lambda x, p: complex_coordinate(x, p, 1, P), {"x": 1.0, "p": 0.5}),
    "complex_coordinate [arrays]": (lambda x, p: complex_coordinate(x, p, -1, P),
                                    {"x": [1.0, 0.0], "p": [0.5, 2.0]}),
    "phase_coordinates": (lambda z: phase_coordinates(z, 1, P), {"z": 1 + 1j}),
    "phase_coordinates [array]": (lambda z: phase_coordinates(z, -1, P), {"z": [1 + 1j, 0.5j]}),
    "closed_loop": (lambda samples: closed_loop(samples, 3), {"samples": LOOP}),
    "loop_log": (lambda samples: loop_log(samples, 3), {"samples": LOOP}),
    "hermitian_pairing": (hermitian_pairing, {"psi": 1 + 1j, "phi": [0.5j, 1 + 0j]}),
    "bargmann_function": (lambda z: bargmann_function(eigenstate(2), z), {"z": [1 + 1j, 0.5j]}),
    "circle_loop": (lambda center, radius: circle_loop(center, radius, 8),
                    {"center": 0.5j, "radius": 1.0}),
    "ellipse_loop": (lambda center, rx, ry: ellipse_loop(center, rx, ry, 8),
                     {"center": 0.5j, "rx": 2.0, "ry": 0.7}),
    "square_loop": (lambda center, half_side: square_loop(center, half_side, 8),
                    {"center": 0.5j, "half_side": 1.0}),
}

# Exports that take no number: their arguments are counts, signs, option names,
# callables or package objects whose own constructors are swept above.
NO_NUMBER = (
    "ComplexStructure", "ConeGeometry", "GaugeConnection", "Polarization",
    "bargmann_pairing", "bargmann_transform", "canonical_operators", "charge_density",
    "covariant_derivative", "curvature_numeric", "dolbeault_residual", "eigenstate",
    "gauge_transform", "gauss_hermite", "hamiltonian_apply", "hamiltonian_energy",
    "hamiltonian_vector_field", "holomorphic_gauge", "kahler_metric", "ladder_apply",
    "ladder_coordinate", "recompose", "spectrum", "vacuum_connection", "winding_charges",
    # spectrum's result record, which holds spectrum's finite levels
    "EnergyLevel",
)

# Parameters that must be positive: NaN and inf are out of range there, so
# InvalidArgumentError, as for 0 or -1.
POSITIVE = {"m", "omega", "w", "half_width", "h"}
HOSTILE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "nan+0j": complex(np.nan, 0.0)}
# Scalars that are not numbers of the float range, each into every scalar
# argument, real or complex.
NOT_FLOAT = {"True": True, "np.True_": np.True_, "10**400": 10 ** 400}
CALLS = {**SWEEP, **MODULE_SWEEP}


def _public_names():
    return {name for name, value in vars(bundleqm).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def test_sweep_covers_every_export():
    # a new export must join SWEEP or NO_NUMBER
    swept = {key.split(" ")[0].split(".")[0] for key in SWEEP}
    assert swept | set(NO_NUMBER) == _public_names()
    assert not swept & set(NO_NUMBER)


def _strict(call, **numbers):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(**numbers)


@pytest.mark.parametrize("key", sorted(CALLS))
def test_base_call_is_valid(key):
    call, base = CALLS[key]
    _strict(call, **base)


def _hostile(base, bad):
    """bad in place of a scalar base, or of the last element of an array base."""
    if np.ndim(base) == 0:
        return bad
    arr = np.array(base, dtype=np.result_type(np.asarray(base), bad))
    arr.flat[-1] = bad
    return arr


def _expected(name, base, bad):
    if name in POSITIVE or (isinstance(bad, complex) and not np.iscomplexobj(base)):
        return InvalidArgumentError
    return NonFiniteError


CASES = [(key, name, label) for key in sorted(CALLS) for name in CALLS[key][1]
         for label in HOSTILE]


@pytest.mark.parametrize("key, name, label", CASES,
                         ids=[f"{key}-{name}-{label}" for key, name, label in CASES])
def test_non_finite_number_is_refused(key, name, label):
    call, base = CALLS[key]
    bad = HOSTILE[label]
    error = _expected(name, base[name], bad)
    with pytest.raises(error):
        _strict(call, **{**base, name: _hostile(base[name], bad)})


SCALAR_CASES = [(key, name, label) for key in sorted(CALLS)
                for name, base in CALLS[key][1].items() if np.ndim(base) == 0
                for label in NOT_FLOAT]


@pytest.mark.parametrize("key, name, label", SCALAR_CASES,
                         ids=[f"{key}-{name}-{label}" for key, name, label in SCALAR_CASES])
def test_non_float_scalar_is_refused(key, name, label):
    call, base = CALLS[key]
    with pytest.raises(InvalidArgumentError):
        _strict(call, **{**base, name: NOT_FLOAT[label]})


ARRAY_CASES = [(key, name) for key in sorted(CALLS)
               for name, base in CALLS[key][1].items() if np.ndim(base) > 0]


@pytest.mark.parametrize("key, name", ARRAY_CASES,
                         ids=[f"{key}-{name}" for key, name in ARRAY_CASES])
def test_bool_array_is_refused(key, name):
    # numpy would read it as an array of 0s and 1s
    call, base = CALLS[key]
    with pytest.raises(InvalidArgumentError):
        _strict(call, **{**base, name: np.ones(np.shape(base), dtype=bool)})


@pytest.mark.parametrize("call", [
    # the levels once yielded a NaN field, and husimi a 0 field at an infinite axis value
    lambda: husimi_levels(0, [np.nan], [0.0]),
    lambda: husimi(eigenstate(0), [np.inf], [0.0]),
], ids=["husimi_levels-nan", "husimi-inf"])
def test_husimi_axes_must_be_finite(call):
    with pytest.raises(NonFiniteError, match="u must be finite"):
        _strict(call)


# Numbers of the float range at its edges, zero, negative and not integral,
# each into every scalar argument; an empty list and an empty array into
# every array argument.
EDGE = {"0": 0, "-1": -1, "1e308": 1e308, "-1e308": -1e308, "5e-324": 5e-324,
        "2**62": 2 ** 62, "2.5": 2.5}
EMPTY = {"[]": [], "np.array([])": np.array([])}


def _assert_finite(value):
    """Every number that value holds is finite: in arrays, tuples (the value
    types among them), lists and generators (husimi_levels' fields), and in
    the attributes of a package object.  A str or a callable holds no number;
    any other value fails the test, so that no result escapes the sweep
    unwalked."""
    if isinstance(value, (tuple, list)) or inspect.isgenerator(value):
        for item in value:
            _assert_finite(item)
    elif isinstance(value, (np.ndarray, np.generic, int, float, complex)):
        assert np.isfinite(value).all()
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            _assert_finite(item)
    elif not (isinstance(value, str) or callable(value)):
        pytest.fail(f"cannot walk a {type(value).__name__}: {value!r}")


EDGE_CASES = [(key, name, label) for key in sorted(CALLS)
              for name, base in CALLS[key][1].items()
              for label in (EDGE if np.ndim(base) == 0 else EMPTY)]


@pytest.mark.parametrize("key, name, label", EDGE_CASES,
                         ids=[f"{key}-{name}-{label}" for key, name, label in EDGE_CASES])
def test_edge_value_is_finite_or_refused(key, name, label):
    call, base = CALLS[key]
    try:
        value = _strict(call, **{**base, name: {**EDGE, **EMPTY}[label]})
    except BundleqmError:
        return
    _assert_finite(value)
