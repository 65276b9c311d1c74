"""The coordinate Hamiltonian matrix, the trapezoid weights, the Gauss-Hermite
rule, the Husimi recurrence, the Fock phases, the first-derivative stencil and
the grid kernels on broadcast axes against the forms the package used before
they were sped up or simplified."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundleqm.bundles import covariant_derivative
from bundleqm.classical import OscillatorParams
from bundleqm.cli import _gauge_family
from bundleqm.errors import (BundleqmError, GridTooSmallError, InvalidArgumentError,
                             QuadratureUnderResolvedError)
from bundleqm.oscillator import (bargmann_function, coordinate_hamiltonian_matrix,
                                 eigenstate, evolve_schrodinger, hamiltonian_apply, husimi)
from bundleqm.polarizations import (GAUSS_HERMITE_MAX_ORDER, FockState,
                                    dolbeault_residual, gauss_hermite)
from bundleqm.sections import GridSection, diff_axis, trapezoid_weights

import oracles


@pytest.mark.parametrize("m, omega", [(1.0, 1.0), (1.0, 2.0), (4.0, 1.0)])
def test_coordinate_matrix_matches_broadcast_trapezoid(m, omega):
    params = OscillatorParams(m=m, omega=omega)
    mat = coordinate_hamiltonian_matrix(10, params)
    ref = oracles.coordinate_hamiltonian_reference(10, params)
    assert mat.shape == (11, 11)
    assert np.array_equal(mat, mat.T)
    assert np.max(np.abs(mat - ref)) <= 1e-12


def test_coordinate_matrix_on_a_truncated_grid():
    # the basis is far from 0 at x = +/-2.5, so the end weights matter
    params = OscillatorParams()
    mat = coordinate_hamiltonian_matrix(4, params, half_width=2.5, h=1e-3)
    ref = oracles.coordinate_hamiltonian_reference(4, params, half_width=2.5, h=1e-3)
    assert np.max(np.abs(mat - ref)) <= 1e-12


# H is applied one basis row at a time; the matrix must be bit-equal to the
# single pass, at several scales and at the sample counts next to the edges of
# the 4096-sample blocks an earlier form used.
@pytest.mark.parametrize("m, omega", [(1.0, 1.0), (1.0, 2.0), (4.0, 1.0), (0.6, 1.7)])
def test_coordinate_matrix_bit_equal_to_single_pass(m, omega):
    params = OscillatorParams(m=m, omega=omega)
    mat = coordinate_hamiltonian_matrix(10, params)
    ref = oracles.coordinate_hamiltonian_single_pass_reference(10, params)
    assert mat.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n_pts", [3, 4, 4095, 4096, 4097, 4098, 8195])
def test_coordinate_matrix_block_edges(n_pts):
    params = OscillatorParams(m=0.6, omega=1.7)
    h = 10.0 / (n_pts - 1)
    mat = coordinate_hamiltonian_matrix(4, params, half_width=5.0, h=h)
    ref = oracles.coordinate_hamiltonian_single_pass_reference(4, params, half_width=5.0, h=h)
    assert int(round(10.0 / h)) + 1 == n_pts
    assert mat.tobytes() == ref.tobytes()


def test_coordinate_matrix_needs_three_samples():
    with pytest.raises(GridTooSmallError):
        coordinate_hamiltonian_matrix(2, OscillatorParams(), half_width=1.0, h=2.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 200))
def test_trapezoid_weights_match_np_trapezoid(seed, n):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, size=n)) - 3.0     # increasing, non-uniform
    f = rng.normal(size=n)
    assert np.ptp(f) > 0
    ref = np.trapezoid(f, x)
    assert trapezoid_weights(x) @ f == pytest.approx(ref, rel=1e-12,
                                                     abs=1e-13 * np.sum(np.abs(f)) * np.ptp(x))


class TestGaussHermiteRule:
    @pytest.mark.parametrize("order", [64, 128, 512])
    def test_nodes_bit_equal_to_tridiagonal_solver(self, order):
        nodes = gauss_hermite(order)[0]
        assert nodes.tobytes() == oracles.gauss_hermite_nodes_reference(order).tobytes()

    def test_cached_rule_is_bit_equal_and_read_only(self):
        first = gauss_hermite(128)
        second = gauss_hermite(128)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()
            with pytest.raises(ValueError, match="assignment destination is read-only"):
                b[0] = 1.0
        assert gauss_hermite(np.int64(128))[0] is first[0]

    def test_order_one(self):
        nodes, weights, scaled = gauss_hermite(1)
        assert nodes.tolist() == [0.0]
        assert weights[0] == scaled[0] == np.sqrt(np.pi)
        assert not weights.flags.writeable

    def test_maximum_order(self):
        assert GAUSS_HERMITE_MAX_ORDER == 512
        nodes, weights, scaled = gauss_hermite(512)
        assert nodes.size == weights.size == scaled.size == 512
        assert np.all(np.isfinite(weights)) and np.all(np.isfinite(scaled))
        assert np.all(weights >= 0.0)
        assert abs(np.sum(weights) - np.sqrt(np.pi)) < 1e-12
        assert np.array_equal(nodes, -nodes[::-1])

    def test_above_maximum_order(self):
        with pytest.raises(QuadratureUnderResolvedError, match="maximum 512"):
            gauss_hermite(513)

    @pytest.mark.parametrize("bad", [0, -1, np.int64(0), True, False, 128.0,
                                     np.float64(128.0), "128", None])
    def test_rejects_invalid_orders(self, bad):
        with pytest.raises(InvalidArgumentError):
            gauss_hermite(bad)

    def test_invalid_request_leaves_the_cache_alone(self):
        rule = gauss_hermite(128)
        with pytest.raises(BundleqmError):
            gauss_hermite(128.0)
        with pytest.raises(BundleqmError):
            gauss_hermite(513)
        again = gauss_hermite(128)
        assert all(a is b for a, b in zip(rule, again))


U = np.linspace(-4.0, 4.0, 33)
V = np.linspace(-3.0, 5.0, 29)


def _assert_husimi_bit_identical(state):
    got = husimi(state, U, V)
    ref = oracles.husimi_reference(state.coeffs, state.charge, U, V)
    assert got.tobytes() == ref.tobytes()
    assert np.array_equal(bargmann_function(state, U + 1j * V[:, None]),
                          oracles.bargmann_function_reference(state.coeffs,
                                                              U + 1j * V[:, None]))


@pytest.mark.parametrize("charge", [+1, -1])
def test_husimi_eigenstates_bit_identical(charge):
    for n in range(49):
        _assert_husimi_bit_identical(eigenstate(n, charge))


_coefficient = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(_coefficient, min_size=1, max_size=21),
       charge=st.sampled_from([+1, -1]))
def test_husimi_bit_identical_to_allocating_form(coeffs, charge):
    _assert_husimi_bit_identical(FockState(coeffs=np.array(coeffs), charge=charge))


@pytest.mark.parametrize("columns", [3000, 9000])
def test_husimi_row_blocks_bit_identical(columns):
    # 2 rows per block with a short last block, then 1 row of more than a block's cells
    v = np.linspace(-3.0, 5.0, columns)
    state = FockState(coeffs=np.array([0.6, 0.0, -0.8j, 0.1]), charge=-1)
    got = husimi(state, U, v)
    assert got.tobytes() == oracles.husimi_reference(state.coeffs, -1, U, v).tobytes()


def test_bargmann_function_scalar_argument():
    state = FockState(coeffs=np.array([0.5, 0.0, 2.0 - 1j]))
    z = 0.3 - 0.7j
    assert complex(bargmann_function(state, z)) == pytest.approx(
        0.5 + (2.0 - 1j) * z ** 2 / np.sqrt(2.0), rel=1e-15)


def test_husimi_flattens_multidimensional_axes():
    u = np.linspace(-4.0, 4.0, 12).reshape(3, 4)
    state = FockState(coeffs=np.array([0.6, 0.0, -0.8j]), charge=-1)
    got = husimi(state, u, V)
    assert got.shape == (12, V.size)
    assert got.tobytes() == oracles.husimi_reference(state.coeffs, -1, u, V).tobytes()


@pytest.mark.parametrize("charge", [+1, -1])
@pytest.mark.parametrize("frequency_sign", [+1, -1])
def test_fock_phases_bit_identical_to_inline_energy(charge, frequency_sign):
    # E_n comes from oscillator.energy; the exponent once wrote omega(n + 1/2) out
    rng = np.random.default_rng(5)
    for m, omega in [(1.0, 1.0), (0.7, 2.3), (4.0, 0.5), (1e-3, 37.0)]:
        params = OscillatorParams(m=m, omega=omega)
        for size in (1, 7, 40):
            c = rng.normal(size=size) + 1j * rng.normal(size=size)
            state = FockState(c, charge)
            n = np.arange(size)
            assert (hamiltonian_apply(state, params).coeffs.tobytes()
                    == (params.omega * (n + 0.5) * c).tobytes())
            for dt in (0.0, 0.37, -1.25, 1e3):
                got = evolve_schrodinger(state, dt, params, frequency_sign)
                ref = oracles.evolve_schrodinger_reference(c, charge, params, dt,
                                                           frequency_sign)
                assert got.charge == charge
                assert got.coeffs.tobytes() == ref.tobytes()


# Grid kernels evaluate callables on the column x[:, None] and the row
# p[None, :]; the values must be bit-equal to full-mesh evaluation.  The grid
# is not square so that a swapped axis shows.

GRID = ((-3.0, 3.0), (-2.0, 2.5), 61, 47)
GRID_FUNCTIONS = {
    "both axes": lambda X, P: np.exp(-(X ** 2 + P ** 2) / 4.0) * (1 + 0.3j * X - 0.2 * P),
    "product of axes": lambda X, P: np.exp(-0.5j * P * X) * np.exp(-0.5 * X ** 2),
    "x only": lambda X, P: np.exp(-X ** 2) * (1.0 + 0.5j * X),
}


@pytest.mark.parametrize("name", sorted(GRID_FUNCTIONS))
def test_from_function_bit_equal_to_full_mesh(name):
    f = GRID_FUNCTIONS[name]
    sec = GridSection.from_function(f, *GRID)
    assert sec.values.shape == (61, 47)
    assert sec.values.tobytes() == oracles.from_function_reference(f, *GRID).tobytes()


@pytest.mark.parametrize("charge", [+1, -1])
def test_covariant_derivative_bit_equal_to_full_mesh(charge):
    sec = GridSection.from_function(GRID_FUNCTIONS["both axes"], *GRID, charge=charge)
    for _, conn in _gauge_family():
        for direction in ("x", "p"):
            got = covariant_derivative(sec, direction, conn).values
            ref = oracles.covariant_derivative_reference(sec, direction, conn)
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("charge", [+1, -1])
def test_dolbeault_residual_bit_equal_to_full_mesh(charge):
    params = OscillatorParams(m=1.0, omega=2.0)
    for n in range(6):
        def f(X, P):
            z = (X - 1j * charge * params.w2 * P) / np.sqrt(2.0)
            return z ** n * np.exp(-z * np.conj(z) / (2.0 * params.w2))

        sec = GridSection.from_function(f, *GRID, charge=charge)
        got = dolbeault_residual(sec, params).values
        assert got.tobytes() == oracles.dolbeault_residual_reference(sec, params).tobytes()


# The stencil scales complex differences by the reciprocal 1/(2h), the product
# numpy's complex / real division forms, so it may differ from the quotient
# only in the sign of an exact zero; real differences are still divided.

def _assert_stencil_matches(values, h, axis):
    got = diff_axis(values, h, axis)
    ref = oracles.diff_axis_reference(values, h, axis)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    if np.iscomplexobj(values):
        assert np.array_equal(got, ref)
        parts = np.ascontiguousarray(got).view(float)
        differ = parts.view(np.uint64) != np.ascontiguousarray(ref).view(np.uint64)
        assert np.all(parts[differ] == 0.0)
    else:
        assert got.tobytes() == ref.tobytes()


_RNG = np.random.default_rng(8)
_COMPLEX_GRID = _RNG.normal(size=(23, 17)) + 1j * _RNG.normal(size=(23, 17))
# zero real parts of both signs and whole imaginary parts, so that many
# differences are exact zeros
_ZEROS_GRID = np.empty((23, 17), dtype=complex)
_ZEROS_GRID.real = np.where(_RNG.random((23, 17)) < 0.5, 0.0, -0.0)
_ZEROS_GRID.imag = np.round(_COMPLEX_GRID.imag)


@pytest.mark.parametrize("axis", [0, 1])
def test_stencil_bit_equal_without_zeros(axis):
    got = diff_axis(_COMPLEX_GRID, 0.037, axis)
    assert got.tobytes() == oracles.diff_axis_reference(_COMPLEX_GRID, 0.037, axis).tobytes()


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("form", ["complex", "real", "exact zeros", "transposed",
                                  "strided", "three samples"])
def test_stencil_matches_division_form(axis, form):
    values = {
        "complex": _COMPLEX_GRID,
        "real": _COMPLEX_GRID.real.copy(),
        "exact zeros": _ZEROS_GRID,
        "transposed": _COMPLEX_GRID.T,
        "strided": _COMPLEX_GRID[::2, ::3],
        "three samples": _COMPLEX_GRID[:3, :3],
    }[form]
    _assert_stencil_matches(values, 0.25, axis)
    _assert_stencil_matches(values, 1e-300, axis)


@pytest.mark.parametrize("axis", [0, 1])
def test_stencil_of_integers_is_float(axis):
    values = np.round(10.0 * _COMPLEX_GRID.real).astype(np.int64)
    got = diff_axis(values, 0.25, axis)
    ref = oracles.diff_axis_reference(values.astype(float), 0.25, axis)
    assert got.dtype == np.float64 and got.tobytes() == ref.tobytes()


def test_stencil_needs_three_samples():
    with pytest.raises(GridTooSmallError):
        diff_axis(_COMPLEX_GRID[:2], 0.1, 0)


_stencil_part = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                          st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), nx=st.integers(3, 6), ny=st.integers(3, 6),
       axis=st.sampled_from([0, 1]), h=st.floats(1e-6, 1e6),
       real=st.booleans())
def test_stencil_property(data, nx, ny, axis, h, real):
    parts = np.array(data.draw(st.lists(_stencil_part, min_size=2 * nx * ny,
                                        max_size=2 * nx * ny)))
    # interleaved (re, im) pairs viewed as complex keep the sign of each zero
    values = parts[:nx * ny] if real else parts.view(complex)
    _assert_stencil_matches(values.reshape(nx, ny), h, axis)
