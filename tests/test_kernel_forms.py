"""The coordinate Hamiltonian matrix, the trapezoid weights, the Gauss-Hermite
rule and the Husimi recurrence against the forms the package used before they
were sped up."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundleqm.classical import OscillatorParams
from bundleqm.errors import (BundleqmError, InvalidArgumentError,
                             QuadratureUnderResolvedError)
from bundleqm.oscillator import (bargmann_function, coordinate_hamiltonian_matrix,
                                 eigenstate, husimi)
from bundleqm.polarizations import GAUSS_HERMITE_MAX_ORDER, FockState, gauss_hermite
from bundleqm.sections import trapezoid_weights

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


def test_bargmann_function_scalar_argument():
    state = FockState(coeffs=np.array([0.5, 0.0, 2.0 - 1j]))
    z = 0.3 - 0.7j
    assert complex(bargmann_function(state, z)) == pytest.approx(
        0.5 + (2.0 - 1j) * z ** 2 / np.sqrt(2.0), rel=1e-15)
