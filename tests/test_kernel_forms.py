"""The coordinate Hamiltonian matrix against an independent build of its form
and its observed order; the trapezoid weights, the Gauss-Hermite rule and its
node basis, the Hermite rows, the Husimi recurrence and its levels, the Fock
phases, the first-derivative stencil, the grid kernels on broadcast axes, the
loop builders and the holonomy's loop integral against the forms the package
used before they were sped up or simplified."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bundleqm.bundles import covariant_derivative
from bundleqm.classical import OscillatorParams, loop_log
from bundleqm.checks import _gauge_family, suite_bargmann, suite_husimi
from bundleqm.cli import RunConfig
from bundleqm.errors import (BundleqmError, GridTooSmallError, InvalidArgumentError,
                             NonFiniteError, QuadratureUnderResolvedError)
from bundleqm.orbifold import circle_loop, ellipse_loop, square_loop
from bundleqm.oscillator import (bargmann_function, coordinate_hamiltonian_matrix,
                                 eigenstate, evolve_schrodinger, hamiltonian_apply, husimi,
                                 husimi_levels)
from bundleqm.polarizations import (GAUSS_HERMITE_MAX_ORDER, FockState, _gauss_hermite_rule,
                                    bargmann_transform, dolbeault_residual, gauss_hermite,
                                    hermite_basis, hermite_functions)
from bundleqm.sections import GridSection, LineSection, diff_axis, trapezoid_weights

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
    assert np.array_equal(mat, mat.T)
    assert np.max(np.abs(mat - ref)) <= 1e-12


def test_coordinate_matrix_error_is_fourth_order():
    # without the Richardson step the error would only fall by 2^2 per halving
    def worst_error(h):
        mat = coordinate_hamiltonian_matrix(10, OscillatorParams(), h=h)
        return np.max(np.abs(np.linalg.eigvalsh(mat) - (np.arange(11) + 0.5)))

    coarse, fine = worst_error(1e-2), worst_error(5e-3)
    assert fine < 2e-7
    assert coarse / fine >= 2 ** 3.5


def test_coordinate_matrix_needs_three_samples():
    with pytest.raises(GridTooSmallError):
        coordinate_hamiltonian_matrix(2, OscillatorParams(), half_width=1.0, h=2.0)


def test_coordinate_matrix_needs_five_samples():
    # every other sample of five is three, the least diff_axis takes
    assert coordinate_hamiltonian_matrix(2, OscillatorParams(), half_width=1.0,
                                         h=0.5).shape == (3, 3)
    with pytest.raises(GridTooSmallError, match="at least 5 samples, got 4"):
        coordinate_hamiltonian_matrix(2, OscillatorParams(), half_width=1.0, h=2 / 3)


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


@pytest.mark.parametrize("coords", [
    np.linspace(-8.0, 8.0, 257), np.linspace(-12.0, 12.0, 4001), np.linspace(0.0, 1.0, 2),
    np.cumsum(np.random.default_rng(5).uniform(0.01, 1.0, size=300)) - 3.0,
    np.geomspace(1e-3, 1e3, 41), np.array([0.5])],
    ids=["uniform-257", "uniform-4001", "two-points", "non-uniform", "geometric", "one-point"])
def test_trapezoid_weights_bit_equal_to_padded_form(coords):
    got = trapezoid_weights(coords)
    assert got.tobytes() == oracles.trapezoid_weights_reference(coords).tobytes()


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

    @pytest.mark.parametrize("order", [1, 2, 128])
    def test_rule_keeps_its_node_basis_read_only(self, order):
        rule = _gauss_hermite_rule(order)
        three = gauss_hermite(order)
        assert len(three) == 3
        assert all(a is b for a, b in zip(three, rule))
        assert all(a is b for a, b in zip(three, gauss_hermite(order)))
        basis = rule[3]
        assert basis.tobytes() == hermite_functions(order - 1, rule[0]).tobytes()
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            basis[0, 0] = 1.0

    # the callable branch slices the rule's basis; quad_order >= 2 n_max + 2
    # bounds n_max by order // 2 - 1
    @pytest.mark.parametrize("order", [2, 128, 512])
    def test_callable_transform_bit_equal_to_fresh_basis(self, order):
        params = OscillatorParams(m=0.6, omega=1.7)

        def psi(x):
            return np.exp(-0.4 * x ** 2) * (1.0 + 0.5j * x - 0.2 * x ** 2)

        nodes, _, scaled = gauss_hermite(order)
        psi_nodes = np.asarray(psi(params.w * nodes), dtype=complex)
        for n_max in range(order // 2):
            got = bargmann_transform(psi, n_max, order, params).coeffs
            ref = np.sqrt(params.w) * hermite_functions(n_max, nodes) @ (scaled * psi_nodes)
            assert got.tobytes() == ref.tobytes()

    def test_sampled_transform_builds_no_rule(self):
        # the samples are integrated by trapezoid; quad_order is only checked
        x = np.linspace(-12.0, 12.0, 481)
        sec = LineSection("x", x, np.exp(-0.5 * x ** 2))
        before = _gauss_hermite_rule.cache_info()
        assert bargmann_transform(sec, 2, 512, OscillatorParams()).coeffs.size == 3
        assert _gauss_hermite_rule.cache_info() == before

    def test_invalid_request_leaves_the_cache_alone(self):
        rule = gauss_hermite(128)
        with pytest.raises(BundleqmError):
            gauss_hermite(128.0)
        with pytest.raises(BundleqmError):
            gauss_hermite(513)
        again = gauss_hermite(128)
        assert all(a is b for a, b in zip(rule, again))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_max=st.integers(0, 40),
       x=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=50),
       m_omega=st.sampled_from([(1.0, 1.0), (0.6, 1.7), (25.0, 0.05)]))
def test_hermite_rows_do_not_depend_on_rows_after(data, n_max, x, m_omega):
    # verify's bargmann suite reads each h_m from one table of h_0..h_20
    params = OscillatorParams(*m_omega)
    m = data.draw(st.integers(0, n_max))
    assert (hermite_basis(n_max, x, params)[m].tobytes()
            == hermite_basis(m, x, params)[m].tobytes())


def test_suite_bargmann_analysis_equals_per_row_calls():
    # the suite's two analysis values written out with h_m from hermite_basis(m)
    params = RunConfig().params
    worst_off = worst_diag = 0.0
    for m in range(21):
        coeffs = bargmann_transform(lambda x: hermite_basis(m, x, params)[m], 20, 128,
                                    params).coeffs
        err = np.abs(coeffs - np.eye(21)[m])
        worst_diag = max(worst_diag, float(err[m]))
        worst_off = max(worst_off, float(np.max(np.delete(err, m))))
    assert [c.measured for c in suite_bargmann(RunConfig())[:2]] == [worst_off, worst_diag]


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


def _assert_husimi_level_matches(q, n, charge, u, v):
    # within 4(n+1) units of the last place, relative, wherever husimi's value
    # is at least 1e-290; below that both are tiny
    ref = husimi(eigenstate(n, charge), u, v)
    held = ref >= 1e-290
    assert np.all(np.abs(q - ref)[held] <= 4 * (n + 1) * 2.0 ** -52 * ref[held])
    assert np.all(q[~held] <= 2e-290)


@pytest.mark.parametrize("charge", [+1, -1])
def test_husimi_levels_match_husimi(charge):
    # the levels take no charge: they match husimi's fields at either one
    levels = list(husimi_levels(10, U, V))
    assert len(levels) == 11
    for n, q in enumerate(levels):
        _assert_husimi_level_matches(q, n, charge, U, V)
    *_, q_97 = husimi_levels(97, U, V)
    _assert_husimi_level_matches(q_97, 97, charge, U, V)


_axis = st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=9).map(np.array)


@settings(max_examples=40, deadline=None)
@given(u=_axis, v=_axis, n_max=st.integers(0, 100), charge=st.sampled_from([+1, -1]),
       data=st.data())
def test_husimi_levels_match_husimi_property(u, v, n_max, charge, data):
    k = data.draw(st.integers(0, n_max), label="k")
    for n, q in enumerate(husimi_levels(n_max, u, v)):
        if n in (k, n_max):
            _assert_husimi_level_matches(q, n, charge, u, v)


# An axis that equals its reversed negation: any half, its entries in any
# order, with a middle 0.0 or -0.0 at odd lengths; so also a lone 0.0, and
# pairs of +/-0.0
_mirrored_axis = st.tuples(
    st.lists(st.floats(-12.0, 12.0) | st.sampled_from([0.0, -0.0]), max_size=6),
    st.sampled_from([[], [0.0], [-0.0]]),
).map(lambda parts: np.concatenate([-np.array(parts[0][::-1], float), parts[1], parts[0]]))


@pytest.mark.parametrize("u_axis, v_axis", [(_mirrored_axis, _mirrored_axis), (_axis, _axis),
                                            (_mirrored_axis, _axis), (_axis, _mirrored_axis)],
                         ids=["mirrored", "unmirrored", "mirrored-u", "mirrored-v"])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n_max=st.integers(0, 100))
def test_husimi_fold_bit_identical(u_axis, v_axis, data, n_max):
    # the fold takes each field from a quarter, a half or all of the grid;
    # every byte is the whole grid's recurrence
    u, v = data.draw(u_axis, label="u"), data.draw(v_axis, label="v")
    expected = [q.tobytes() for q in oracles.husimi_levels_reference(n_max, u, v)]
    assert [q.tobytes() for q in husimi_levels(n_max, u, v)] == expected


def test_husimi_levels_keep_quarter_grid_arrays():
    # on two mirrored axes r, exp(-r) and R_n hold 129^2 cells, not 257^2:
    # with the yielded field and one reversed block the peak is about two
    # fields, where the whole grid's four arrays reach four
    def peak_fields(u, v):
        tracemalloc.start()
        try:
            for q in husimi_levels(10, u, v):
                del q
            return tracemalloc.get_traced_memory()[1] / (8 * u.size * v.size)
        finally:
            tracemalloc.stop()

    assert peak_fields(np.linspace(-8.0, 8.0, 257), np.linspace(-8.0, 8.0, 257)) < 2.25
    assert peak_fields(np.linspace(-8.0, 8.5, 257), np.linspace(-8.0, 8.5, 257)) > 3.75


def test_husimi_levels_overflow_where_husimi_does():
    # |z'|^2 reaches 2592 in the corners, where r^n / n! leaves the float range
    # from n = 201 on (and where exp(-r) is 0, so the field would hold inf * 0)
    u = np.linspace(-36.0, 36.0, 73)
    levels = husimi_levels(220, u, u)
    for n in range(201):
        _assert_husimi_level_matches(next(levels), n, +1, u, u)
    for n in (201, 220):
        with pytest.raises(NonFiniteError, match="Husimi"):
            husimi(eigenstate(n), u, u)
    with pytest.raises(NonFiniteError, match="Husimi"):
        next(levels)


@pytest.mark.parametrize("u", [1e200, -1e200, 1.4e154], ids=["1e200", "-1e200", "1.4e154"])
def test_husimi_levels_where_r_overflows(u):
    # u^2 is inf: Q_0 = inf^0 exp(-inf) / pi is the 0 that husimi gives, and
    # Q_1 holds inf * 0, which both refuse
    q_0, = husimi_levels(0, [u], [0.0])
    assert q_0.tobytes() == husimi(eigenstate(0), [u], [0.0]).tobytes() == bytes(8)
    levels = husimi_levels(1, [0.0], [u])
    assert next(levels).tobytes() == bytes(8)
    with pytest.raises(NonFiniteError, match="Husimi"):
        husimi(eigenstate(1), [0.0], [u])
    with pytest.raises(NonFiniteError, match="Husimi"):
        next(levels)


def test_suite_husimi_checks_equal_per_level_calls():
    # the suite's three values written out level by level, bit for bit, from
    # the fields the suite takes; test_husimi_levels_match_husimi holds those
    # to husimi's within a few ulp, so the bits of a mass may differ between
    # the two forms and between BLAS kernels
    u = np.linspace(-8.0, 8.0, 257)
    wt = trapezoid_weights(u)
    q0 = husimi(eigenstate(0), np.array([0.0]), np.array([0.0]))
    worst_norm, worst_loc = 0.0, 0.0
    for n, q in enumerate(husimi_levels(10, u, u)):
        total = float(wt @ q @ wt)
        worst_norm = max(worst_norm, abs(total - 1.0))
        i, j = np.unravel_index(int(np.argmax(q)), q.shape)
        worst_loc = max(worst_loc, abs(np.hypot(u[i], u[j]) - np.sqrt(n)))
    expected = [float(abs(q0[0, 0] - 1 / np.pi)), worst_norm, worst_loc]
    assert [c.measured for c in suite_husimi(RunConfig())] == expected


def test_husimi_mass_contraction_equals_nested_trapezoid():
    # verify's Husimi mass, two dot products with the trapezoid weights, is
    # the nested np.trapezoid it replaced up to rounding
    u = np.linspace(-8.0, 8.0, 257)
    wt = trapezoid_weights(u)
    for q in husimi_levels(10, u, u):
        nested = np.trapezoid(np.trapezoid(q, u, axis=1), u)
        assert abs(wt @ q @ wt - nested) <= 1e-15


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


@pytest.mark.parametrize("shape", [(7,), (4, 5, 6)])
@pytest.mark.parametrize("layout", ["C", "reversed axes"])
def test_stencil_on_every_axis(shape, layout):
    rng = np.random.default_rng(9)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if layout == "reversed axes":
        values = np.ascontiguousarray(values.T).T
    for axis in range(-len(shape), len(shape)):
        _assert_stencil_matches(values, 0.25, axis)


@settings(deadline=None)
@given(data=st.data(), shape=st.lists(st.integers(3, 5), min_size=1, max_size=3),
       h=st.floats(1e-6, 1e6), real=st.booleans())
def test_stencil_property(data, shape, h, real):
    size = int(np.prod(shape))
    axis = data.draw(st.integers(-len(shape), len(shape) - 1), label="axis")
    parts = data.draw(arrays(np.float64, 2 * size, elements=_stencil_part), label="parts")
    # interleaved (re, im) pairs viewed as complex keep the sign of each zero
    values = parts[:size] if real else parts.view(complex)
    _assert_stencil_matches(values.reshape(shape), h, axis)


# The loop builders share one helper for their checks and parameters; each
# keeps the points of its own formula, bit for bit, at the library's default
# of 4096 samples and at the 256 that verify's holonomy suite builds, so the
# suite's report.json values stay put.
LOOP_BUILDERS = {"circle": circle_loop, "square": square_loop,
                 "ellipse": lambda center, radii, samples: ellipse_loop(center, *radii, samples)}


@pytest.mark.parametrize("shape, size", [("circle", 1.0), ("circle", 0.37),
                                         ("ellipse", (2.0, 0.7)), ("ellipse", (0.3, 1.9)),
                                         ("square", 1.0), ("square", 2.5)])
@pytest.mark.parametrize("center, samples", [(0j, 4096), (5.0 + 0j, 4096), (0j, 256),
                                             (5.0 + 0j, 256), (-0.3 + 1.7j, 7),
                                             (1e3 - 2e-3j, 1)])
def test_loop_bit_equal_to_its_formula(shape, size, center, samples):
    loop = LOOP_BUILDERS[shape](center, size, samples)
    ref = oracles.loop_reference(shape, center, size, samples)
    assert loop.shape == (samples + 1,)
    assert loop.tobytes() == ref.tobytes()


def _loop_log_reference(loop):
    """oint dpsi/psi as the sum of numpy's complex logs of the ratios, the
    form levi_civita_transport took before its parts came from real ufuncs."""
    z = np.asarray(loop)
    return complex(np.sum(np.log(z[1:] / z[:-1])))


def _assert_loop_log_agrees(loop):
    # the angles agree within a few ulp of 2pi; the reference's real part
    # sums N logs of ratios that are 1 within rounding, each off by about an
    # ulp, where the telescoped log|z_N/z_0| has one rounding
    total, ref = loop_log(loop, 3), _loop_log_reference(loop)
    assert abs(total.imag - ref.imag) <= 4 * np.spacing(2 * np.pi)
    assert abs(total.real - ref.real) <= (len(loop) - 1) * np.spacing(1.0)


@pytest.mark.parametrize("loop", [circle_loop(), square_loop(), ellipse_loop(),
                                  circle_loop(5.0 + 0j, 1.0), circle_loop(4 + 1j, 1.0),
                                  ellipse_loop(0.3 - 0.2j, 1.5, 0.6, 777),
                                  square_loop(-2.0 + 0.5j, 3.0, 64)],
                         ids=["circle", "square", "ellipse", "far", "near-2pi", "odd", "coarse"])
def test_loop_log_agrees_with_complex_logs(loop):
    _assert_loop_log_agrees(loop)


@settings(max_examples=60, deadline=None)
@given(center=st.complex_numbers(max_magnitude=10.0), size=st.floats(0.1, 5.0),
       shape=st.sampled_from(["circle", "square"]), samples=st.integers(64, 8192))
def test_loop_log_agrees_with_complex_logs_property(center, size, shape, samples):
    loop = LOOP_BUILDERS[shape](center, size, samples)
    assume(np.min(np.abs(loop)) > 0.1 * size)
    _assert_loop_log_agrees(loop)
