import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bundleqm import polarizations
from bundleqm.bundles import GridSection, LineSection, vacuum_connection
from bundleqm.classical import OscillatorParams
from bundleqm.errors import (ChargeMismatchError, DecayViolationError, InvalidChargeError,
                             NonMonotoneError, QuadratureUnderResolvedError,
                             WrongPolarizationError)
from bundleqm.polarizations import (FockState, Polarization, bargmann_inverse,
                                    bargmann_pairing, bargmann_transform,
                                    dolbeault_residual, gauss_hermite,
                                    hermite_basis, hermite_functions,
                                    holomorphic_gauge, ladder_apply,
                                    ladder_coordinate, polarization_limit_check)

import oracles

DEFAULT = OscillatorParams()


def polarized_grid(n, h=1e-2, half_width=6.0, charge=+1, w2=1.0, contaminate=False):
    """z^n exp(-z zbar / 2 w^2) (times zbar_q if contaminated), sup-normalized."""
    def f(X, P):
        z = (X - 1j * charge * w2 * P) / np.sqrt(2.0)
        psi = z ** n * np.exp(-z * np.conj(z) / (2 * w2))
        return np.conj(z) * psi if contaminate else psi
    npts = int(round(2 * half_width / h)) + 1
    sec = GridSection.from_function(f, (-half_width, half_width),
                                    (-half_width, half_width), npts, npts, charge=charge)
    return sec.like(sec.values / np.max(np.abs(sec.values)))


def interior_max(values, margin=1):
    return float(np.max(np.abs(values[margin:-margin, margin:-margin])))


class TestPolarizationKind:
    def test_holomorphic_pairs_with_particles(self):
        assert Polarization("holomorphic").admits_charge(+1)
        assert not Polarization("holomorphic").admits_charge(-1)
        assert Polarization("antiholomorphic").admits_charge(-1)
        assert Polarization("coordinate").admits_charge(-1)
        assert Polarization("momentum").admits_charge(+1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Polarization("radial")


class TestDolbeaultResidual:
    @pytest.mark.parametrize("n", [0, 1])
    def test_polarized_sections_are_annihilated(self, n):
        res = dolbeault_residual(polarized_grid(n), DEFAULT)
        assert interior_max(res.values) < 1e-4

    def test_contaminated_section_leaves_the_gaussian(self):
        # analytic oracle: (d/dzbar + z/2w^2)(zbar e^{-zzbar/2}) = e^{-zzbar/2}
        sec = polarized_grid(0, h=1e-2, contaminate=True)
        X, P = np.meshgrid(sec.x, sec.p, indexing="ij")
        z = (X - 1j * P) / np.sqrt(2.0)
        raw_max = np.max(np.abs(np.conj(z) * np.exp(-z * np.conj(z) / 2)))
        expected = np.exp(-z * np.conj(z) / 2) / raw_max
        res = dolbeault_residual(sec, DEFAULT)
        inner = (slice(1, -1), slice(1, -1))
        assert np.max(np.abs(res.values[inner] - expected[inner])) < 1e-3
        assert interior_max(res.values) > 1.0  # far from the polarized kernel

    def test_charge_mirror(self):
        res_p = dolbeault_residual(polarized_grid(2, charge=+1), DEFAULT)
        res_m = dolbeault_residual(polarized_grid(2, charge=-1), DEFAULT)
        assert np.max(np.abs(res_m.values - np.conj(res_p.values))) < 1e-12

    def test_kernel_convergence_order(self):
        errs = [interior_max(dolbeault_residual(polarized_grid(3, h=h), DEFAULT).values)
                for h in (2e-2, 1e-2)]
        assert np.log2(errs[0] / errs[1]) > 1.9

    def test_zbar_dependence_raises_residual_three_orders(self):
        clean = interior_max(dolbeault_residual(polarized_grid(1), DEFAULT).values)
        dirty = interior_max(dolbeault_residual(
            polarized_grid(0, contaminate=True), DEFAULT).values)
        assert dirty / clean > 1e3

    @pytest.mark.parametrize("n", range(6))
    def test_kernel_on_default_grid(self, n):
        # 257x257 grid over [-8w, 8w] x [-8/w, 8/w] (w = 1): sup-normalized
        # residual stays under 2 h^2 for every basis state n <= 5
        def f(X, P):
            z = (X - 1j * P) / np.sqrt(2.0)
            return z ** n * np.exp(-z * np.conj(z) / 2.0)

        def default_grid_section(g):
            return GridSection.from_function(g, (-8.0, 8.0), (-8.0, 8.0), 257, 257)

        sec = default_grid_section(f)
        sec = sec.like(sec.values / np.max(np.abs(sec.values)))
        res = dolbeault_residual(sec, DEFAULT)
        assert interior_max(res.values) < 2.0 * sec.hx ** 2
        # z_bar contamination jumps orders above the kernel floor; the coarse
        # default grid caps the per-state ratio near 1e2 at n = 5 (its own
        # O(h^2) error is the floor) while the h = 1e-2 acceptance grid shows
        # the full >= 3 orders
        dirty = default_grid_section(
            lambda X, P: np.conj((X - 1j * P) / np.sqrt(2.0)) * f(X, P))
        dirty = dirty.like(dirty.values / np.max(np.abs(dirty.values)))
        assert (interior_max(dolbeault_residual(dirty, DEFAULT).values)
                / interior_max(res.values)) > 1e2


class TestHolomorphicGauge:
    def test_components(self):
        conn = holomorphic_gauge(vacuum_connection(), DEFAULT)
        assert conn.a_zbar(1.0 + 0j) == pytest.approx(-1.0)
        rng = np.random.default_rng(0)
        zs = rng.normal(size=100) + 1j * rng.normal(size=100)
        assert np.max(np.abs(conn.a_z(zs))) == 0.0

    def test_curvature_in_complex_coordinates(self):
        # d_z A_zbar - d_zbar A_z = -1/w^2, by the numeric differentiation oracle
        params = OscillatorParams(m=2.0, omega=1.0)
        conn = holomorphic_gauge(vacuum_connection(), params)
        dz_azbar, dzbar_azbar = oracles.complex_partials(conn.a_zbar, 0.4 - 0.9j)
        dz_az, dzbar_az = oracles.complex_partials(conn.a_z, 0.4 - 0.9j)
        curv = dz_azbar - dzbar_az
        assert curv == pytest.approx(-1.0 / params.w2, abs=1e-8)
        assert abs(dzbar_azbar) < 1e-8  # A_zbar is holomorphic

    def test_requires_vacuum_connection(self):
        from bundleqm.bundles import gauge_transform
        shifted = gauge_transform(vacuum_connection(), lambda x, p: x * p)
        with pytest.raises(ValueError):
            holomorphic_gauge(shifted, DEFAULT)


class TestLadderFock:
    def test_lower_annihilates_vacuum(self):
        out = ladder_apply(FockState([1.0]), "lower")
        assert np.array_equal(out.coeffs, [0.0])

    def test_raise_vacuum(self):
        out = ladder_apply(FockState([1.0]), "raise")
        assert np.allclose(out.coeffs, [0.0, 1.0])

    def test_matrix_elements(self):
        state = ladder_apply(FockState([0.0, 0.0, 1.0]), "lower")
        assert state.coeffs[1] == pytest.approx(np.sqrt(2.0))
        state = ladder_apply(FockState([0.0, 0.0, 1.0]), "raise")
        assert state.coeffs[3] == pytest.approx(np.sqrt(3.0))

    def test_commutator_is_identity(self):
        rng = np.random.default_rng(1)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        c[-1] = 0.0  # top coefficient zero so truncation does not bite
        state = FockState(c)
        raised_lowered = ladder_apply(ladder_apply(state, "raise"), "lower")
        lowered_raised = ladder_apply(ladder_apply(state, "lower"), "raise")
        diff = raised_lowered.padded(10) - lowered_raised.padded(10) - state.padded(10)
        assert np.max(np.abs(diff)) < 1e-14


class TestLadderCoordinate:
    def test_lower_kills_ground_state(self):
        sec = LineSection.from_function(lambda x: np.exp(-0.5 * x ** 2), "x", -4, 4, 801)
        out = ladder_coordinate(sec, "lower", DEFAULT)
        assert np.max(np.abs(out.values[1:-1])) < 1e-4

    def test_raise_ground_state_analytic(self):
        # (1/sqrt2)(x - d/dx) e^{-x^2/2} = sqrt(2) x e^{-x^2/2}
        sec = LineSection.from_function(lambda x: np.exp(-0.5 * x ** 2), "x", -4, 4, 801)
        out = ladder_coordinate(sec, "raise", DEFAULT)
        expected = np.sqrt(2.0) * sec.coords * sec.values
        assert np.max(np.abs(out.values[1:-1] - expected[1:-1])) < 1e-4

    def test_commutator_is_identity_to_h2(self):
        errs = []
        for h in (2e-2, 1e-2):
            n = int(round(8.0 / h)) + 1
            sec = LineSection.from_function(
                lambda x: np.exp(-0.5 * x ** 2) * (1 + 0.2 * x), "x", -4, 4, n)
            lr = ladder_coordinate(ladder_coordinate(sec, "raise", DEFAULT), "lower", DEFAULT)
            rl = ladder_coordinate(ladder_coordinate(sec, "lower", DEFAULT), "raise", DEFAULT)
            errs.append(np.max(np.abs((lr.values - rl.values - sec.values)[2:-2])))
        assert errs[1] < 1e-3
        assert np.log2(errs[0] / errs[1]) > 1.9

    def test_single_raise_matches_hermite_ladder(self):
        # raise(h_n)/sqrt(n+1) = h_{n+1}; the stable route used by the
        # spectrum cross-check (chained raising amplifies grid noise)
        h = 2.5e-4
        n_pts = int(round(20.0 / h)) + 1
        x = np.linspace(-10, 10, n_pts)
        basis = hermite_basis(10, x, DEFAULT)
        worst = 0.0
        for n in range(10):
            sec = LineSection(axis="x", coords=x, values=basis[n])
            up = ladder_coordinate(sec, "raise", DEFAULT).values / np.sqrt(n + 1)
            worst = max(worst, np.max(np.abs(up[2:-2] - basis[n + 1][2:-2])))
        assert worst < 1e-6

    def test_wrong_polarization(self):
        sec = LineSection.from_function(lambda p: np.exp(-p ** 2), "p", -3, 3, 301)
        with pytest.raises(WrongPolarizationError):
            ladder_coordinate(sec, "lower", DEFAULT)


class TestGaussHermite:
    def test_matches_numpy_rule(self):
        nodes, weights, _ = gauss_hermite(20)
        ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(20)
        assert np.max(np.abs(nodes - ref_nodes)) < 1e-12
        assert np.max(np.abs(weights - ref_weights)) < 1e-13

    def test_node_symmetry(self):
        nodes, _, _ = gauss_hermite(128)
        assert np.max(np.abs(nodes + nodes[::-1])) == 0.0

    def test_moment(self):
        nodes, weights, _ = gauss_hermite(8)
        assert np.sum(weights * nodes ** 4) == pytest.approx(0.75 * np.sqrt(np.pi))


class TestBargmannTransform:
    def test_ground_state_is_e0(self):
        state = bargmann_transform(
            lambda x: np.pi ** -0.25 * np.exp(-0.5 * x ** 2), 6, 128, DEFAULT)
        target = np.zeros(7)
        target[0] = 1.0
        assert np.max(np.abs(state.coeffs - target)) < 1e-10

    def test_h3_is_e3(self):
        state = bargmann_transform(lambda x: hermite_basis(3, x, DEFAULT)[3],
                                   6, 128, DEFAULT)
        assert abs(state.coeffs[3] - 1.0) < 1e-10
        assert np.max(np.abs(np.delete(state.coeffs, 3))) < 1e-10

    def test_zero_section(self):
        sec = LineSection.from_function(lambda x: 0.0 * x, "x", -8, 8, 1601)
        state = bargmann_transform(sec, 4, 32, DEFAULT)
        assert np.array_equal(state.coeffs, np.zeros(5))

    def test_coefficients_against_trapezoid_oracle(self):
        f = lambda x: np.exp(-0.45 * x ** 2) * (1 + 0.5 * x - 0.2 * x ** 2)
        state = bargmann_transform(f, 6, 64, DEFAULT)
        xs = np.linspace(-12, 12, 20001)
        for n in (0, 1, 4):
            ref = np.trapezoid(oracles.hermite_function_reference(n, xs) * f(xs), xs)
            assert state.coeffs[n] == pytest.approx(ref, abs=1e-10)

    def test_sampled_section_path(self):
        xs = np.linspace(-12, 12, 6001)
        sec = LineSection(axis="x", coords=xs,
                          values=hermite_basis(5, xs, DEFAULT)[5], charge=+1)
        state = bargmann_transform(sec, 8, 64, DEFAULT)
        assert abs(state.coeffs[5] - 1.0) < 1e-9
        assert np.max(np.abs(np.delete(state.coeffs, 5))) < 1e-9

    def test_round_trip_band_limited(self):
        rng = np.random.default_rng(2)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        c /= np.linalg.norm(c)
        xs = np.linspace(-12, 12, 4001)
        sec = bargmann_inverse(FockState(c), xs, DEFAULT)
        back = bargmann_transform(sec, 8, 64, DEFAULT)
        assert np.max(np.abs(back.coeffs - c)) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                              allow_infinity=False),
                           min_size=1, max_size=13),
           m_omega=st.sampled_from([(1.0, 1.0), (1.0, 4.0), (2.0, 0.7), (0.5, 3.0)]))
    def test_sampled_path_agrees_with_callable_path(self, coeffs, m_omega):
        # the trapezoid sum on samples against Gauss-Hermite on the callable
        c = np.array(coeffs, dtype=complex)
        norm = np.linalg.norm(c)
        assume(norm > 1e-3)
        state = FockState(c / norm)
        params = OscillatorParams(*m_omega)
        sec = bargmann_inverse(state, params.w * np.linspace(-12, 12, 4001), params)
        sampled = bargmann_transform(sec, 12, 128, params)
        called = bargmann_transform(
            lambda x: state.coeffs @ hermite_basis(state.truncation, x, params),
            12, 128, params)
        assert np.max(np.abs(sampled.coeffs - called.coeffs)) <= 1e-12

    def test_round_trip_on_a_coarse_grid(self):
        # 561 samples on [-12, 12]: the trapezoid sum on a uniform grid of a
        # decaying analytic state converges exponentially in the spacing
        rng = np.random.default_rng(11)
        c = rng.normal(size=13) + 1j * rng.normal(size=13)
        c /= np.linalg.norm(c)
        sec = bargmann_inverse(FockState(c), np.linspace(-12, 12, 561), DEFAULT)
        back = bargmann_transform(sec, 12, 128, DEFAULT)
        assert np.max(np.abs(back.coeffs - c)) <= 1e-12

    def test_sampled_path_checks_quad_order_like_callables(self):
        sec = LineSection.from_function(lambda x: np.exp(-x ** 2), "x", -8, 8, 801)
        with pytest.raises(QuadratureUnderResolvedError, match="floor"):
            bargmann_transform(sec, 8, 17, DEFAULT)
        with pytest.raises(QuadratureUnderResolvedError, match="maximum"):
            bargmann_transform(sec, 8, 513, DEFAULT)

    def test_unitarity_against_line_norm(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=21) + 1j * rng.normal(size=21)
        c /= np.linalg.norm(c)
        xs = np.linspace(-14, 14, 8001)
        sec = bargmann_inverse(FockState(c), xs, DEFAULT)
        assert abs(sec.norm_sq() - 1.0) < 1e-8

    def test_quadrature_under_resolved(self):
        with pytest.raises(QuadratureUnderResolvedError):
            bargmann_transform(lambda x: np.exp(-x ** 2), 8, 17, DEFAULT)

    def test_decay_violation(self):
        sec = LineSection.from_function(lambda x: np.ones_like(x) + 0j, "x", -4, 4, 401)
        with pytest.raises(DecayViolationError):
            bargmann_transform(sec, 2, 16, DEFAULT)

    def test_momentum_section_rejected(self):
        sec = LineSection.from_function(lambda p: np.exp(-p ** 2), "p", -6, 6, 601)
        with pytest.raises(WrongPolarizationError):
            bargmann_transform(sec, 2, 16, DEFAULT)

    # the charge follows read_grid_csv's rule: the section's own, or +1 for a
    # callable; a charge given must be +1 or -1 and agree with the section's.
    # A section once ignored it, so charge="junk" or a wrong sign returned quietly.
    @pytest.mark.parametrize("section_charge", [+1, -1])
    def test_section_keeps_its_charge(self, section_charge):
        sec = bargmann_inverse(FockState([0.6, 0.8], section_charge),
                               np.linspace(-12, 12, 801), DEFAULT)
        for given in (None, section_charge):
            state = bargmann_transform(sec, 4, 16, DEFAULT, charge=given)
            assert state.charge == section_charge
            assert np.max(np.abs(state.coeffs - [0.6, 0.8, 0, 0, 0])) < 1e-12

    @pytest.mark.parametrize("section_charge", [+1, -1])
    def test_section_charge_mismatch(self, section_charge):
        sec = bargmann_inverse(FockState([1.0], section_charge),
                               np.linspace(-12, 12, 801), DEFAULT)
        with pytest.raises(ChargeMismatchError, match="caller expected"):
            bargmann_transform(sec, 2, 16, DEFAULT, charge=-section_charge)

    @pytest.mark.parametrize("given, expected", [(None, +1), (+1, +1), (-1, -1),
                                                 (np.int64(-1), -1)])
    def test_callable_charge(self, given, expected):
        state = bargmann_transform(lambda x: hermite_basis(1, x, DEFAULT)[1], 2, 16, DEFAULT,
                                   charge=given)
        assert state.charge == expected and type(state.charge) is int

    @pytest.mark.parametrize("bad", ["junk", 0, 2, True, 1.0])
    def test_invalid_charge_in_both_branches(self, bad):
        sec = LineSection.from_function(lambda x: np.exp(-x ** 2), "x", -8, 8, 801)
        for arg in (sec, lambda x: np.exp(-x ** 2)):
            with pytest.raises(InvalidChargeError):
                bargmann_transform(arg, 2, 16, DEFAULT, charge=bad)

    def test_nonunit_width(self):
        params = OscillatorParams(m=1.0, omega=4.0)  # w = 1/2
        state = bargmann_transform(lambda x: hermite_basis(2, x, params)[2],
                                   5, 48, params)
        assert abs(state.coeffs[2] - 1.0) < 1e-10

    def test_fock_matrix_elements_match_coordinate_ladder(self):
        # <h_m, a h_n> by quadrature equals sqrt(n) delta_{m,n-1}
        h = 2.5e-4
        n_pts = int(round(20.0 / h)) + 1
        x = np.linspace(-10, 10, n_pts)
        basis = hermite_basis(10, x, DEFAULT)
        worst = 0.0
        for n in range(1, 11):
            sec = LineSection(axis="x", coords=x, values=basis[n])
            low = ladder_coordinate(sec, "lower", DEFAULT).values
            overlap = np.trapezoid(basis[n - 1] * low, x)
            worst = max(worst, abs(overlap - np.sqrt(n)))
        assert worst < 1e-6


class TestBargmannPairing:
    def test_orthonormality(self):
        e2 = FockState([0, 0, 1.0])
        e1 = FockState([0, 1.0])
        assert bargmann_pairing(e2, e2) == pytest.approx(1.0)
        assert bargmann_pairing(e1, e2) == 0.0

    def test_charge_mismatch(self):
        with pytest.raises(ChargeMismatchError):
            bargmann_pairing(FockState([1.0], +1), FockState([1.0], -1))

    def test_monomial_pairing_against_2d_quadrature(self):
        for m in range(7):
            for n in range(7):
                ref = oracles.gauss_hermite_2d_pairing(m, n)
                coeff = 1.0 if m == n else 0.0
                assert abs(ref - coeff) < 1e-8
        # and the coefficient pairing reproduces the same table
        for m in range(7):
            em = FockState(np.eye(7)[m])
            for n in range(7):
                en = FockState(np.eye(7)[n])
                assert bargmann_pairing(em, en) == (1.0 if m == n else 0.0)


class TestLimitChecks:
    def test_w_to_zero_residuals_decrease(self):
        report = polarization_limit_check(DEFAULT, [1.0, 0.5, 0.25])
        assert report.direction == "w->0"
        assert report.strictly_decreasing

    def test_w_to_infinity_residuals_decrease(self):
        report = polarization_limit_check(DEFAULT, [1.0, 2.0, 4.0])
        assert report.direction == "w->inf"
        assert report.strictly_decreasing

    @pytest.mark.parametrize("ws, power", [([1.0, 0.5, 0.25], 2), ([1.0, 2.0, 4.0], -4)])
    def test_residuals_follow_the_continuum_scaling(self, ws, power):
        # in the continuum the rescaled residual peaks at p = +/-4 (w -> 0) or
        # x = +/-4 (w -> inf) as 4 w^power / sqrt(2); the stencil at h = 0.05
        # stays within 2% of it
        report = polarization_limit_check(OscillatorParams(m=3.0), ws, charge=-1)
        assert report.w_values == ws
        expected = [4.0 / np.sqrt(2.0) * w ** power for w in ws]
        assert report.residual_norms == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize("ws", [[1.0, 0.5, 0.25], [1.0, 2.0, 4.0]])
    def test_a_charge_blind_operator_fails_the_check(self, monkeypatch, ws):
        # the check runs the library's Dolbeault operator: one that treats
        # every section as charge +1 breaks the charge -1 limits
        real = polarizations.dolbeault_residual

        def charge_blind(sec, params):
            return real(GridSection(x=sec.x, p=sec.p, values=sec.values, charge=+1), params)

        monkeypatch.setattr(polarizations, "dolbeault_residual", charge_blind)
        assert polarization_limit_check(DEFAULT, ws, charge=+1).strictly_decreasing
        assert not polarization_limit_check(DEFAULT, ws, charge=-1).strictly_decreasing

    def test_charge_mirror(self):
        rp = polarization_limit_check(DEFAULT, [1.0, 0.5, 0.25], charge=+1)
        rm = polarization_limit_check(DEFAULT, [1.0, 0.5, 0.25], charge=-1)
        assert rp.residual_norms == rm.residual_norms

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneError):
            polarization_limit_check(DEFAULT, [1.0, 2.0, 1.5])


# every finite float64, subnormals and both signed zeros included
_part = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308]),
                  st.floats(allow_nan=False, allow_infinity=False))


class TestFockStateSerialization:
    def test_json_text(self):
        text = FockState([0.1, -0.25j], charge=-1).to_json(OscillatorParams(omega=4.0))
        # Python's shortest round-trip text, not %.17g: 0.1 stays 0.1, -0.0 stays a float
        assert json.loads(text) == {"coeffs": [[0.1, 0.0], [-0.0, -0.25]], "charge": -1,
                                    "w": 0.5}
        assert '[0.1, 0.0]' in text and '[-0.0, -0.25]' in text

    @given(pairs=st.lists(st.tuples(_part, _part), min_size=1, max_size=8),
           charge=st.sampled_from([+1, -1]),
           m=st.floats(1e-3, 1e3), omega=st.floats(1e-3, 1e3))
    def test_json_round_trip(self, pairs, charge, m, omega):
        state = FockState(np.array([complex(re, im) for re, im in pairs]), charge=charge)
        params = OscillatorParams(m=m, omega=omega)
        back, w = FockState.from_json(state.to_json(params))
        # bytes, not np.array_equal, so that the sign of a zero part counts
        assert back.coeffs.tobytes() == state.coeffs.tobytes()
        assert back.charge == charge and w == params.w


class TestHermiteFunctions:
    def test_against_polynomial_reference(self):
        xs = np.linspace(-5, 5, 101)
        ours = hermite_functions(8, xs)
        for n in (0, 1, 5, 8):
            ref = oracles.hermite_function_reference(n, xs)
            assert np.max(np.abs(ours[n] - ref)) < 1e-12

    def test_orthonormal(self):
        xs = np.linspace(-16, 16, 8001)
        basis = hermite_functions(12, xs)
        gram = np.trapezoid(basis[:, None, :] * basis[None, :, :], xs, axis=2)
        assert np.max(np.abs(gram - np.eye(13))) < 1e-12
