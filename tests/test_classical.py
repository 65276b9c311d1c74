import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bundleqm.classical import (ClassicalState, ComplexStructure, OscillatorParams,
                                PhasePoint, complex_coordinate, evolve_classical,
                                hamiltonian_energy, hamiltonian_vector_field,
                                kahler_metric, moment_map, phase_coordinates,
                                rotation_generator, symplectic_reduce,
                                trajectory_times, winding_number)
from bundleqm.errors import (InvalidArgumentError, OpenCurveError, UndersampledError,
                             ZeroCrossingError, ZeroPointError)

import oracles

DEFAULT = OscillatorParams()


class TestParams:
    def test_w2_stored_consistently(self):
        assert OscillatorParams().w2 == 1.0
        assert OscillatorParams(m=1.0, omega=4.0).w2 * 4.0 == 1.0

    def test_w2_roundtrip_within_ulp(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, omega = rng.uniform(0.1, 10.0, size=2)
            params = OscillatorParams(m=m, omega=omega)
            assert abs(params.w2 * m * omega - 1.0) < 5e-16
            assert params.w2 > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OscillatorParams(m=-1.0)
        with pytest.raises(ValueError):
            OscillatorParams(omega=0.0)

    # each factor is finite and positive, but m*omega, w^2 or w^4 is not
    @pytest.mark.parametrize("m, omega", [(1e-200, 1e-200), (1e300, 1e300),
                                          (1e-310, 1.0), (1.0, 1e-155), (1e-100, 1e-60)])
    def test_rejects_derived_scales_out_of_range(self, m, omega):
        with pytest.raises(InvalidArgumentError, match="m\\*omega"):
            OscillatorParams(m=m, omega=omega)

    @pytest.mark.parametrize("m, omega", [(1e150, 1.0), (1e-150, 1.0), (1e-200, 1e200)])
    def test_accepts_extreme_factors_with_usable_scales(self, m, omega):
        params = OscillatorParams(m=m, omega=omega)
        for value in (params.w2, params.w, params.w4):
            assert 0 < value < np.inf

    @given(m=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           omega=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_accepted_params_have_finite_nonzero_scales(self, m, omega):
        try:
            params = OscillatorParams(m=m, omega=omega)
        except InvalidArgumentError:
            with np.errstate(over="ignore", divide="ignore"):
                mw = np.float64(m) * omega
                w4 = (1.0 / mw) * (1.0 / mw)
            assert not (0 < mw < np.inf and 0 < w4 < np.inf)
            return
        for value in (m * omega, params.w2, params.w, params.w4):
            assert 0 < value < np.inf


class TestPhasePoint:
    def test_z_minus_is_conjugate_of_z_plus(self):
        rng = np.random.default_rng(1)
        params = OscillatorParams(m=2.0, omega=0.7)
        for _ in range(50):
            pt = PhasePoint(*rng.normal(size=2))
            assert pt.z_minus(params) == np.conj(pt.z_plus(params))

    def test_round_trip_machine_precision(self):
        rng = np.random.default_rng(2)
        params = OscillatorParams(m=0.5, omega=3.0)
        for _ in range(50):
            pt = PhasePoint(*rng.normal(size=2))
            back = PhasePoint.from_z_plus(pt.z_plus(params), params)
            assert back.x == pytest.approx(pt.x, rel=1e-15, abs=1e-15)
            assert back.p == pytest.approx(pt.p, rel=1e-15, abs=1e-15)


SIGNED = [0.0, -0.0, 1.5, -1.5, 3e-300, -2.25, 7.0]
MAP_PARAMS = [OscillatorParams(), OscillatorParams(m=0.6, omega=1.7)]


def _bits(*values):
    return b"".join(np.asarray(v, dtype=complex).tobytes() for v in values)


class TestCoordinateMap:
    """complex_coordinate and phase_coordinates reproduce, bit for bit, the
    expressions each call site once wrote out, signed zeros included."""

    @pytest.mark.parametrize("params", MAP_PARAMS)
    def test_phase_point_views(self, params):
        for x, p in itertools.product(SIGNED, SIGNED):
            pt = PhasePoint(x, p)
            assert _bits(pt.z_plus(params)) == _bits(oracles.z_plus_reference(x, p, params))
            assert _bits(pt.z_minus(params)) == _bits(oracles.z_minus_reference(x, p, params))
            z = complex(x, p)
            back = PhasePoint.from_z_plus(z, params)
            assert _bits(back.x, back.p) == _bits(*oracles.from_z_plus_reference(z, params))

    @pytest.mark.parametrize("params", MAP_PARAMS)
    @pytest.mark.parametrize("charge", [+1, -1])
    def test_array_forms(self, params, charge):
        X, P = np.meshgrid(SIGNED, SIGNED, indexing="ij")
        assert _bits(complex_coordinate(X, P, charge, params)) == _bits(
            oracles.z_charge_reference(X, P, charge, params))
        zs = X + 1j * P
        assert _bits(*phase_coordinates(zs, charge, params)) == _bits(
            *oracles.trajectory_xp_reference(zs, charge, params))

    @pytest.mark.parametrize("charge", [+1, -1])
    def test_inverse(self, charge):
        params = MAP_PARAMS[1]
        x, p = np.array([0.3, -1.2, 2.0]), np.array([1.1, 0.0, -0.7])
        back = phase_coordinates(complex_coordinate(x, p, charge, params), charge, params)
        assert np.allclose(back, (x, p), rtol=1e-15, atol=1e-15)


class TestComplexStructure:
    def test_squares_to_minus_identity(self):
        for sign in (+1, -1):
            J = ComplexStructure(sign).matrix
            assert np.array_equal(J @ J, -np.eye(2))

    def test_sign_flip_negates(self):
        assert np.array_equal(ComplexStructure(-1).matrix, -ComplexStructure(+1).matrix)


class TestEnergy:
    def test_minimum_at_origin(self):
        assert hamiltonian_energy(PhasePoint(0, 0), DEFAULT) == 0.0

    def test_direct_substitution(self):
        assert hamiltonian_energy(PhasePoint(1, 1), DEFAULT) == 1.0

    def test_energy_from_orbit_radius(self):
        # E = omega rho0^2 / w^2 for |z| = rho0; here rho0 = w, omega = 2
        params = OscillatorParams(m=1.0, omega=2.0)
        pt = PhasePoint.from_z_plus(params.w + 0j, params)
        assert hamiltonian_energy(pt, params) == pytest.approx(2.0, rel=1e-14)


class TestVectorField:
    def test_restoring_force(self):
        assert hamiltonian_vector_field(PhasePoint(1, 0), DEFAULT) == (0.0, -1.0)

    def test_fixed_point(self):
        assert hamiltonian_vector_field(PhasePoint(0, 0), DEFAULT) == (0.0, 0.0)

    def test_equals_omega_times_rotation_generator(self):
        # frozen from the generator field w^2 p d_x - (x/w^2) d_p, w^2 = 1/3
        params = OscillatorParams(m=1.0, omega=3.0)
        pt = PhasePoint(1, 2)
        gx, gp = rotation_generator(pt, params)
        assert (params.omega * gx, params.omega * gp) == (2.0, -9.0)
        assert hamiltonian_vector_field(pt, params) == (2.0, -9.0)

    def test_leapfrog_oracle_follows_the_field(self):
        params = OscillatorParams(m=1.3, omega=0.9)
        t_final = 2 * np.pi / params.omega
        errs = []
        for n_steps in (4000, 8000):
            xs, ps = oracles.leapfrog(1.0, 0.5, params, t_final, n_steps)
            ts = np.linspace(0.0, t_final, n_steps + 1)
            z0 = PhasePoint(1.0, 0.5).z_plus(params)
            exact = evolve_classical(ClassicalState(z0, +1), ts, params)
            zs = (xs - 1j * params.w2 * ps) / np.sqrt(2.0)
            errs.append(np.max(np.abs(zs - exact)))
        assert errs[0] < 1e-5
        assert np.log2(errs[0] / errs[1]) > 1.9


class TestEvolve:
    def test_quarter_turn_counterclockwise(self):
        z = evolve_classical(ClassicalState(1.0 + 0j, +1), np.pi / 2, DEFAULT)
        assert z == pytest.approx(1j, abs=1e-15)

    def test_antiparticle_turns_clockwise(self):
        z = evolve_classical(ClassicalState(1.0 + 0j, -1), np.pi / 2, DEFAULT)
        assert z == pytest.approx(-1j, abs=1e-15)

    def test_trivial_solution(self):
        assert evolve_classical(ClassicalState(0j, +1), 17.3, DEFAULT) == 0j

    def test_modulus_preserved(self):
        ts = np.linspace(0, 50, 500)
        zs = evolve_classical(ClassicalState(2.0 - 1.0j, +1), ts, DEFAULT)
        assert np.max(np.abs(np.abs(zs) - abs(2.0 - 1.0j))) < 1e-14

    def test_frequency_sign_flip(self):
        z_paper = evolve_classical(ClassicalState(1.0 + 0j, +1), 0.3, DEFAULT)
        z_physics = evolve_classical(ClassicalState(1.0 + 0j, +1), 0.3, DEFAULT,
                                     frequency_sign=-1)
        assert z_physics == np.conj(z_paper)

    def test_energy_conserved_to_1e12(self):
        params = OscillatorParams(m=2.0, omega=1.7)
        state = ClassicalState(1.5 - 0.3j, +1)
        e0 = hamiltonian_energy(PhasePoint.from_z_plus(state.z0, params), params)
        for t in np.linspace(0, 40, 200):
            z = evolve_classical(state, t, params)
            e = hamiltonian_energy(PhasePoint.from_z_plus(z, params), params)
            assert abs(e - e0) <= 1e-12 * e0

    def test_charge_conjugation_is_time_reversal(self):
        z0 = 0.8 + 0.4j
        for t in np.linspace(0, 10, 100):
            plus = evolve_classical(ClassicalState(z0, +1), t, DEFAULT)
            minus = evolve_classical(ClassicalState(np.conj(z0), -1), t, DEFAULT)
            assert abs(np.conj(plus) - minus) <= 1e-12


class TestWindingNumber:
    def test_unit_circle(self):
        tau = np.linspace(0, 2 * np.pi, 256)
        assert winding_number(np.exp(1j * tau)) == 1

    def test_clockwise(self):
        tau = np.linspace(0, 2 * np.pi, 256)
        assert winding_number(np.exp(-1j * tau)) == -1

    def test_constant_curve(self):
        assert winding_number(np.ones(64, dtype=complex)) == 0

    def test_triple_cover(self):
        # frozen from the brute-force phase-unwrapping oracle
        tau = np.linspace(0, 2 * np.pi, 256)
        assert winding_number(np.exp(3j * tau)) == 3

    def test_zero_crossing_error(self):
        samples = np.array([1.0, 1e-12, 1.0], dtype=complex)
        with pytest.raises(ZeroCrossingError):
            winding_number(samples)

    def test_undersampled_error(self):
        with pytest.raises(UndersampledError):
            winding_number(np.exp(1j * np.linspace(0, 2 * np.pi, 3)))

    def test_open_curve_error(self):
        with pytest.raises(OpenCurveError):
            winding_number(np.exp(1j * np.linspace(0, 1.8 * np.pi, 128)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("charge", [+1, -1])
    def test_trajectory_winds_k_times_charge(self, k, charge):
        ts = trajectory_times(k, 256 * k + 1, DEFAULT)
        zs = evolve_classical(ClassicalState(1.0 + 1.0j, charge), ts, DEFAULT)
        assert winding_number(zs) == k * charge


class TestMomentMap:
    def test_values(self):
        assert moment_map(1 + 1j) == pytest.approx(2.0)
        assert moment_map(0j) == 0.0

    def test_conserved_along_flow(self):
        state = ClassicalState(2j, +1)
        for t in np.linspace(0, 2 * np.pi, 100):
            assert moment_map(evolve_classical(state, t, DEFAULT)) == pytest.approx(4.0, rel=1e-14)

    def test_u1_invariance(self):
        rng = np.random.default_rng(5)
        z = 1.3 - 0.8j
        for alpha in rng.uniform(0, 2 * np.pi, 100):
            assert moment_map(np.exp(1j * alpha) * z) == pytest.approx(moment_map(z), rel=1e-14)


class TestSymplecticReduce:
    def test_unit_circle_samples(self):
        reduced, circle = symplectic_reduce(1.0 + 0j, 4)
        assert reduced == 1.0 + 0j
        assert np.allclose(circle, [1, 1j, -1, -1j], atol=1e-15)

    def test_level_set_has_constant_moment(self):
        _, circle = symplectic_reduce(2 * np.exp(1j * np.pi / 4), 37)
        for z in circle:
            assert moment_map(z) == pytest.approx(4.0, rel=1e-14)

    def test_origin_excluded(self):
        with pytest.raises(ZeroPointError):
            symplectic_reduce(0j, 8)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            symplectic_reduce(1.0 + 0j, 2)


class TestKahlerMetric:
    def test_unit_parameter(self):
        assert kahler_metric(DEFAULT) == (1.0, 1.0)

    def test_scaled_parameter(self):
        assert kahler_metric(OscillatorParams(m=1.0, omega=4.0)) == (1.0, 1.0 / 16.0)

    def test_positivity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            params = OscillatorParams(*rng.uniform(0.1, 5.0, size=2))
            gxx, gpp = kahler_metric(params)
            assert gxx > 0 and gpp > 0
