import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bundleqm.classical import winding_number
from bundleqm.errors import (BranchOutOfRangeError, InvalidArgumentError, OpenCurveError,
                             OriginSingularError, ZeroCrossingError)
from bundleqm.orbifold import (ConeGeometry, TransportResult, branched_cover, circle_loop,
                               cone_metric, cover_inverse, ellipse_loop,
                               levi_civita_transport, loop_from_spec, square_loop)

import oracles


class TestConeGeometry:
    def test_angles_sum_to_two_pi(self):
        for n in (1, 2, 3, 7):
            geo = ConeGeometry(n)
            assert geo.cone_angle + geo.defect_angle == pytest.approx(2 * np.pi)

    def test_plane_has_no_defect(self):
        assert ConeGeometry(1).defect_angle == 0.0

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            ConeGeometry(0)


class TestBranchedCover:
    def test_square_of_i(self):
        assert branched_cover(1j, 2) == pytest.approx(-1.0 + 0j)

    def test_degree_one_is_identity(self):
        assert branched_cover(0.3 - 0.8j, 1) == 0.3 - 0.8j

    def test_fiber_collapse(self):
        # the n preimages zeta^i z all land on z^n
        n, z = 3, 1.0 + 1.0j
        zeta = np.exp(2j * np.pi / n)
        images = [branched_cover(zeta ** i * z, n) for i in range(n)]
        spread = max(abs(a - b) for a in images for b in images)
        assert spread < 1e-12

    def test_branch_point(self):
        assert branched_cover(0j, 5) == 0j


class TestCoverInverse:
    def test_fourth_roots_of_unity(self):
        roots = [cover_inverse(1.0 + 0j, 4, b) for b in range(4)]
        assert np.allclose(roots, [1, 1j, -1, -1j], atol=1e-14)

    def test_branch_point_maps_to_zero(self):
        for b in range(3):
            assert cover_inverse(0j, 3, b) == 0j

    def test_round_trip_all_branches(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            psi = complex(rng.normal(), rng.normal())
            n = int(rng.integers(1, 6))
            for b in range(n):
                z = cover_inverse(psi, n, b)
                assert abs(branched_cover(z, n) - psi) < 1e-12 * max(abs(psi), 1.0)

    def test_principal_wedge(self):
        # branch 0 lands in the fundamental wedge [0, 2pi/n)
        rng = np.random.default_rng(1)
        for _ in range(50):
            psi = complex(rng.normal(), rng.normal())
            z = cover_inverse(psi, 4, 0)
            assert 0.0 <= np.angle(z) % (2 * np.pi) < np.pi / 2 + 1e-12

    def test_branch_out_of_range(self):
        with pytest.raises(BranchOutOfRangeError):
            cover_inverse(1.0 + 0j, 3, 3)


class TestConeMetric:
    def test_plane_is_flat(self):
        m = cone_metric(0.3 + 2.0j, 1)
        assert m.conformal_factor == pytest.approx(2.0)

    def test_pullback_oracle_n2(self):
        # frozen from the pullback of 2 dz dzbar through z = psi^(1/2):
        # factor (2/n^2)(psibar psi)^((1-n)/n) = 0.5 * 16^(-1/2) = 1/8
        m = cone_metric(4.0 + 0j, 2)
        assert m.conformal_factor == pytest.approx(1.0 / 8.0)
        # numeric pullback at the same point
        dpsi = 1e-6
        psi = 4.0 + 0j
        z1 = cover_inverse(psi, 2, 0)
        z2 = cover_inverse(psi + dpsi, 2, 0)
        numeric = 2.0 * abs(z2 - z1) ** 2 / abs(dpsi) ** 2
        assert m.conformal_factor == pytest.approx(numeric, rel=1e-6)

    def test_circumference_to_radius_ratio(self):
        # geodesic circle of radius rho has circumference 2 pi rho / n
        n = 3
        m = cone_metric(np.exp(1j * 0.4), n)
        circumference = 2 * np.pi * np.sqrt(m.g_phi_phi)
        assert circumference / m.rho == pytest.approx(2 * np.pi / n, rel=1e-12)

    def test_polar_and_complex_forms_agree(self):
        # length of a small angular arc measured both ways
        n, psi = 4, 1.3 * np.exp(0.7j)
        m = cone_metric(psi, n)
        dphi_n = 1e-7
        arc_complex = np.sqrt(m.conformal_factor) * abs(psi) * dphi_n
        arc_polar = np.sqrt(m.g_phi_phi) * dphi_n
        assert arc_complex == pytest.approx(arc_polar, rel=1e-9)

    def test_origin_singular_for_cones(self):
        with pytest.raises(OriginSingularError):
            cone_metric(0j, 2)
        assert cone_metric(0j, 1).conformal_factor == 2.0


class TestParallelTransport:
    def test_flat_plane_no_holonomy(self):
        res = levi_civita_transport(circle_loop(), 1)
        assert res.holonomy_angle == 0.0
        assert res.vector == 1.0 + 0j

    def test_half_turn_for_double_cover(self):
        res = levi_civita_transport(circle_loop(samples=4096), 2)
        assert abs(res.holonomy_angle - np.pi) < 1e-6
        assert res.loop_winding == 1

    def test_non_enclosing_loop_is_flat(self):
        res = levi_civita_transport(circle_loop(center=5.0 + 0j, radius=1.0), 3)
        assert oracles.angle_distance(res.holonomy_angle, 0.0) < 1e-8
        assert res.loop_winding == 0

    @pytest.mark.parametrize("center, radius", [(5.0, 0.5), (4 + 1j, 1.0), (3 - 2j, 1.0),
                                                (6j, 1.0), (6j, 0.5)])
    def test_angle_below_two_pi(self, center, radius):
        # a turn a rounding short of 0: three of these once read 2pi itself, and
        # two read the float below it, which is in range but far from 0 on a line
        for res in levi_civita_transport(circle_loop(center, radius), (2, 3, 5)):
            assert 0.0 <= res.holonomy_angle < 2 * np.pi
            assert oracles.angle_distance(res.holonomy_angle, 0.0) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(center=st.complex_numbers(max_magnitude=10.0),
           rx=st.floats(0.1, 5.0), ry=st.floats(0.1, 5.0), ellipse=st.booleans(),
           samples=st.integers(64, 4096))
    def test_holonomy_is_defect_or_zero(self, center, rx, ry, ellipse, samples):
        loop = (ellipse_loop(center, rx, ry, samples) if ellipse
                else circle_loop(center, rx, samples))
        if not ellipse:
            ry = rx
        # kept clear of the tip, so that every angular step stays well below pi
        assume(np.min(np.abs(loop)) > 0.1 * max(rx, ry))
        encloses = (center.real / rx) ** 2 + (center.imag / ry) ** 2 < 1
        for n, res in zip((2, 3, 5), levi_civita_transport(loop, (2, 3, 5))):
            assert 0.0 <= res.holonomy_angle < 2 * np.pi
            expected = ConeGeometry(n).defect_angle if encloses else 0.0
            assert oracles.angle_distance(res.holonomy_angle, expected) < 1e-8
            assert res.loop_winding == int(encloses)

    def test_transport_preserves_length(self):
        res = levi_civita_transport(circle_loop(), 5)
        assert abs(res.vector) == pytest.approx(1.0, rel=1e-12)
        assert res.vector == pytest.approx(np.exp(1j * res.holonomy_angle), abs=1e-12)

    def test_against_trapezoid_line_integral(self):
        # the chordal-midpoint oracle is O(N^-2); 2^17 samples put its own
        # error below the 1e-8 comparison bar
        loop = ellipse_loop(rx=1.5, ry=0.6, samples=131072)
        res = levi_civita_transport(loop, 3)
        integral = oracles.loop_integral_trapezoid(loop)
        expected = (2.0 / 3.0) * integral.imag % (2 * np.pi)
        assert abs(res.holonomy_angle - expected) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("make_loop", [circle_loop, square_loop, ellipse_loop],
                             ids=["circle", "square", "ellipse"])
    def test_gauss_bonnet_defect(self, n, make_loop):
        res = levi_civita_transport(make_loop(), n)
        assert abs(res.holonomy_angle - ConeGeometry(n).defect_angle) < 1e-5

    @pytest.mark.parametrize("loop", [circle_loop(), square_loop(), ellipse_loop(),
                                      circle_loop(center=5.0 + 0j, radius=1.0),
                                      ellipse_loop(center=0.3 - 0.2j, rx=1.5, ry=0.6,
                                                   samples=777)],
                             ids=["circle", "square", "ellipse", "far", "odd"])
    def test_degrees_at_once_equal_each_degree_alone(self, loop):
        degrees = (1, 2, 3, 5, np.int64(7), 3)
        results = levi_civita_transport(loop, degrees)
        # a TransportResult is itself a tuple: the container must be a plain one
        assert type(results) is tuple and len(results) == len(degrees)
        for n, res in zip(degrees, results):
            alone = levi_civita_transport(loop, n)
            assert type(res) is type(alone) is TransportResult
            # repr prints each float to its last bit, and the sign of a zero
            assert repr(res) == repr(alone)
        assert levi_civita_transport(loop, ()) == ()

    @pytest.mark.parametrize("degrees", [(2, 0), (3, 2.5), (True,), [2, 3], ConeGeometry(3)])
    def test_degrees_at_once_are_checked(self, degrees):
        with pytest.raises(InvalidArgumentError):
            levi_civita_transport(circle_loop(), degrees)

    def test_degrees_at_once_check_the_loop(self):
        with pytest.raises(ZeroCrossingError):
            levi_civita_transport(circle_loop(center=1.0 + 0j, radius=1.0), (2, 3))

    def test_zero_crossing(self):
        loop = circle_loop(center=1.0 + 0j, radius=1.0)  # touches the tip
        with pytest.raises(ZeroCrossingError):
            levi_civita_transport(loop, 2)

    def test_open_curve(self):
        arc = np.exp(1j * np.linspace(0, np.pi, 100))
        with pytest.raises(OpenCurveError):
            levi_civita_transport(arc, 2)


class TestCoverIsometry:
    def test_lengths_agree_through_the_cover(self):
        # a wavy curve away from the origin, upstairs vs its image on the cone
        t = np.linspace(0, np.pi / 3, 20001)
        zs = (1.0 + 0.2 * np.cos(3 * t)) * np.exp(1j * t) + 0.2
        for n in (2, 3):
            upstairs = oracles.curve_length_plane(zs)
            image = branched_cover(zs, n)
            downstairs = oracles.curve_length_cone(image, n)
            assert abs(upstairs - downstairs) < 1e-8 * upstairs

    def test_degree_consistency_with_winding(self):
        loop = circle_loop(samples=4096)
        for n in (1, 2, 5):
            image = branched_cover(loop, n)
            assert winding_number(image) == n


class TestLoopSpec:
    def test_pairs_form(self):
        loop = loop_from_spec([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(loop, [1, 1j, -1, 1])

    def test_descriptor_forms(self):
        circle = loop_from_spec({"shape": "circle", "center": [0, 0],
                                 "radius": 2.0, "samples": 64})
        assert circle.size == 65
        assert np.allclose(np.abs(circle), 2.0)
        square = loop_from_spec({"shape": "square", "radius": 1.0, "samples": 16})
        assert np.max(np.abs(square.real)) == pytest.approx(1.0)
        ellipse = loop_from_spec({"shape": "ellipse", "radius": [2.0, 0.5],
                                  "samples": 32})
        assert np.max(ellipse.real) == pytest.approx(2.0)
        assert np.max(ellipse.imag) == pytest.approx(0.5, abs=1e-2)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            loop_from_spec({"shape": "pentagon"})
