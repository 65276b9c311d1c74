import re

import numpy as np
import pytest

from bundleqm.bundles import (DoubledSection, GridSection, LineSection,
                              canonical_operators, covariant_derivative,
                              curvature_numeric, decompose, gauge_transform,
                              hermitian_pairing, recompose, translate_operator,
                              vacuum_connection)
from bundleqm.errors import (DivisionNearZeroError, GridFormatError, GridTooSmallError,
                             InvalidArgumentError, NonFiniteError, WrongPolarizationError)
from bundleqm.sections import (V_MINUS, V_PLUS, load_grid, read_grid_csv, save_grid,
                               write_grid_csv)


def gaussian_probe(h=1e-2, half_width=1.0, charge=+1):
    n = int(round(2 * half_width / h)) + 1
    return GridSection.from_function(lambda X, P: np.exp(-(X ** 2 + P ** 2) / 4.0),
                                     (-half_width, half_width), (-half_width, half_width),
                                     n, n, charge=charge)


def gauge_minus_px2():
    return gauge_transform(vacuum_connection(), lambda x, p: -0.5 * p * x,
                           dalpha_dx=lambda x, p: -0.5 * p,
                           dalpha_dp=lambda x, p: -0.5 * x)


def gauge_plus_px2():
    return gauge_transform(vacuum_connection(), lambda x, p: 0.5 * p * x,
                           dalpha_dx=lambda x, p: 0.5 * p,
                           dalpha_dp=lambda x, p: 0.5 * x)


def connection_curvature_fd(conn, x, p, h=1e-6):
    """dA_p/dx - dA_x/dp by central differences (test-side oracle)."""
    dap_dx = (conn.a_p(x + h, p) - conn.a_p(x - h, p)) / (2 * h)
    dax_dp = (conn.a_x(x, p + h) - conn.a_x(x, p - h)) / (2 * h)
    return dap_dx - dax_dp


class TestVacuumConnection:
    def test_symmetric_gauge_values(self):
        conn = vacuum_connection()
        assert (conn.a_x(2.0, 4.0), conn.a_p(2.0, 4.0)) == (2.0, -1.0)
        assert (conn.a_x(0.0, 0.0), conn.a_p(0.0, 0.0)) == (0.0, 0.0)

    def test_curvature_minus_one_at_random_points(self):
        conn = vacuum_connection()
        rng = np.random.default_rng(0)
        for x, p in rng.normal(size=(100, 2)):
            assert connection_curvature_fd(conn, x, p) == pytest.approx(-1.0, abs=1e-8)


class TestGaugeTransform:
    def test_minus_px_over_2(self):
        conn = gauge_minus_px2()
        rng = np.random.default_rng(1)
        for x, p in rng.normal(size=(20, 2)):
            assert conn.a_x(x, p) == pytest.approx(0.0, abs=1e-14)
            assert conn.a_p(x, p) == pytest.approx(-x, abs=1e-14)

    def test_plus_px_over_2(self):
        conn = gauge_plus_px2()
        rng = np.random.default_rng(2)
        for x, p in rng.normal(size=(20, 2)):
            assert conn.a_x(x, p) == pytest.approx(p, abs=1e-14)
            assert conn.a_p(x, p) == pytest.approx(0.0, abs=1e-14)

    def test_zero_alpha_is_identity(self):
        conn = gauge_transform(vacuum_connection(), lambda x, p: 0.0 * x,
                               dalpha_dx=lambda x, p: 0.0 * x,
                               dalpha_dp=lambda x, p: 0.0 * x)
        assert conn.a_x(1.2, -0.7) == vacuum_connection().a_x(1.2, -0.7)
        assert conn.a_p(1.2, -0.7) == vacuum_connection().a_p(1.2, -0.7)

    def test_finite_differenced_partials(self):
        analytic = gauge_minus_px2()
        fd = gauge_transform(vacuum_connection(), lambda x, p: -0.5 * p * x)
        for x, p in ((0.3, 1.1), (-2.0, 0.4)):
            assert fd.a_x(x, p) == pytest.approx(analytic.a_x(x, p), abs=1e-8)
            assert fd.a_p(x, p) == pytest.approx(analytic.a_p(x, p), abs=1e-8)

    def test_curvature_unchanged(self):
        for conn in (gauge_minus_px2(), gauge_plus_px2()):
            assert connection_curvature_fd(conn, 0.37, -1.42) == pytest.approx(-1.0, abs=1e-7)


class TestCovariantDerivative:
    def test_constant_section_picks_up_connection(self):
        sec = GridSection.from_function(lambda X, P: np.full(X.shape, 2.0 + 0j),
                                        (-1, 1), (-1, 1), 41, 41)
        grad = covariant_derivative(sec, "x", vacuum_connection())
        X, P = np.meshgrid(sec.x, sec.p, indexing="ij")
        inner = (slice(1, -1), slice(1, -1))
        assert np.allclose(grad.values[inner], (1j * P / 2 * 2.0)[inner], atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = np.linspace(-1, 1, 31)
        mk = lambda: GridSection(x, x, rng.normal(size=(31, 31))
                                 + 1j * rng.normal(size=(31, 31)))
        sec1, sec2 = mk(), mk()
        a, b = 0.7 - 0.2j, -1.1 + 0.5j
        conn = vacuum_connection()
        combo = GridSection(x, x, a * sec1.values + b * sec2.values)
        lhs = covariant_derivative(combo, "p", conn).values
        rhs = (a * covariant_derivative(sec1, "p", conn).values
               + b * covariant_derivative(sec2, "p", conn).values)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("charge", [+1, -1])
    @pytest.mark.parametrize("direction", ["x", "p"])
    def test_gauge_equivariance(self, charge, direction):
        # grad^alpha (e^{-i q alpha} phi) = e^{-i q alpha} grad^vac phi, to O(h^2):
        # components transform inversely to the frame under exp(alpha J)
        alpha = lambda X, P: -0.5 * P * X
        phi = lambda X, P: np.exp(-(X ** 2 + P ** 2) / 4.0) * (1 + 0.3 * X)
        errs = []
        for h in (2e-2, 1e-2):
            n = int(round(2.0 / h)) + 1
            sec_phi = GridSection.from_function(phi, (-1, 1), (-1, 1), n, n, charge=charge)
            X, P = np.meshgrid(sec_phi.x, sec_phi.p, indexing="ij")
            phase = np.exp(-1j * charge * alpha(X, P))
            sec_psi = sec_phi.like(phase * sec_phi.values)
            lhs = covariant_derivative(sec_psi, direction, gauge_minus_px2()).values
            rhs = phase * covariant_derivative(sec_phi, direction, vacuum_connection()).values
            inner = (slice(1, -1), slice(1, -1))
            errs.append(np.max(np.abs(lhs - rhs)[inner]))
        assert errs[1] < 1e-3
        assert np.log2(errs[0] / errs[1]) > 1.9

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmallError):
            GridSection(np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]),
                        np.zeros((2, 3), dtype=complex))


class TestCurvatureNumeric:
    @pytest.mark.parametrize("charge,expected", [(+1, -1j), (-1, 1j)])
    def test_gaussian_probe(self, charge, expected):
        val = curvature_numeric(vacuum_connection(), gaussian_probe(charge=charge))
        assert abs(val - expected) < 1e-3

    def test_identical_across_vacuum_and_minus_px2(self):
        probe = gaussian_probe()
        v1 = curvature_numeric(vacuum_connection(), probe)
        v2 = curvature_numeric(gauge_minus_px2(), probe)
        assert abs(v1 - v2) < 1e-10

    def test_five_gauge_agreement(self):
        # 0, +/- px/2, p*x0, and a random quadratic polynomial: all linear-
        # component connections, so the discrete commutator is an averaging
        # operator and the symmetric probe pins every gauge to the same value
        rng = np.random.default_rng(7)
        a, b, c = rng.normal(size=3)
        quad = gauge_transform(vacuum_connection(),
                               lambda x, p: a * x ** 2 + b * p ** 2 + c * x * p,
                               dalpha_dx=lambda x, p: 2 * a * x + c * p,
                               dalpha_dp=lambda x, p: 2 * b * p + c * x)
        shift = gauge_transform(vacuum_connection(), lambda x, p: p * 1.0,
                                dalpha_dx=lambda x, p: 0.0 * x,
                                dalpha_dp=lambda x, p: 1.0 + 0.0 * x)
        probe = gaussian_probe()
        vals = [curvature_numeric(conn, probe)
                for conn in (vacuum_connection(), gauge_minus_px2(), gauge_plus_px2(),
                             shift, quad)]
        spread = max(abs(u - v) for u in vals for v in vals)
        assert spread < 1e-8

    def test_convergence_order(self):
        errs = [abs(curvature_numeric(vacuum_connection(), gaussian_probe(h)) + 1j)
                for h in (1e-2, 5e-3, 2.5e-3)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.min(orders) >= 1.9

    def test_division_near_zero(self):
        sec = GridSection.from_function(lambda X, P: X + 0j, (-1, 1), (-1, 1), 41, 41)
        with pytest.raises(DivisionNearZeroError):
            curvature_numeric(vacuum_connection(), sec)


def line_gaussian(axis="x", h=1e-2, half_width=4.0, charge=+1, bump=0.3):
    n = int(round(2 * half_width / h)) + 1
    return LineSection.from_function(lambda s: np.exp(-0.5 * s ** 2) * (1 + bump * s),
                                     axis, -half_width, half_width, n, charge=charge)


def ccr_residual(rep, charge, h):
    axis = "x" if rep == "coordinate" else "p"
    sec = line_gaussian(axis=axis, h=h, charge=charge)
    x_hat, p_hat = canonical_operators(rep, charge)
    comm = p_hat(x_hat(sec)).values - x_hat(p_hat(sec)).values
    return np.max(np.abs((comm + 1j * sec.values)[2:-2]))


class TestCanonicalOperators:
    def test_coordinate_multiplication(self):
        sec = LineSection.from_function(lambda x: np.exp(-0.5 * x ** 2), "x", -4, 4, 801)
        x_hat, _ = canonical_operators("coordinate", +1)
        i = np.searchsorted(sec.coords, 1.0)
        assert sec.coords[i] == pytest.approx(1.0)
        assert x_hat(sec).values[i] == pytest.approx(np.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("charge", [+1, -1])
    def test_coordinate_pair_is_exact(self, charge):
        # x_hat is bit-for-bit coords * values (a -0.0 sample included);
        # p_hat's interior is bit-for-bit the central difference times -i
        coords = np.linspace(-2.0, 2.0, 9)
        coords[4] = -0.0
        rng = np.random.default_rng(5)
        values = rng.normal(size=9) + 1j * rng.normal(size=9)
        sec = LineSection(axis="x", coords=coords, values=values, charge=charge)
        x_hat, p_hat = canonical_operators("coordinate", charge)
        assert x_hat(sec).values.tobytes() == (coords * values).tobytes()
        h = coords[1] - coords[0]
        interior = -1j * ((values[2:] - values[:-2]) / (2.0 * h))
        assert p_hat(sec).values[1:-1].tobytes() == interior.tobytes()

    def test_momentum_antiparticle_sign(self):
        sec = line_gaussian(axis="p", charge=-1)
        _, p_hat = canonical_operators("momentum", -1)
        assert np.allclose(p_hat(sec).values, -sec.coords * sec.values, atol=1e-14)

    def test_momentum_particle_is_standard(self):
        sec = line_gaussian(axis="p", charge=+1)
        _, p_hat = canonical_operators("momentum", +1)
        assert np.allclose(p_hat(sec).values, sec.coords * sec.values, atol=1e-14)

    @pytest.mark.parametrize("rep", ["coordinate", "momentum"])
    @pytest.mark.parametrize("charge", [+1, -1])
    def test_ccr(self, rep, charge):
        assert ccr_residual(rep, charge, 1e-2) < 1e-3

    def test_ccr_convergence_order(self):
        errs = [ccr_residual("coordinate", +1, h) for h in (1e-2, 5e-3, 2.5e-3)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.min(orders) >= 1.9

    def test_wrong_polarization(self):
        sec = line_gaussian(axis="p")
        x_hat, _ = canonical_operators("coordinate", +1)
        with pytest.raises(WrongPolarizationError):
            x_hat(sec)
        x_hat_m, _ = canonical_operators("momentum", +1)
        with pytest.raises(WrongPolarizationError):
            x_hat_m(line_gaussian(axis="x"))


class TestTranslateOperator:
    def test_zero_shift_is_identity(self):
        sec = line_gaussian()
        x_hat0, p_hat0 = canonical_operators("coordinate", +1)
        x_hat, p_hat = translate_operator(0.0)
        assert np.array_equal(x_hat(sec).values, x_hat0(sec).values)
        assert np.array_equal(p_hat(sec).values, p_hat0(sec).values)

    def test_unit_shift(self):
        sec = line_gaussian()
        x_hat, _ = translate_operator(1.0)
        assert np.allclose(x_hat(sec).values, (sec.coords - 1.0) * sec.values, atol=1e-14)

    def test_ccr_preserved(self):
        sec = line_gaussian()
        x_hat, p_hat = translate_operator(1.0)
        comm = p_hat(x_hat(sec)).values - x_hat(p_hat(sec)).values
        assert np.max(np.abs((comm + 1j * sec.values)[2:-2])) < 1e-3


class TestDoubledSection:
    def test_decompose_unit_first_component(self):
        d = decompose(1.0, 0.0)
        assert d.psi_plus == pytest.approx(1 / np.sqrt(2))
        assert d.psi_minus == pytest.approx(1 / np.sqrt(2))

    def test_basis_vector_maps_to_unit_coordinate(self):
        d = decompose(V_PLUS[0], V_PLUS[1])
        assert d.psi_plus == pytest.approx(1.0, abs=1e-15)
        assert d.psi_minus == pytest.approx(0.0, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        psi1 = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi2 = rng.normal(size=16) + 1j * rng.normal(size=16)
        back1, back2 = recompose(decompose(psi1, psi2))
        assert np.max(np.abs(back1 - psi1)) < 1e-14
        assert np.max(np.abs(back2 - psi2)) < 1e-14

    def test_recompose_matches_basis_expansion(self):
        rng = np.random.default_rng(5)
        plus, minus = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi1, psi2 = recompose(DoubledSection(plus, minus))
        vec = plus * V_PLUS + minus * V_MINUS
        assert abs(psi1 - vec[0]) < 1e-15 and abs(psi2 - vec[1]) < 1e-15

    def test_fiber_rotation_matches_matrix_action(self):
        rng = np.random.default_rng(6)
        psi1 = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi2 = rng.normal(size=8) + 1j * rng.normal(size=8)
        theta = 0.77
        rotated = decompose(psi1, psi2).rotate_fiber(theta)
        c, s = np.cos(theta), np.sin(theta)
        m1 = c * psi1 - s * psi2
        m2 = s * psi1 + c * psi2
        expected = decompose(m1, m2)
        assert np.max(np.abs(rotated.psi_plus - expected.psi_plus)) < 1e-14
        assert np.max(np.abs(rotated.psi_minus - expected.psi_minus)) < 1e-14

    def test_hermitian_pairing_gauge_invariant(self):
        rng = np.random.default_rng(7)
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        for theta in rng.uniform(0, 2 * np.pi, 10):
            g = np.exp(1j * theta)
            assert np.allclose(hermitian_pairing(g * psi, g * psi).real,
                               hermitian_pairing(psi, psi).real, rtol=1e-15)

    def test_is_diagonal_flags_neutral_sections(self):
        psi = np.array([1.0 + 0.5j, -0.2j])
        assert DoubledSection(psi, psi.copy()).is_diagonal()
        assert not DoubledSection(psi, 2 * psi).is_diagonal()


def _sections():
    grid = GridSection.from_function(lambda X, P: X + 1j * P, (-1.0, 1.0), (-2.0, 2.0), 5, 4,
                                     charge=-1)
    line = LineSection.from_function(np.cos, "p", -1.0, 1.0, 6, charge=-1)
    return {"grid": grid, "line": line}


def _rebuilt(sec, values):
    """The section's constructor on its own axes and charge, with new values."""
    if isinstance(sec, GridSection):
        return GridSection(sec.x, sec.p, values, sec.charge)
    return LineSection(sec.axis, sec.coords, values, sec.charge)


@pytest.mark.parametrize("kind", ["grid", "line"])
class TestLike:
    def test_shares_axes_spacings_and_charge(self, kind):
        sec = _sections()[kind]
        before = sec.values.copy()
        new = sec.like(2.0 * sec.values)
        assert type(new) is type(sec) and new is not sec
        assert new.values.tobytes() == (2.0 * before).tobytes()
        assert sec.values.tobytes() == before.tobytes()
        kept = ("x", "p", "hx", "hp", "charge") if kind == "grid" else ("axis", "coords", "h",
                                                                         "charge")
        for name in kept:
            assert getattr(new, name) is getattr(sec, name)
        assert vars(new).keys() == vars(_rebuilt(sec, new.values)).keys()

    @pytest.mark.parametrize("bad, error", [
        ("NaN", NonFiniteError), ("inf", NonFiniteError), ("text", InvalidArgumentError),
        ("None", InvalidArgumentError), ("bools", InvalidArgumentError),
        ("short", GridFormatError), ("transposed", GridFormatError)])
    def test_refuses_what_the_constructor_refuses(self, kind, bad, error):
        sec = _sections()[kind]
        values = {
            "NaN": np.where(sec.values == sec.values.flat[-1], np.nan, sec.values),
            "inf": np.full(sec.values.shape, complex(0.0, np.inf)),
            "text": sec.values.astype(str),
            "None": None,
            "bools": np.ones(sec.values.shape, dtype=bool),
            "short": sec.values[:-1],
            "transposed": sec.values.T if kind == "grid" else sec.values[:, None],
        }[bad]
        with pytest.raises(error) as got:
            sec.like(values)
        with pytest.raises(error) as ref:
            _rebuilt(sec, values)
        assert str(got.value) == str(ref.value)

    def test_shape_message(self, kind):
        sec = _sections()[kind]
        message = ("values shape (4, 4) does not match grid (5, 4)" if kind == "grid"
                   else "values and coords must have the same length")
        with pytest.raises(GridFormatError, match=re.escape(message)):
            sec.like(sec.values[:-1])


class TestGridIO:
    def _sample(self):
        return GridSection.from_function(
            lambda X, P: np.exp(1j * X) * np.cos(P), (-1, 1), (-2, 2), 9, 11, charge=-1)

    def test_csv_round_trip(self, tmp_path):
        sec = self._sample()
        path = tmp_path / "grid.csv"
        write_grid_csv(sec, path)
        back = read_grid_csv(path, charge=-1)
        assert np.array_equal(back.values, sec.values)
        assert np.array_equal(back.x, sec.x)
        assert back.charge == -1

    def test_binary_round_trip(self, tmp_path):
        sec = self._sample()
        path = tmp_path / "grid.bqg"
        save_grid(sec, path)
        back = load_grid(path)
        assert np.array_equal(back.values, sec.values)
        assert np.array_equal(back.p, sec.p)
        assert back.charge == -1

    def test_extension_dispatch(self, tmp_path):
        sec = self._sample()
        save_grid(sec, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_text().startswith("x,p,re,im")
        save_grid(sec, tmp_path / "grid.bin")
        assert (tmp_path / "grid.bin").read_bytes()[:4] == b"BQGS"
