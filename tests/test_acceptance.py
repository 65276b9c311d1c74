"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single summary line (run pytest -s to see them all);
tolerances are pinned here, not configurable.
"""

import json

import numpy as np

from bundleqm import bundles, classical, orbifold, oscillator, polarizations
from bundleqm.classical import ClassicalState, OscillatorParams, PhasePoint
from bundleqm.cli import RunConfig, cmd_spectrum
from bundleqm.polarizations import FockState

import oracles

DEFAULT = OscillatorParams()


def report(criterion, detail, value, tolerance):
    print(f"PASS criterion {criterion}: {detail} "
          f"(measured {value:.3e}, tolerance {tolerance:.1e})")


def test_criterion_01_spectrum(tmp_path, monkeypatch):
    monkeypatch.setenv("BUNDLEQM_OUT", str(tmp_path))
    doc = json.loads(cmd_spectrum(RunConfig(omega=1.0), 10).read_text())
    fock_err = max(abs(row["E"] - (row["n"] + 0.5)) for row in doc)
    assert fock_err == 0.0

    mat = oscillator.coordinate_hamiltonian_matrix(10, DEFAULT)
    evals = np.sort(np.linalg.eigvalsh(mat))
    matrix_err = float(np.max(np.abs(evals - (np.arange(11) + 0.5))))
    assert matrix_err < 1e-6
    report(1, "E_n = n + 1/2 exact in Fock; coordinate matrix eigenvalues",
           matrix_err, 1e-6)


def test_criterion_02_ccr_curvature():
    def probe(h):
        n = int(round(2.0 / h)) + 1
        return bundles.GridSection.from_function(
            lambda X, P: np.exp(-(X ** 2 + P ** 2) / 4.0), (-1, 1), (-1, 1), n, n)

    gauges = {
        "vacuum": bundles.vacuum_connection(),
        "alpha=-px/2": bundles.gauge_transform(
            bundles.vacuum_connection(), lambda x, p: -0.5 * p * x,
            dalpha_dx=lambda x, p: -0.5 * p, dalpha_dp=lambda x, p: -0.5 * x),
        "alpha=+px/2": bundles.gauge_transform(
            bundles.vacuum_connection(), lambda x, p: 0.5 * p * x,
            dalpha_dx=lambda x, p: 0.5 * p, dalpha_dp=lambda x, p: 0.5 * x),
    }
    p1 = probe(1e-2)
    values = {}
    for q in (+1, -1):
        charged = bundles.GridSection(x=p1.x, p=p1.p, values=p1.values, charge=q)
        assert abs(bundles.curvature_numeric(gauges["vacuum"], charged) - (-1j * q)) < 1e-3
    for name, conn in gauges.items():
        values[name] = bundles.curvature_numeric(conn, p1)
    spread = max(abs(a - b) for a in values.values() for b in values.values())
    assert spread < 1e-8

    errs = [abs(bundles.curvature_numeric(gauges["vacuum"], probe(h)) + 1j)
            for h in (1e-2, 5e-3, 2.5e-3)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.min(orders) >= 1.9
    report(2, f"[grad_x, grad_p] = -i q_v, order {np.min(orders):.2f}, gauge spread",
           spread, 1e-8)


def test_criterion_03_ladder_algebra():
    rng = np.random.default_rng(0)
    c = rng.normal(size=12) + 1j * rng.normal(size=12)
    c[-1] = 0.0
    state = FockState(c)
    lhs = polarizations.ladder_apply(polarizations.ladder_apply(state, "raise"), "lower")
    rhs = polarizations.ladder_apply(polarizations.ladder_apply(state, "lower"), "raise")
    comm_err = float(np.max(np.abs(lhs.padded(13) - rhs.padded(13) - state.padded(13))))
    assert comm_err < 1e-14

    h = 2.5e-4
    x = np.linspace(-10, 10, int(round(20.0 / h)) + 1)
    basis = polarizations.hermite_basis(10, x, DEFAULT)
    worst = 0.0
    for n in range(1, 11):
        sec = bundles.LineSection(axis="x", coords=x, values=basis[n])
        low = polarizations.ladder_coordinate(sec, "lower", DEFAULT).values
        worst = max(worst, abs(np.trapezoid(basis[n - 1] * low, x) - np.sqrt(n)))
    assert worst < 1e-6
    report(3, "[a, a+] = 1 exact; coordinate matrix elements vs sqrt(n)", worst, 1e-6)


def test_criterion_04_bargmann_unitarity():
    n_max, order = 20, 128
    worst_off = 0.0
    for m in range(n_max + 1):
        state = polarizations.bargmann_transform(
            lambda xx: polarizations.hermite_basis(m, xx, DEFAULT)[m],
            n_max, order, DEFAULT)
        err = np.abs(state.coeffs - np.eye(n_max + 1)[m])
        worst_off = max(worst_off, float(np.max(np.delete(err, m))), float(err[m]))
    assert worst_off < 1e-10

    rng = np.random.default_rng(1)
    c = rng.normal(size=21) + 1j * rng.normal(size=21)
    c /= np.linalg.norm(c)
    xs = np.linspace(-14, 14, 8001)
    sec = polarizations.bargmann_inverse(FockState(c), xs, DEFAULT)
    back = polarizations.bargmann_transform(sec, 20, 128, DEFAULT)
    norm_err = abs(np.sqrt(back.norm_sq()) - 1.0)
    assert norm_err < 1e-8
    report(4, "h_n -> e_n (n <= 20, order 128); round-trip norm", norm_err, 1e-8)


def test_criterion_05_dolbeault_kernel():
    h = 1e-2
    npts = int(round(12.0 / h)) + 1

    def polarized(n, contaminate=False):
        def f(X, P):
            z = (X - 1j * P) / np.sqrt(2.0)
            psi = z ** n * np.exp(-z * np.conj(z) / 2.0)
            return np.conj(z) * psi if contaminate else psi
        sec = bundles.GridSection.from_function(f, (-6, 6), (-6, 6), npts, npts)
        return sec.like(sec.values / np.max(np.abs(sec.values)))

    worst = 0.0
    for n in range(6):
        res = polarizations.dolbeault_residual(polarized(n), DEFAULT)
        worst = max(worst, float(np.max(np.abs(res.values[1:-1, 1:-1]))))
    assert worst < 1e-3

    res = polarizations.dolbeault_residual(polarized(0, contaminate=True), DEFAULT)
    contaminated = float(np.max(np.abs(res.values[1:-1, 1:-1])))
    assert contaminated / worst >= 1e3
    report(5, f"kernel residual n <= 5 at h=1e-2; contaminated {contaminated / worst:.0f}x larger",
           worst, 1e-3)


def test_criterion_06_husimi():
    q0 = oscillator.husimi(oscillator.eigenstate(0), np.array([0.0]), np.array([0.0]))
    center_err = abs(q0[0, 0] - 1.0 / np.pi)
    assert center_err < 1e-12

    u = np.linspace(-8, 8, 257)
    cell = u[1] - u[0]
    worst_mass, worst_radius = 0.0, 0.0
    for n in range(11):
        q = oscillator.husimi(oscillator.eigenstate(n), u, u)
        total = np.trapezoid(np.trapezoid(q, u, axis=1), u)
        worst_mass = max(worst_mass, abs(total - 1.0))
        i, j = np.unravel_index(int(np.argmax(q)), q.shape)
        worst_radius = max(worst_radius, abs(np.hypot(u[i], u[j]) - np.sqrt(n)))
    assert worst_mass < 1e-6
    assert worst_radius <= np.sqrt(2.0) * cell
    report(6, "Q_0(0) = 1/pi; unit mass n <= 10; argmax radius within one cell",
           worst_mass, 1e-6)


def test_criterion_07_classical():
    for k in (1, 2, 3):
        for q in (+1, -1):
            ts = classical.trajectory_times(k, 256 * k + 1, DEFAULT)
            zs = classical.evolve_classical(ClassicalState(1 + 1j, q), ts, DEFAULT)
            assert classical.winding_number(zs) == k * q

    params = OscillatorParams(m=1.7, omega=0.6)
    state = ClassicalState(1.1 - 0.7j, +1)
    e0 = classical.hamiltonian_energy(PhasePoint.from_z_plus(state.z0, params), params)
    drift = max(abs(classical.hamiltonian_energy(
        PhasePoint.from_z_plus(classical.evolve_classical(state, t, params), params),
        params) - e0) / e0 for t in np.linspace(0, 60, 400))
    assert drift <= 1e-12

    z0 = 0.9 + 0.5j
    mirror = max(abs(np.conj(classical.evolve_classical(ClassicalState(z0, +1), t, DEFAULT))
                     - classical.evolve_classical(ClassicalState(np.conj(z0), -1), t, DEFAULT))
                 for t in np.linspace(0, 20, 200))
    assert mirror <= 1e-12
    report(7, "winding +/-k exact; energy drift; charge-conjugation identity",
           max(drift, mirror), 1e-12)


def test_criterion_08_holonomy():
    worst = 0.0
    for n in (2, 3, 5):
        defect = orbifold.ConeGeometry(n).defect_angle
        for loop in (orbifold.circle_loop(), orbifold.square_loop(),
                     orbifold.ellipse_loop()):
            res = orbifold.levi_civita_transport(loop, n)
            worst = max(worst, oracles.angle_distance(res.holonomy_angle, defect))
    assert worst < 1e-5

    far = orbifold.levi_civita_transport(
        orbifold.circle_loop(center=5.0 + 0j, radius=1.0), 3)
    assert oracles.angle_distance(far.holonomy_angle, 0.0) < 1e-8
    report(8, "cone defect 2pi(n-1)/n on 3 shapes; non-enclosing loop flat",
           worst, 1e-5)


def test_criterion_09_charge_bookkeeping():
    worst_total = 0.0
    for q in (+1, -1):
        x = np.linspace(-10, 10, 4001)
        sec = bundles.LineSection(axis="x", coords=x,
                                  values=polarizations.hermite_basis(0, x, DEFAULT)[0],
                                  charge=q)
        _, total = oscillator.charge_density(sec)
        worst_total = max(worst_total, abs(total - q))
        _, fock_total = oscillator.charge_density(oscillator.eigenstate(3, q))
        worst_total = max(worst_total, abs(fock_total - q))
    assert worst_total < 1e-6

    for n in (0, 3, 7):
        for q in (+1, -1):
            assert oscillator.winding_charges(oscillator.eigenstate(n, q)) == (n * q, q)
    report(9, "charge totals +/-1; (q_l, q_v) = (+/-n, +/-1) exact", worst_total, 1e-6)


def test_criterion_10_polarization_limits():
    down = polarizations.polarization_limit_check(DEFAULT, [1.0, 0.5, 0.25])
    assert down.strictly_decreasing
    up = polarizations.polarization_limit_check(DEFAULT, [1.0, 2.0, 4.0])
    assert up.strictly_decreasing
    ratio = max(down.residual_norms[-1] / down.residual_norms[0],
                up.residual_norms[-1] / up.residual_norms[0])
    report(10, "dolbeault residuals strictly decrease along both w-sequences",
           ratio, 1.0)
