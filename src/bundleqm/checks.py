"""What `bundleqm verify` checks: the paper's invariants, each measured against
a pinned bound.  A suite takes a run config (its `params` and
`frequency_sign`) and returns its `Check`s; `SUITES` names the suites.  The
library is called through its module attributes, so a replaced or traced
function is the one that runs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import bundles, classical, orbifold, oscillator, polarizations, sections

# The bound of each verify check that is not structural (exactly 0, or the
# Husimi grid's diagonal cell), pinned: no config key or option changes them.
TOLERANCES = {
    "ccr": 1e-3,
    "gauge": 1e-3,
    "gauge_cross": 1e-8,
    "spectrum_matrix": 1e-6,
    "bargmann_off": 1e-10,
    "bargmann_diag": 1e-10,
    "bargmann_norm": 1e-8,
    "husimi_center": 1e-12,
    "husimi_norm": 1e-6,
    "holonomy": 1e-5,
    "holonomy_zero": 1e-8,
    "mirror": 1e-12,
    "charge_total": 1e-6,
}


class Check(NamedTuple):
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.tolerance)


def _ccr_error(rep: str, charge: int, h: float) -> float:
    """sup |([p,x] + i) psi| / sup |psi| on the interior, for a smooth psi."""
    axis = "x" if rep == "coordinate" else "p"
    sec = bundles.LineSection.from_function(
        lambda s: np.exp(-0.5 * s ** 2) * (1.0 + 0.3 * s), axis, -4.0, 4.0,
        int(round(8.0 / h)) + 1, charge=charge)
    x_hat, p_hat = bundles.canonical_operators(rep, charge)
    comm = p_hat(x_hat(sec)).values - x_hat(p_hat(sec)).values
    resid = comm + 1j * sec.values
    return float(np.max(np.abs(resid[2:-2])) / np.max(np.abs(sec.values)))


def suite_ccr(config):
    checks = [Check(f"ccr {rep} charge {q:+d}: |[p,x]+i|", _ccr_error(rep, q, 1e-2),
                    TOLERANCES["ccr"])
              for rep in ("coordinate", "momentum") for q in (+1, -1)]
    # observed convergence order across h, h/2, h/4; checks[0] is coordinate +1 at h
    errs = [checks[0].measured] + [_ccr_error("coordinate", +1, h) for h in (5e-3, 2.5e-3)]
    order = min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))
    checks.append(Check("ccr convergence order >= 1.9 (reported as 1.9 - order <= 0)",
                        max(0.0, 1.9 - float(order)), 0.0))
    return checks


def _gauge_family():
    """The vacuum connection and three gauge transforms of it, x0 = 1."""
    vac = bundles.vacuum_connection()
    return [
        ("vacuum", vac),
        ("alpha=-px/2", bundles.gauge_transform(
            vac, lambda x, p: -0.5 * p * x,
            dalpha_dx=lambda x, p: -0.5 * p, dalpha_dp=lambda x, p: -0.5 * x)),
        ("alpha=+px/2", bundles.gauge_transform(
            vac, lambda x, p: 0.5 * p * x,
            dalpha_dx=lambda x, p: 0.5 * p, dalpha_dp=lambda x, p: 0.5 * x)),
        ("alpha=p*x0", bundles.gauge_transform(
            vac, lambda x, p: p,
            dalpha_dx=lambda x, p: np.zeros_like(x), dalpha_dp=lambda x, p: 1.0 + 0 * x)),
    ]


def _symmetric_probe() -> bundles.GridSection:
    """exp(-(x^2 + p^2)/4) on [-1, 1]^2 at spacing 4e-2 (51 x 51 samples)."""
    return bundles.GridSection.from_function(
        lambda x, p: np.exp(-(x ** 2 + p ** 2) / 4.0), (-1.0, 1.0), (-1.0, 1.0), 51, 51)


def suite_gauge(config):
    fine = _symmetric_probe()
    coarse = bundles.GridSection(fine.x[::2], fine.p[::2], fine.values[::2, ::2])
    checks = []
    values = {}
    for name, conn in _gauge_family():
        # Richardson's step on the probe and its every-other-sample subgrid
        # cancels curvature_numeric's O(h^2) error; O(h^3) is left, since the
        # two interiors it averages over differ by one cell
        val = (4 * bundles.curvature_numeric(conn, fine)
               - bundles.curvature_numeric(conn, coarse)) / 3
        values[name] = val
        checks.append(Check(f"curvature {name}: |comm/psi + i|", abs(val + 1j),
                            TOLERANCES["gauge"]))
    spread = max(abs(values[a] - values[b]) for a in values for b in values)
    checks.append(Check("curvature cross-gauge spread", float(spread),
                        TOLERANCES["gauge_cross"]))
    return checks


def suite_spectrum(config):
    params = config.params
    levels = oscillator.spectrum(10, params)
    fock_err = max(abs(lv.E - params.omega * (lv.n + 0.5)) for lv in levels)
    # a grid and an error in the units w and omega keep the check at every (m, omega)
    mat = oscillator.coordinate_hamiltonian_matrix(10, params, half_width=10.0 * params.w,
                                                   h=5e-3 * params.w)
    evals = np.sort(np.linalg.eigvalsh(mat)) / params.omega
    expect = np.arange(11) + 0.5
    return [
        Check("spectrum fock: max |E_n - omega(n+1/2)|", float(fock_err), 0.0),
        Check("spectrum coordinate matrix: max eigenvalue error",
              float(np.max(np.abs(evals - expect))),
              TOLERANCES["spectrum_matrix"]),
    ]


def _fixed_state(size: int) -> np.ndarray:
    """size normalized Fock coefficients exp(2.4i k^2)/(1 + k), k = 0..size-1:
    distinct phases and moduli from a closed form, so that verify does not
    import numpy.random, which adds to every process's start-up and memory."""
    k = np.arange(size)
    c = np.exp(2.4j * k ** 2) / (1.0 + k)
    return c / np.linalg.norm(c)


def suite_bargmann(config):
    params = config.params
    n_max, order = 20, 128
    tables = {}

    def basis_at(x):
        # one h_0..h_n_max table per distinct x: the recurrence's rows do not
        # depend on how many follow, so each h_m is the one hermite_basis(m) gives
        key = (x.shape, x.tobytes())
        if key not in tables:
            tables.clear()
            tables[key] = polarizations.hermite_basis(n_max, x, params)
        return tables[key]

    worst_off = worst_diag = 0.0
    for m in range(n_max + 1):
        state = polarizations.bargmann_transform(lambda x: basis_at(x)[m], n_max, order, params)
        target = np.zeros(n_max + 1)
        target[m] = 1.0
        err = np.abs(state.coeffs - target)
        worst_diag = max(worst_diag, float(err[m]))
        err[m] = 0.0    # every other error is >= 0, so the max is theirs
        worst_off = max(worst_off, float(np.max(err)))
    # round trip on a band-limited state
    sec = polarizations.bargmann_inverse(polarizations.FockState(_fixed_state(13)),
                                         params.w * np.linspace(-12, 12, 4001), params)
    back = polarizations.bargmann_transform(sec, 12, 128, params)
    rt = float(abs(np.sqrt(back.norm_sq()) - 1.0))
    return [
        Check("bargmann h_n analysis: worst off-coefficient", worst_off,
              TOLERANCES["bargmann_off"]),
        Check("bargmann h_n analysis: worst diagonal error", worst_diag,
              TOLERANCES["bargmann_diag"]),
        Check("bargmann round-trip norm error", rt,
              TOLERANCES["bargmann_norm"]),
    ]


def suite_husimi(config):
    u = np.linspace(-8.0, 8.0, 257)
    h = u[1] - u[0]
    wt = sections.trapezoid_weights(u)
    checks = []
    q0 = oscillator.husimi(oscillator.eigenstate(0), np.array([0.0]), np.array([0.0]))
    checks.append(Check("husimi Q_0(0) vs 1/pi", float(abs(q0[0, 0] - 1 / np.pi)),
                        TOLERANCES["husimi_center"]))

    def mass_and_peak(q):
        return float(wt @ q @ wt), np.unravel_index(int(np.argmax(q)), q.shape)

    worst_norm, worst_loc = 0.0, 0.0
    # map drops each field before the next is formed, so at most four 257^2
    # arrays are alive at once, and fewer heap pages are faulted in per call
    levels = map(mass_and_peak, oscillator.husimi_levels(10, u, u))
    for n, (total, (i, j)) in enumerate(levels):
        worst_norm = max(worst_norm, abs(total - 1.0))
        worst_loc = max(worst_loc, abs(np.hypot(u[i], u[j]) - np.sqrt(n)))
    checks.append(Check("husimi normalization: worst |int Q - 1|", worst_norm,
                        TOLERANCES["husimi_norm"]))
    checks.append(Check("husimi argmax radius vs sqrt(n), worst", worst_loc,
                        np.sqrt(2.0) * h))
    return checks


def _angle_distance(a: float, b: float) -> float:
    """|a - b| between two angles, the shorter way round the circle."""
    d = abs(a - b) % classical.TWO_PI
    return min(d, classical.TWO_PI - d)


def suite_holonomy(config):
    degrees = (2, 3, 5)
    loops = [("circle", orbifold.circle_loop()),
             ("square", orbifold.square_loop()),
             ("ellipse", orbifold.ellipse_loop())]
    # each loop integrated once for all degrees
    transported = [orbifold.levi_civita_transport(loop, degrees) for _, loop in loops]
    checks = []
    for k, n in enumerate(degrees):
        defect = orbifold.ConeGeometry(n).defect_angle
        for (name, _), results in zip(loops, transported):
            checks.append(Check(f"holonomy n={n} {name}: |angle - defect|",
                                _angle_distance(results[k].holonomy_angle, defect),
                                TOLERANCES["holonomy"]))
    far = orbifold.circle_loop(center=5.0 + 0j, radius=1.0)
    res = orbifold.levi_civita_transport(far, 3)
    checks.append(Check("holonomy non-enclosing loop", _angle_distance(res.holonomy_angle, 0.0),
                        TOLERANCES["holonomy_zero"]))
    return checks


def suite_charge_mirror(config):
    params = config.params
    checks = []
    # classical: conj of particle evolution = antiparticle evolution of conj datum
    z0 = 0.8 - 0.6j
    ts = np.linspace(0.0, 7.0, 50)
    sign = config.frequency_sign
    plus = classical.evolve_classical(classical.ClassicalState(z0, +1), ts, params, sign)
    minus = classical.evolve_classical(classical.ClassicalState(np.conj(z0), -1), ts, params,
                                       sign)
    checks.append(Check("mirror classical evolution",
                        float(np.max(np.abs(np.conj(plus) - minus))),
                        TOLERANCES["mirror"]))
    # quantum: conjugate evolution
    c = _fixed_state(6)
    ev_p = oscillator.evolve_schrodinger(polarizations.FockState(np.conj(c), +1), 0.37,
                                         params, sign)
    ev_m = oscillator.evolve_schrodinger(polarizations.FockState(c, -1), 0.37, params, sign)
    checks.append(Check("mirror schrodinger evolution",
                        float(np.max(np.abs(np.conj(ev_p.coeffs) - ev_m.coeffs))),
                        TOLERANCES["mirror"]))
    # quantum numbers and charge totals
    worst_qn = 0
    for n in (0, 3, 5):
        for q in (+1, -1):
            ql, qv = oscillator.winding_charges(oscillator.eigenstate(n, q))
            worst_qn = max(worst_qn, abs(ql - n * q), abs(qv - q))
    checks.append(Check("eigenstate quantum numbers (q_l, q_v)", float(worst_qn), 0.0))
    worst_total = 0.0
    for q in (+1, -1):
        _, total = oscillator.charge_density(oscillator.eigenstate(4, q))
        worst_total = max(worst_total, abs(total - q))
    checks.append(Check("charge density totals +/-1", worst_total,
                        TOLERANCES["charge_total"]))
    return checks


SUITES = {
    "bargmann": suite_bargmann,
    "ccr": suite_ccr,
    "charge-mirror": suite_charge_mirror,
    "gauge": suite_gauge,
    "holonomy": suite_holonomy,
    "husimi": suite_husimi,
    "spectrum": suite_spectrum,
}
