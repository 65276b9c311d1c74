"""Batch command-line front end.

    bundleqm spectrum  [--config FILE] --n-max N
    bundleqm simulate  [--config FILE] --z0 Z [--charge Q] [--periods K] [--samples S]
    bundleqm husimi    [--config FILE] --n N [--charge Q] [--resolution R] [--ascii]
    bundleqm verify    [--config FILE] [--suite NAME]

All outputs land under a run-stamped subdirectory of the output directory
(config "output_dir", overridden by $BUNDLEQM_OUT).  The stamp is a hash of
the command and configuration, so identical invocations rewrite identical
bytes.  Floats are emitted with 17 significant digits; JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import bundles, classical, orbifold, oscillator, polarizations
from .classical import TWO_PI, OscillatorParams
from .errors import (BundleqmError, ConfigError, InvalidArgumentError, NonFiniteError,
                     ResolutionInsufficientError)
from .sections import (FLOAT_FORMAT, check_positive, check_samples, check_sign,
                       trapezoid_weights, write_rows)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


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


@dataclass
class RunConfig:
    m: float = 1.0
    omega: float = 1.0
    grid_half_width: float = 8.0
    output_dir: str = "out"
    frequency_sign: int = +1

    def __post_init__(self):
        try:
            OscillatorParams(m=self.m, omega=self.omega)
            check_positive(self.grid_half_width, "grid_half_width")
            check_sign(self.frequency_sign, "frequency_sign")
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path} must hold a JSON object, got {type(doc).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    @property
    def params(self) -> OscillatorParams:
        return OscillatorParams(m=self.m, omega=self.omega)


# ---------------------------------------------------------------------------
# Deterministic serialization: 17 significant digits, lowercase exponent
# ---------------------------------------------------------------------------

def canonical_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteError(f"JSON has no value for the non-finite float {obj!r}")
        return pad + FLOAT_FORMAT % obj
    if isinstance(obj, str):
        return pad + encode_basestring_ascii(obj)   # json.dumps' own escaping of a str
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, dict):
        items = [f'{pad}  "{k}": {canonical_json(obj[k], indent + 2).lstrip()}'
                 for k in sorted(obj)]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [canonical_json(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None or isinstance(obj, int):
        return pad + json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def run_directory(config: RunConfig, command: str, args_doc: dict) -> Path:
    root = os.environ.get("BUNDLEQM_OUT", config.output_dir)
    payload = canonical_json({"command": command, "config": asdict(config),
                              "args": args_doc})
    stamp = hashlib.sha256(payload.encode()).hexdigest()[:10]
    out = Path(root) / f"{command}-{stamp}"
    out.mkdir(parents=True, exist_ok=True)
    return out


# P2 text of each pixel value, NUL-padded: "%d " in a row, "%d\n" at its end
_P2_TEXT = np.array([[b"%d " % i, b"%d\n" % i] for i in range(256)], dtype="S4")


def write_pgm(path, field2d: np.ndarray, ascii_mode: bool = False) -> None:
    """Grayscale PGM scaled to [0, max]; P5 by default, P2 with ascii_mode."""
    vmax = float(np.max(field2d))
    scaled = np.zeros_like(field2d) if vmax == 0 else field2d / vmax
    pixels = np.rint(255 * np.clip(scaled, 0.0, 1.0)).astype(np.uint8)
    ny, nx = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P%d\n%d %d\n255\n" % (2 if ascii_mode else 5, nx, ny))
        if ascii_mode:
            cells = _P2_TEXT[pixels, 0]
            cells[:, -1] = _P2_TEXT[pixels[:, -1], 1]
            fh.write(cells.tobytes().translate(None, b"\0"))
        else:
            fh.write(pixels.tobytes())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(config: RunConfig, n_max: int) -> Path:
    levels = oscillator.spectrum(n_max, config.params)
    doc = [{"n": lv.n, "E": lv.E, "q_l": lv.q_l, "q_v": lv.q_v} for lv in levels]
    out = run_directory(config, "spectrum", {"n_max": n_max})
    path = out / "spectrum.json"
    path.write_text(canonical_json(doc) + "\n")
    print(f"wrote {path}")
    return path


def cmd_simulate(config: RunConfig, z0: complex, charge: int, periods: float,
                 samples: int) -> Path:
    if z0 == 0:
        raise ConfigError("z0 = 0 is the excluded point of the punctured phase space")
    params = config.params
    state = classical.ClassicalState(z0=z0, charge=charge)
    times = classical.trajectory_times(periods, samples, params)
    zs = classical.evolve_classical(state, times, params,
                                    frequency_sign=config.frequency_sign)
    xs, ps = classical.phase_coordinates(zs, charge, params)
    out = run_directory(config, "simulate",
                        {"z0": [z0.real, z0.imag], "charge": charge,
                         "periods": periods, "samples": samples})
    path = out / "trajectory.csv"
    with open(path, "wb") as fh:
        write_rows(fh, "t,x,p,re_z,im_z",
                   np.column_stack([times, xs, ps, zs.real, zs.imag]))
    try:
        print(f"winding number: {classical.winding_number(zs)}")
    except BundleqmError as exc:
        print(f"winding number: n/a ({exc})")
    print(f"wrote {path}")
    return path


def cmd_husimi(config: RunConfig, n: int, charge: int, resolution: int,
               ascii_mode: bool = False) -> Path:
    if resolution < 16:
        raise ConfigError("resolution must be >= 16")
    check_samples(resolution ** 2, f"husimi resolution {resolution}")
    state = oscillator.eigenstate(n, charge)
    hw = config.grid_half_width
    # the field peaks on the ring u^2 + v^2 = n: past the grid's corners it is blank
    if n > 2.0 * hw ** 2:
        raise ResolutionInsufficientError(
            f"husimi n={n}: the ring of radius sqrt(n) = {math.sqrt(n):.6g} lies beyond "
            f"the corners of the grid [-{hw:g}, {hw:g}]^2")
    u = np.linspace(-hw, hw, resolution)
    q_field = oscillator.husimi(state, u, u)
    q_max = float(np.max(q_field))
    if not q_max > 0:
        raise ResolutionInsufficientError(f"husimi n={n}: the field is 0 on the whole grid")
    i, j = np.unravel_index(int(np.argmax(q_field)), q_field.shape)
    out = run_directory(config, "husimi",
                        {"n": n, "charge": charge, "resolution": resolution,
                         "ascii": ascii_mode})
    pgm_path = out / ("husimi.ascii.pgm" if ascii_mode else "husimi.pgm")
    write_pgm(pgm_path, q_field, ascii_mode=ascii_mode)
    sidecar = {
        "n": n, "charge": charge, "resolution": resolution,
        "min_value": float(np.min(q_field)), "max_value": q_max,
        "max_location": [float(u[i]), float(u[j])],
        "max_radius_sq": float(u[i] ** 2 + u[j] ** 2),
        "cell": float(u[1] - u[0]),
    }
    (out / "husimi.json").write_text(canonical_json(sidecar) + "\n")
    print(f"wrote {pgm_path}")
    return pgm_path


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

@dataclass
class Check:
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


def suite_ccr(config: RunConfig):
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


def suite_gauge(config: RunConfig):
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


def suite_spectrum(config: RunConfig):
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


def suite_bargmann(config: RunConfig):
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


def suite_husimi(config: RunConfig):
    u = np.linspace(-8.0, 8.0, 257)
    h = u[1] - u[0]
    wt = trapezoid_weights(u)
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
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def suite_holonomy(config: RunConfig):
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


def suite_charge_mirror(config: RunConfig):
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


def cmd_verify(config: RunConfig, suite: str) -> int:
    if suite != "all" and suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    names = sorted(SUITES) if suite == "all" else [suite]
    checks = [c for name in names for c in SUITES[name](config)]
    report, lines = [], []
    all_passed = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        all_passed &= c.passed
        lines.append(f"[{status}] {c.name}: measured={FLOAT_FORMAT % c.measured} "
                     f"tolerance={FLOAT_FORMAT % c.tolerance}\n")
        report.append({"name": c.name, "measured": float(c.measured),
                       "tolerance": float(c.tolerance), "passed": c.passed})
    print("".join(lines), end="")
    text = canonical_json(report) + "\n"
    out = run_directory(config, "verify", {"suite": suite})
    (out / "report.json").write_text(text)
    print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bundleqm",
                                     description="oscillator bundle toolkit")
    parser.add_argument("--config", help="JSON configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="energy levels for both charges")
    sp.add_argument("--n-max", type=int, required=True)

    sm = sub.add_parser("simulate", help="classical trajectory CSV")
    sm.add_argument("--z0", type=complex, required=True,
                    help="initial datum, e.g. '1+0.5j'")
    sm.add_argument("--charge", type=int, default=+1, choices=(+1, -1))
    sm.add_argument("--periods", type=float, default=1.0)
    sm.add_argument("--samples", type=int, default=257)

    hu = sub.add_parser("husimi", help="Husimi heatmap PGM + sidecar JSON")
    hu.add_argument("--n", type=int, required=True)
    hu.add_argument("--charge", type=int, default=+1, choices=(+1, -1))
    hu.add_argument("--resolution", type=int, default=257)
    hu.add_argument("--ascii", action="store_true", help="P2 instead of P5")

    ve = sub.add_parser("verify", help="run invariant suites")
    ve.add_argument("--suite", default="all")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config) if args.config else RunConfig()
        if args.command == "spectrum":
            cmd_spectrum(config, args.n_max)
            return EXIT_OK
        if args.command == "simulate":
            cmd_simulate(config, args.z0, args.charge, args.periods, args.samples)
            return EXIT_OK
        if args.command == "husimi":
            cmd_husimi(config, args.n, args.charge, args.resolution, args.ascii)
            return EXIT_OK
        if args.command == "verify":
            return cmd_verify(config, args.suite)
    except (BundleqmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
