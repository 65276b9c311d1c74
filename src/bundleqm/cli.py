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
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import checks, classical, oscillator
from .classical import OscillatorParams
from .errors import (BundleqmError, ConfigError, InvalidArgumentError, NonFiniteError,
                     ResolutionInsufficientError)
from .sections import (FLOAT_FORMAT, check_positive, check_samples, check_sign, value_tuple,
                       write_rows)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class RunConfig(value_tuple("RunConfig", "m omega grid_half_width output_dir frequency_sign")):
    """A command's configuration.  Each field is checked when it is built, a
    refused one raising ConfigError, and stored as its check returns it:
    floats for m, omega and grid_half_width, a plain int frequency_sign."""

    __slots__ = ()

    def __new__(cls, m: float = 1.0, omega: float = 1.0, grid_half_width: float = 8.0,
                output_dir: str = "out", frequency_sign: int = +1):
        try:
            params = OscillatorParams(m=m, omega=omega)
            grid_half_width = check_positive(grid_half_width, "grid_half_width")
            frequency_sign = check_sign(frequency_sign, "frequency_sign")
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
        return super().__new__(cls, params.m, params.omega, grid_half_width, output_dir,
                               frequency_sign)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path} must hold a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - set(cls._fields)
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
    payload = canonical_json({"command": command, "config": config._asdict(),
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
    # one scaled array, clipped, stretched and rounded in place
    scaled = np.zeros(field2d.shape) if vmax == 0 else field2d / vmax
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled *= 255
    pixels = np.rint(scaled, out=scaled).astype(np.uint8)
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


def cmd_verify(config: RunConfig, suite: str) -> int:
    suites = checks.SUITES
    if suite != "all" and suite not in suites:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(suites)} or 'all'")
    names = sorted(suites) if suite == "all" else [suite]
    results = [c for name in names for c in suites[name](config)]
    report, lines = [], []
    for c in results:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.name}: measured={FLOAT_FORMAT % c.measured} "
                     f"tolerance={FLOAT_FORMAT % c.tolerance}\n")
        report.append({"name": c.name, "measured": float(c.measured),
                       "tolerance": float(c.tolerance), "passed": c.passed})
    print("".join(lines), end="")
    text = canonical_json(report) + "\n"
    out = run_directory(config, "verify", {"suite": suite})
    (out / "report.json").write_text(text)
    passed = sum(c.passed for c in results)
    print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_CHECK_FAILED


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
