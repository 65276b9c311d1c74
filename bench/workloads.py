"""The benchmark's workloads: seeded inputs, the timed operation, and checks.

Each workload turns a seed into one cycle of inputs; a run repeats whole
cycles, so every run sees the same mix.  `prepare` builds an input's data
outside the timed interval, `run` is the timed operation (calls into the
public API only), and `check` compares the results with oracles computed
here with numpy and the standard library, not with bundleqm.  `outputs`
gives the bytes that identical inputs must reproduce exactly.

Workload sizes are the full ones unless `tiny` is set; tiny sizes exist
for the smoke check only.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from bundleqm import bundles, cli, oscillator, polarizations
from bundleqm.classical import OscillatorParams

# Defaults of cli.RunConfig() restated, so the oracles do not read them
# back from the code under test.
OMEGA = 1.0
MASS = 1.0
W2 = 1.0 / (MASS * OMEGA)
GRID_HALF_WIDTH = 8.0

# Known defect: the CSV grid format has no charge column, so a charge -1
# grid comes back from load_grid as charge +1.  Such failures are counted
# in `failed` like any other; they do not make a run incorrect.
CSV_CHARGE_DEFECT = "csv-grid-drops-charge"


@dataclass
class Failure:
    message: str
    known: Optional[str] = None     # name of a documented defect, else None


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def _balanced_charges(rng, k: int) -> list:
    """k charges, half +1 and half -1 in a seeded order."""
    return [int(q) for q in rng.permutation([(+1, -1)[i % 2] for i in range(k)])]


class Workload:
    name = ""
    tail_pct = 50.0          # percentile reported as op_s_tail
    cli_outputs = ()         # names in `outputs` that cli commands wrote

    def __init__(self, out_dir: Path, tiny: bool = False):
        self.out_dir = Path(out_dir)
        self.tiny = tiny

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, inp):
        return inp

    def run(self, prepared):
        raise NotImplementedError

    def check(self, prepared, result, stdout: str) -> list:
        raise NotImplementedError

    def outputs(self, result) -> dict:
        """name -> bytes that an identical input must reproduce."""
        return {}


class VerifyAll(Workload):
    """`verify --suite all` at the default configuration.

    The seed selects nothing: other configurations fail for known reasons
    (the coordinate-matrix check at omega=2 or m=4, the bargmann window at
    omega=0.5) that a later change is to fix.
    """

    name = "verify-all"
    tail_pct = 90.0
    cli_outputs = ("report.json",)

    def inputs(self, seed):
        return [None]

    def run(self, prepared):
        return cli.cmd_verify(cli.RunConfig(), "all")

    def _report(self) -> Path:
        reports = sorted(Path(self.out_dir).glob("verify-*/report.json"))
        if len(reports) != 1:
            raise FileNotFoundError(f"expected one verify report, found {len(reports)}")
        return reports[0]

    def check(self, prepared, result, stdout):
        failures = []
        if result != 0:
            failures.append(Failure(f"verify exit code {result}"))
        entries = json.loads(self._report().read_text())
        if not entries:
            failures.append(Failure("report.json lists no checks"))
        for entry in entries:
            if entry.get("passed") is not True:
                failures.append(Failure(f"check failed: {entry.get('name')}"))
        return failures

    def outputs(self, result):
        return {"report.json": self._report().read_bytes()}


class HusimiField(Workload):
    """`husimi` heatmaps of eigenstates, P5 output.

    n runs over 0, 6, ..., 48 in a seeded order with seeded charges, so
    every seed has the same mix of costs (linear in n).
    """

    name = "husimi-field"
    tail_pct = 80.0
    cli_outputs = ("husimi.pgm", "husimi.json")

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        levels = range(0, 13, 6) if self.tiny else range(0, 49, 6)
        order = [int(n) for n in rng.permutation(list(levels))]
        charges = _balanced_charges(rng, len(order))
        resolution = 65 if self.tiny else 1025
        return [{"n": n, "charge": q, "resolution": resolution}
                for n, q in zip(order, charges)]

    def run(self, p):
        return Path(cli.cmd_husimi(cli.RunConfig(), p["n"], p["charge"], p["resolution"]))

    def check(self, p, pgm_path, stdout):
        failures = []
        n, res = p["n"], p["resolution"]
        side = json.loads((pgm_path.parent / "husimi.json").read_text())
        for key in ("n", "charge", "resolution"):
            if side.get(key) != p[key]:
                failures.append(Failure(f"sidecar {key}={side.get(key)} != {p[key]}"))
        cell = 2.0 * GRID_HALF_WIDTH / (res - 1)
        # argmax on the ring |z|^2 = n, within the suite_husimi cell bound
        r_err = abs(math.sqrt(side["max_radius_sq"]) - math.sqrt(n))
        if r_err > math.sqrt(2.0) * cell:
            failures.append(Failure(f"argmax radius off by {r_err:.3g} for n={n}"))
        # peak n^n e^-n / (pi n!); the nearest grid point to the ring lies
        # within cell/sqrt(2) radially, where Q drops by at most ~cell^2
        peak = math.exp((n * math.log(n) if n else 0.0) - n - math.lgamma(n + 1)) / math.pi
        if not peak * (1.0 - 2.0 * cell ** 2) <= side["max_value"] <= peak * (1.0 + 1e-12):
            failures.append(Failure(f"max_value {side['max_value']!r} vs peak {peak!r}"))
        if side["min_value"] < 0.0:
            failures.append(Failure(f"negative Husimi value {side['min_value']!r}"))
        data = pgm_path.read_bytes()
        header = f"P5\n{res} {res}\n255\n".encode()
        if not data.startswith(header) or len(data) != len(header) + res * res:
            failures.append(Failure("malformed P5 file"))
        return failures

    def outputs(self, pgm_path):
        return {"husimi.pgm": pgm_path.read_bytes(),
                "husimi.json": (pgm_path.parent / "husimi.json").read_bytes()}


class IoRoundtrip(Workload):
    """`simulate` trajectory CSV plus a grid save/load in CSV and binary.

    Grid charges are seeded over both signs, so the known CSV charge loss
    shows in the failure count.
    """

    name = "io-roundtrip"
    tail_pct = 75.0
    cli_outputs = ("trajectory.csv",)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        k = 4
        sim_charges = _balanced_charges(rng, k)
        grid_charges = _balanced_charges(rng, k)
        cycle = []
        for i in range(k):
            cycle.append({
                "index": i,
                "z0": complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))),
                "charge": sim_charges[i],
                "periods": int(rng.integers(1, 4)),
                "samples": 513 if self.tiny else 50_000,
                "grid_charge": grid_charges[i],
                "grid_half_width": float(rng.uniform(4.0, 8.0)),
                "grid_points": 17 if self.tiny else 257,
                "grid_seed": int(rng.integers(2 ** 32)),
            })
        return cycle

    def prepare(self, inp):
        n, hw = inp["grid_points"], inp["grid_half_width"]
        rng = np.random.default_rng(inp["grid_seed"])
        axis = np.linspace(-hw, hw, n)
        values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        section = bundles.GridSection(x=axis, p=axis.copy(), values=values,
                                      charge=inp["grid_charge"])
        grid_dir = self.out_dir / "grids"
        grid_dir.mkdir(parents=True, exist_ok=True)
        return dict(inp, section=section,
                    csv_path=grid_dir / f"grid-{inp['index']}.csv",
                    bin_path=grid_dir / f"grid-{inp['index']}.bqgs")

    def run(self, p):
        traj = cli.cmd_simulate(cli.RunConfig(), p["z0"], p["charge"],
                                float(p["periods"]), p["samples"])
        bundles.save_grid(p["section"], p["csv_path"])
        from_csv = bundles.load_grid(p["csv_path"])
        bundles.save_grid(p["section"], p["bin_path"])
        from_bin = bundles.load_grid(p["bin_path"])
        return {"trajectory": Path(traj), "csv": from_csv, "binary": from_bin,
                "csv_path": p["csv_path"], "bin_path": p["bin_path"]}

    def check(self, p, result, stdout):
        failures = []
        q, periods, z0 = p["charge"], p["periods"], p["z0"]
        traj = result["trajectory"]
        with open(traj) as fh:
            header = fh.readline().strip()
        if header != "t,x,p,re_z,im_z":
            failures.append(Failure(f"trajectory header {header!r}"))
        data = np.loadtxt(traj, delimiter=",", skiprows=1, ndmin=2)
        t = np.linspace(0.0, periods * 2.0 * np.pi / OMEGA, p["samples"])
        z = np.exp(1j * q * OMEGA * t) * z0
        expect = np.column_stack([t, np.sqrt(2.0) * z.real,
                                  -q * np.sqrt(2.0) * z.imag / W2, z.real, z.imag])
        if data.shape != expect.shape:
            failures.append(Failure(f"trajectory shape {data.shape} != {expect.shape}"))
        else:
            err = float(np.max(np.abs(data - expect)))
            if err > 1e-12 * max(1.0, abs(z0), t[-1]):
                failures.append(Failure(f"trajectory off the exact orbit by {err:.3g}"))
        match = re.search(r"winding number: (-?\d+)", stdout)
        if match is None or int(match.group(1)) != q * periods:
            failures.append(Failure(f"winding {match and match.group(1)} != {q * periods}"))
        sec = p["section"]
        for fmt in ("csv", "binary"):
            back = result[fmt]
            for part in ("x", "p", "values"):
                if not _bit_equal(getattr(back, part), getattr(sec, part)):
                    failures.append(Failure(f"{fmt} grid {part} not bit-exact"))
            if back.charge != sec.charge:
                known = (CSV_CHARGE_DEFECT if fmt == "csv" and sec.charge == -1
                         and back.charge == +1 else None)
                failures.append(Failure(f"{fmt} grid charge {sec.charge} came back "
                                        f"as {back.charge}", known))
        return failures

    def outputs(self, result):
        return {"trajectory.csv": result["trajectory"].read_bytes(),
                "grid.csv": result["csv_path"].read_bytes(),
                "grid.bqgs": result["bin_path"].read_bytes()}


def _gauge_family(x0: float):
    """The four gauges of the verify `gauge` suite, through the public API."""
    vac = bundles.vacuum_connection()
    return [
        vac,
        bundles.gauge_transform(vac, lambda x, p: -0.5 * p * x,
                                dalpha_dx=lambda x, p: -0.5 * p,
                                dalpha_dp=lambda x, p: -0.5 * x),
        bundles.gauge_transform(vac, lambda x, p: 0.5 * p * x,
                                dalpha_dx=lambda x, p: 0.5 * p,
                                dalpha_dp=lambda x, p: 0.5 * x),
        bundles.gauge_transform(vac, lambda x, p: p * x0,
                                dalpha_dx=lambda x, p: np.zeros_like(x),
                                dalpha_dp=lambda x, p: x0 + 0 * x),
    ]


class GridOperators(Workload):
    """Four library calls on phase-space grids per operation.

    curvature over the gauge family, the Dolbeault residual of a polarized
    section, the Laplacian consistency check, and the Husimi function of a
    random normalized superposition (not an eigenstate).
    """

    name = "grid-operators"
    tail_pct = 80.0
    params = OscillatorParams(m=MASS, omega=OMEGA)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        k = 4
        charges = [_balanced_charges(rng, k) for _ in range(4)]
        return [{"curv_charge": charges[0][i], "x0": float(rng.uniform(0.5, 1.5)),
                 "dolb_n": int(rng.integers(0, 6)), "dolb_charge": charges[1][i],
                 "lap_n": int(rng.integers(0, 9)), "lap_charge": charges[2][i],
                 "hus_charge": charges[3][i], "hus_seed": int(rng.integers(2 ** 32))}
                for i in range(k)]

    def prepare(self, inp):
        q = inp["curv_charge"]
        probe = bundles.GridSection.from_function(
            lambda X, P: np.exp(-(X ** 2 + P ** 2) / 4.0), (-1.0, 1.0), (-1.0, 1.0),
            201, 201, charge=q)
        n, qd = inp["dolb_n"], inp["dolb_charge"]

        def polarized(X, P):
            z = (X - 1j * qd * W2 * P) / np.sqrt(2.0)
            return z ** n * np.exp(-z * np.conj(z) / (2.0 * W2))

        pts = 513 if self.tiny else 1025
        sec = bundles.GridSection.from_function(polarized, (-5.0, 5.0), (-5.0, 5.0),
                                                pts, pts, charge=qd)
        sec = sec.like(sec.values / np.max(np.abs(sec.values)))
        rng = np.random.default_rng(inp["hus_seed"])
        c = rng.normal(size=17) + 1j * rng.normal(size=17)
        state = polarizations.FockState(c / np.linalg.norm(c), inp["hus_charge"])
        u = np.linspace(-8.0, 8.0, 65 if self.tiny else 513)
        lap_grid = {"half_width": 3.0, "h": 2.5e-2} if self.tiny else {}
        return dict(inp, family=_gauge_family(inp["x0"]), probe=probe, polarized=sec,
                    state=state, u=u, lap_grid=lap_grid)

    def run(self, p):
        curvatures = [bundles.curvature_numeric(conn, p["probe"]) for conn in p["family"]]
        residual = polarizations.dolbeault_residual(p["polarized"], self.params)
        laplacian = oscillator.laplacian_consistency(
            p["lap_n"], self.params, charge=p["lap_charge"], **p["lap_grid"])
        q_field = oscillator.husimi(p["state"], p["u"], p["u"])
        return {"curvatures": np.array(curvatures), "residual": residual.values,
                "laplacian": np.array([laplacian.measured]), "husimi": q_field}

    def check(self, p, r, stdout):
        failures = []
        target = -1j * p["curv_charge"]
        worst = float(np.max(np.abs(r["curvatures"] - target)))
        if worst > 1e-3:                       # suite_gauge bound
            failures.append(Failure(f"curvature off -i q by {worst:.3g}"))
        spread = float(np.max(np.abs(r["curvatures"][:, None] - r["curvatures"][None, :])))
        if spread > 1e-8:                      # suite_gauge cross-gauge bound
            failures.append(Failure(f"curvature gauge spread {spread:.3g}"))
        resid = float(np.max(np.abs(r["residual"][1:-1, 1:-1])))
        if not resid < 1e-3:                   # acceptance bound on the kernel
            failures.append(Failure(f"Dolbeault residual {resid:.3g} on a polarized section"))
        expected = -(2.0 / W2) * (p["lap_n"] + 0.5)
        rel = abs(complex(r["laplacian"][0]) - expected) / abs(expected)
        if not rel <= 0.05:                    # laplacian_consistency's 5%
            failures.append(Failure(f"Laplacian eigenvalue off by {rel:.3g}"))
        q_field, u = r["husimi"], p["u"]
        mass = float(np.trapezoid(np.trapezoid(q_field, u, axis=1), u))
        if not (np.min(q_field) >= 0.0 and abs(mass - 1.0) <= 1e-6):
            failures.append(Failure(f"Husimi mass {mass!r} or min {np.min(q_field)!r}"))
        return failures

    def outputs(self, r):
        return {k: np.ascontiguousarray(v).tobytes() for k, v in r.items()}


WORKLOADS = {w.name: w for w in (VerifyAll, HusimiField, IoRoundtrip, GridOperators)}
