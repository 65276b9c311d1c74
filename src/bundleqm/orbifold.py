"""The cone geometry of eigenstate graphs.

The degree-n eigenstate graph z -> z^n identifies the plane with the
orbifold C/Z_n: a flat cone of angle 2pi/n whose curvature sits entirely at
the tip.  Parallel transport around the tip rotates vectors by the angle
defect 2pi(n-1)/n; loops that miss the tip come back unchanged — the
operational form of the delta-concentrated curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import TWO_PI, check_angular_steps, closed_loop_ratios
from .errors import BranchOutOfRangeError, InvalidArgumentError, OriginSingularError


def _check_degree(n: int) -> None:
    if n < 1:
        raise InvalidArgumentError(f"covering degree must be >= 1, got {n!r}")


@dataclass(frozen=True)
class ConeGeometry:
    """Covering degree with its cone and defect angles (summing to 2pi)."""

    n: int

    def __post_init__(self):
        _check_degree(self.n)

    @property
    def cone_angle(self) -> float:
        return TWO_PI / self.n

    @property
    def defect_angle(self) -> float:
        return TWO_PI * (self.n - 1) / self.n


def branched_cover(z, n: int):
    """z -> z^n; degree-n branched covering with branch point z = 0."""
    _check_degree(n)
    return np.asarray(z, dtype=complex) ** n if np.ndim(z) else complex(z) ** n


def cover_inverse(psi: complex, n: int, branch: int) -> complex:
    """The branch-th n-th root, principal argument in [0, 2pi/n) plus branch steps."""
    _check_degree(n)
    if not 0 <= branch < n:
        raise BranchOutOfRangeError(f"branch {branch} outside 0..{n - 1}")
    psi = complex(psi)
    if psi == 0:
        return 0j
    theta = np.angle(psi) % TWO_PI
    return abs(psi) ** (1.0 / n) * np.exp(1j * (theta / n + TWO_PI * branch / n))


@dataclass(frozen=True)
class ConeMetric:
    """Induced metric at a point of C/Z_n, in complex and polar components.

    ds^2 = conformal_factor * dpsi dpsibar = drho^2 + (rho^2/n^2) dphi_n^2,
    where rho = sqrt(2)|psi|^(1/n) is the geodesic distance from the tip.
    """

    conformal_factor: float
    rho: float
    g_rho_rho: float
    g_phi_phi: float


def cone_metric(psi: complex, n: int, tol: float = 1e-12) -> ConeMetric:
    """Pullback of the plane metric 2 dz dzbar through z = psi^(1/n).

    The conformal factor is (2/n^2)(psibar psi)^((1-n)/n); n = 1 reduces to
    the flat 2 dpsi dpsibar.  Singular at the tip for n >= 2.
    """
    _check_degree(n)
    psi = complex(psi)
    if abs(psi) < tol and n >= 2:
        raise OriginSingularError("cone metric is singular at psi = 0 for n >= 2")
    factor = (2.0 / n ** 2) * abs(psi) ** (2.0 * (1.0 - n) / n)
    rho = np.sqrt(2.0) * abs(psi) ** (1.0 / n)
    return ConeMetric(conformal_factor=factor, rho=rho,
                      g_rho_rho=1.0, g_phi_phi=rho ** 2 / n ** 2)


@dataclass(frozen=True)
class TransportResult:
    vector: complex            # v0 parallel-transported around the loop
    holonomy_angle: float      # in [0, 2pi)
    loop_winding: int          # turns of the loop about the tip


def levi_civita_transport(loop, n: int, v0: complex = 1.0 + 0j,
                          tol_rel: float = 1e-9) -> TransportResult:
    """Parallel transport of v0 along a closed loop in the psi-plane.

    The Levi-Civita connection of the cone metric is the one-form
    -((n-1)/n) dpsi/psi; the transport ODE integrates to the multiplier
    exp(((n-1)/n) * oint dpsi/psi), evaluated as a sum of principal-branch
    log ratios (exact for integer winding; every angular step must stay
    below pi, or UndersampledError is raised).  A loop winding once about the
    tip returns the defect angle 2pi(n-1)/n mod 2pi; loops not enclosing the
    tip return holonomy 0.
    """
    _check_degree(n)
    # principal branch, |Im| < pi per step (checked); the sum is 2 pi i * winding
    logs = np.log(closed_loop_ratios(loop, 3, tol_rel))
    check_angular_steps(logs.imag)
    total = complex(np.sum(logs))
    winding = int(np.rint(total.imag / TWO_PI))
    factor = (n - 1) / n
    multiplier = np.exp(factor * total)
    angle = (factor * total.imag) % TWO_PI
    return TransportResult(vector=complex(v0) * multiplier,
                           holonomy_angle=float(angle),
                           loop_winding=winding)


# ---------------------------------------------------------------------------
# Loop builders and the JSON loop-specification interface
# ---------------------------------------------------------------------------

def circle_loop(center: complex = 0j, radius: float = 1.0, samples: int = 4096) -> np.ndarray:
    t = np.linspace(0.0, TWO_PI, samples + 1)
    return center + radius * np.exp(1j * t)


def ellipse_loop(center: complex = 0j, rx: float = 2.0, ry: float = 0.7,
                 samples: int = 4096) -> np.ndarray:
    t = np.linspace(0.0, TWO_PI, samples + 1)
    return center + rx * np.cos(t) + 1j * ry * np.sin(t)


def square_loop(center: complex = 0j, half_side: float = 1.0,
                samples: int = 4096) -> np.ndarray:
    corners = half_side * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
    u = np.linspace(0.0, 4.0, samples + 1)
    k = np.minimum(u.astype(int), 3)
    f = u - k
    return center + corners[k] * (1 - f) + corners[k + 1] * f


def loop_from_spec(spec) -> np.ndarray:
    """Build a loop from a JSON-style descriptor.

    Either a list of [re, im] pairs, or {"shape": "circle"|"square"|"ellipse",
    "center": [re, im], "radius": r or [rx, ry], "samples": k}.
    """
    if isinstance(spec, (list, tuple)):
        return np.array([complex(re, im) for re, im in spec])
    if not isinstance(spec, dict):
        raise InvalidArgumentError("loop spec must be a list of pairs or a descriptor dict")
    shape = spec.get("shape", "circle")
    center = complex(*spec.get("center", (0.0, 0.0)))
    samples = int(spec.get("samples", 4096))
    radius = spec.get("radius", 1.0)
    if shape == "circle":
        return circle_loop(center, float(radius), samples)
    if shape == "square":
        return square_loop(center, float(radius), samples)
    if shape == "ellipse":
        rx, ry = (radius if isinstance(radius, (list, tuple)) else (radius, radius))
        return ellipse_loop(center, float(rx), float(ry), samples)
    raise InvalidArgumentError(f"unknown loop shape {shape!r}")
