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
from .errors import (BranchOutOfRangeError, InvalidArgumentError, NonFiniteError,
                     OriginSingularError)
from .sections import (check_array, check_finite, check_int, check_pair, check_real,
                       check_samples)


@dataclass(frozen=True)
class ConeGeometry:
    """Covering degree with its cone and defect angles (summing to 2pi)."""

    n: int

    def __post_init__(self):
        check_int(self.n, "covering degree", 1)

    @property
    def cone_angle(self) -> float:
        return TWO_PI / self.n

    @property
    def defect_angle(self) -> float:
        return TWO_PI * (self.n - 1) / self.n


def branched_cover(z, n: int):
    """z -> z^n; degree-n branched covering with branch point z = 0.  z is a
    finite complex number or array, else a typed error; an image that
    overflows raises NonFiniteError."""
    n = check_int(n, "covering degree", 1)
    z = check_array(z, complex, "z")
    check_finite(z, "z")
    with np.errstate(over="ignore", invalid="ignore"):     # reported just below
        image = z ** n
    check_finite(image, "branched cover image")
    return image if z.ndim else complex(image)


def _modulus(psi: complex) -> float:
    """|psi| of a finite complex number; NonFiniteError where it exceeds the
    float range, for which Python's abs raises OverflowError."""
    try:
        return abs(psi)
    except OverflowError:
        raise NonFiniteError(f"|psi| of {psi!r} exceeds the float range") from None


def cover_inverse(psi: complex, n: int, branch: int) -> complex:
    """The branch-th n-th root, principal argument in [0, 2pi/n) plus branch
    steps.  psi is a finite complex number whose modulus is in the float
    range, else a typed error."""
    n = check_int(n, "covering degree", 1)
    if check_int(branch, "branch", 0) >= n:
        raise BranchOutOfRangeError(f"branch {branch} outside 0..{n - 1}")
    psi = complex(check_array(psi, complex, "psi", ndim=0))
    check_finite(psi, "psi")
    if psi == 0:
        return 0j
    theta = np.angle(psi) % TWO_PI
    return _modulus(psi) ** (1.0 / n) * np.exp(1j * (theta / n + TWO_PI * branch / n))


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


def cone_metric(psi: complex, n: int) -> ConeMetric:
    """Pullback of the plane metric 2 dz dzbar through z = psi^(1/n).

    The conformal factor is (2/n^2)(psibar psi)^((1-n)/n); n = 1 reduces to
    the flat 2 dpsi dpsibar.  Singular at the tip (|psi| < 1e-12) for n >= 2.
    psi is a finite complex number, else a typed error; a metric that
    overflows raises NonFiniteError.
    """
    n = check_int(n, "covering degree", 1)
    psi = complex(check_array(psi, complex, "psi", ndim=0))
    check_finite(psi, "psi")
    r = _modulus(psi)
    if r < 1e-12 and n >= 2:
        raise OriginSingularError("cone metric is singular at psi = 0 for n >= 2")
    with np.errstate(over="ignore"):        # reported just below
        factor = (2.0 / n ** 2) * r ** (2.0 * (1.0 - n) / n)
        rho = np.sqrt(2.0) * r ** (1.0 / n)
        g_phi_phi = rho ** 2 / n ** 2
    check_finite(np.array([factor, rho, g_phi_phi]), "cone metric")
    return ConeMetric(conformal_factor=factor, rho=rho, g_rho_rho=1.0, g_phi_phi=g_phi_phi)


@dataclass(frozen=True)
class TransportResult:
    vector: complex            # 1 parallel-transported around the loop
    holonomy_angle: float      # in [0, 2pi)
    loop_winding: int          # turns of the loop about the tip


def levi_civita_transport(loop, n: int | tuple[int, ...]
                          ) -> TransportResult | tuple[TransportResult, ...]:
    """Parallel transport of the vector 1 along a closed loop in the psi-plane.

    The Levi-Civita connection of the cone metric is the one-form
    -((n-1)/n) dpsi/psi; the transport ODE integrates to the multiplier
    exp(((n-1)/n) * oint dpsi/psi), evaluated as a sum of principal-branch
    log ratios (exact for integer winding; every angular step must stay
    below pi, or UndersampledError is raised).  A loop winding once about the
    tip returns the defect angle 2pi(n-1)/n mod 2pi; loops not enclosing the
    tip return holonomy 0.  By linearity a vector v arrives as v * vector.

    n may also be a tuple of degrees: the loop integral, which does not
    depend on n, is taken once, and a tuple of results is returned, each
    equal to the call with that degree alone.
    """
    degrees = tuple(check_int(d, "covering degree", 1)
                    for d in (n if isinstance(n, tuple) else (n,)))
    # principal branch, |Im| < pi per step (checked); the sum is 2 pi i * winding
    logs = np.log(closed_loop_ratios(loop, 3))
    check_angular_steps(logs.imag)
    total = complex(np.sum(logs))
    winding = int(np.rint(total.imag / TWO_PI))
    results = []
    for d in degrees:
        factor = (d - 1) / d
        results.append(TransportResult(vector=complex(np.exp(factor * total)),
                                       holonomy_angle=float((factor * total.imag) % TWO_PI),
                                       loop_winding=winding))
    return tuple(results) if isinstance(n, tuple) else results[0]


# ---------------------------------------------------------------------------
# Loop builders and the JSON loop-specification interface
# ---------------------------------------------------------------------------

def _loop(center, sizes: dict, samples, stop: float, points) -> np.ndarray:
    """points(center, *sizes.values(), t) at samples + 1 parameters t from 0
    to stop.  The center and each size are finite numbers, samples an int >= 1
    of at most MAX_SAMPLES points; a loop that overflows raises NonFiniteError."""
    center = check_array(center, complex, "center", ndim=0)
    values = [check_real(value, name) for name, value in sizes.items()]
    check_finite(np.append(center, values), f"loop center and {' and '.join(sizes)}")
    t = np.linspace(0.0, stop, check_samples(check_int(samples, "samples", 1) + 1, "loop"))
    with np.errstate(over="ignore", invalid="ignore"):     # reported just below
        loop = points(center, *values, t)
    check_finite(loop, "loop points")
    return loop


def circle_loop(center: complex = 0j, radius: float = 1.0, samples: int = 4096) -> np.ndarray:
    """Closed circle of samples steps; center and radius are finite numbers,
    and a loop that overflows raises NonFiniteError."""
    return _loop(center, {"radius": radius}, samples, TWO_PI,
                 lambda c, r, t: c + r * np.exp(1j * t))


def ellipse_loop(center: complex = 0j, rx: float = 2.0, ry: float = 0.7,
                 samples: int = 4096) -> np.ndarray:
    """Closed ellipse of samples steps; center, rx and ry are finite numbers,
    and a loop that overflows raises NonFiniteError."""
    return _loop(center, {"rx": rx, "ry": ry}, samples, TWO_PI,
                 lambda c, rx, ry, t: c + rx * np.cos(t) + 1j * ry * np.sin(t))


def _square_points(center, half_side, u):
    """The square's points at perimeter parameters u in [0, 4], one per side."""
    corners = half_side * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
    k = np.minimum(u.astype(int), 3)
    f = u - k
    return center + corners[k] * (1 - f) + corners[k + 1] * f


def square_loop(center: complex = 0j, half_side: float = 1.0,
                samples: int = 4096) -> np.ndarray:
    """Closed square of samples steps; center and half_side are finite numbers,
    and a loop that overflows raises NonFiniteError."""
    return _loop(center, {"half_side": half_side}, samples, 4.0, _square_points)


def loop_from_spec(spec) -> np.ndarray:
    """Build a loop from a JSON-style descriptor.

    Either a list of [re, im] pairs, or {"shape": "circle"|"square"|"ellipse",
    "center": [re, im], "radius": r or [rx, ry], "samples": k}.  A pair, radius
    or sample count of the wrong type raises InvalidArgumentError; a NaN or
    inf (JSON reads the literals NaN and Infinity) raises NonFiniteError.
    """
    if isinstance(spec, (list, tuple)):
        points = np.array([check_pair(pair, "loop point") for pair in spec])
        check_finite(points, "loop points")
        return points
    if not isinstance(spec, dict):
        raise InvalidArgumentError("loop spec must be a list of pairs or a descriptor dict")
    shape = spec.get("shape", "circle")
    if shape not in ("circle", "square", "ellipse"):
        raise InvalidArgumentError(f"unknown loop shape {shape!r}")
    center = check_pair(spec.get("center", (0.0, 0.0)), "center")
    samples = spec.get("samples", 4096)
    radius = spec.get("radius", 1.0)
    if shape == "ellipse":
        rx, ry = (radius if isinstance(radius, (list, tuple)) and len(radius) == 2
                  else (radius, radius))
        return ellipse_loop(center, rx, ry, samples)
    builder = circle_loop if shape == "circle" else square_loop
    return builder(center, radius, samples)
