"""The cone geometry of eigenstate graphs.

The degree-n eigenstate graph z -> z^n identifies the plane with the
orbifold C/Z_n: a flat cone of angle 2pi/n whose curvature sits entirely at
the tip.  Parallel transport around the tip rotates vectors by the angle
defect 2pi(n-1)/n; loops that miss the tip come back unchanged — the
operational form of the delta-concentrated curvature.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .classical import TWO_PI, loop_log
from .errors import BranchOutOfRangeError, InvalidArgumentError, OriginSingularError
from .sections import (check_array, check_choice, check_int, check_pair, check_real,
                       check_samples, finite_result, value_tuple)


class ConeGeometry(value_tuple("ConeGeometry", "n")):
    """Covering degree with its cone and defect angles (summing to 2pi)."""

    __slots__ = ()

    def __new__(cls, n: int):
        return super().__new__(cls, check_int(n, "covering degree", 1))

    @property
    def cone_angle(self) -> float:
        return TWO_PI / self.n

    @property
    def defect_angle(self) -> float:
        return TWO_PI * (self.n - 1) / self.n


@finite_result("branched cover image")
def branched_cover(z, n: int):
    """z -> z^n; degree-n branched covering with branch point z = 0, for a
    number or an array z.  An image that overflows raises NonFiniteError."""
    n = check_int(n, "covering degree", 1)
    z = check_array(z, complex, "z")
    image = z ** n
    return image if z.ndim else complex(image)


@finite_result("cover inverse")
def cover_inverse(psi: complex, n: int, branch: int) -> complex:
    """The branch-th n-th root, principal argument in [0, 2pi/n) plus branch
    steps.  A modulus of psi beyond the float range raises NonFiniteError."""
    n = check_int(n, "covering degree", 1)
    if check_int(branch, "branch", 0) >= n:
        raise BranchOutOfRangeError(f"branch {branch} outside 0..{n - 1}")
    psi = complex(check_array(psi, complex, "psi", ndim=0))
    if psi == 0:
        return 0j
    theta = np.angle(psi) % TWO_PI
    return abs(psi) ** (1.0 / n) * np.exp(1j * (theta / n + TWO_PI * branch / n))


class ConeMetric(NamedTuple):
    """Induced metric at a point of C/Z_n, in complex and polar components.

    ds^2 = conformal_factor * dpsi dpsibar = drho^2 + (rho^2/n^2) dphi_n^2,
    where rho = sqrt(2)|psi|^(1/n) is the geodesic distance from the tip.
    """

    conformal_factor: float
    rho: float
    g_rho_rho: float
    g_phi_phi: float


@finite_result("cone metric")
def cone_metric(psi: complex, n: int) -> ConeMetric:
    """Pullback of the plane metric 2 dz dzbar through z = psi^(1/n).

    The conformal factor is (2/n^2)(psibar psi)^((1-n)/n); n = 1 reduces to
    the flat 2 dpsi dpsibar.  Singular at the tip (|psi| < 1e-12) for n >= 2.
    A metric that overflows raises NonFiniteError.
    """
    n = check_int(n, "covering degree", 1)
    psi = complex(check_array(psi, complex, "psi", ndim=0))
    r = abs(psi)
    if r < 1e-12 and n >= 2:
        raise OriginSingularError("cone metric is singular at psi = 0 for n >= 2")
    factor = (2.0 / n ** 2) * r ** (2.0 * (1.0 - n) / n)
    rho = np.sqrt(2.0) * r ** (1.0 / n)
    return ConeMetric(conformal_factor=factor, rho=rho, g_rho_rho=1.0,
                      g_phi_phi=rho ** 2 / n ** 2)


class TransportResult(NamedTuple):
    vector: complex            # 1 parallel-transported around the loop
    holonomy_angle: float      # in [0, 2pi)
    loop_winding: int          # turns of the loop about the tip


def levi_civita_transport(loop, n: int | tuple[int, ...]
                          ) -> TransportResult | tuple[TransportResult, ...]:
    """Parallel transport of the vector 1 along a closed loop in the psi-plane.

    The Levi-Civita connection of the cone metric is the one-form
    -((n-1)/n) dpsi/psi; the transport ODE integrates to the multiplier
    exp(((n-1)/n) * oint dpsi/psi), the loop integral being classical.loop_log
    of the loop's samples (at least 3; every angular step below pi, or
    UndersampledError).  A loop winding once about
    the tip returns the defect angle 2pi(n-1)/n mod 2pi; loops not enclosing
    the tip return holonomy 0.  The angle lies in [0, 2pi): one that rounds
    to 2pi reads 0.  By linearity a vector v arrives as v * vector.

    n may also be a plain tuple of degrees (a value type such as ConeGeometry
    is not one): the loop integral, which does not depend on n, is taken
    once, and a tuple of results is returned, each equal to the call with
    that degree alone.
    """
    many = type(n) is tuple
    degrees = tuple(check_int(d, "covering degree", 1) for d in (n if many else (n,)))
    total = loop_log(loop, 3)
    winding = int(np.rint(total.imag / TWO_PI))
    results = []
    for d in degrees:
        factor = (d - 1) / d
        angle = (factor * total.imag) % TWO_PI
        # a turn a rounding short of 0 reduces to 2pi itself
        results.append(TransportResult(vector=complex(np.exp(factor * total)),
                                       holonomy_angle=angle if angle < TWO_PI else 0.0,
                                       loop_winding=winding))
    return tuple(results) if many else results[0]


# ---------------------------------------------------------------------------
# Loop builders and the JSON loop-specification interface
# ---------------------------------------------------------------------------

@finite_result("loop points")
def _loop(center, sizes: dict, samples, stop: float, points) -> np.ndarray:
    """points(center, *sizes.values(), t) at samples + 1 parameters t from 0
    to stop.  samples is an int >= 1 of at most MAX_SAMPLES points; a loop that
    overflows raises NonFiniteError."""
    center = check_array(center, complex, "center", ndim=0)
    values = [check_real(value, name) for name, value in sizes.items()]
    t = np.linspace(0.0, stop, check_samples(check_int(samples, "samples", 1) + 1, "loop"))
    return points(center, *values, t)


def circle_loop(center: complex = 0j, radius: float = 1.0, samples: int = 4096) -> np.ndarray:
    """Closed circle of samples steps; NonFiniteError if it overflows."""
    return _loop(center, {"radius": radius}, samples, TWO_PI,
                 lambda c, r, t: c + r * np.exp(1j * t))


def ellipse_loop(center: complex = 0j, rx: float = 2.0, ry: float = 0.7,
                 samples: int = 4096) -> np.ndarray:
    """Closed ellipse of samples steps; NonFiniteError if it overflows."""
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
    """Closed square of samples steps; NonFiniteError if it overflows."""
    return _loop(center, {"half_side": half_side}, samples, 4.0, _square_points)


def loop_from_spec(spec) -> np.ndarray:
    """Build a loop from a JSON-style descriptor.

    Either a list of [re, im] pairs, or {"shape": "circle"|"square"|"ellipse",
    "center": [re, im], "radius": r or [rx, ry], "samples": k}.  A pair, radius
    or sample count of the wrong type raises InvalidArgumentError.
    """
    if isinstance(spec, (list, tuple)):
        return np.array([check_pair(pair, "loop point") for pair in spec])
    if not isinstance(spec, dict):
        raise InvalidArgumentError("loop spec must be a list of pairs or a descriptor dict")
    shape = check_choice(spec.get("shape", "circle"), "loop shape",
                         ("circle", "square", "ellipse"))
    center = check_pair(spec.get("center", (0.0, 0.0)), "center")
    samples = spec.get("samples", 4096)
    radius = spec.get("radius", 1.0)
    if shape == "ellipse":
        rx, ry = (radius if isinstance(radius, (list, tuple)) and len(radius) == 2
                  else (radius, radius))
        return ellipse_loop(center, rx, ry, samples)
    builder = circle_loop if shape == "circle" else square_loop
    return builder(center, radius, samples)
