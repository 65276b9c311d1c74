"""Prequantum gauge layer on the phase plane.

The vacuum connection A = (p/2) dx - (x/2) dp lives on the line bundles L+
and L-; its curvature is the symplectic form and realizes the canonical
commutation relation.  Charge q_v = +1 sections feel +iA, charge -1 sections
-iA.  Gauge automorphisms exp(alpha J) shift A by d(alpha) and carry the
connection between the coordinate, momentum and intermediate gauges.

Derivatives are the second-order central differences of sections.diff_axis
(one-sided O(h^2) stencils at grid edges); averaged diagnostics use interior
cells only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DivisionNearZeroError, GridFormatError, GridTooSmallError,
                     InvalidArgumentError)
from .sections import (DoubledSection, GridSection, LineSection, check_array, check_charge,
                       diff_axis, load_grid, require_axis, save_grid)

__all__ = [
    "GaugeConnection", "vacuum_connection", "gauge_transform",
    "covariant_derivative", "curvature_numeric", "canonical_operators",
    "translate_operator", "decompose", "recompose", "hermitian_pairing",
    "GridSection", "LineSection", "DoubledSection", "load_grid", "save_grid",
]


@dataclass(frozen=True)
class GaugeConnection:
    """Connection components as vectorized functions of (x, p).

    On a grid they receive the column x[:, None] and the row p[None, :] and
    must broadcast.  In unitary gauges both components are real-valued; the values may be
    complex after non-unitary automorphisms (see polarizations).
    """

    a_x: Callable
    a_p: Callable


def vacuum_connection() -> GaugeConnection:
    """Symmetric-gauge vacuum connection A_x = p/2, A_p = -x/2 (curvature -1)."""
    return GaugeConnection(a_x=lambda x, p: 0.5 * p,
                           a_p=lambda x, p: -0.5 * x)


def gauge_transform(conn: GaugeConnection, alpha: Callable,
                    dalpha_dx: Optional[Callable] = None,
                    dalpha_dp: Optional[Callable] = None) -> GaugeConnection:
    """Automorphism exp(alpha J): A_x -> A_x + d(alpha)/dx, A_p -> A_p + d(alpha)/dp.

    Analytic partials are used when supplied; otherwise they are central-
    differenced with step 1e-6.  Curvature is unchanged.
    """
    if dalpha_dx is None:
        dalpha_dx = lambda x, p: (alpha(x + 1e-6, p) - alpha(x - 1e-6, p)) / 2e-6
    if dalpha_dp is None:
        dalpha_dp = lambda x, p: (alpha(x, p + 1e-6) - alpha(x, p - 1e-6)) / 2e-6
    base_x, base_p = conn.a_x, conn.a_p
    return GaugeConnection(
        a_x=lambda x, p: base_x(x, p) + dalpha_dx(x, p),
        a_p=lambda x, p: base_p(x, p) + dalpha_dp(x, p),
    )


def covariant_derivative(sec: GridSection, direction: str,
                         conn: GaugeConnection) -> GridSection:
    """grad = d + i q_v A along x or p, by central differences."""
    if direction not in ("x", "p"):
        raise InvalidArgumentError(f"direction must be 'x' or 'p', got {direction!r}")
    x, p = sec.x[:, None], sec.p[None, :]
    if direction == "x":
        deriv = diff_axis(sec.values, sec.hx, axis=0)
        a = conn.a_x(x, p)
    else:
        deriv = diff_axis(sec.values, sec.hp, axis=1)
        a = conn.a_p(x, p)
    return sec.like(deriv + 1j * sec.charge * a * sec.values)


def curvature_numeric(conn: GaugeConnection, probe: GridSection) -> complex:
    """Interior-averaged ([grad_x, grad_p] psi)/psi; -i q_v up to O(h^2).

    The probe must be smooth and at least 1e-12 of its peak modulus on the
    interior (two cells in from each edge: the commutator applies two first
    derivatives).
    """
    if probe.nx < 5 or probe.np_ < 5:
        raise GridTooSmallError("probe grid needs at least 5 x 5 samples")
    comm = (covariant_derivative(covariant_derivative(probe, "p", conn), "x", conn).values
            - covariant_derivative(covariant_derivative(probe, "x", conn), "p", conn).values)
    sl = (slice(2, -2), slice(2, -2))
    inner = probe.values[sl]
    if np.min(np.abs(inner)) < 1e-12 * np.max(np.abs(probe.values)):
        raise DivisionNearZeroError("probe vanishes on the interior")
    return complex(np.mean(comm[sl] / inner))


def canonical_operators(rep: str, charge: int):
    """Operators (x_hat, p_hat) on polarized 1D sections.

    Coordinate representation (both charges): x_hat = x*, p_hat = -i d/dx,
    the unshifted translate_operator(0.0).  Momentum representation: charge
    +1 gives (i d/dp, p*), charge -1 the antiparticle mirror (-i d/dp, -p*).
    """
    check_charge(charge)
    if rep == "coordinate":
        return translate_operator(0.0)
    if rep != "momentum":
        raise InvalidArgumentError(f"rep must be 'coordinate' or 'momentum', got {rep!r}")

    def x_hat(sec: LineSection) -> LineSection:
        require_axis(sec, "p")
        return sec.like(1j * charge * diff_axis(sec.values, sec.h, axis=0))

    def p_hat(sec: LineSection) -> LineSection:
        require_axis(sec, "p")
        return sec.like(charge * sec.coords * sec.values)

    return x_hat, p_hat


def translate_operator(x0: float):
    """Coordinate operators conjugated by exp(p x0 J): x_hat shifts by -x0.

    Returns the pair (x_hat, p_hat); p_hat is unchanged and the CCR is
    preserved.  x0 = 0 is the coordinate representation itself (x - 0.0 is
    exact, so x_hat is then bit-for-bit x*).
    """
    def x_hat(sec: LineSection) -> LineSection:
        require_axis(sec, "x")
        return sec.like((sec.coords - x0) * sec.values)

    def p_hat(sec: LineSection) -> LineSection:
        require_axis(sec, "x")
        return sec.like(-1j * diff_axis(sec.values, sec.h, axis=0))

    return x_hat, p_hat


def decompose(psi1, psi2) -> DoubledSection:
    """C^2 components -> v_pm coordinates: psi_pm = (psi1 +/- i psi2)/sqrt(2).
    The components have one shape, else GridFormatError."""
    psi1 = check_array(psi1, complex, "psi1")
    psi2 = check_array(psi2, complex, "psi2")
    if psi1.shape != psi2.shape:
        raise GridFormatError(f"component shapes differ: {psi1.shape} and {psi2.shape}")
    return DoubledSection(psi_plus=(psi1 + 1j * psi2) / np.sqrt(2.0),
                          psi_minus=(psi1 - 1j * psi2) / np.sqrt(2.0))


def recompose(doubled: DoubledSection):
    """Inverse of decompose: Psi = psi_plus v+ + psi_minus v-."""
    psi1 = (doubled.psi_plus + doubled.psi_minus) / np.sqrt(2.0)
    psi2 = 1j * (doubled.psi_minus - doubled.psi_plus) / np.sqrt(2.0)
    return psi1, psi2


def hermitian_pairing(psi, phi):
    """Fiberwise Hermitian product <psi, phi> = psi* phi."""
    return np.conj(check_array(psi, complex, "psi")) * check_array(phi, complex, "phi")

