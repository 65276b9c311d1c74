"""Polarizations: the conditions that cut sections down to wavefunctions.

Real polarizations select the coordinate and momentum representations;
the complex (Dolbeault) polarization selects holomorphic sections
psi(z) exp(-z zbar / 2 w^2) — the Segal-Bargmann representation — with
the antiholomorphic mirror for charge -1.  The transform between the
coordinate and Fock pictures is carried by orthonormal Hermite functions
and Gauss-Hermite quadrature; the w -> 0 and w -> infinity limits of the
complex polarization recover the real ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.interpolate import InterpolatedUnivariateSpline
from scipy.linalg import eigh_tridiagonal

from .bundles import GaugeConnection
from .classical import OscillatorParams
from .errors import (ChargeMismatchError, DecayViolationError, NonMonotoneError,
                     QuadratureUnderResolvedError, WrongPolarizationError)
from .sections import GridSection, LineSection, check_charge, check_finite, diff_axis


@dataclass(frozen=True)
class Polarization:
    """One of: coordinate, momentum, holomorphic, antiholomorphic."""

    kind: str

    _KINDS = ("coordinate", "momentum", "holomorphic", "antiholomorphic")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")

    def admits_charge(self, charge: int) -> bool:
        """Holomorphic pairs with +1, antiholomorphic with -1; real ones with both."""
        check_charge(charge)
        if self.kind == "holomorphic":
            return charge == +1
        if self.kind == "antiholomorphic":
            return charge == -1
        return True


@dataclass
class FockState:
    """Coefficients along the orthonormal basis z'^n / sqrt(n!), n = 0..N."""

    coeffs: np.ndarray
    charge: int = +1

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1D array")
        check_finite(self.coeffs, "coefficients")
        self.charge = check_charge(self.charge)

    @property
    def truncation(self) -> int:
        return self.coeffs.size - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def padded(self, n: int) -> np.ndarray:
        """Coefficients zero-extended to length n+1."""
        out = np.zeros(n + 1, dtype=complex)
        out[:min(self.coeffs.size, n + 1)] = self.coeffs[:n + 1]
        return out

    def to_json(self, params: OscillatorParams) -> str:
        return json.dumps({
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
            "charge": self.charge,
            "w": params.w,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Returns (state, w)."""
        doc = json.loads(text)
        coeffs = np.array([re + 1j * im for re, im in doc["coeffs"]])
        return cls(coeffs=coeffs, charge=doc["charge"]), float(doc["w"])


# ---------------------------------------------------------------------------
# Hermite functions and Gauss-Hermite quadrature
# ---------------------------------------------------------------------------

def hermite_functions(n_max: int, t) -> np.ndarray:
    """Orthonormal Hermite functions e_0..e_n_max at points t (weight included).

    e_n(t) = pi^{-1/4} (2^n n!)^{-1/2} H_n(t) exp(-t^2/2), by the stable
    weighted recurrence.  Shape: (n_max+1,) + shape(t).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros((n_max + 1,) + t.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * t ** 2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * t * out[0]
    for n in range(2, n_max + 1):
        out[n] = np.sqrt(2.0 / n) * t * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def hermite_basis(n_max: int, x, params: OscillatorParams) -> np.ndarray:
    """Width-w orthonormal basis h_n(x) = w^{-1/2} e_n(x/w)."""
    w = params.w
    return hermite_functions(n_max, np.asarray(x) / w) / np.sqrt(w)


def gauss_hermite(order: int):
    """Nodes and weights for weight exp(-t^2), by Golub-Welsch.

    Nodes are the eigenvalues of the symmetric Jacobi matrix (off-diagonals
    sqrt(k/2)) and are explicitly symmetrized; symmetry must hold to 1e-14.
    Weights come from the stable identity w_k e^{t_k^2} = 1/(order *
    e_{order-1}(t_k)^2), which avoids the eigenvector underflow of plain
    Golub-Welsch at high order.  Returns (nodes, weights, weights*exp(t^2)).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return np.array([0.0]), np.array([np.sqrt(np.pi)]), np.array([np.sqrt(np.pi)])
    k = np.arange(1, order)
    nodes = eigh_tridiagonal(np.zeros(order), np.sqrt(k / 2.0),
                             eigvals_only=True)
    asym = np.max(np.abs(nodes + nodes[::-1]))
    if asym > 1e-14 * max(1.0, np.max(np.abs(nodes))):
        raise ValueError(f"Gauss-Hermite node symmetry violated: {asym:.3e}")
    nodes = 0.5 * (nodes - nodes[::-1])
    e_last = hermite_functions(order - 1, nodes)[order - 1]
    scaled = 1.0 / (order * e_last ** 2)          # w_k exp(t_k^2)
    weights = scaled * np.exp(-nodes ** 2)
    return nodes, weights, scaled


# ---------------------------------------------------------------------------
# Dolbeault operator and the holomorphic gauge
# ---------------------------------------------------------------------------

def dolbeault_residual(sec: GridSection, params: OscillatorParams) -> GridSection:
    """Apply (d/dzbar_q + z_q / 2w^2) to the v_pm-component amplitude.

    For charge q: z_q = (x - i q w^2 p)/sqrt(2) and d/dzbar_q =
    (d/dx - (i q / w^2) d/dp)/sqrt(2), central-differenced.  The residual
    vanishes to O(h^2) exactly on the polarized sections
    psi(z_q) exp(-z zbar / 2 w^2).
    """
    q = sec.charge
    w2 = params.w2
    X, P = sec.meshgrid()
    z_q = (X - 1j * q * w2 * P) / np.sqrt(2.0)
    dx = diff_axis(sec.values, sec.hx, axis=0)
    dp = diff_axis(sec.values, sec.hp, axis=1)
    dzbar = (dx - 1j * q * dp / w2) / np.sqrt(2.0)
    return sec.like(dzbar + z_q / (2.0 * w2) * sec.values)


@dataclass(frozen=True)
class ComplexGaugeConnection:
    """Connection in complex components (a_z, a_zbar), functions of z."""

    a_z: Callable
    a_zbar: Callable
    gauge_label: str = "holomorphic"


def holomorphic_gauge(conn: GaugeConnection, params: OscillatorParams) -> ComplexGaugeConnection:
    """Apply the non-unitary automorphism phi0 = exp(-z zbar / 2 w^2).

    Starting from the vacuum connection in complex components
    (A_z, A_zbar) = (zbar/2w^2, -z/2w^2), the holomorphic gauge has A_z = 0
    and A_zbar = -z/w^2; covariant derivatives become (d_z, d_zbar - z/w^2).
    The result is holomorphic but no longer Hermitian.
    """
    # the automorphism is defined relative to the vacuum connection
    for x, p in ((0.3, -1.2), (-2.0, 0.7), (1.5, 1.5)):
        if not (np.isclose(conn.a_x(x, p), 0.5 * p) and np.isclose(conn.a_p(x, p), -0.5 * x)):
            raise ValueError("holomorphic_gauge expects the vacuum connection")
    w2 = params.w2
    return ComplexGaugeConnection(a_z=lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
                                  a_zbar=lambda z: -np.asarray(z, dtype=complex) / w2,
                                  gauge_label="vacuum+phi0")


# ---------------------------------------------------------------------------
# Ladder operators
# ---------------------------------------------------------------------------

def ladder_apply(state: FockState, which: str) -> FockState:
    """a or a-dagger in the orthonormal Fock basis.

    lower: c_n -> sqrt(n) c_n at slot n-1 (vacuum annihilates to the zero
    state); raise: c_n -> sqrt(n+1) c_n at slot n+1, growing the truncation.
    """
    c = state.coeffs
    n = np.arange(c.size)
    if which == "lower":
        out = (np.sqrt(n) * c)[1:] if c.size > 1 else np.zeros(1, dtype=complex)
    elif which == "raise":
        out = np.concatenate([[0.0], np.sqrt(n + 1) * c])
    else:
        raise ValueError(f"which must be 'lower' or 'raise', got {which!r}")
    return FockState(coeffs=out, charge=state.charge)


def ladder_coordinate(sec: LineSection, which: str, params: OscillatorParams) -> LineSection:
    """Coordinate-representation ladder operators, central-differenced.

    lower = (w/sqrt2)(d/dx + x/w^2), raise = (w/sqrt2)(x/w^2 - d/dx).
    """
    if sec.axis != "x":
        raise WrongPolarizationError("coordinate ladder operators need an x-line section")
    w, w2 = params.w, params.w2
    deriv = diff_axis(sec.values, sec.h, axis=0)
    if which == "lower":
        vals = (w / np.sqrt(2.0)) * (deriv + sec.coords / w2 * sec.values)
    elif which == "raise":
        vals = (w / np.sqrt(2.0)) * (sec.coords / w2 * sec.values - deriv)
    else:
        raise ValueError(f"which must be 'lower' or 'raise', got {which!r}")
    return sec.like(vals)


# ---------------------------------------------------------------------------
# Segal-Bargmann transform between coordinate and Fock pictures
# ---------------------------------------------------------------------------

def bargmann_transform(sec: Union[LineSection, Callable], n_max: int, quad_order: int,
                       params: OscillatorParams, charge: int = +1) -> FockState:
    """Analyze a coordinate-representation state into Fock coefficients.

    c_n = <h_n, psi> with h_n the width-w orthonormal Hermite functions,
    evaluated by Gauss-Hermite quadrature at the given order (exact for
    states band-limited to degree <= 2*quad_order - 1 - n).  A sampled
    LineSection is resampled onto the quadrature nodes by quintic spline;
    a callable is evaluated directly.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if quad_order < 2 * n_max + 2:
        raise QuadratureUnderResolvedError(
            f"quad_order {quad_order} below floor 2N+2 = {2 * n_max + 2}")
    w = params.w
    nodes, _, scaled = gauss_hermite(quad_order)
    if isinstance(sec, LineSection):
        if sec.axis != "x":
            raise WrongPolarizationError("bargmann_transform needs a coordinate-rep section")
        amax = np.max(np.abs(sec.values))
        edge = max(abs(sec.values[0]), abs(sec.values[-1]))
        if amax > 0 and edge > 1e-8 * amax:
            raise DecayViolationError(
                f"boundary amplitude {edge:.3e} exceeds 1e-8 of max {amax:.3e}")
        charge = sec.charge
        spline_re = InterpolatedUnivariateSpline(sec.coords, sec.values.real, k=5, ext=1)
        spline_im = InterpolatedUnivariateSpline(sec.coords, sec.values.imag, k=5, ext=1)
        psi_nodes = spline_re(w * nodes) + 1j * spline_im(w * nodes)
    else:
        psi_nodes = np.asarray(sec(w * nodes), dtype=complex)
    basis = hermite_functions(n_max, nodes)          # e_n(t_k)
    # c_n = sqrt(w) * sum_k [w_k e^{t_k^2}] e_n(t_k) psi(w t_k)
    coeffs = np.sqrt(w) * basis @ (scaled * psi_nodes)
    return FockState(coeffs=coeffs, charge=check_charge(charge))


def bargmann_inverse(state: FockState, x, params: OscillatorParams) -> LineSection:
    """Synthesize the sampled coordinate-representation section sum c_n h_n."""
    x = np.asarray(x, dtype=float)
    basis = hermite_basis(state.truncation, x, params)
    return LineSection(axis="x", coords=x, values=state.coeffs @ basis,
                       charge=state.charge)


def bargmann_pairing(a: FockState, b: FockState) -> complex:
    """<a, b> = sum conj(c_n) d_n — the Gaussian-weighted holomorphic pairing.

    In the orthonormal basis the coefficient pairing equals the integral
    (1/pi) int psi_a* psi_b exp(-|z'|^2) d^2 z' exactly for truncated states.
    """
    if a.charge != b.charge:
        raise ChargeMismatchError(f"cannot pair charges {a.charge} and {b.charge}")
    n = max(a.truncation, b.truncation)
    return complex(np.vdot(a.padded(n), b.padded(n)))


# ---------------------------------------------------------------------------
# Limits of the complex polarization
# ---------------------------------------------------------------------------

@dataclass
class LimitCheckReport:
    """Residual norms of the rescaled Dolbeault operator along a w-sequence."""

    direction: str                  # "w->0" or "w->inf"
    w_values: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    limit_residual: float = 0.0     # residual of the limit operator itself

    @property
    def strictly_decreasing(self) -> bool:
        r = self.residual_norms
        return all(r[i + 1] < r[i] for i in range(len(r) - 1))


def polarization_limit_check(params: OscillatorParams, w_sequence: Sequence[float],
                             charge: int = +1, profile: Optional[Callable] = None,
                             dprofile: Optional[Callable] = None,
                             half_width: float = 4.0, n_grid: int = 161) -> LimitCheckReport:
    """Check that the complex polarization degenerates to a real one.

    A strictly decreasing w_sequence drives w -> 0, where w^2 * dolbeault
    applied to the coordinate-limit solutions exp(-/+ i p x / 2) psi(x)
    must tend to (d/dp +/- i x/2) Psi = 0; an increasing sequence drives
    w -> infinity with the momentum-limit solutions exp(+/- i p x / 2) psi(p)
    and w^{-2} * dolbeault.  Residual norms are reported per w together with
    the residual of the exact limit operator (zero to rounding).

    The p-derivative of the explicit phase factor is applied analytically
    (the solution family is separable); the profile derivative is central-
    differenced unless dprofile is given.
    """
    check_charge(charge)
    ws = [float(v) for v in w_sequence]
    if len(ws) < 2:
        raise NonMonotoneError("w_sequence needs at least two entries")
    diffs = np.diff(ws)
    if np.all(diffs < 0):
        direction = "w->0"
    elif np.all(diffs > 0):
        direction = "w->inf"
    else:
        raise NonMonotoneError(f"w_sequence must be strictly monotone, got {ws}")

    if profile is None:
        profile = lambda s: np.exp(-0.5 * s ** 2)
    s = np.linspace(-half_width, half_width, n_grid)      # x for w->0, p for w->inf
    u = np.linspace(-half_width, half_width, n_grid)      # the conjugate variable
    S, U = np.meshgrid(s, u, indexing="ij")
    f = np.asarray(profile(s), dtype=complex)
    if dprofile is not None:
        df = np.asarray(dprofile(s), dtype=complex)
    else:
        df = diff_axis(f, s[1] - s[0], axis=0)
    F, dF = f[:, None] * np.ones_like(U), df[:, None] * np.ones_like(U)

    report = LimitCheckReport(direction=direction)
    q = charge
    if direction == "w->0":
        # Psi = exp(-i q p x / 2) psi(x): sqrt(2) w^2 dolbeault
        #     = w^2 (psi' - i q p psi) * phase, exactly (phase derivative analytic)
        X, P = S, U
        for w in ws:
            resid = (w ** 2 / np.sqrt(2.0)) * (dF - 1j * q * P * F)
            report.w_values.append(w)
            report.residual_norms.append(float(np.max(np.abs(resid))))
        # limit operator (d/dp + i q x / 2)/sqrt(2) annihilates Psi identically
        limit = (-1j * q * X / 2.0 * F + 1j * q * X / 2.0 * F) / np.sqrt(2.0)
        report.limit_residual = float(np.max(np.abs(limit)))
    else:
        # Psi = exp(+i q p x / 2) psi(p): sqrt(2) w^{-2} dolbeault
        #     = w^{-2} (x psi - i q psi') * phase / w^{0}; residual scales 1/w^4
        P, X = S, U
        for w in ws:
            resid = (1.0 / (np.sqrt(2.0) * w ** 4)) * (X * F - 1j * q * dF)
            report.w_values.append(w)
            report.residual_norms.append(float(np.max(np.abs(resid))))
        limit = (1j * q * P / 2.0 * F - 1j * q * P / 2.0 * F) / np.sqrt(2.0)
        report.limit_residual = float(np.max(np.abs(limit)))
    return report
