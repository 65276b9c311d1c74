"""Polarizations: the conditions that cut sections down to wavefunctions.

Real polarizations select the coordinate and momentum representations;
the complex (Dolbeault) polarization selects holomorphic sections
psi(z) exp(-z zbar / 2 w^2) — the Segal-Bargmann representation — with
the antiholomorphic mirror for charge -1.  The transform between the
coordinate and Fock pictures is carried by orthonormal Hermite functions,
with Gauss-Hermite quadrature for callables and the trapezoid rule for
samples; the w -> 0 and w -> infinity limits of the complex polarization
recover the real ones.
"""

from __future__ import annotations

import functools
import json
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .bundles import GaugeConnection
from .classical import OscillatorParams, complex_coordinate
from .errors import (ChargeMismatchError, DecayViolationError, GridFormatError,
                     InvalidArgumentError, NonMonotoneError, QuadratureUnderResolvedError)
from .sections import (GridSection, LineSection, check_array, check_charge, check_choice,
                       check_int, check_pair, check_positive, check_samples, diff_axis,
                       finite_result, require_axis, trapezoid_weights, value_tuple)


class Polarization(value_tuple("Polarization", "kind")):
    """One of: coordinate, momentum, holomorphic, antiholomorphic."""

    __slots__ = ()
    _KINDS = ("coordinate", "momentum", "holomorphic", "antiholomorphic")

    def __new__(cls, kind: str):
        return super().__new__(cls, check_choice(kind, "kind", cls._KINDS))

    def admits_charge(self, charge: int) -> bool:
        """Holomorphic pairs with +1, antiholomorphic with -1; real ones with both."""
        check_charge(charge)
        if self.kind == "holomorphic":
            return charge == +1
        if self.kind == "antiholomorphic":
            return charge == -1
        return True


class FockState:
    """Coefficients along the orthonormal basis z'^n / sqrt(n!), n = 0..N."""

    def __init__(self, coeffs, charge: int = +1):
        self.coeffs = np.atleast_1d(check_array(coeffs, complex, "coeffs"))
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise InvalidArgumentError("coeffs must be a nonempty 1D array")
        self.charge = check_charge(charge)

    @property
    def truncation(self) -> int:
        return self.coeffs.size - 1

    @finite_result("norm squared")
    def norm_sq(self) -> float:
        """sum |c_n|^2; NonFiniteError if it overflows."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def padded(self, n: int) -> np.ndarray:
        """Coefficients zero-extended (or cut) to length n+1; n is an int >= 0
        of at most MAX_SAMPLES - 1, else InvalidArgumentError."""
        n = check_int(n, "n", 0)
        out = np.zeros(check_samples(n + 1, "padded coefficients"), dtype=complex)
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
        """Returns (state, w).  Text that is not JSON, a document without the
        keys coeffs, charge and w, a coefficient that is not an [re, im] pair
        of numbers, or a w that is not a finite positive number raises
        InvalidArgumentError."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"Fock state is not valid JSON: {exc}") from None
        keys = {"coeffs", "charge", "w"}
        if not (isinstance(doc, dict) and keys <= set(doc)):
            raise InvalidArgumentError(f"Fock state must be an object with the keys "
                                       f"{sorted(keys)}")
        if not isinstance(doc["coeffs"], list):
            raise InvalidArgumentError("coeffs must be a list of [re, im] pairs")
        coeffs = [check_pair(pair, "coefficient") for pair in doc["coeffs"]]
        w = check_positive(doc["w"], "w")
        return cls(coeffs=coeffs, charge=doc["charge"]), w


# ---------------------------------------------------------------------------
# Hermite functions and Gauss-Hermite quadrature
# ---------------------------------------------------------------------------

@finite_result("Hermite functions")
def hermite_functions(n_max: int, t) -> np.ndarray:
    """Orthonormal Hermite functions e_0..e_n_max at points t (weight included).

    e_n(t) = pi^{-1/4} (2^n n!)^{-1/2} H_n(t) exp(-t^2/2), by the stable
    weighted recurrence.  Shape: (n_max+1,) + shape(t), of at most MAX_SAMPLES
    values.  Where the weight exp(-t^2/2) underflows to 0, every e_n is 0.
    """
    n_max = check_int(n_max, "n_max", 0)
    t = check_array(t, float, "t")
    check_samples((n_max + 1) * t.size, f"Hermite functions 0..{n_max} at {t.size} points")
    out = np.zeros((n_max + 1,) + t.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * t ** 2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * t * out[0]
    for n in range(2, n_max + 1):
        out[n] = np.sqrt(2.0 / n) * t * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    # there the recurrence gave 0, or NaN from inf * 0 where sqrt(2) t overflows
    np.copyto(out, 0.0, where=out[0] == 0)
    return out


def hermite_basis(n_max: int, x, params: OscillatorParams) -> np.ndarray:
    """Width-w orthonormal basis h_n(x) = w^{-1/2} e_n(x/w)."""
    w = params.w
    return hermite_functions(n_max, check_array(x, float, "x") / w) / np.sqrt(w)


# Largest quadrature order: up to here the weights are finite and sum to
# sqrt(pi) within 1e-12; the unscaled recurrence for e_{order-1} underflows
# beyond it (symmetry fails near 580, weights turn NaN near 1024).
GAUSS_HERMITE_MAX_ORDER = 512


def gauss_hermite(order: int):
    """Nodes and weights for weight exp(-t^2), by Golub-Welsch.

    Nodes are the eigenvalues of the symmetric Jacobi matrix (zero diagonal,
    off-diagonals sqrt(k/2)), built dense and solved by np.linalg.eigvalsh,
    and are explicitly symmetrized; symmetry must hold to 1e-14 relative.
    Weights come from the stable identity w_k e^{t_k^2} = 1/(order *
    e_{order-1}(t_k)^2), which avoids the eigenvector underflow of plain
    Golub-Welsch at high order.  Returns (nodes, weights, weights*exp(t^2)),
    read-only arrays computed once per order per process.  order must be an
    int in 1..GAUSS_HERMITE_MAX_ORDER.
    """
    return _gauss_hermite_rule(_check_order(order))[:3]


def _check_order(order: int) -> int:
    """A quadrature order: an int in 1..GAUSS_HERMITE_MAX_ORDER, else a typed error."""
    order = check_int(order, "order", 1)
    if order > GAUSS_HERMITE_MAX_ORDER:
        raise QuadratureUnderResolvedError(
            f"order {order} above the maximum {GAUSS_HERMITE_MAX_ORDER}")
    return order


@functools.lru_cache(maxsize=None)
def _gauss_hermite_rule(order: int):
    """gauss_hermite's three arrays, then e_0..e_{order-1} at the nodes."""
    if order == 1:
        nodes = np.array([0.0])
        basis = hermite_functions(0, nodes)
        rule = (nodes, np.array([np.sqrt(np.pi)]), np.array([np.sqrt(np.pi)]), basis)
    else:
        off = np.sqrt(np.arange(1, order) / 2.0)
        nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
        asym = np.max(np.abs(nodes + nodes[::-1]))
        if asym > 1e-14 * max(1.0, np.max(np.abs(nodes))):
            raise QuadratureUnderResolvedError(
                f"Gauss-Hermite node symmetry violated: {asym:.3e}")
        nodes = 0.5 * (nodes - nodes[::-1])
        basis = hermite_functions(order - 1, nodes)
        scaled = 1.0 / (order * basis[order - 1] ** 2)          # w_k exp(t_k^2)
        rule = (nodes, scaled * np.exp(-nodes ** 2), scaled, basis)
    for arr in rule:
        arr.setflags(write=False)
    return rule


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
    z_q = complex_coordinate(sec.x[:, None], sec.p[None, :], q, params)
    dx = diff_axis(sec.values, sec.hx, axis=0)
    dp = diff_axis(sec.values, sec.hp, axis=1)
    dzbar = (dx - 1j * q * dp / w2) / np.sqrt(2.0)
    return sec.like(dzbar + z_q / (2.0 * w2) * sec.values)


class ComplexGaugeConnection(NamedTuple):
    """Connection in complex components (a_z, a_zbar), functions of z."""

    a_z: Callable
    a_zbar: Callable


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
            raise InvalidArgumentError("holomorphic_gauge expects the vacuum connection")
    w2 = params.w2
    return ComplexGaugeConnection(a_z=lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
                                  a_zbar=lambda z: -np.asarray(z, dtype=complex) / w2)


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
    if check_choice(which, "which", ("lower", "raise")) == "lower":
        out = (np.sqrt(n) * c)[1:] if c.size > 1 else np.zeros(1, dtype=complex)
    else:
        out = np.concatenate([[0.0], np.sqrt(n + 1) * c])
    return FockState(coeffs=out, charge=state.charge)


def ladder_coordinate(sec: LineSection, which: str, params: OscillatorParams) -> LineSection:
    """Coordinate-representation ladder operators, central-differenced.

    lower = (w/sqrt2)(d/dx + x/w^2), raise = (w/sqrt2)(x/w^2 - d/dx).
    """
    require_axis(sec, "x")
    w, w2 = params.w, params.w2
    deriv = diff_axis(sec.values, sec.h, axis=0)
    if check_choice(which, "which", ("lower", "raise")) == "lower":
        vals = (w / np.sqrt(2.0)) * (deriv + sec.coords / w2 * sec.values)
    else:
        vals = (w / np.sqrt(2.0)) * (sec.coords / w2 * sec.values - deriv)
    return sec.like(vals)


# ---------------------------------------------------------------------------
# Segal-Bargmann transform between coordinate and Fock pictures
# ---------------------------------------------------------------------------

def bargmann_transform(sec: Union[LineSection, Callable], n_max: int, quad_order: int,
                       params: OscillatorParams, charge: Optional[int] = None) -> FockState:
    """Analyze a coordinate-representation state into Fock coefficients.

    c_n = <h_n, psi> with h_n the width-w orthonormal Hermite functions.
    A callable is evaluated at the Gauss-Hermite nodes of order quad_order
    (exact for states band-limited to degree <= 2*quad_order - 1 - n).  A
    sampled LineSection is integrated as a trapezoid sum on its own samples,
    which converges exponentially for a rapidly decaying analytic state on a
    uniform grid; its edge samples must be below 1e-8 of its peak
    (DecayViolationError otherwise).  quad_order is checked alike for both
    kinds (at least 2N+2, and a valid gauss_hermite order), so a call valid
    for a callable stays valid for its samples; only a callable builds the
    rule.  A sec that is neither raises InvalidArgumentError; a callable's
    result must broadcast to the nodes, else GridFormatError.

    The state takes the section's charge, or +1 for a callable; a `charge`
    given here must be +1 or -1 (InvalidChargeError) and agree with the
    section's (ChargeMismatchError).
    """
    held = sec.charge if isinstance(sec, LineSection) else None
    if charge is None:
        charge = +1 if held is None else held
    else:
        charge = check_charge(charge)
        if held is not None and charge != held:
            raise ChargeMismatchError(f"bargmann_transform: the section holds charge "
                                      f"{held:+d}, caller expected {charge:+d}")
    n_max = check_int(n_max, "n_max", 0)
    quad_order = _check_order(quad_order)
    if quad_order < 2 * n_max + 2:
        raise QuadratureUnderResolvedError(
            f"quad_order {quad_order} below floor 2N+2 = {2 * n_max + 2}")
    if isinstance(sec, LineSection):
        require_axis(sec, "x")
        amax = np.max(np.abs(sec.values))
        edge = max(abs(sec.values[0]), abs(sec.values[-1]))
        if amax > 0 and edge > 1e-8 * amax:
            raise DecayViolationError(
                f"boundary amplitude {edge:.3e} exceeds 1e-8 of max {amax:.3e}")
        coeffs = hermite_basis(n_max, sec.coords, params) @ (
            trapezoid_weights(sec.coords) * sec.values)
        return FockState(coeffs=coeffs, charge=charge)
    if not callable(sec):
        raise InvalidArgumentError(f"sec must be a LineSection or a callable, got {sec!r}")
    nodes, _, scaled = gauss_hermite(quad_order)
    psi = check_array(sec(params.w * nodes), complex, "sec values")
    try:
        psi_nodes = np.broadcast_to(psi, nodes.shape)
    except ValueError:
        raise GridFormatError(f"sec returned shape {psi.shape}, which does not "
                              f"broadcast to the {nodes.size} nodes") from None
    # e_n(t_k), n <= n_max: the recurrence's rows do not depend on how many follow
    basis = _gauss_hermite_rule(quad_order)[3][:n_max + 1]
    # c_n = sqrt(w) * sum_k [w_k e^{t_k^2}] e_n(t_k) psi(w t_k)
    coeffs = np.sqrt(params.w) * basis @ (scaled * psi_nodes)
    return FockState(coeffs=coeffs, charge=charge)


def bargmann_inverse(state: FockState, x, params: OscillatorParams) -> LineSection:
    """Synthesize the sampled coordinate-representation section sum c_n h_n."""
    x = check_array(x, float, "x")
    basis = hermite_basis(state.truncation, x, params)
    return LineSection(axis="x", coords=x, values=state.coeffs @ basis,
                       charge=state.charge)


@finite_result("Bargmann pairing")
def bargmann_pairing(a: FockState, b: FockState) -> complex:
    """<a, b> = sum conj(c_n) d_n — the Gaussian-weighted holomorphic pairing.

    In the orthonormal basis the coefficient pairing equals the integral
    (1/pi) int psi_a* psi_b exp(-|z'|^2) d^2 z' exactly for truncated states.
    A pairing that overflows raises NonFiniteError.
    """
    if a.charge != b.charge:
        raise ChargeMismatchError(f"cannot pair charges {a.charge} and {b.charge}")
    n = max(a.truncation, b.truncation)
    return complex(np.vdot(a.padded(n), b.padded(n)))


# ---------------------------------------------------------------------------
# Limits of the complex polarization
# ---------------------------------------------------------------------------

class LimitCheckReport(NamedTuple):
    """Residual norms of the rescaled Dolbeault operator along a w-sequence."""

    direction: str                  # "w->0" or "w->inf"
    w_values: list
    residual_norms: list

    @property
    def strictly_decreasing(self) -> bool:
        r = self.residual_norms
        return all(r[i + 1] < r[i] for i in range(len(r) - 1))


def polarization_limit_check(params: OscillatorParams, w_sequence: Sequence[float],
                             charge: int = +1) -> LimitCheckReport:
    """Check that the complex polarization degenerates to a real one.

    A strictly decreasing w_sequence drives w -> 0: the coordinate-limit
    family exp(-i q p x / 2) exp(-x^2 / 2) solves the limit condition
    (d/dp + i q x / 2) Psi = 0, and w^2 * dolbeault_residual on it must
    shrink.  An increasing sequence drives w -> infinity with the
    momentum-limit family exp(+i q p x / 2) exp(-p^2 / 2) and
    w^{-2} * dolbeault_residual.  Each w runs at mass params.m with the
    frequency that makes params.w equal w, on [-4, 4]^2 with 161^2 samples;
    the reported norm is the largest rescaled residual over interior cells.
    A w that is not finite and positive, or whose w^4 overflows or underflows
    (w outside about 1e-81..1e77), raises InvalidArgumentError.
    """
    q = check_charge(charge)
    # object dtype keeps each entry as given, so a bool, also one among floats,
    # meets check_positive's refusal
    ws = [check_positive(v, "w") for v in check_array(w_sequence, object, "w_sequence", ndim=1)]
    # OscillatorParams rejects a w whose omega = 1/m/w/w, w^2 or w^4 leaves the
    # float range, so every accepted entry has params.w == w up to rounding
    scales = [OscillatorParams(m=params.m, omega=1.0 / params.m / w / w) for w in ws]
    if len(ws) < 2:
        raise NonMonotoneError("w_sequence needs at least two entries")
    diffs = np.diff(ws)
    if np.all(diffs < 0):
        direction, power = "w->0", 1
        family = lambda X, P: np.exp(-0.5j * q * P * X) * np.exp(-0.5 * X ** 2)
    elif np.all(diffs > 0):
        direction, power = "w->inf", -1
        family = lambda X, P: np.exp(0.5j * q * P * X) * np.exp(-0.5 * P ** 2)
    else:
        raise NonMonotoneError(f"w_sequence must be strictly monotone, got {ws}")

    sec = GridSection.from_function(family, (-4.0, 4.0), (-4.0, 4.0), 161, 161, charge=q)
    norms = []
    for wp in scales:
        resid = dolbeault_residual(sec, wp).values[1:-1, 1:-1]
        norms.append(float(wp.w2 ** power * np.max(np.abs(resid))))
    return LimitCheckReport(direction=direction, w_values=ws, residual_norms=norms)
