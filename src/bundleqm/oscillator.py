"""Quantum dynamics of the oscillator and anti-oscillator.

The geometric Hamiltonian omega(z d/dz + 1/2) — the covariant Laplacian
divided by -2m — is diagonal in the Fock basis with spectrum omega(n + 1/2)
for both charges.  Particles pick up phases exp(+i omega (n+1/2) t),
antiparticles the conjugate phases; energies never go negative, the charges
do.  The Husimi function is the squared modulus of the Bargmann section and
doubles as the quantum charge density in the holomorphic representation.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from .bundles import covariant_derivative, vacuum_connection
from .classical import OscillatorParams, complex_coordinate
from .errors import (GridTooSmallError, InvalidArgumentError, NonFiniteError,
                     NotNormalizedError, ResolutionInsufficientError)
from .polarizations import FockState, hermite_basis
from .sections import (_KERNEL_VALUES, MAX_SAMPLES, GridSection, LineSection, check_array,
                       check_charge, check_int, check_positive, check_real, check_samples,
                       check_sign, diff_axis, finite_result, trapezoid_weights)


class EnergyLevel(NamedTuple):
    """One spectrum entry: E = omega(q_l + q_v/2) with q_l = n q_v."""

    n: int
    E: float
    q_l: int
    q_v: int


@finite_result("energy")
def energy(n, params: OscillatorParams):
    """E_n = omega(n + 1/2), for a level n or an array of levels; an E_n
    beyond the float range raises NonFiniteError."""
    return params.omega * (n + 0.5)


# The highest n_max of spectrum: its 2(n_max + 1) levels are Python objects.
MAX_SPECTRUM_N = 2 ** 16


def spectrum(n_max: int, params: OscillatorParams):
    """Levels for both charges: antiparticles share E_n with opposite q_l, q_v.
    n_max above MAX_SPECTRUM_N raises InvalidArgumentError."""
    n_max = check_int(n_max, "n_max", 0)
    if n_max > MAX_SPECTRUM_N:
        raise InvalidArgumentError(f"n_max={n_max} is over the cap of {MAX_SPECTRUM_N}")
    levels = energy(np.arange(n_max + 1), params).tolist()
    return [EnergyLevel(n=n, E=e, q_l=n * q, q_v=q)
            for q in (+1, -1) for n, e in enumerate(levels)]


def eigenstate(n: int, charge: int = +1) -> FockState:
    """Unit-norm Fock basis state delta_{kn}; n + 1 coefficients within
    MAX_SAMPLES, else InvalidArgumentError."""
    n = check_int(n, "n", 0)
    coeffs = np.zeros(check_samples(n + 1, f"eigenstate n={n}"), dtype=complex)
    coeffs[n] = 1.0
    return FockState(coeffs=coeffs, charge=check_charge(charge))


@finite_result("Hamiltonian action")
def hamiltonian_apply(state: FockState, params: OscillatorParams) -> FockState:
    """c_n -> omega(n + 1/2) c_n; identical action for both charges.  A
    coefficient that overflows raises NonFiniteError."""
    n = np.arange(state.coeffs.size)
    return FockState(coeffs=energy(n, params) * state.coeffs, charge=state.charge)


@finite_result("Schrodinger evolution")
def evolve_schrodinger(state: FockState, dt: float, params: OscillatorParams,
                       frequency_sign: int = +1) -> FockState:
    """Advance by exact diagonal phases exp(i q omega (n+1/2) dt).

    Particle phases rotate counterclockwise (the -i d/dt convention);
    frequency_sign = -1 flips to the physics convention.  Norm is preserved
    exactly.  A phase E_n dt beyond the float range raises NonFiniteError.
    """
    frequency_sign = check_sign(frequency_sign, "frequency_sign")
    dt = check_real(dt, "dt")
    n = np.arange(state.coeffs.size)
    phases = np.exp(1j * frequency_sign * state.charge * energy(n, params) * dt)
    return FockState(coeffs=phases * state.coeffs, charge=state.charge)


def winding_charges(state: FockState):
    """(q_l, q_v) for a pure Fock level; an occupancy report for mixtures.

    q_l is n * q_v when a single level carries all the weight; otherwise the
    first slot holds {n: |c_n|^2} over the levels above 1e-12 of max(total, 1).
    A total weight that overflows raises NonFiniteError.
    """
    total = state.norm_sq()
    weights = np.abs(state.coeffs) ** 2
    occupied = np.nonzero(weights > 1e-12 * max(total, 1.0))[0]
    if occupied.size == 1:
        return int(occupied[0]) * state.charge, state.charge
    report = {int(n): float(weights[n]) for n in occupied}
    return report, state.charge


def _bargmann_sum(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum c_n z^n / sqrt(n!) with one term array, updated in place; zero
    coefficients add nothing."""
    term = np.ones_like(z)
    out = coeffs[0] * term
    for n in range(1, coeffs.size):
        term *= z
        term *= 1.0 / np.sqrt(n)     # numpy's complex / real, without its scalar loop
        if coeffs[n] != 0:
            out += coeffs[n] * term
    return out


@finite_result("Bargmann function")
def bargmann_function(state: FockState, z) -> np.ndarray:
    """psi(z') = sum c_n z'^n / sqrt(n!), evaluated stably term by term.

    The term array is updated in place and zero coefficients add nothing.
    A result that overflows raises NonFiniteError.
    """
    z = check_array(z, complex, "z")
    return _bargmann_sum(state.coeffs, z)


def _husimi_axes(u, v):
    """u as a column and v as a row, flattened floats of at most MAX_SAMPLES cells."""
    u = np.ravel(check_array(u, float, "u"))[:, None]
    v = np.ravel(check_array(v, float, "v"))[None, :]
    check_samples(u.size * v.size, f"Husimi grid {u.size}x{v.size}")
    return u, v


@finite_result("Husimi field")
def husimi(state: FockState, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Husimi Q over the dimensionless grid z' = u + iv.

    Q = |psi(z')|^2 exp(-|z'|^2) / pi; for the eigenstate n this is
    (1/pi n!) |z'|^{2n} exp(-|z'|^2), nonnegative and of unit total mass.
    The argument is u + i q v, so charge -1 states are antiholomorphic: they
    see conj(z').  u and v are flattened; a grid of more than MAX_SAMPLES
    cells raises InvalidArgumentError before any is computed; a field that
    overflows raises NonFiniteError.
    """
    u, v = _husimi_axes(u, v)
    q_field = np.empty((u.size, v.size))
    # a few rows at a time, so the term arrays stay near _KERNEL_VALUES cells
    step = max(1, _KERNEL_VALUES // (v.size or 1))
    for start in range(0, u.size, step):
        rows = slice(start, start + step)
        amp = _bargmann_sum(state.coeffs, u[rows] + 1j * state.charge * v)
        q_field[rows] = np.abs(amp) ** 2 * np.exp(-(u[rows] ** 2 + v ** 2)) / np.pi
    return q_field


def husimi_levels(n_max: int, u, v):
    """Yield the Husimi fields Q_n of the eigenstates n = 0..n_max in turn.

    Q_n = R_n exp(-r) with r = |z'|^2 and the real recurrence R_0 = 1/pi,
    R_n = R_(n-1) r / n: the fields do not depend on the charge, and exp(-r)
    is evaluated once.  Each field is a new array equal to husimi(eigenstate(n,
    q), u, v) at either charge q within 4(n + 1) units of the last place
    wherever that is at least 1e-290.  An axis that equals its own reversed
    negation is folded: the recurrence runs on its second half only, and each
    field is unfolded from it with the same bits.  The arguments are checked,
    and the grid capped, as by husimi when this is called; a field that is not
    finite (R_n overflows) raises NonFiniteError when it is reached.
    """
    n_max = check_int(n_max, "n_max", 0)
    u, v = _husimi_axes(u, v)
    hu, hv = _fold(u), _fold(v)
    with np.errstate(over="ignore"):    # r = inf: Q_0 = 0, and R_1 = inf is reported
        r = u[hu:] ** 2 + v[:, hv:] ** 2
    return _husimi_fields(r, np.exp(-r), n_max, hu, hv)


def _fold(w: np.ndarray) -> int:
    """The index from which the axis w holds each of its w^2: w.size // 2
    where w equals its own reversed negation bit for bit (so w[k]^2 is
    w[-1-k]^2), else 0."""
    w = w.ravel()
    return w.size // 2 if np.array_equal(w[::-1], -w) else 0


def _husimi_fields(r: np.ndarray, gauss: np.ndarray, n_max: int, hu: int, hv: int):
    # 1/pi rides in R, not in exp(-r): where exp(-r) is subnormal, dividing it
    # by pi would round it again
    radial = np.full_like(r, 1 / np.pi)
    for n in range(n_max + 1):
        # around each step only: a suspended generator's `with` would hold in its caller
        with np.errstate(over="ignore", invalid="ignore"):     # reported just below
            if n:
                radial *= 1.0 / n   # before r: R_n, not R_(n-1) r, is what must fit
                radial *= r
        # R_n >= 0 and exp(-r) is finite, so Q_n is finite exactly where R_n is
        if not np.isfinite(radial.max(initial=0.0)):
            raise NonFiniteError("Husimi field must be finite")
        # no local holds the field: the caller's copy is the only one, so a
        # caller that drops each field keeps one alive and faults no heap pages in
        yield _whole_field(radial, gauss, hu, hv)


def _whole_field(radial: np.ndarray, gauss: np.ndarray, hu: int, hv: int) -> np.ndarray:
    """R exp(-r) over the whole grid, from R and exp(-r) on its folded part.

    The first hu rows and hv columns are filled from their mirror images by
    slice copies: the columns in the last rows first, then the rows whole,
    which copy faster than reversed columns.
    """
    q_field = np.empty((radial.shape[0] + hu, radial.shape[1] + hv))
    np.multiply(radial, gauss, out=q_field[hu:, hv:])
    rows, columns = q_field.shape
    q_field[hu:, :hv] = q_field[hu:, columns - hv:][:, ::-1]
    q_field[:hu] = q_field[rows - hu:][::-1]
    return q_field


def charge_density(state: Union[FockState, LineSection]):
    """Signed density q_v |psi|^2 and its total, q_v for a normalized state.

    The sign is the quantum charge, not a probability.  Fock states yield the
    per-level weights; line sections the sampled density with a trapezoid
    total.  The state's norm^2 must be 1 within 1e-6 (NotNormalizedError).
    """
    norm_sq = state.norm_sq()
    amplitudes = state.coeffs if isinstance(state, FockState) else state.values
    density = state.charge * np.abs(amplitudes) ** 2
    if abs(norm_sq - 1.0) > 1e-6:
        raise NotNormalizedError(f"state norm^2 = {norm_sq}, not 1 within 1e-6")
    return density, state.charge * norm_sq


# ---------------------------------------------------------------------------
# Consistency of the grid covariant Laplacian with the Fock spectrum
# ---------------------------------------------------------------------------

class LaplacianReport(NamedTuple):
    n: int
    measured: complex
    expected: float
    rel_error: float
    hamiltonian_eigenvalue: float   # -measured / 2m, to compare with omega(n+1/2)


def laplacian_consistency(n: int, params: OscillatorParams,
                          half_width: float = 3.0, h: float = 1e-2,
                          charge: int = +1) -> LaplacianReport:
    """Apply the grid Laplacian grad_z grad_zbar + grad_zbar grad_z to Psi_n.

    Psi_n = z^n exp(-z zbar / 2 w^2) must return -(2/w^2)(n + 1/2) Psi_n; the
    eigenvalue is measured as a Rayleigh quotient two cells in from each edge
    (the monomial vanishes at the origin, so pointwise ratios are ill-posed).
    Equivalently -Laplacian/2m has eigenvalue omega(n + 1/2).  half_width
    and h: finite, positive, at most 2**22 grid samples, else
    InvalidArgumentError; under 6 samples per axis, GridTooSmallError.
    """
    n = check_int(n, "n", 0)
    if n > 8:
        raise ResolutionInsufficientError("n must be <= 8 (grid-resolvable)")
    check_charge(charge)
    half_width, nx = _grid_samples(half_width, h, 2, 6)
    w2 = params.w2

    def psi_n(X, P):
        z = complex_coordinate(X, P, charge, params)
        return z ** n * np.exp(-z * np.conj(z) / (2.0 * w2))

    sec = GridSection.from_function(psi_n, (-half_width, half_width),
                                    (-half_width / w2, half_width / w2),
                                    nx, nx, charge=charge)
    conn = vacuum_connection()
    # grad_z grad_zbar + grad_zbar grad_z = grad_x^2 + grad_p^2 / w^4: with
    # grad_z, grad_zbar = (grad_x +/- i q grad_p / w^2)/sqrt(2) the cross terms
    # cancel whether or not grad_x and grad_p commute.
    gxx = covariant_derivative(covariant_derivative(sec, "x", conn), "x", conn)
    gpp = covariant_derivative(covariant_derivative(sec, "p", conn), "p", conn)
    lap = gxx.values + gpp.values / params.w4
    sl = (slice(2, -2), slice(2, -2))
    inner = sec.values[sl]
    weight = np.sum(np.abs(inner) ** 2)
    if weight == 0:     # Psi_n underflows to 0 on a coarse grid's interior
        raise ResolutionInsufficientError("Psi_n is 0 on the interior; refine the grid")
    measured = complex(np.sum(np.conj(inner) * lap[sl]) / weight)
    expected = -(2.0 / w2) * (n + 0.5)
    rel = abs(measured - expected) / abs(expected)
    if rel > 0.05:
        raise ResolutionInsufficientError(
            f"Laplacian eigenvalue off by {rel:.1%}; refine the grid")
    return LaplacianReport(n=n, measured=measured, expected=expected, rel_error=rel,
                           hamiltonian_eigenvalue=-measured.real / (2.0 * params.m))


# ---------------------------------------------------------------------------
# Coordinate-representation Hamiltonian matrix (Stone-von Neumann check)
# ---------------------------------------------------------------------------

def _grid_samples(half_width: float, h: float, dims: int, minimum: int):
    """Checked half_width, samples per axis at step h: dims axes hold <= MAX_SAMPLES
    (else InvalidArgumentError), each at least minimum (else GridTooSmallError)."""
    half_width, h = check_positive(half_width, "half_width"), check_positive(h, "h")
    span = 2 * half_width / h                   # inf for a step far below the width
    if not (span < MAX_SAMPLES and (round(span) + 1) ** dims <= MAX_SAMPLES):
        raise InvalidArgumentError(f"grid half_width={half_width!r}, h={h!r} exceeds "
                                   f"{MAX_SAMPLES} samples")
    n = round(span) + 1
    if n < minimum:
        raise GridTooSmallError(f"need at least {minimum} samples, got {n}")
    return half_width, n


def coordinate_hamiltonian_matrix(n_max: int, params: OscillatorParams,
                                  half_width: float = 10.0, h: float = 5e-3) -> np.ndarray:
    """Matrix of -(1/2m) d^2/dx^2 + (m omega^2/2) x^2 on the Hermite basis.

    Both terms are trapezoid-weighted Gram matrices S S^T, so H is exactly
    symmetric.  The kinetic term is <b_i', b_j'> (by parts; the basis must
    vanish at +/-half_width) with b' from sections.diff_axis, whose h^2 error
    cancels between steps h and 2h (Richardson), leaving O(h^4).  The
    eigenvalues reproduce the Fock spectrum omega(n + 1/2).
    half_width and h: finite, positive, 5 to 2**22 samples, else a typed error.
    """
    half_width, n_pts = _grid_samples(half_width, h, 1, 5)
    x = np.linspace(-half_width, half_width, n_pts)
    basis = hermite_basis(n_max, x, params)

    def gram(rows, xs):
        # per-interval widths, not one step: x[1] - x[0] is off the others by ~7e-12 relative
        s = rows * np.sqrt(trapezoid_weights(xs))
        return s @ s.T

    fine, coarse = (gram(diff_axis(basis[:, ::k], x[k] - x[0], 1), x[::k]) for k in (1, 2))
    root_v = np.sqrt(0.5 * params.m) * params.omega * np.abs(x)
    return (4 * fine - coarse) / (6.0 * params.m) + gram(basis * root_v, x)
