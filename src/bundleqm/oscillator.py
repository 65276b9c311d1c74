"""Quantum dynamics of the oscillator and anti-oscillator.

The geometric Hamiltonian omega(z d/dz + 1/2) — the covariant Laplacian
divided by -2m — is diagonal in the Fock basis with spectrum omega(n + 1/2)
for both charges.  Particles pick up phases exp(+i omega (n+1/2) t),
antiparticles the conjugate phases; energies never go negative, the charges
do.  The Husimi function is the squared modulus of the Bargmann section and
doubles as the quantum charge density in the holomorphic representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .bundles import covariant_derivative, vacuum_connection
from .classical import OscillatorParams, complex_coordinate
from .errors import (GridTooSmallError, InvalidArgumentError, NotNormalizedError,
                     ResolutionInsufficientError)
from .polarizations import FockState, hermite_basis
from .sections import (_KERNEL_VALUES, MAX_SAMPLES, GridSection, LineSection, check_array,
                       check_charge, check_finite, check_int, check_positive, check_real,
                       check_samples, check_sign, trapezoid_weights)


@dataclass(frozen=True)
class EnergyLevel:
    """One spectrum entry: E = omega(q_l + q_v/2) with q_l = n q_v."""

    n: int
    E: float
    q_l: int
    q_v: int


def energy(n, params: OscillatorParams):
    """E_n = omega(n + 1/2), for a level n or an array of levels."""
    return params.omega * (n + 0.5)


# The highest n_max of spectrum: its 2(n_max + 1) levels are Python objects.
MAX_SPECTRUM_N = 2 ** 16


def spectrum(n_max: int, params: OscillatorParams):
    """Levels for both charges: antiparticles share E_n with opposite q_l, q_v.
    n_max above MAX_SPECTRUM_N raises InvalidArgumentError."""
    n_max = check_int(n_max, "n_max", 0)
    if n_max > MAX_SPECTRUM_N:
        raise InvalidArgumentError(f"n_max={n_max} is over the cap of {MAX_SPECTRUM_N}")
    out = []
    for q in (+1, -1):
        for n in range(n_max + 1):
            out.append(EnergyLevel(n=n, E=energy(n, params), q_l=n * q, q_v=q))
    return out


def eigenstate(n: int, charge: int = +1) -> FockState:
    """Unit-norm Fock basis state delta_{kn}; n + 1 coefficients within
    MAX_SAMPLES, else InvalidArgumentError."""
    n = check_int(n, "n", 0)
    coeffs = np.zeros(check_samples(n + 1, f"eigenstate n={n}"), dtype=complex)
    coeffs[n] = 1.0
    return FockState(coeffs=coeffs, charge=check_charge(charge))


def hamiltonian_apply(state: FockState, params: OscillatorParams) -> FockState:
    """c_n -> omega(n + 1/2) c_n; identical action for both charges."""
    n = np.arange(state.coeffs.size)
    return FockState(coeffs=energy(n, params) * state.coeffs, charge=state.charge)


def evolve_schrodinger(state: FockState, dt: float, params: OscillatorParams,
                       frequency_sign: int = +1) -> FockState:
    """Advance by exact diagonal phases exp(i q omega (n+1/2) dt).

    Particle phases rotate counterclockwise (the -i d/dt convention);
    frequency_sign = -1 flips to the physics convention.  Norm is preserved
    exactly.  dt is a finite real number, else a typed error.
    """
    check_sign(frequency_sign, "frequency_sign")
    dt = check_real(dt, "dt")
    check_finite(dt, "dt")
    n = np.arange(state.coeffs.size)
    phases = np.exp(1j * frequency_sign * state.charge * energy(n, params) * dt)
    return FockState(coeffs=phases * state.coeffs, charge=state.charge)


def winding_charges(state: FockState):
    """(q_l, q_v) for a pure Fock level; an occupancy report for mixtures.

    q_l is n * q_v when a single level carries all the weight; otherwise the
    first slot holds {n: |c_n|^2} over the levels above 1e-12 of max(total, 1).
    """
    weights = np.abs(state.coeffs) ** 2
    total = float(np.sum(weights))
    occupied = np.nonzero(weights > 1e-12 * max(total, 1.0))[0]
    if occupied.size == 1:
        return int(occupied[0]) * state.charge, state.charge
    report = {int(n): float(weights[n]) for n in occupied}
    return report, state.charge


def _bargmann_terms(z: np.ndarray, n_max: int):
    """Yield z^n / sqrt(n!) for n = 0..n_max: one array, updated in place.

    The caller sets np.errstate: the steps run in its context when resumed.
    """
    term = np.ones_like(z)
    yield term
    for n in range(1, n_max + 1):
        term *= z
        term *= 1.0 / np.sqrt(n)     # numpy's complex / real, without its scalar loop
        yield term


def _bargmann_sum(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum c_n z^n / sqrt(n!); zero coefficients add nothing."""
    terms = _bargmann_terms(z, coeffs.size - 1)
    out = coeffs[0] * next(terms)
    for c, term in zip(coeffs[1:], terms):
        if c != 0:
            out += c * term
    return out


def bargmann_function(state: FockState, z) -> np.ndarray:
    """psi(z') = sum c_n z'^n / sqrt(n!), evaluated stably term by term.

    The term array is updated in place and zero coefficients add nothing.
    z is read as complex (text raises InvalidArgumentError); a z or a result
    that is not finite raises NonFiniteError.
    """
    z = check_array(z, complex, "z")
    check_finite(z, "Bargmann point z")
    with np.errstate(over="ignore", invalid="ignore"):     # reported just below
        out = _bargmann_sum(state.coeffs, z)
    check_finite(out, "Bargmann function")
    return out


def _husimi_axes(u, v):
    """u as a column and v as a row, flattened floats of at most MAX_SAMPLES cells."""
    u = np.ravel(check_array(u, float, "u"))[:, None]
    v = np.ravel(check_array(v, float, "v"))[None, :]
    check_samples(u.size * v.size, f"Husimi grid {u.size}x{v.size}")
    return u, v


def husimi(state: FockState, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Husimi Q over the dimensionless grid z' = u + iv.

    Q = |psi(z')|^2 exp(-|z'|^2) / pi; for the eigenstate n this is
    (1/pi n!) |z'|^{2n} exp(-|z'|^2), nonnegative and of unit total mass.
    The argument is u + i q v, so charge -1 states are antiholomorphic: they
    see conj(z').  u and v are flattened (input numpy cannot read as floats
    raises InvalidArgumentError); a grid of more than MAX_SAMPLES cells
    raises InvalidArgumentError before any is computed; a field that is not
    finite raises NonFiniteError.
    """
    u, v = _husimi_axes(u, v)
    q_field = np.empty((u.size, v.size))
    # a few rows at a time, so the term arrays stay near _KERNEL_VALUES cells
    step = max(1, _KERNEL_VALUES // (v.size or 1))
    with np.errstate(over="ignore", invalid="ignore"):     # reported just below
        for start in range(0, u.size, step):
            rows = slice(start, start + step)
            amp = _bargmann_sum(state.coeffs, u[rows] + 1j * state.charge * v)
            q_field[rows] = np.abs(amp) ** 2 * np.exp(-(u[rows] ** 2 + v ** 2)) / np.pi
    check_finite(q_field, "Husimi field")
    return q_field


def husimi_levels(n_max: int, u, v, charge: int = +1):
    """Yield the Husimi fields Q_n of the eigenstates n = 0..n_max in turn.

    Each field is a new array, byte-equal to husimi(eigenstate(n, charge),
    u, v), but one term recurrence serves every level and exp(-|z'|^2) is
    evaluated once.  The arguments are checked, and the grid capped, as by
    husimi when this is called; a field that is not finite raises
    NonFiniteError when it is reached.
    """
    n_max = check_int(n_max, "n_max", 0)
    charge = check_charge(charge)
    u, v = _husimi_axes(u, v)
    gauss = np.exp(-(u ** 2 + v ** 2))
    return _husimi_fields(u + 1j * charge * v, gauss, n_max)


def _husimi_fields(z: np.ndarray, gauss: np.ndarray, n_max: int):
    terms = _bargmann_terms(z, n_max)
    for _ in range(n_max + 1):
        # around each step only: a suspended generator's `with` would hold in its caller
        with np.errstate(over="ignore", invalid="ignore"):     # reported just below
            q_n = np.abs(next(terms)) ** 2 * gauss / np.pi
        check_finite(q_n, "Husimi field")
        yield q_n


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

@dataclass
class LaplacianReport:
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
    and h: finite, positive, at most 2**22 grid samples, else InvalidArgumentError.
    """
    n = check_int(n, "n", 0)
    if n > 8:
        raise ResolutionInsufficientError("n must be <= 8 (grid-resolvable)")
    check_charge(charge)
    half_width, nx = _grid_samples(half_width, h, 2)
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
    measured = complex(np.sum(np.conj(inner) * lap[sl]) / np.sum(np.abs(inner) ** 2))
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

def _grid_samples(half_width: float, h: float, dims: int):
    """Checked half_width, samples per axis at step h; dims axes hold <= MAX_SAMPLES."""
    half_width, h = check_positive(half_width, "half_width"), check_positive(h, "h")
    span = 2 * half_width / h                   # inf for a step far below the width
    if span < MAX_SAMPLES and (round(span) + 1) ** dims <= MAX_SAMPLES:
        return half_width, round(span) + 1
    raise InvalidArgumentError(f"grid half_width={half_width!r}, h={h!r} exceeds "
                               f"{MAX_SAMPLES} samples")


def coordinate_hamiltonian_matrix(n_max: int, params: OscillatorParams,
                                  half_width: float = 10.0, h: float = 2.5e-4) -> np.ndarray:
    """Matrix of -(1/2m) d^2/dx^2 + (m omega^2/2) x^2 on the Hermite basis.

    Second derivative by central differences (each end takes the one a sample
    in), overlaps by the trapezoid rule as one weighted matrix product; the
    basis is the stable orthonormal Hermite family (repeated finite-difference
    raising amplifies grid noise and cannot build it).  H is applied to one
    basis row at a time.  The eigenvalues reproduce the Fock spectrum
    omega(n + 1/2).
    half_width and h: finite, positive, at most 2**22 samples, else InvalidArgumentError.
    """
    half_width, n_pts = _grid_samples(half_width, h, 1)
    if n_pts < 3:
        raise GridTooSmallError(f"need at least 3 samples, got {n_pts}")
    x = np.linspace(-half_width, half_width, n_pts)
    hx = x[1] - x[0]
    basis = hermite_basis(n_max, x, params)
    potential = 0.5 * params.m * params.omega ** 2 * x ** 2
    hb = np.empty_like(basis)
    for row, out in zip(basis, hb):
        out[1:-1] = -((row[2:] - 2 * row[1:-1] + row[:-2]) / hx ** 2) / (2.0 * params.m)
        out[[0, -1]] = out[[1, -2]]
        out += potential * row
    # per-interval widths, not hx: x[1] - x[0] is off the others by ~7e-12 relative
    basis *= trapezoid_weights(x)
    mat = basis @ hb.T
    return 0.5 * (mat + mat.T)
