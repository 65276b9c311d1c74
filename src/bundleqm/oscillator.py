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
from .errors import InvalidArgumentError, NotNormalizedError, ResolutionInsufficientError
from .polarizations import FockState, hermite_basis
from .sections import (GridSection, LineSection, check_charge, check_sign,
                       trapezoid_weights)


@dataclass(frozen=True)
class EnergyLevel:
    """One spectrum entry: E = omega(q_l + q_v/2) with q_l = n q_v."""

    n: int
    E: float
    q_l: int
    q_v: int


@dataclass
class EvolvingState:
    """A Fock state with its clock."""

    state: FockState
    t: float = 0.0

    @property
    def charge(self) -> int:
        return self.state.charge


def energy(n: int, params: OscillatorParams) -> float:
    return params.omega * (n + 0.5)


def spectrum(n_max: int, params: OscillatorParams):
    """Levels for both charges: antiparticles share E_n with opposite q_l, q_v."""
    if n_max < 0:
        raise InvalidArgumentError("n_max must be >= 0")
    out = []
    for q in (+1, -1):
        for n in range(n_max + 1):
            out.append(EnergyLevel(n=n, E=energy(n, params), q_l=n * q, q_v=q))
    return out


def eigenstate(n: int, charge: int = +1) -> FockState:
    """Unit-norm Fock basis state delta_{kn}."""
    if n < 0:
        raise InvalidArgumentError("n must be >= 0")
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    return FockState(coeffs=coeffs, charge=check_charge(charge))


def hamiltonian_apply(state: FockState, params: OscillatorParams) -> FockState:
    """c_n -> omega(n + 1/2) c_n; identical action for both charges."""
    n = np.arange(state.coeffs.size)
    return FockState(coeffs=params.omega * (n + 0.5) * state.coeffs, charge=state.charge)


def evolve_schrodinger(ev: EvolvingState, dt: float, params: OscillatorParams,
                       frequency_sign: int = +1) -> EvolvingState:
    """Advance by exact diagonal phases exp(i q omega (n+1/2) dt).

    Particle phases rotate counterclockwise (the -i d/dt convention);
    frequency_sign = -1 flips to the physics convention.  Norm is preserved
    exactly.
    """
    check_sign(frequency_sign, "frequency_sign")
    n = np.arange(ev.state.coeffs.size)
    phases = np.exp(1j * frequency_sign * ev.charge * params.omega * (n + 0.5) * dt)
    return EvolvingState(state=FockState(coeffs=phases * ev.state.coeffs,
                                         charge=ev.charge),
                         t=ev.t + dt)


def winding_charges(state: FockState, tol: float = 1e-12):
    """(q_l, q_v) for a pure Fock level; an occupancy report for mixtures.

    q_l is n * q_v when a single level carries all the weight; otherwise the
    first slot holds {n: |c_n|^2} over the occupied levels.
    """
    weights = np.abs(state.coeffs) ** 2
    total = float(np.sum(weights))
    occupied = np.nonzero(weights > tol * max(total, 1.0))[0]
    if occupied.size == 1:
        return int(occupied[0]) * state.charge, state.charge
    report = {int(n): float(weights[n]) for n in occupied}
    return report, state.charge


def bargmann_function(state: FockState, z: np.ndarray) -> np.ndarray:
    """psi(z') = sum c_n z'^n / sqrt(n!), evaluated stably term by term.

    The term array is updated in place and zero coefficients add nothing.
    """
    z = np.asarray(z, dtype=complex)
    term = np.ones_like(z)
    out = state.coeffs[0] * term
    for n in range(1, state.coeffs.size):
        term *= z
        term /= np.sqrt(n)
        if state.coeffs[n] != 0:
            out += state.coeffs[n] * term
    return out


def husimi(state: FockState, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Husimi Q over the dimensionless grid z' = u + iv.

    Q = |psi(z')|^2 exp(-|z'|^2) / pi; for the eigenstate n this is
    (1/pi n!) |z'|^{2n} exp(-|z'|^2), nonnegative and of unit total mass.
    Charge -1 states are antiholomorphic: their argument is conj(z').
    """
    U, V = np.meshgrid(np.asarray(u, float), np.asarray(v, float), indexing="ij")
    zp = U + 1j * V
    if state.charge == -1:
        zp = np.conj(zp)
    amp = bargmann_function(state, zp)
    return np.abs(amp) ** 2 * np.exp(-(U ** 2 + V ** 2)) / np.pi


def charge_density(state: Union[FockState, LineSection], tol: float = 1e-6):
    """Signed density q_v |psi|^2 and its total, q_v for a normalized state.

    The sign is the quantum charge, not a probability.  Fock states yield the
    per-level weights; line sections the sampled density with a trapezoid
    total.
    """
    if isinstance(state, FockState):
        norm_sq = state.norm_sq()
        density = state.charge * np.abs(state.coeffs) ** 2
    else:
        norm_sq = state.norm_sq()
        density = state.charge * np.abs(state.values) ** 2
    if abs(norm_sq - 1.0) > tol:
        raise NotNormalizedError(f"state norm^2 = {norm_sq}, not 1 within {tol}")
    total = state.charge * norm_sq
    return density, total


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
                          charge: int = +1, margin: int = 2) -> LaplacianReport:
    """Apply the grid Laplacian grad_z grad_zbar + grad_zbar grad_z to Psi_n.

    Psi_n = z^n exp(-z zbar / 2 w^2) must return -(2/w^2)(n + 1/2) Psi_n; the
    eigenvalue is measured as an interior Rayleigh quotient (the monomial
    vanishes at the origin, so pointwise ratios are ill-posed).  Equivalently
    -Laplacian/2m has eigenvalue omega(n + 1/2).
    """
    if n > 8:
        raise ResolutionInsufficientError("n must be <= 8 (grid-resolvable)")
    check_charge(charge)
    w2 = params.w2
    nx = int(round(2 * half_width / h)) + 1

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
    sl = (slice(margin, -margin), slice(margin, -margin))
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

def coordinate_hamiltonian_matrix(n_max: int, params: OscillatorParams,
                                  half_width: float = 10.0, h: float = 2.5e-4) -> np.ndarray:
    """Matrix of -(1/2m) d^2/dx^2 + (m omega^2/2) x^2 on the Hermite basis.

    Second derivative by central differences, overlaps by the trapezoid rule
    as one weighted matrix product; the basis is the stable orthonormal
    Hermite family (repeated finite-difference raising amplifies grid noise
    and cannot build it).  The eigenvalues reproduce the Fock spectrum
    omega(n + 1/2).
    """
    n_pts = int(round(2 * half_width / h)) + 1
    x = np.linspace(-half_width, half_width, n_pts)
    hx = x[1] - x[0]
    basis = hermite_basis(n_max, x, params)
    d2 = np.empty_like(basis)
    d2[:, 1:-1] = (basis[:, 2:] - 2 * basis[:, 1:-1] + basis[:, :-2]) / hx ** 2
    d2[:, 0] = d2[:, 1]
    d2[:, -1] = d2[:, -2]
    hb = -d2 / (2.0 * params.m) + 0.5 * params.m * params.omega ** 2 * x ** 2 * basis
    # per-interval widths, not hx: x[1] - x[0] is off the others by ~7e-12 relative
    mat = (basis * trapezoid_weights(x)) @ hb.T
    return 0.5 * (mat + mat.T)
