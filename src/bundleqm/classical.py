"""Classical oscillator mechanics on the phase plane (R^2, omega = dp ^ dx).

Energies, Hamiltonian flows, exact trajectories for both winding charges,
winding numbers of sampled curves, the U(1) moment map with its symplectic
reduction, and the Kahler metric.  Particles wind counterclockwise
(z(t) = e^{i omega t} z0, charge +1); antiparticles are the time-reversed,
conjugate-structure solutions winding clockwise (charge -1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidArgumentError, NonFiniteError, OpenCurveError, UndersampledError,
                     ZeroCrossingError, ZeroPointError)
from .sections import (check_array, check_charge, check_finite, check_int, check_positive,
                       check_real, check_samples, check_sign)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class OscillatorParams:
    """Mass and frequency; the derived length scale is w^2 = 1/(m omega).
    m and omega are real numbers, stored as floats; they and the derived
    m*omega, w^2 and w^4 must be finite and nonzero."""

    m: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        # stored as floats: an int product m*omega beyond the float range would
        # pass the range check below, then fail to convert in w2
        object.__setattr__(self, "m", check_positive(self.m, "m"))
        object.__setattr__(self, "omega", check_positive(self.omega, "omega"))
        # w^4 = w^2 * w^2 in range implies w^2 = 1/(m omega) in range
        if not (0 < self.m * self.omega < np.inf and 0 < self.w4 < np.inf):
            raise InvalidArgumentError(
                f"m*omega, w^2 = 1/(m*omega) and w^4 must be finite and nonzero, "
                f"got m={self.m!r}, omega={self.omega!r}")

    @property
    def w2(self) -> float:
        return 1.0 / (self.m * self.omega)

    @property
    def w(self) -> float:
        return self.w2 ** 0.5

    @property
    def w4(self) -> float:
        return self.w2 * self.w2


def _finite_result(what: str):
    """Decorate a point function to raise NonFiniteError where its value is
    NaN or inf or its arithmetic overflows: Python floats raise
    OverflowError there, numpy scalars warn and give inf."""
    def decorate(fn):
        @functools.wraps(fn)
        def checked(*args):
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                    value = fn(*args)
                check_finite(np.asarray(value, dtype=complex), what)
            except OverflowError:
                raise NonFiniteError(f"{what} must be finite") from None
            return value
        return checked
    return decorate


def complex_coordinate(x, p, charge: int, params: OscillatorParams):
    """The charge-q coordinate z_q = (x - i q w^2 p)/sqrt(2), scalar or array."""
    return (x - 1j * charge * params.w2 * p) / np.sqrt(2.0)


def phase_coordinates(z, charge: int, params: OscillatorParams):
    """(x, p) = (sqrt(2) Re z, -q sqrt(2) Im z / w^2), inverting complex_coordinate."""
    return np.sqrt(2.0) * z.real, -charge * np.sqrt(2.0) * z.imag / params.w2


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, p) of phase space with complex views z_pm.

    z_plus = (x - i w^2 p)/sqrt(2) is the particle coordinate; z_minus is its
    conjugate, the antiparticle coordinate.  x and p are finite real numbers:
    text raises InvalidArgumentError, NaN or inf NonFiniteError, as does a
    view or a point function whose value overflows.
    """

    x: float
    p: float

    def __post_init__(self):
        for name in ("x", "p"):
            check_finite(check_real(getattr(self, name), name), name)

    @_finite_result("z_plus")
    def z_plus(self, params: OscillatorParams) -> complex:
        return complex_coordinate(self.x, self.p, +1, params)

    @_finite_result("z_minus")
    def z_minus(self, params: OscillatorParams) -> complex:
        return complex_coordinate(self.x, self.p, -1, params)

    @classmethod
    def from_z_plus(cls, z: complex, params: OscillatorParams) -> "PhasePoint":
        z = complex(check_array(z, complex, "z", ndim=0))
        with np.errstate(over="ignore"):        # an overflow is reported by __post_init__
            x, p = phase_coordinates(z, +1, params)
        return cls(x=x, p=p)


@dataclass(frozen=True)
class ClassicalState:
    """Initial datum z0 and winding charge; the two charges evolve independently."""

    z0: complex
    charge: int = +1

    def __post_init__(self):
        check_finite(check_array(self.z0, complex, "z0"), "z0")
        check_charge(self.charge)


@dataclass(frozen=True)
class ComplexStructure:
    """J (sign +1) or -J (sign -1) acting on (x^1, x^2) = (x, -w^2 p)."""

    sign: int = +1

    def __post_init__(self):
        check_sign(self.sign, "sign")

    @property
    def matrix(self) -> np.ndarray:
        return self.sign * np.array([[0.0, -1.0], [1.0, 0.0]])


@_finite_result("energy")
def hamiltonian_energy(pt: PhasePoint, params: OscillatorParams) -> float:
    """H = p^2/2m + m omega^2 x^2 / 2."""
    return pt.p ** 2 / (2.0 * params.m) + 0.5 * params.m * params.omega ** 2 * pt.x ** 2


@_finite_result("Hamiltonian vector field")
def hamiltonian_vector_field(pt: PhasePoint, params: OscillatorParams):
    """(x_dot, p_dot) = (p/m, -m omega^2 x); equals omega times the rotation
    generator w^2 p d_x - (x/w^2) d_p evaluated at pt."""
    return (pt.p / params.m, -params.m * params.omega ** 2 * pt.x)


@_finite_result("rotation generator")
def rotation_generator(pt: PhasePoint, params: OscillatorParams):
    """The U(1) generator field w^2 p d_x - (x/w^2) d_p at pt."""
    return (params.w2 * pt.p, -pt.x / params.w2)


def evolve_classical(state: ClassicalState, t, params: OscillatorParams,
                     frequency_sign: int = +1):
    """Exact solution z(t) = exp(i q omega t) z0 in the charge-q coordinate.

    For charge -1 the stored z0 plays the role of the independent antiparticle
    datum (the paper's zbar_0').  frequency_sign = -1 flips to the physics
    phase convention.  Accepts scalar or array t: text raises
    InvalidArgumentError, NaN or inf NonFiniteError, as does a phase
    omega t that overflows.
    """
    check_sign(frequency_sign, "frequency_sign")
    times = check_array(t, float, "t")
    check_finite(times, "t")
    with np.errstate(over="ignore", invalid="ignore"):     # reported just below
        phase = np.exp(1j * frequency_sign * state.charge * params.omega * times)
        out = phase * state.z0
    check_finite(out, "classical trajectory")
    return complex(out) if np.isscalar(t) else out


def trajectory_times(periods: float, samples: int, params: OscillatorParams) -> np.ndarray:
    """`samples` (an int from 2 to MAX_SAMPLES) uniform times covering
    `periods` full periods, endpoints included; NonFiniteError if the end time
    is not finite."""
    samples = check_samples(check_int(samples, "samples", 2), "trajectory")
    end = check_real(periods, "periods") * TWO_PI / params.omega
    check_finite(end, "trajectory end time")
    return np.linspace(0.0, end, samples)


def closed_loop_ratios(samples, min_points: int) -> np.ndarray:
    """Validate a sampled closed loop about 0 and return z[1:] / z[:-1].

    The loop is a 1D array of at least min_points finite complex samples,
    none within 1e-9 (relative to the largest modulus) of 0, with first ~
    last sample.
    """
    z = check_array(samples, complex, "loop samples", ndim=1)
    if z.size < min_points:
        raise OpenCurveError(f"need at least {min_points} samples")
    check_finite(z, "loop samples")
    r = np.abs(z)
    scale = np.max(r)
    tol = 1e-9 * scale
    if scale == 0.0 or np.any(r < tol):
        raise ZeroCrossingError("curve sample within tolerance of 0")
    if abs(z[0] - z[-1]) > tol:
        raise OpenCurveError("curve endpoints differ beyond closure tolerance")
    return z[1:] / z[:-1]


def check_angular_steps(steps: np.ndarray) -> np.ndarray:
    """Return the angular steps of a sampled loop if every one is below pi."""
    if np.any(np.abs(steps) >= np.pi * (1.0 - 1e-12)):
        raise UndersampledError("angular step reached pi; sample the curve more finely")
    return steps


def winding_number(samples) -> int:
    """Total unwrapped phase of a closed sampled curve, in turns.

    The curve must be closed (first ~ last sample), stay away from 0, and be
    sampled finely enough that every angular step is below pi.
    """
    steps = check_angular_steps(np.angle(closed_loop_ratios(samples, 2)))
    turns = float(np.sum(steps) / TWO_PI)
    k = int(np.rint(turns))
    # closed + step-bounded implies an integer total up to rounding
    if abs(turns - k) > 1e-6:
        raise OpenCurveError(f"total phase {turns} turns is not an integer")
    return k


@_finite_result("moment map")
def moment_map(z: complex) -> float:
    """mu(z) = z zbar, the generator of the U(1) rotation action.  Text raises
    InvalidArgumentError; NaN, inf or a value that overflows NonFiniteError."""
    check_array(z, complex, "z")
    return abs(z) ** 2


def symplectic_reduce(z0: complex, n_samples: int):
    """Collapse the orbit circle {z zbar = |z0|^2} to its moduli point.

    Returns (z0, circle) where circle holds n_samples points of the level set,
    starting at z0; n_samples is an int from 3 to MAX_SAMPLES.  The origin is
    excluded: the oscillator phase space is C \\ {0}.  z0 is a finite complex
    number, else a typed error.
    """
    z0 = complex(check_array(z0, complex, "z0", ndim=0))
    check_finite(z0, "z0")
    if z0 == 0:
        raise ZeroPointError("z0 = 0 is excluded from the reduced phase space")
    n_samples = check_samples(check_int(n_samples, "n_samples", 3), "reduced orbit")
    angles = TWO_PI * np.arange(n_samples) / n_samples
    # numpy's AVX-512 complex product overflows in an intermediate step for
    # |z0| near the float maximum, though its result is finite
    with np.errstate(over="ignore", invalid="ignore"):     # reported just below
        circle = z0 * np.exp(1j * angles)
    check_finite(circle, "reduced orbit")
    return z0, circle


def kahler_metric(params: OscillatorParams):
    """Rescaled metric ds^2 = dx^2 + w^4 dp^2: components (g_xx, g_pp)."""
    return (1.0, params.w4)
