"""Classical oscillator mechanics on the phase plane (R^2, omega = dp ^ dx).

Energies, Hamiltonian flows, exact trajectories for both winding charges,
winding numbers of sampled curves, the U(1) moment map with its symplectic
reduction, and the Kahler metric.  Particles wind counterclockwise
(z(t) = e^{i omega t} z0, charge +1); antiparticles are the time-reversed,
conjugate-structure solutions winding clockwise (charge -1).
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import (InvalidArgumentError, OpenCurveError, UndersampledError, ZeroCrossingError,
                     ZeroPointError)
from .sections import (check_array, check_broadcast, check_charge, check_finite, check_int,
                       check_positive, check_real, check_samples, check_sign, finite_result,
                       value_tuple)

TWO_PI = 2.0 * np.pi


class OscillatorParams(value_tuple("OscillatorParams", "m omega")):
    """Mass and frequency; the derived length scale is w^2 = 1/(m omega).
    m and omega are real numbers, stored as floats; they and the derived
    m*omega, w^2 and w^4 must be finite and nonzero."""

    __slots__ = ()

    def __new__(cls, m: float = 1.0, omega: float = 1.0):
        # stored as floats: an int product m*omega beyond the float range would
        # pass the range check below, then fail to convert in w2
        self = super().__new__(cls, check_positive(m, "m"), check_positive(omega, "omega"))
        # w^4 = w^2 * w^2 in range implies w^2 = 1/(m omega) in range
        if not (0 < self.m * self.omega < np.inf and 0 < self.w4 < np.inf):
            raise InvalidArgumentError(
                f"m*omega, w^2 = 1/(m*omega) and w^4 must be finite and nonzero, "
                f"got m={self.m!r}, omega={self.omega!r}")
        return self

    @property
    def w2(self) -> float:
        return 1.0 / (self.m * self.omega)

    @property
    def w(self) -> float:
        return self.w2 ** 0.5

    @property
    def w4(self) -> float:
        return self.w2 * self.w2


@finite_result("complex coordinate")
def complex_coordinate(x, p, charge: int, params: OscillatorParams):
    """The charge-q coordinate z_q = (x - i q w^2 p)/sqrt(2), scalar or array;
    NonFiniteError where it overflows, GridFormatError if x and p do not
    broadcast."""
    charge = check_charge(charge)
    # a real number is checked but used as given: Python's complex quotient
    # rounds some values apart from numpy's
    x, p = ((check_real(v, name), v)[1] if isinstance(v, numbers.Real)
            else check_array(v, float, name) for v, name in ((x, "x"), (p, "p")))
    check_broadcast(x, p, "x and p")
    return (x - 1j * charge * params.w2 * p) / np.sqrt(2.0)


@finite_result("phase coordinates")
def phase_coordinates(z, charge: int, params: OscillatorParams):
    """(x, p) = (sqrt(2) Re z, -q sqrt(2) Im z / w^2), inverting complex_coordinate;
    NonFiniteError where it overflows."""
    charge = check_charge(charge)
    z = check_array(z, complex, "z")
    return np.sqrt(2.0) * z.real, -charge * np.sqrt(2.0) * z.imag / params.w2


class PhasePoint(value_tuple("PhasePoint", "x p")):
    """A point (x, p) of phase space with complex views z_pm; x and p are real
    numbers, stored as floats.

    z_plus = (x - i w^2 p)/sqrt(2) is the particle coordinate; z_minus is its
    conjugate, the antiparticle coordinate.  A view or a point function
    whose value overflows raises NonFiniteError.
    """

    __slots__ = ()

    def __new__(cls, x: float, p: float):
        return super().__new__(cls, check_real(x, "x"), check_real(p, "p"))

    def z_plus(self, params: OscillatorParams) -> complex:
        return complex_coordinate(self.x, self.p, +1, params)

    def z_minus(self, params: OscillatorParams) -> complex:
        return complex_coordinate(self.x, self.p, -1, params)

    @classmethod
    def from_z_plus(cls, z: complex, params: OscillatorParams) -> "PhasePoint":
        z = complex(check_array(z, complex, "z", ndim=0))
        x, p = phase_coordinates(z, +1, params)
        return cls(x=x, p=p)


class ClassicalState(value_tuple("ClassicalState", "z0 charge")):
    """Initial datum z0, one complex number, and winding charge: charges never mix."""

    __slots__ = ()

    def __new__(cls, z0: complex, charge: int = +1):
        return super().__new__(cls, complex(check_array(z0, complex, "z0", ndim=0)),
                               check_charge(charge))


class ComplexStructure(value_tuple("ComplexStructure", "sign")):
    """J (sign +1) or -J (sign -1) acting on (x^1, x^2) = (x, -w^2 p)."""

    __slots__ = ()

    def __new__(cls, sign: int = +1):
        return super().__new__(cls, check_sign(sign, "sign"))

    @property
    def matrix(self) -> np.ndarray:
        return self.sign * np.array([[0.0, -1.0], [1.0, 0.0]])


@finite_result("energy")
def hamiltonian_energy(pt: PhasePoint, params: OscillatorParams) -> float:
    """H = p^2/2m + m omega^2 x^2 / 2."""
    return pt.p ** 2 / (2.0 * params.m) + 0.5 * params.m * params.omega ** 2 * pt.x ** 2


@finite_result("Hamiltonian vector field")
def hamiltonian_vector_field(pt: PhasePoint, params: OscillatorParams):
    """(x_dot, p_dot) = (p/m, -m omega^2 x); equals omega times the rotation
    generator w^2 p d_x - (x/w^2) d_p evaluated at pt."""
    return (pt.p / params.m, -params.m * params.omega ** 2 * pt.x)


@finite_result("rotation generator")
def rotation_generator(pt: PhasePoint, params: OscillatorParams):
    """The U(1) generator field w^2 p d_x - (x/w^2) d_p at pt."""
    return (params.w2 * pt.p, -pt.x / params.w2)


@finite_result("classical trajectory")
def evolve_classical(state: ClassicalState, t, params: OscillatorParams,
                     frequency_sign: int = +1):
    """Exact solution z(t) = exp(i q omega t) z0 in the charge-q coordinate.

    For charge -1 the stored z0 plays the role of the independent antiparticle
    datum (the paper's zbar_0').  frequency_sign = -1 flips to the physics
    phase convention.  Accepts scalar or array t; a phase omega t that
    overflows raises NonFiniteError.
    """
    frequency_sign = check_sign(frequency_sign, "frequency_sign")
    times = check_array(t, float, "t")
    out = np.exp(1j * frequency_sign * state.charge * params.omega * times) * state.z0
    return complex(out) if np.isscalar(t) else out


def trajectory_times(periods: float, samples: int, params: OscillatorParams) -> np.ndarray:
    """`samples` (an int from 2 to MAX_SAMPLES) uniform times covering
    `periods` full periods, endpoints included; NonFiniteError if the end time
    is not finite."""
    samples = check_samples(check_int(samples, "samples", 2), "trajectory")
    end = check_real(periods, "periods") * TWO_PI / params.omega
    check_finite(end, "trajectory end time")
    return np.linspace(0.0, end, samples)


def closed_loop(samples, min_points: int) -> np.ndarray:
    """Validate a sampled closed loop about 0 and return it as a new complex
    array, scaled by a power of two to a largest part in [1/2, 1).

    The loop is a 1D array of at least min_points finite complex samples,
    none within 1e-9 (relative to the largest modulus) of 0, with first ~
    last sample.  The scale is exact and leaves every ratio of two samples
    as it was.  Scaled, no modulus overflows and the tolerance does not
    underflow to 0, at any size of loop.
    """
    z = check_array(samples, complex, "loop samples", ndim=1)
    if z.size < min_points:
        raise OpenCurveError(f"need at least {min_points} samples")
    parts = np.ascontiguousarray(z).view(np.float64)
    z = np.ldexp(parts, -np.frexp(max(parts.max(), -parts.min()))[1]).view(np.complex128)
    r = np.abs(z)
    scale = np.max(r)
    tol = 1e-9 * scale
    if scale == 0.0 or np.any(r < tol):
        raise ZeroCrossingError("curve sample within tolerance of 0")
    if abs(z[0] - z[-1]) > tol:
        raise OpenCurveError("curve endpoints differ beyond closure tolerance")
    return z


def loop_log(samples, min_points: int) -> complex:
    """oint dz/z over the closed loop that closed_loop validates, as the sum of
    the log ratios z_(k+1)/z_k taken part by part from real ufuncs (numpy's
    complex log is a scalar loop): the angular steps, each of which must stay
    below pi, else UndersampledError, and log|z_N/z_0|, which the real parts
    telescope to.  The ratios are those of closed_loop's scaled loop, so no
    denominator is subnormal, where numpy's complex division overflows."""
    z = closed_loop(samples, min_points)
    log_modulus = np.log(abs(z[-1] / z[0]))
    # the ratios overwrite closed_loop's array, and the largest |step| is read
    # without an array of its own: two loop-sized arrays in all
    steps = np.angle(np.divide(z[1:], z[:-1], out=z[:-1]))
    if max(steps.max(), -steps.min()) >= np.pi * (1.0 - 1e-12):
        raise UndersampledError("angular step reached pi; sample the curve more finely")
    return complex(log_modulus, np.sum(steps))


def winding_number(samples) -> int:
    """Total unwrapped phase of a closed sampled curve, in turns: the imaginary
    part of loop_log over 2pi, which must round to an integer."""
    turns = loop_log(samples, 2).imag / TWO_PI
    k = int(np.rint(turns))
    # closed + step-bounded implies an integer total up to rounding
    if abs(turns - k) > 1e-6:
        raise OpenCurveError(f"total phase {turns} turns is not an integer")
    return k


@finite_result("moment map")
def moment_map(z: complex) -> float:
    """mu(z) = z zbar, the generator of the U(1) rotation action; NonFiniteError
    if it overflows."""
    return abs(complex(check_array(z, complex, "z", ndim=0))) ** 2


@finite_result("reduced orbit")
def symplectic_reduce(z0: complex, n_samples: int):
    """Collapse the orbit circle {z zbar = |z0|^2} to its moduli point.

    Returns (z0, circle) where circle holds n_samples points of the level set,
    starting at z0; n_samples is an int from 3 to MAX_SAMPLES.  The origin is
    excluded: the oscillator phase space is C \\ {0}.
    """
    z0 = complex(check_array(z0, complex, "z0", ndim=0))
    if z0 == 0:
        raise ZeroPointError("z0 = 0 is excluded from the reduced phase space")
    n_samples = check_samples(check_int(n_samples, "n_samples", 3), "reduced orbit")
    angles = TWO_PI * np.arange(n_samples) / n_samples
    # numpy's AVX-512 complex product overflows in an intermediate step for
    # |z0| near the float maximum, though its result is finite
    return z0, z0 * np.exp(1j * angles)


def kahler_metric(params: OscillatorParams):
    """Rescaled metric ds^2 = dx^2 + w^4 dp^2: components (g_xx, g_pp)."""
    return (1.0, params.w4)
