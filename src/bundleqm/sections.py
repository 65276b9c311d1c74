"""Sampled section containers shared by the bundle and polarization layers,
the one first-derivative stencil (diff_axis) that acts on them, and the one
set of trapezoid weights (trapezoid_weights) that integrates them.

A quantum state lives here in one of three sampled forms: a 2D complex grid
over phase space (GridSection), a 1D complex line in x or p (LineSection),
or a particle/antiparticle pair of components (DoubledSection).  All carry
the quantum charge q_v as a plain validated integer, +1 for particles and
-1 for antiparticles, and compare by identity.
"""

from __future__ import annotations

import cmath
import collections
import functools
import itertools
import numbers
import struct
import warnings
from typing import Optional

import numpy as np

from .errors import (ChargeMismatchError, GridFormatError, GridTooSmallError,
                     InvalidArgumentError, InvalidChargeError, NonFiniteError,
                     WrongPolarizationError)

_BINARY_MAGIC = b"BQGS"
_BINARY_VERSION = 1


def _is_int(value) -> bool:
    """True for an int or a numpy integer (a bool or a float is neither)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(value, name: str, minimum: int) -> int:
    """Validate a count, degree, level or index: an int (not a bool or a
    float) of at least `minimum`, returned as a plain int; else
    InvalidArgumentError."""
    if not (_is_int(value) and value >= minimum):
        raise InvalidArgumentError(f"{name} must be an int >= {minimum}, got {value!r}")
    return int(value)


# The one cap on an array whose size an argument sets (32 MiB of float64),
# checked before it is allocated.  The default grids hold 80001 and 601^2 samples.
MAX_SAMPLES = 2 ** 22


def check_samples(count: int, name: str) -> int:
    """`count` if it is at most MAX_SAMPLES, else InvalidArgumentError."""
    if count > MAX_SAMPLES:
        raise InvalidArgumentError(f"{name} asks for {count} samples, over the cap of "
                                   f"{MAX_SAMPLES}")
    return count


def _real(value, name: str) -> float:
    """A real number that is not a bool, as a float; else InvalidArgumentError,
    also for an int beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidArgumentError(f"{name} is outside the float range") from None


def check_real(value, name: str) -> float:
    """Validate a real parameter: a real number that is not a bool, returned
    as a float; else InvalidArgumentError, also for an int beyond the float
    range, and NonFiniteError for NaN or inf."""
    x = _real(value, name)
    if not cmath.isfinite(x):
        raise NonFiniteError(f"{name} must be finite")
    return x


def check_positive(value, name: str) -> float:
    """Validate a finite positive real (a width, a step, a scale), returned as
    a float; else InvalidArgumentError, NaN and inf included."""
    x = _real(value, name)
    if not 0 < x < np.inf:
        raise InvalidArgumentError(f"{name} must be finite and positive, got {value!r}")
    return x


def check_array(value, dtype, name: str, ndim: Optional[int] = None) -> np.ndarray:
    """`value` as an array of dtype, with ndim dimensions when ndim is given; else
    InvalidArgumentError: for any text, None, a bool or an array of bools, an int
    beyond floats, ragged lists, a 2D loop or complex values where dtype is real.
    A float or complex array that holds NaN or inf raises NonFiniteError; object
    and integer arrays are not scanned."""
    try:
        # an object array keeps each entry as given: np.asarray alone would turn
        # a mixed list such as [True, 0.5] into floats
        arr = np.asarray(value, dtype=object) if dtype is object else np.asarray(value)
        # numpy's conversion parses text, reads None as NaN, bools as 0 and 1,
        # and drops an imaginary part with a warning; only an object array can
        # hold text or None without being text itself
        if (arr.dtype.kind in "SUb"
                or arr.dtype.kind == "c" and np.dtype(dtype).kind == "f"
                or arr.dtype.kind == "O" and any(item is None or isinstance(item, (str, bytes))
                                                 for item in arr.flat)):
            raise TypeError
        arr = np.asarray(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgumentError(f"{name} must be an array of numbers, got {value!r}") from None
    if ndim is not None and arr.ndim != ndim:
        raise InvalidArgumentError(f"{name} must be a {ndim}D array, got shape {arr.shape}")
    if arr.dtype.kind in "fc":
        check_finite(arr, name)
    return arr


def check_broadcast(a, b, names: str) -> None:
    """GridFormatError, naming both shapes, unless the arrays a and b broadcast."""
    try:
        np.broadcast_shapes(np.shape(a), np.shape(b))
    except ValueError:
        raise GridFormatError(f"{names} of shapes {np.shape(a)} and {np.shape(b)} "
                              f"do not broadcast") from None


def check_choice(value, name: str, choices: tuple) -> str:
    """An option name: `value` if it is a str among `choices`, else InvalidArgumentError."""
    if not (isinstance(value, str) and value in choices):
        raise InvalidArgumentError(f"{name} must be one of {choices}, got {value!r}")
    return value


def check_pair(value, name: str) -> complex:
    """Validate a JSON [re, im] pair of real numbers; return it as a complex."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise InvalidArgumentError(f"{name} must be an [re, im] pair, got {value!r}")
    return complex(check_real(value[0], name), check_real(value[1], name))


def check_charge(charge: int) -> int:
    """Validate a quantum charge; bundle operations admit only the integers
    +1 and -1 (a bool or a float is not a charge)."""
    if not (_is_int(charge) and charge in (+1, -1)):
        raise InvalidChargeError(f"quantum charge must be the integer +1 or -1, "
                                 f"got {charge!r}")
    return int(charge)


def resolve_charge(held, charge, holder: str) -> int:
    """The charge of a loaded grid or of a transformed section: the one the
    source holds (None when it holds none, which gives +1), which a `charge`
    given by the caller must agree with."""
    if charge is None:
        return +1 if held is None else held
    charge = check_charge(charge)
    if held is not None and charge != held:
        raise ChargeMismatchError(
            f"{holder} holds charge {held:+d}, caller expected {charge:+d}")
    return charge


def check_sign(sign: int, name: str) -> int:
    """Validate an orientation sign (a frequency or complex-structure sign):
    the integer +1 or -1, returned as a plain int, else InvalidArgumentError."""
    if not (_is_int(sign) and sign in (+1, -1)):
        raise InvalidArgumentError(f"{name} must be the integer +1 or -1, got {sign!r}")
    return int(sign)


def value_tuple(name: str, fields: str):
    """The namedtuple base of a validated value type, whose own __new__ runs
    the checks and stores what they return.  _make, and so _replace, build
    through that __new__: a plain namedtuple's skip it.  The subclass sets
    __slots__ = (), so that no attribute can be assigned."""
    base = collections.namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise NonFiniteError if a real or imaginary part of a complex (or float)
    array is NaN or inf."""
    if not np.isfinite(np.ascontiguousarray(values).view(float)).all():
        raise NonFiniteError(f"{what} must be finite")


def finite_result(what: str):
    """Decorate a function whose arithmetic may overflow: the package's one
    rule for such results.  The call runs without numpy's overflow and
    invalid-value warnings.  A returned float or complex number (a numpy
    scalar of any precision included) or array, or each one in a returned
    tuple, that is NaN or inf raises NonFiniteError, and so does Python's
    OverflowError, which Python floats raise where numpy gives inf.
    Integers are finite; a returned section or FockState is left to its own
    constructor's check."""
    def decorate(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                    value = fn(*args, **kwargs)
            except OverflowError:
                raise NonFiniteError(f"{what} must be finite") from None
            for v in value if type(value) is tuple else (value,):
                if isinstance(v, np.ndarray):
                    if v.dtype.kind in "fc":
                        check_finite(v, what)
                elif isinstance(v, (float, complex, np.inexact)) and not cmath.isfinite(v):
                    raise NonFiniteError(f"{what} must be finite")
            return value
        return checked
    return decorate


def diff_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central differences, one-sided O(h^2) at the two edge cells.

    Complex differences are multiplied by 1/(2h): numpy divides a complex
    array by a real scalar as the product with that reciprocal, so only the
    sign of an exact zero can differ from the quotient.  Real differences are
    divided by 2h, since there x/s and x*(1/s) can differ in the last bit.
    Integer values give float derivatives.
    """
    if values.shape[axis] < 3:
        raise GridTooSmallError("need at least 3 samples along the derivative axis")
    lead = (slice(None),) * (axis % values.ndim)     # the axes before `axis`

    def f(i):   # the samples at index or slice i along `axis`
        return values[lead + (i,)]

    g = np.empty_like(values, dtype=np.result_type(values, 1.0))
    np.subtract(f(slice(2, None)), f(slice(None, -2)), out=g[lead + (slice(1, -1),)])
    g[lead + (0,)] = -3.0 * f(0) + 4.0 * f(1) - f(2)
    g[lead + (-1,)] = 3.0 * f(-1) - 4.0 * f(-2) + f(-3)
    if g.dtype == np.complex128:
        g *= 1.0 / (2.0 * h)
    else:
        g /= 2.0 * h
    return g


def trapezoid_weights(coords: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights at the sample points coords: each interval's own
    width, halved, goes to each of its two ends, so wt @ f is np.trapezoid(f,
    coords) written as a dot product."""
    dx = np.diff(coords)
    wt = np.zeros(dx.size + 1, np.result_type(dx, 0.5))
    wt[:-1] = dx
    wt[1:] += dx
    wt *= 0.5
    return wt


def _axis(lo, hi, n: int, name: str) -> np.ndarray:
    """n uniform points from lo to hi; NonFiniteError if hi - lo overflows."""
    lo, hi = check_real(lo, name), check_real(hi, name)
    # Python floats overflow to inf without numpy's warning; a finite width
    # keeps every point of np.linspace between lo and hi
    if not cmath.isfinite(hi - lo):
        raise NonFiniteError(f"{name} {lo!r} to {hi!r} must have a finite width")
    return np.linspace(lo, hi, n)


def _uniform_spacing(axis: np.ndarray, name: str) -> float:
    if axis.ndim != 1:
        raise GridFormatError(f"{name} axis must be 1D, got shape {axis.shape}")
    if axis.size < 3:
        raise GridTooSmallError(f"{name} axis needs at least 3 samples, got {axis.size}")
    # a spacing that overflows to inf, and inf - inf = nan, fail the test below
    with np.errstate(over="ignore", invalid="ignore"):
        h = axis[1:] - axis[:-1]
        h0 = h[0]
        # every spacing within 1e-10 of the first, relative: np.allclose's test
        uniform = h0 > 0 and np.abs(h - h0).max() <= 1e-10 * h0
    if not uniform:
        raise GridFormatError(f"{name} axis must be uniform with positive spacing")
    return float(h0)


def _like(self, values: np.ndarray):
    """A copy of this section with new values, checked as the constructor checks
    them; its axes, spacings and charge were checked when it was built."""
    new = object.__new__(type(self))
    new.__dict__.update(self.__dict__)
    new.values = check_array(values, complex, "section values")
    new._check_shape()
    return new


class GridSection:
    """Complex amplitudes sampled on a uniform (x, p) grid.

    values[i, j] is the amplitude at (x[i], p[j]).
    """

    def __init__(self, x, p, values, charge: int = +1):
        self.x = check_array(x, float, "x axis")
        self.p = check_array(p, float, "p axis")
        self.values = check_array(values, complex, "section values")
        self.hx = _uniform_spacing(self.x, "x")
        self.hp = _uniform_spacing(self.p, "p")
        self._check_shape()
        self.charge = check_charge(charge)

    def _check_shape(self):
        if self.values.shape != (self.x.size, self.p.size):
            raise GridFormatError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.x.size}, {self.p.size})"
            )

    @property
    def nx(self) -> int:
        return self.x.size

    @property
    def np_(self) -> int:
        return self.p.size

    @classmethod
    def from_function(cls, f, x_range, p_range, nx: int, np_: int, charge: int = +1):
        """Sample f on a uniform grid of at most MAX_SAMPLES points.  f receives
        the column x[:, None] and the row p[None, :] and must broadcast; its
        result is broadcast to (nx, np_).  Each range is a pair of real numbers."""
        nx, np_ = check_int(nx, "nx", 0), check_int(np_, "np_", 0)
        # each axis on its own as well: with the other axis empty the product is 0
        check_samples(max(nx * np_, nx, np_), f"grid {nx}x{np_}")
        x = _axis(x_range[0], x_range[1], nx, "x range")
        p = _axis(p_range[0], p_range[1], np_, "p range")
        values = check_array(f(x[:, None], p[None, :]), complex, "section values")
        if values.shape != (nx, np_):
            try:
                values = np.broadcast_to(values, (nx, np_)).copy()
            except ValueError:
                raise GridFormatError(f"f returned shape {values.shape}, which does "
                                      f"not broadcast to the grid ({nx}, {np_})") from None
        return cls(x=x, p=p, values=values, charge=charge)

    like = _like


class LineSection:
    """Complex amplitudes sampled on a uniform 1D grid in x or p: axis "x" is
    the coordinate representation, "p" the momentum one."""

    def __init__(self, axis: str, coords, values, charge: int = +1):
        self.axis = check_choice(axis, "axis", ("x", "p"))
        self.coords = check_array(coords, float, f"{axis} axis")
        self.values = check_array(values, complex, "section values")
        self.h = _uniform_spacing(self.coords, axis)
        self._check_shape()
        self.charge = check_charge(charge)

    def _check_shape(self):
        if self.values.shape != self.coords.shape:
            raise GridFormatError("values and coords must have the same length")

    @classmethod
    def from_function(cls, f, axis: str, lo: float, hi: float, n: int, charge: int = +1):
        coords = _axis(lo, hi, check_samples(check_int(n, "n", 0), "line section"), "range")
        return cls(axis=axis, coords=coords, values=f(coords), charge=charge)

    like = _like

    @finite_result("norm squared")
    def norm_sq(self) -> float:
        """Continuum norm squared by trapezoid; NonFiniteError if it overflows."""
        return float(trapezoid_weights(self.coords) @ np.abs(self.values) ** 2)


def require_axis(sec: LineSection, axis: str) -> None:
    """Raise WrongPolarizationError unless sec is polarized along axis."""
    if sec.axis != axis:
        raise WrongPolarizationError(
            f"section is polarized along {sec.axis!r}; this representation needs {axis!r}")


# Fiber basis: v_pm = (1, -/+ i)/sqrt(2), eigenvectors of J = [[0,-1],[1,0]],
# taken orthonormal (v+^dag v+ = 1, v+^dag v- = 0).
V_PLUS = np.array([1.0, -1.0j]) / np.sqrt(2.0)
V_MINUS = np.array([1.0, +1.0j]) / np.sqrt(2.0)


class DoubledSection:
    """Coordinates of a C^2 = L+ (+) L- section along the v_pm fiber basis.

    Components may be scalars or arrays of matching shape.  psi_minus is not
    in general the conjugate of psi_plus: the two charges carry independent
    amplitudes.
    """

    def __init__(self, psi_plus, psi_minus):
        self.psi_plus = check_array(psi_plus, complex, "psi_plus")
        self.psi_minus = check_array(psi_minus, complex, "psi_minus")
        if self.psi_plus.shape != self.psi_minus.shape:
            raise GridFormatError("component shapes differ")

    def rotate_fiber(self, theta: float) -> "DoubledSection":
        """U(1)_v action: psi_pm -> exp(+/- i theta) psi_pm."""
        theta = check_real(theta, "theta")
        return DoubledSection(np.exp(1j * theta) * self.psi_plus,
                              np.exp(-1j * theta) * self.psi_minus)

    @finite_result("norm squared")
    def norm_sq(self):
        """Pointwise |Psi|^2; cross terms vanish by orthonormality of v_pm.
        NonFiniteError where it overflows."""
        return np.abs(self.psi_plus) ** 2 + np.abs(self.psi_minus) ** 2

    def is_diagonal(self) -> bool:
        """Neutral (q_v = 0) sections lie on the diagonal psi_plus = psi_minus (to 1e-12
        of the largest modulus, or of 1); an empty section counts as diagonal.  The
        components are compared quartered, a power-of-two scaling under which no
        modulus or difference leaves the float range."""
        plus, minus = 0.25 * self.psi_plus, 0.25 * self.psi_minus
        scale = max(np.max(np.abs(plus), initial=0.25), np.max(np.abs(minus), initial=0.25))
        return bool(np.max(np.abs(plus - minus), initial=0.0) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# Text rows.
#
# Every float in a text artifact is written with 17 significant digits, which
# round-trips any float64 exactly.  The numpy kernel _float_records turns each
# value into a record, FLOAT_FORMAT % v byte for byte and its separator ("," or
# a newline), NUL-padded to the widest record of the call (at most _WIDTH
# bytes); a value it cannot decide gets its record from `%` itself.  Records
# become text by dropping the NULs.  write_rows formats _KERNEL_VALUES values
# at a time, so the text in flight stays small.  write_grid_csv formats the x
# axis, the p axis and the charge once, and per block only the re/im pairs: a
# block of x-rows is assembled from broadcast copies of the axis and charge
# records, each at its own width.
# ---------------------------------------------------------------------------

FLOAT_FORMAT = "%.17g"

# decimal exponents of the values the kernel scales (|v| about 1e-290..1e290);
# 10**s is tabled for every s = 16 - exponent that it can need there
_K_MAX = 290
_S_MIN, _S_MAX = -276, 308
# the computed fraction of v * 10**s is within 4e-15 of the exact one when
# 10**s is inexact (exact for s = 0..22); a fraction this near a tie is left
_TIE_BAND = 2.0 ** -44
_KERNEL_VALUES = 8192   # values per call: its temporaries stay near 3 MB
_WIDTH = 25             # "-1.2345678901234567e-308" and its separator
# byte offsets in a value's 32-byte source row: "-.0", the 17 digits, the
# exponent ("e+dd" or "e-ddd"), the separator ("," or a newline) and a NUL
_MINUS, _DOT, _ZERO, _DIGIT0, _EXP, _SEP, _NUL = 0, 1, 2, 3, 20, 28, 29
# word offsets in _text_tables' words: after the 10000 4-digit groups
_LEAD = 10000
_COMMA, _NEWLINE = _LEAD + 10, _LEAD + 11
_EXPS = _LEAD + 12


def _split(x):
    """Veltkamp split: x = hi + lo exactly, each part on at most 26 bits."""
    c = x * 134217729.0     # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _layout(cls: int, sig: int, neg: bool) -> list:
    """Source offsets of one %.17g field whose digits are d0..d(sig-1) (no
    trailing zero): class 0..20 is the fixed form at decimal exponent cls - 4,
    21 the e form, 22 a zero."""
    digits = [_DIGIT0 + j for j in range(sig)]
    out = [_MINUS] if neg else []
    if cls == 22:
        out += [_ZERO]
    elif cls == 21:
        out += digits[:1] + ([_DOT] + digits[1:] if sig > 1 else [])
        out += range(_EXP, _EXP + 5)
    elif cls >= 4:
        out += range(_DIGIT0, _DIGIT0 + cls - 3)
        out += [_DOT] + digits[cls - 3:] if sig > cls - 3 else []
    else:
        out += [_ZERO, _DOT] + [_ZERO] * (3 - cls) + digits
    return out + [_SEP] + [_NUL] * (_WIDTH - 1 - len(out))


@functools.lru_cache(maxsize=None)
def _text_tables():
    """The float kernel's tables, built on first use with integer arithmetic.
    Indexed by s - _S_MIN: rows (hi, lo, hi's Veltkamp halves, tie band) of
    10**s = hi + lo, the band -1 where lo = 0, and the layout class of the
    exponent 16 - s.  Then 32-bit words of text: the 4-digit groups, "-.0d"
    for each leading digit d at _LEAD, "," and a newline, and the exponent
    texts "e+dd" or "e-ddd" as word pairs at _EXPS; the trailing-zero
    counts of 4-digit groups; and the layouts, indexed by ((class * 17 +
    sig - 1) * 2 + negative), with the width of each before its NULs."""
    his, los = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den                      # int / int rounds correctly
        hn, hd = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hd - hn * den) / (den * hd))
    hi, lo = np.array(his), np.array(los)
    mant, ex = np.frexp(hi)                 # split the mantissa: no overflow
    hh = np.ldexp(_split(mant)[0], ex)
    pow10 = np.column_stack([hi, lo, hh, hi - hh, np.where(lo == 0, -1.0, _TIE_BAND)])
    k = 16 - np.arange(_S_MIN, _S_MAX + 1)
    classes = np.where((k >= -4) & (k <= 16), k + 4, 21)
    g = np.arange(10000, dtype=np.uint16)
    ascii4 = np.empty((10000, 4), np.uint8)  # column by column: small temporaries
    ntz4 = np.zeros(10000, np.uint8)
    for j in range(4):
        ascii4[:, j] = g // 10 ** (3 - j) % 10 + 48
        ntz4 += g % 10 ** (j + 1) == 0
    lead = [b"-.0%d" % d for d in range(10)] + [b",", b"\n"]
    exp_text = [b"e%+03d" % e for e in k]
    words = np.concatenate([ascii4.ravel(), np.array(lead, dtype="S4").view(np.uint8),
                            np.array(exp_text, dtype="S8").view(np.uint8)]).view(np.uint32)
    layouts = np.empty((23 * 17 * 2, _WIDTH), np.uint8)
    for i, (cls, sig, neg) in enumerate(itertools.product(range(23), range(1, 18), (0, 1))):
        layouts[i] = _layout(cls, sig, neg)
    return pow10, classes, words, ntz4, layouts, (layouts != _NUL).sum(axis=1)


def _round_scaled(a, k, pow10):
    """Round a * 10**(16 - k) to an integer D, half to even: p = fl(a * hi)
    and a small t, the exact error of that product (Dekker's two-product)
    plus a * lo, sum to it, and p is an even integer wherever D is in the
    decade, so D = p + rint(t).  Returns D, the decade step k needs (-1 when
    the product is below 1e16, +1 when D is above 1e17) and a mask of the
    products within _TIE_BAND of a tie where 10**s is inexact."""
    hi, lo, hh, hl, band = pow10.take(16 - k - _S_MIN, axis=0).T
    p = a * hi
    ah, al = _split(a)
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    whole = p.astype(np.int64)
    r = np.rint(t)
    d = whole + r.astype(np.int64)
    step = (d > 10 ** 17).astype(np.int64) - (t < 10 ** 16 - whole)
    return d, step, 0.5 - np.abs(t - r) <= band


def _decimal_digits(v, pow10):
    """The 17 significant digits of each float v as an integer D in [1e16,
    1e17), and the decimal exponent k of D's first digit, as %.17g rounds
    them.  `undecided` marks the values it cannot scale: zeros, non-finite
    and extreme values, and products too near a tie."""
    a = np.abs(v)
    with np.errstate(divide="ignore"):     # log10(0) = -inf is left below
        k = np.floor(np.log10(a))
    undecided = ~(np.abs(k) <= _K_MAX)
    a[undecided] = 1.0
    k[undecided] = 0.0
    k = k.astype(np.int64)
    d, step, tie = _round_scaled(a, k, pow10)
    # log10 may round across a power of ten: move those values one decade
    for _ in range(2):
        i = np.flatnonzero(step)
        if i.size == 0:
            break
        k[i] += step[i]
        d[i], step[i], tie[i] = _round_scaled(a[i], k[i], pow10)
    undecided |= tie | (step != 0)
    top = d == 10 ** 17                     # rounded up into the next decade
    d[top] = 10 ** 16
    k[top] += 1
    return d, k, undecided


def _float_records(v: np.ndarray, sep: bytes) -> np.ndarray:
    """FLOAT_FORMAT % x for each value x of the float64 array v, followed by
    a separator, as a NUL-padded record as wide as the widest: an array of
    shape v.shape + (width,), width at most _WIDTH.  sep holds the separator
    ("," or a newline) of each position along v's last axis, or one for
    every value."""
    pow10, classes, words, ntz4, layouts, widths = _text_tables()
    shape = v.shape
    v = v.ravel()
    d, k, undecided = _decimal_digits(v, pow10)
    n = v.size
    # word indices of the source rows: "-.0" and the leading digit, four
    # 4-digit groups, the exponent text and the separator
    words_at = np.empty((n, 8), np.intp)
    high, low = np.divmod(d, 10 ** 8)
    high, low = high.astype(np.uint32), low.astype(np.uint32)
    words_at[:, 0], r = np.divmod(high, 10 ** 8)
    words_at[:, 1], words_at[:, 2] = np.divmod(r, 10 ** 4)
    words_at[:, 3], words_at[:, 4] = np.divmod(low, 10 ** 4)
    ntz = ntz4[words_at[:, 4]]              # trailing zeros of d
    i = np.flatnonzero(ntz == 4)
    for j in (3, 2, 1):
        if i.size == 0:
            break
        ntz[i] += ntz4[words_at[i, j]]
        i = i[ntz[i] == 4 * (5 - j)]
    words_at[:, 0] += _LEAD
    s = 16 - k - _S_MIN
    words_at[:, 5] = _EXPS + 2 * s
    words_at[:, 6] = words_at[:, 5] + 1
    words_at.reshape(-1, len(sep), 8)[:, :, 7] = [_COMMA if c == ord(",") else _NEWLINE
                                                  for c in sep]
    src_bytes = words.take(words_at).view(np.uint8).ravel()
    cls = classes[s]
    zero = v == 0
    cls[zero] = 22
    undecided[zero] = False
    key = (cls * 17 + 16 - ntz) * 2 + np.signbit(v)
    undecided = np.flatnonzero(undecided).tolist()
    texts = [(FLOAT_FORMAT % v[i]).encode() + src_bytes[32 * i + _SEP].tobytes()
             for i in undecided]
    width = max(widths.take(key).max(initial=0), max(map(len, texts), default=0))
    idx = layouts[:, :width].take(key, axis=0) + 32 * np.arange(n)[:, None]
    rec = src_bytes.take(idx)
    for i, text in zip(undecided, texts):
        rec[i] = np.frombuffer(text.ljust(width, b"\0"), np.uint8)
    return rec.reshape(shape + (width,))


def write_rows(fh, header: str, rows) -> None:
    """Write the `header` line, then one line of comma-separated values per
    row, to fh, a file opened in binary mode."""
    rows = np.asarray(rows, dtype=np.float64)
    fh.write(header.encode() + b"\n")
    sep = b"," * (rows.shape[1] - 1) + b"\n"
    step = max(1, _KERNEL_VALUES // (rows.shape[1] or 1))
    for start in range(0, rows.shape[0], step):
        records = _float_records(rows[start:start + step], sep)
        fh.write(records.tobytes().translate(None, b"\0"))


# ---------------------------------------------------------------------------
# GridSection import/export.
#
# CSV: header "x,p,re,im,charge", one row per grid point, x-major order; the
# charge column repeats the section's charge (1 or -1) on every row.  Files
# with the earlier header "x,p,re,im" still load; they carry no charge.
# read_grid_csv reads re and im as float64 and x, p and the charge as text
# fields a byte wider than the writer's (_WIDTH, _WIDTH and 3), and parses
# each distinct text once with np.loadtxt's own float conversion: the x text
# of each x-row, the p texts of the first x-row and the charge text.  It
# keeps that result only where it is what parsing every field gives: x-rows
# of one x text each and of one length, the same p texts in every x-row, one
# charge text, and x and p values that rise.  Any other file (a row that is
# not numbers, a text that fills its field, a NUL, texts that differ or do
# not rise) is read again with every field parsed as a float, which loads it
# or reports its fault as before.
# Binary: 16-byte header (magic "BQGS", u16 version, i16 charge, u32 nx,
# u32 np), then x axis, p axis, and interleaved re/im values, all little-
# endian float64, row-major.
# ---------------------------------------------------------------------------

_CSV_HEADER = "x,p,re,im,charge"
_CSV_HEADER_NO_CHARGE = "x,p,re,im"
_CSV_TEXT_ROWS = [("x", f"S{_WIDTH}"), ("p", f"S{_WIDTH}"), ("pair", "f8", (2,)),
                  ("charge", "S3")]


def write_grid_csv(section: GridSection, path) -> None:
    """Write the CSV grid.  The x axis, the p axis and the charge are
    formatted once; each block of x-rows is built from copies of their
    records and the records of its re/im pairs, at most _KERNEL_VALUES / 2
    pairs to a block (a row longer than that is split along p)."""
    nx, np_ = section.nx, section.np_
    x_rec = _float_records(section.x, b",")[:, None]
    p_rec = _float_records(section.p, b",")
    q_rec = _float_records(np.array([float(section.charge)]), b"\n")
    rows = max(1, _KERNEL_VALUES // (2 * np_))
    cols = min(np_, _KERNEL_VALUES // 2)
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER.encode() + b"\n")
        for i in range(0, nx, rows):
            for j in range(0, np_, cols):
                values = np.ascontiguousarray(section.values[i:i + rows, j:j + cols])
                pairs = _float_records(values.view(np.float64).reshape(values.shape + (2,)),
                                       b",,").reshape(values.shape + (-1,))
                parts = (x_rec[i:i + rows], p_rec[j:j + cols], pairs, q_rec)
                block = np.concatenate([np.broadcast_to(r, values.shape + r.shape[-1:])
                                        for r in parts], axis=-1)
                fh.write(block.tobytes().translate(None, b"\0"))


def _has_nul(path) -> bool:
    """True if the file holds a NUL byte, which a text field would drop."""
    with open(path, "rb") as fh:
        return any(b"\0" in block for block in iter(lambda: fh.read(1 << 20), b""))


def _parse_texts(texts: np.ndarray) -> np.ndarray:
    """The float64 value of each text of a bytes array, as np.loadtxt converts
    a field; ValueError if one is not a number."""
    values = np.loadtxt([b",".join(texts.tolist()).decode("latin-1")],
                        delimiter=",", ndmin=1)
    if values.size != texts.size:      # an empty or blank text
        raise ValueError("a text is not a number")
    return values


def _read_csv_texts(fh, ncols: int):
    """(x, p, values, charge or None) of the rows after the header, with x, p
    and the charge read as text and each distinct text parsed once;
    ValueError where the rows are not a grid that the float read would take
    with these texts (see the comment above)."""
    rows = np.loadtxt(fh, delimiter=",", ndmin=1, dtype=_CSV_TEXT_ROWS[:ncols - 1])
    if rows.size == 0 or any((np.char.str_len(rows[name]) == rows.dtype[name].itemsize).any()
                             for name in ("x", "p", "charge")[:ncols - 2]):
        raise ValueError("no rows, or a text that fills its field")
    x_texts, p_texts = rows["x"], rows["p"]
    starts = np.flatnonzero(x_texts[1:] != x_texts[:-1]) + 1   # of the x-rows after the first
    np_ = rows.size // (starts.size + 1)
    if not (np.array_equal(starts, np.arange(np_, rows.size, np_))
            and (p_texts.reshape(-1, np_) == p_texts[:np_]).all()):
        raise ValueError("x-rows of unequal lengths or p texts")
    # rising values are distinct, each from one text: the float read's np.unique
    x, p = _parse_texts(x_texts[::np_]), _parse_texts(p_texts[:np_])
    if not ((x[1:] > x[:-1]).all() and (p[1:] > p[:-1]).all()):
        raise ValueError("axis values that do not rise")
    charge = None
    if ncols == 5:
        q_texts = rows["charge"]
        charge = _parse_texts(q_texts[:1])[0]
        if (q_texts != q_texts[0]).any() or charge not in (1.0, -1.0):
            raise ValueError("charge texts that differ, or a charge not 1 or -1")
        charge = int(charge)
    values = np.ascontiguousarray(rows["pair"]).view(complex).reshape(x.size, p.size)
    return x, p, values, charge


def read_grid_csv(path, charge: Optional[int] = None) -> GridSection:
    """Load a CSV grid.  The charge comes from the file; a `charge` given here
    must agree with it (files without a charge column take `charge`, else +1)."""
    grid = None
    with open(path) as fh:
        try:
            header = fh.readline().strip()
            if header not in (_CSV_HEADER, _CSV_HEADER_NO_CHARGE):
                raise GridFormatError(f"{path}: unrecognised grid CSV header {header!r}")
            ncols = len(header.split(","))
            with warnings.catch_warnings():
                # a file without rows is reported below as a GridFormatError
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # a pipe is read once, as floats
                if fh.seekable() and not _has_nul(path):
                    try:
                        grid = _read_csv_texts(fh, ncols)
                    except ValueError:
                        fh.seek(0)
                        fh.readline()
                if grid is None:
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except GridFormatError:     # the header's, which names the path itself
            raise
        except ValueError as exc:   # UnicodeDecodeError included, also from the header line
            raise GridFormatError(f"{path}: malformed grid CSV: {exc}") from None
    if grid is None:
        grid = _grid_from_floats(data, ncols, path)
    x, p, values, file_charge = grid
    return GridSection(x=x, p=p, values=values,
                       charge=resolve_charge(file_charge, charge, f"{path}: file"))


def _grid_from_floats(data: np.ndarray, ncols: int, path):
    """(x, p, values, charge or None) of rows read as floats, or
    GridFormatError."""
    if data.shape[0] == 0 or data.shape[1] != ncols:
        raise GridFormatError(f"{path}: expected rows of {ncols} columns, "
                              f"got an array of shape {data.shape}")
    file_charge = None
    if ncols == 5:
        q = data[:, 4]
        if not (np.all(q == q[0]) and q[0] in (1.0, -1.0)):
            raise GridFormatError(f"{path}: charge column must hold one value, "
                                  f"1 or -1, on every row")
        file_charge = int(q[0])
    x = np.unique(data[:, 0])
    p = np.unique(data[:, 1])
    if not (np.array_equal(data[:, 0], np.repeat(x, p.size))
            and np.array_equal(data[:, 1], np.tile(p, x.size))):
        raise GridFormatError(f"{path}: rows are not a full grid in x-major order")
    # the re/im pair viewed as complex keeps the sign of a zero imaginary part
    values = np.ascontiguousarray(data[:, 2:4]).view(complex).reshape(x.size, p.size)
    return x, p, values, file_charge


def write_grid_binary(section: GridSection, path) -> None:
    header = struct.pack("<4sHhII", _BINARY_MAGIC, _BINARY_VERSION,
                         section.charge, section.nx, section.np_)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(section.x.astype("<f8").tobytes())
        fh.write(section.p.astype("<f8").tobytes())
        fh.write(section.values.astype("<c16").tobytes())


def read_grid_binary(path, charge: Optional[int] = None) -> GridSection:
    """Load a binary grid; a `charge` given here must agree with the file's."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 16:
        raise GridFormatError(f"{path}: {len(buf)} bytes is shorter than the grid header")
    magic, version, file_charge, nx, np_ = struct.unpack_from("<4sHhII", buf)
    if magic != _BINARY_MAGIC:
        raise GridFormatError(f"{path}: not a bundleqm grid file: bad magic {magic!r}")
    if version != _BINARY_VERSION:
        raise GridFormatError(f"{path}: unsupported grid file version {version}")
    if file_charge not in (1, -1):
        raise GridFormatError(f"{path}: header charge {file_charge} is not 1 or -1")
    size = 16 + 8 * (nx + np_) + 16 * nx * np_
    if len(buf) != size:
        raise GridFormatError(f"{path}: {len(buf)} bytes, but a {nx} x {np_} grid "
                              f"file has {size}")
    axes = np.frombuffer(buf, dtype="<f8", count=nx + np_, offset=16)
    values = np.frombuffer(buf, dtype="<c16", offset=16 + 8 * (nx + np_))
    return GridSection(x=axes[:nx].copy(), p=axes[nx:].copy(),
                       values=values.reshape(nx, np_).copy(),
                       charge=resolve_charge(file_charge, charge, f"{path}: file"))


def save_grid(section: GridSection, path) -> None:
    """Write CSV or binary depending on file extension (.csv vs anything else)."""
    if str(path).lower().endswith(".csv"):
        write_grid_csv(section, path)
    else:
        write_grid_binary(section, path)


def load_grid(path, charge: Optional[int] = None) -> GridSection:
    """Read CSV or binary by extension; see read_grid_csv for `charge`."""
    if str(path).lower().endswith(".csv"):
        return read_grid_csv(path, charge=charge)
    return read_grid_binary(path, charge=charge)
