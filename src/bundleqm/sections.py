"""Sampled section containers shared by the bundle and polarization layers,
the one first-derivative stencil (diff_axis) that acts on them, and the one
set of trapezoid weights (trapezoid_weights) that integrates them.

A quantum state lives here in one of three sampled forms: a 2D complex grid
over phase space (GridSection), a 1D complex line in x or p (LineSection),
or a particle/antiparticle pair of components (DoubledSection).  All carry
the quantum charge q_v as a plain validated integer, +1 for particles and
-1 for antiparticles.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ChargeMismatchError, GridFormatError, GridTooSmallError,
                     InvalidArgumentError, InvalidChargeError, NonFiniteError,
                     WrongPolarizationError)

_BINARY_MAGIC = b"BQGS"
_BINARY_VERSION = 1


def _is_unit_int(value) -> bool:
    """True for the integers +1 and -1 (a bool or a float is neither)."""
    return (not isinstance(value, bool) and isinstance(value, (int, np.integer))
            and value in (+1, -1))


def check_charge(charge: int) -> int:
    """Validate a quantum charge; bundle operations admit only the integers
    +1 and -1 (a bool or a float is not a charge)."""
    if not _is_unit_int(charge):
        raise InvalidChargeError(f"quantum charge must be the integer +1 or -1, "
                                 f"got {charge!r}")
    return int(charge)


def check_sign(sign: int, name: str) -> None:
    """Validate an orientation sign (a frequency or complex-structure sign):
    the integer +1 or -1, else InvalidArgumentError."""
    if not _is_unit_int(sign):
        raise InvalidArgumentError(f"{name} must be the integer +1 or -1, got {sign!r}")


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise NonFiniteError if a real or imaginary part of a complex (or float)
    array is NaN or inf."""
    if not np.isfinite(np.ascontiguousarray(values).view(float)).all():
        raise NonFiniteError(f"{what} must be finite")


def diff_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central differences, one-sided O(h^2) at the two edge cells.

    Complex differences are multiplied by 1/(2h): numpy divides a complex
    array by a real scalar as the product with that reciprocal, so only the
    sign of an exact zero can differ from the quotient.  Real differences are
    divided by 2h, since there x/s and x*(1/s) can differ in the last bit.
    """
    if values.shape[axis] < 3:
        raise GridTooSmallError("need at least 3 samples along the derivative axis")
    f = np.moveaxis(values, axis, 0)
    g = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=g[1:-1])
    g[0] = -3.0 * f[0] + 4.0 * f[1] - f[2]
    g[-1] = 3.0 * f[-1] - 4.0 * f[-2] + f[-3]
    if g.dtype == np.complex128:
        g *= 1.0 / (2.0 * h)
    else:
        g /= 2.0 * h
    return np.moveaxis(g, 0, axis)


def trapezoid_weights(coords: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights at the sample points coords: each interval's own
    width, halved, goes to each of its two ends, so wt @ f is np.trapezoid(f,
    coords) written as a dot product."""
    dx = np.diff(coords)
    return 0.5 * (np.pad(dx, (1, 0)) + np.pad(dx, (0, 1)))


def _uniform_spacing(axis: np.ndarray, name: str) -> float:
    if axis.ndim != 1 or axis.size < 3:
        raise GridTooSmallError(f"{name} axis needs at least 3 samples, got {axis.size}")
    check_finite(axis, f"{name} axis")
    h = axis[1:] - axis[:-1]
    h0 = h[0]
    # every spacing within 1e-10 of the first, relative: np.allclose's test
    if not (h0 > 0 and np.abs(h - h0).max() <= 1e-10 * h0):
        raise GridFormatError(f"{name} axis must be uniform with positive spacing")
    return float(h0)


@dataclass
class GridSection:
    """Complex amplitudes sampled on a uniform (x, p) grid.

    values[i, j] is the amplitude at (x[i], p[j]).
    """

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray
    charge: int = +1

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        self.hx = _uniform_spacing(self.x, "x")
        self.hp = _uniform_spacing(self.p, "p")
        if self.values.shape != (self.x.size, self.p.size):
            raise GridFormatError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.x.size}, {self.p.size})"
            )
        check_finite(self.values, "section values")
        self.charge = check_charge(self.charge)

    @property
    def nx(self) -> int:
        return self.x.size

    @property
    def np_(self) -> int:
        return self.p.size

    @classmethod
    def from_function(cls, f, x_range, p_range, nx: int, np_: int, charge: int = +1):
        """Sample f on a uniform grid.  f receives the column x[:, None] and the
        row p[None, :] and must broadcast; its result is broadcast to (nx, np_)."""
        x = np.linspace(x_range[0], x_range[1], nx)
        p = np.linspace(p_range[0], p_range[1], np_)
        values = np.asarray(f(x[:, None], p[None, :]), dtype=complex)
        if values.shape != (nx, np_):
            try:
                values = np.broadcast_to(values, (nx, np_)).copy()
            except ValueError:
                raise GridFormatError(f"f returned shape {values.shape}, which does "
                                      f"not broadcast to the grid ({nx}, {np_})") from None
        return cls(x=x, p=p, values=values, charge=charge)

    def like(self, values: np.ndarray) -> "GridSection":
        """Same grid and charge, new values."""
        return GridSection(x=self.x, p=self.p, values=values, charge=self.charge)


@dataclass
class LineSection:
    """Complex amplitudes sampled on a uniform 1D grid in x or p."""

    axis: str  # "x" (coordinate representation) or "p" (momentum representation)
    coords: np.ndarray
    values: np.ndarray
    charge: int = +1

    def __post_init__(self):
        if self.axis not in ("x", "p"):
            raise InvalidArgumentError(f"axis must be 'x' or 'p', got {self.axis!r}")
        self.coords = np.asarray(self.coords, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        self.h = _uniform_spacing(self.coords, self.axis)
        if self.values.shape != self.coords.shape:
            raise GridFormatError("values and coords must have the same length")
        check_finite(self.values, "section values")
        self.charge = check_charge(self.charge)

    @classmethod
    def from_function(cls, f, axis: str, lo: float, hi: float, n: int, charge: int = +1):
        coords = np.linspace(lo, hi, n)
        return cls(axis=axis, coords=coords, values=np.asarray(f(coords), dtype=complex),
                   charge=charge)

    def like(self, values: np.ndarray) -> "LineSection":
        return LineSection(axis=self.axis, coords=self.coords, values=values,
                           charge=self.charge)

    def norm_sq(self) -> float:
        """Continuum norm squared by trapezoid."""
        return float(np.trapezoid(np.abs(self.values) ** 2, self.coords))


def require_axis(sec: LineSection, axis: str) -> None:
    """Raise WrongPolarizationError unless sec is polarized along axis."""
    if sec.axis != axis:
        raise WrongPolarizationError(
            f"section is polarized along {sec.axis!r}; this representation needs {axis!r}")


# Fiber basis: v_pm = (1, -/+ i)/sqrt(2), eigenvectors of J = [[0,-1],[1,0]],
# taken orthonormal (v+^dag v+ = 1, v+^dag v- = 0).
V_PLUS = np.array([1.0, -1.0j]) / np.sqrt(2.0)
V_MINUS = np.array([1.0, +1.0j]) / np.sqrt(2.0)


@dataclass
class DoubledSection:
    """Coordinates of a C^2 = L+ (+) L- section along the v_pm fiber basis.

    Components may be scalars or arrays of matching shape.  psi_minus is not
    in general the conjugate of psi_plus: the two charges carry independent
    amplitudes.
    """

    psi_plus: np.ndarray
    psi_minus: np.ndarray

    def __post_init__(self):
        self.psi_plus = np.asarray(self.psi_plus, dtype=complex)
        self.psi_minus = np.asarray(self.psi_minus, dtype=complex)
        if self.psi_plus.shape != self.psi_minus.shape:
            raise GridFormatError("component shapes differ")

    def rotate_fiber(self, theta: float) -> "DoubledSection":
        """U(1)_v action: psi_pm -> exp(+/- i theta) psi_pm."""
        return DoubledSection(np.exp(1j * theta) * self.psi_plus,
                              np.exp(-1j * theta) * self.psi_minus)

    def norm_sq(self):
        """Pointwise |Psi|^2; cross terms vanish by orthonormality of v_pm."""
        return np.abs(self.psi_plus) ** 2 + np.abs(self.psi_minus) ** 2

    def is_diagonal(self) -> bool:
        """Neutral (q_v = 0) sections lie on the diagonal psi_plus = psi_minus (to 1e-12)."""
        scale = max(np.max(np.abs(self.psi_plus)), np.max(np.abs(self.psi_minus)), 1.0)
        return bool(np.max(np.abs(self.psi_plus - self.psi_minus)) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# Text rows.
#
# Every float in a text artifact is written with 17 significant digits, which
# round-trips any float64 exactly.  Rows are formatted ROW_CHUNK at a time with
# one `%` operation per block, which keeps the transient text to a few MB.
# ---------------------------------------------------------------------------

FLOAT_FORMAT = "%.17g"
ROW_CHUNK = 4096


def write_rows(fh, header: str, rows: np.ndarray, field: str = FLOAT_FORMAT,
               sep: str = ",") -> None:
    """Write `header` and a newline, then each row of the 2D `rows` as
    `field`-formatted values joined by `sep`, one line per row."""
    fh.write(header + "\n")
    row_fmt = sep.join([field] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], ROW_CHUNK):
        block = rows[start:start + ROW_CHUNK]
        fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# GridSection import/export.
#
# CSV: header "x,p,re,im,charge", one row per grid point, x-major order; the
# charge column repeats the section's charge (1 or -1) on every row.  Files
# with the earlier header "x,p,re,im" still load; they carry no charge.
# Binary: 16-byte header (magic "BQGS", u16 version, i16 charge, u32 nx,
# u32 np), then x axis, p axis, and interleaved re/im values, all little-
# endian float64, row-major.
# ---------------------------------------------------------------------------

_CSV_HEADER = "x,p,re,im,charge"
_CSV_HEADER_NO_CHARGE = "x,p,re,im"


def _resolve_charge(file_charge, charge, path) -> int:
    """The charge of a loaded grid: the file's (None when it holds none),
    which a `charge` given by the caller must agree with."""
    if charge is None:
        return +1 if file_charge is None else file_charge
    charge = check_charge(charge)
    if file_charge is not None and charge != file_charge:
        raise ChargeMismatchError(
            f"{path}: file holds charge {file_charge:+d}, caller expected {charge:+d}")
    return charge


def write_grid_csv(section: GridSection, path) -> None:
    nx, np_ = section.nx, section.np_
    rows = np.empty((nx * np_, 5))
    rows[:, 0] = np.repeat(section.x, np_)
    rows[:, 1] = np.tile(section.p, nx)
    rows[:, 2] = section.values.real.ravel()
    rows[:, 3] = section.values.imag.ravel()
    rows[:, 4] = section.charge
    with open(path, "w") as fh:
        write_rows(fh, _CSV_HEADER, rows)


def read_grid_csv(path, charge: Optional[int] = None) -> GridSection:
    """Load a CSV grid.  The charge comes from the file; a `charge` given here
    must agree with it (files without a charge column take `charge`, else +1)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header not in (_CSV_HEADER, _CSV_HEADER_NO_CHARGE):
            raise GridFormatError(f"{path}: unrecognised grid CSV header {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise GridFormatError(f"{path}: malformed grid CSV rows: {exc}") from None
    ncols = len(header.split(","))
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
    values = (data[:, 2] + 1j * data[:, 3]).reshape(x.size, p.size)
    return GridSection(x=x, p=p, values=values,
                       charge=_resolve_charge(file_charge, charge, path))


def write_grid_binary(section: GridSection, path) -> None:
    header = struct.pack("<4sHhII", _BINARY_MAGIC, _BINARY_VERSION,
                         section.charge, section.nx, section.np_)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(section.x.astype("<f8").tobytes())
        fh.write(section.p.astype("<f8").tobytes())
        interleaved = np.empty((section.nx, section.np_, 2))
        interleaved[..., 0] = section.values.real
        interleaved[..., 1] = section.values.imag
        fh.write(interleaved.astype("<f8").tobytes())


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
    body = np.frombuffer(buf, dtype="<f8", offset=16)
    x, p = body[:nx], body[nx:nx + np_]
    raw = body[nx + np_:].reshape(nx, np_, 2)
    return GridSection(x=x.copy(), p=p.copy(), values=raw[..., 0] + 1j * raw[..., 1],
                       charge=_resolve_charge(file_charge, charge, path))


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
