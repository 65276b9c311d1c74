"""Independent numerical oracles used only by the tests.

The leapfrog integrator cross-checks the exact classical flow; the
Crank-Nicolson stepper cross-checks the diagonal Fock evolution through the
coordinate representation; the remaining helpers provide quadratures that do
not share code with the package implementations.
"""

import warnings

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.special import eval_hermite, factorial

from bundleqm.bundles import GridSection, covariant_derivative, vacuum_connection
from bundleqm.classical import hamiltonian_vector_field, PhasePoint
from bundleqm.errors import GridFormatError
from bundleqm.polarizations import hermite_basis
from bundleqm.sections import diff_axis


def leapfrog(x0, p0, params, t_final, n_steps):
    """Symplectic leapfrog driven by the package's Hamiltonian vector field."""
    dt = t_final / n_steps
    x, p = float(x0), float(p0)
    xs = np.empty(n_steps + 1)
    ps = np.empty(n_steps + 1)
    xs[0], ps[0] = x, p
    for k in range(n_steps):
        p += 0.5 * dt * hamiltonian_vector_field(PhasePoint(x, p), params)[1]
        x += dt * hamiltonian_vector_field(PhasePoint(x, p), params)[0]
        p += 0.5 * dt * hamiltonian_vector_field(PhasePoint(x, p), params)[1]
        xs[k + 1], ps[k + 1] = x, p
    return xs, ps


def crank_nicolson(values, x, params, t_final, n_steps, charge=+1):
    """Evolve a sampled coordinate-rep state under -i q d/dt psi = H psi.

    H = -(1/2m) d^2/dx^2 + (m omega^2 / 2) x^2, Dirichlet ends; the paper
    convention advances particle phases counterclockwise: psi(t) = e^{iqHt}.
    """
    hx = x[1] - x[0]
    n = x.size
    kin = 1.0 / (2.0 * params.m * hx ** 2)
    diag = 2.0 * kin + 0.5 * params.m * params.omega ** 2 * x ** 2
    off = -kin * np.ones(n - 1)
    dt = t_final / n_steps
    z = 0.5j * charge * dt
    # banded forms of (I - z H) and (I + z H)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = -z * off
    ab[1, :] = 1.0 - z * diag
    ab[2, :-1] = -z * off
    psi = values.astype(complex).copy()
    for _ in range(n_steps):
        rhs = (1.0 + z * diag) * psi
        rhs[:-1] += z * off * psi[1:]
        rhs[1:] += z * off * psi[:-1]
        psi = solve_banded((1, 1), ab, rhs)
    return psi


def hermite_function_reference(n, x, w=1.0):
    """h_n by direct polynomial evaluation (independent of the recurrence)."""
    t = np.asarray(x) / w
    norm = (np.pi * w ** 2) ** -0.25 / np.sqrt(2.0 ** n * factorial(n))
    return norm * eval_hermite(n, t) * np.exp(-0.5 * t ** 2)


def gauss_hermite_2d_pairing(m, n, order=40):
    """(1/pi) int conj(z^m) z^n e^{-|z|^2} d^2z / sqrt(m! n!) by 2D quadrature.

    Uses numpy's hermgauss, independent of the package's Golub-Welsch rule.
    """
    t, wts = np.polynomial.hermite.hermgauss(order)
    S, T = np.meshgrid(t, t, indexing="ij")
    W = np.outer(wts, wts)
    z = S + 1j * T
    vals = np.conj(z) ** m * z ** n
    integral = np.sum(W * vals) / np.pi
    return integral / np.sqrt(factorial(m) * factorial(n))


def complex_partials(f, z0, h=1e-6):
    """(d/dz, d/dzbar) of f at z0 by central differences along both axes."""
    da = (f(z0 + h) - f(z0 - h)) / (2 * h)
    db = (f(z0 + 1j * h) - f(z0 - 1j * h)) / (2 * h)
    return 0.5 * (da - 1j * db), 0.5 * (da + 1j * db)


def curve_length_plane(zs):
    """Length of a sampled curve in the metric 2 dz dzbar (composite sums)."""
    return float(np.sum(np.sqrt(2.0) * np.abs(np.diff(zs))))


def curve_length_cone(psis, n):
    """Length of a sampled curve in the cone metric, midpoint rule."""
    mids = 0.5 * (psis[1:] + psis[:-1])
    factor = (2.0 / n ** 2) * np.abs(mids) ** (2.0 * (1.0 - n) / n)
    return float(np.sum(np.sqrt(factor) * np.abs(np.diff(psis))))


def loop_integral_trapezoid(pts):
    """oint dpsi / psi by the trapezoid rule (independent of log ratios)."""
    inv = 1.0 / pts
    mid = 0.5 * (inv[1:] + inv[:-1])
    return complex(np.sum(mid * np.diff(pts)))


def angle_distance(a, b):
    """|a - b| between two angles, the shorter way round the circle."""
    d = abs(a - b) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


def format_rows_reference(header, rows):
    """Text rows as the package once wrote them: one f-string per value."""
    lines = [header] + [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def read_grid_csv_reference(path):
    """A grid CSV as the package once read it: every field parsed as a float
    by np.loadtxt, np.unique of the x and p columns, then the charge and
    x-major checks.  Every fault of the file, the earlier "x,p,re,im" header
    without a charge included, is a GridFormatError, or the section's own
    error."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "x,p,re,im,charge":
                raise GridFormatError(f"header {header!r}")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise GridFormatError(str(exc)) from None
    if data.shape[0] == 0 or data.shape[1] != 5:
        raise GridFormatError(f"shape {data.shape}")
    q = data[:, 4]
    if not (np.all(q == q[0]) and q[0] in (1.0, -1.0)):
        raise GridFormatError("charge")
    charge = int(q[0])
    x, p = np.unique(data[:, 0]), np.unique(data[:, 1])
    if not (np.array_equal(data[:, 0], np.repeat(x, p.size))
            and np.array_equal(data[:, 1], np.tile(p, x.size))):
        raise GridFormatError("not x-major")
    values = np.ascontiguousarray(data[:, 2:4]).view(complex).reshape(x.size, p.size)
    return GridSection(x=x, p=p, values=values, charge=charge)


def pgm_pixels_reference(field2d):
    """write_pgm's pixels as it once scaled them, one new array per step."""
    vmax = float(np.max(field2d))
    scaled = np.zeros_like(field2d) if vmax == 0 else field2d / vmax
    return np.rint(255 * np.clip(scaled, 0.0, 1.0)).astype(np.uint8)


def pgm_p2_reference(pixels):
    """ASCII PGM text as the package once wrote it: one str() per pixel."""
    ny, nx = pixels.shape
    body = "".join(" ".join(str(int(v)) for v in row) + "\n" for row in pixels)
    return f"P2\n{nx} {ny}\n255\n" + body


def laplacian_zzbar_reference(n, params, half_width=3.0, h=1e-2, charge=+1, margin=2):
    """Interior Rayleigh quotient of grad_z grad_zbar + grad_zbar grad_z on
    Psi_n = z^n exp(-z zbar / 2 w^2): the complex form, eight covariant
    derivatives, that laplacian_consistency once applied."""
    w2 = params.w2
    nx = int(round(2 * half_width / h)) + 1

    def psi_n(X, P):
        z = (X - 1j * charge * w2 * P) / np.sqrt(2.0)
        return z ** n * np.exp(-z * np.conj(z) / (2.0 * w2))

    sec = GridSection.from_function(psi_n, (-half_width, half_width),
                                    (-half_width / w2, half_width / w2),
                                    nx, nx, charge=charge)
    conn = vacuum_connection()

    def grad(s, sign):
        dx = covariant_derivative(s, "x", conn).values
        dp = covariant_derivative(s, "p", conn).values
        return s.like((dx + sign * 1j * charge * dp / w2) / np.sqrt(2.0))

    lap = grad(grad(sec, -1), +1).values + grad(grad(sec, +1), -1).values
    sl = (slice(margin, -margin), slice(margin, -margin))
    inner = sec.values[sl]
    return complex(np.sum(np.conj(inner) * lap[sl]) / np.sum(np.abs(inner) ** 2))


def diff_axis_reference(values, h, axis):
    """The package's stencil as it once was: central differences divided by
    2h, one-sided O(h^2) at the two edge cells."""
    f = np.moveaxis(values, axis, 0)
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return np.moveaxis(g, 0, axis)


def trapezoid_weights_reference(coords):
    """The package's trapezoid weights as they once were: the interval widths
    padded with a 0 at either end, summed and halved."""
    dx = np.diff(coords)
    return 0.5 * (np.pad(dx, (1, 0)) + np.pad(dx, (0, 1)))


def first_difference_matrix(n, h):
    """The first-derivative stencil as an explicit sparse n x n matrix: central
    rows (-1, 0, 1)/2h, one-sided O(h^2) first and last rows."""
    d = sparse.lil_array((n, n))
    d.setdiag(-1.0, -1)
    d.setdiag(1.0, 1)
    d[0, :3] = [-3.0, 4.0, -1.0]
    d[-1, -3:] = [1.0, -4.0, 3.0]
    return d.tocsr() / (2.0 * h)


def coordinate_hamiltonian_reference(n_max, params, half_width=10.0, h=5e-3):
    """The coordinate Hamiltonian matrix by parts, built apart from the
    package: b' from the explicit first-difference matrix at steps h and 2h,
    Richardson-combined, and every overlap by one broadcast np.trapezoid over
    an (n, n, points) product.  The basis is the package's."""
    x = np.linspace(-half_width, half_width, int(round(2 * half_width / h)) + 1)
    basis = hermite_basis(n_max, x, params)

    def overlaps(f, g, xs):
        return np.trapezoid(f[:, None, :] * g[None, :, :], xs, axis=2)

    def kinetic(step):
        xs = x[::step]
        db = (first_difference_matrix(xs.size, xs[1] - xs[0]) @ basis[:, ::step].T).T
        return overlaps(db, db, xs)

    potential = 0.5 * params.m * params.omega ** 2 * x ** 2
    kin = (4.0 * kinetic(1) - kinetic(2)) / 3.0
    return kin / (2.0 * params.m) + overlaps(basis, potential * basis, x)


def bargmann_function_reference(coeffs, z):
    """psi(z') = sum c_n z'^n / sqrt(n!) as the package once evaluated it:
    a fresh array for every term, zero coefficients included."""
    z = np.asarray(z, dtype=complex)
    term = np.ones_like(z)
    out = coeffs[0] * term
    for n in range(1, coeffs.size):
        term = term * z / np.sqrt(n)
        out = out + coeffs[n] * term
    return out


def husimi_reference(coeffs, charge, u, v):
    """Husimi Q from bargmann_function_reference, same final expression."""
    U, V = np.meshgrid(np.asarray(u, float), np.asarray(v, float), indexing="ij")
    zp = U + 1j * V
    if charge == -1:
        zp = np.conj(zp)
    amp = bargmann_function_reference(coeffs, zp)
    return np.abs(amp) ** 2 * np.exp(-(U ** 2 + V ** 2)) / np.pi


def husimi_levels_reference(n_max, u, v):
    """The fields Q_n = R_n exp(-r), n = 0..n_max, as the package once
    evaluated them: the recurrence R_0 = 1/pi, R_n = R_(n-1) (1/n) r on every
    cell of the whole grid, with no fold."""
    u = np.ravel(np.asarray(u, float))[:, None]
    v = np.ravel(np.asarray(v, float))[None, :]
    r = u ** 2 + v ** 2
    gauss = np.exp(-r)
    radial = np.full_like(r, 1 / np.pi)
    fields = []
    for n in range(n_max + 1):
        if n:
            radial = radial * (1.0 / n) * r
        fields.append(radial * gauss)
    return fields


def evolve_schrodinger_reference(coeffs, charge, params, dt, frequency_sign=+1):
    """The Fock phases with omega(n + 1/2) written out in the exponent."""
    n = np.arange(len(coeffs))
    return np.exp(1j * frequency_sign * charge * params.omega * (n + 0.5) * dt) * coeffs


# The charge-q complex coordinate and its inverse as each call site once
# wrote them out.

def z_plus_reference(x, p, params):
    """PhasePoint.z_plus."""
    return (x - 1j * params.w2 * p) / np.sqrt(2.0)


def z_minus_reference(x, p, params):
    """PhasePoint.z_minus."""
    return (x + 1j * params.w2 * p) / np.sqrt(2.0)


def z_charge_reference(X, P, charge, params):
    """dolbeault_residual's z_q and laplacian_consistency's psi_n."""
    w2 = params.w2
    return (X - 1j * charge * w2 * P) / np.sqrt(2.0)


# The grid kernels as the package once evaluated them: every callable on the
# full coordinate meshes np.meshgrid(x, p, indexing="ij"), not on the
# broadcast column x[:, None] and row p[None, :].

def from_function_reference(f, x_range, p_range, nx, np_):
    """GridSection.from_function's values."""
    X, P = np.meshgrid(np.linspace(x_range[0], x_range[1], nx),
                       np.linspace(p_range[0], p_range[1], np_), indexing="ij")
    return np.asarray(f(X, P), dtype=complex)


def covariant_derivative_reference(sec, direction, conn):
    """covariant_derivative(sec, direction, conn).values."""
    X, P = np.meshgrid(sec.x, sec.p, indexing="ij")
    if direction == "x":
        deriv = diff_axis(sec.values, sec.hx, axis=0)
        a = conn.a_x(X, P)
    else:
        deriv = diff_axis(sec.values, sec.hp, axis=1)
        a = conn.a_p(X, P)
    return deriv + 1j * sec.charge * a * sec.values


def dolbeault_residual_reference(sec, params):
    """dolbeault_residual(sec, params).values."""
    q, w2 = sec.charge, params.w2
    X, P = np.meshgrid(sec.x, sec.p, indexing="ij")
    z_q = z_charge_reference(X, P, q, params)
    dx = diff_axis(sec.values, sec.hx, axis=0)
    dp = diff_axis(sec.values, sec.hp, axis=1)
    dzbar = (dx - 1j * q * dp / w2) / np.sqrt(2.0)
    return dzbar + z_q / (2.0 * w2) * sec.values


def from_z_plus_reference(z, params):
    """PhasePoint.from_z_plus."""
    return np.sqrt(2.0) * z.real, -np.sqrt(2.0) * z.imag / params.w2


def trajectory_xp_reference(zs, charge, params):
    """The x and p columns of the simulate command's trajectory.csv."""
    return np.sqrt(2.0) * zs.real, -charge * np.sqrt(2.0) * zs.imag / params.w2


def gauss_hermite_nodes_reference(order):
    """Golub-Welsch nodes from scipy's tridiagonal eigensolver, symmetrized."""
    nodes = eigh_tridiagonal(np.zeros(order), np.sqrt(np.arange(1, order) / 2.0),
                             eigvals_only=True)
    return 0.5 * (nodes - nodes[::-1])


# The three loop builders' points as each builder once wrote them out.

def loop_reference(shape, center, size, samples):
    """circle_loop(center, size, samples), ellipse_loop(center, *size, samples)
    or square_loop(center, size, samples)."""
    if shape == "square":
        corners = size * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
        u = np.linspace(0.0, 4.0, samples + 1)
        k = np.minimum(u.astype(int), 3)
        f = u - k
        return center + corners[k] * (1 - f) + corners[k + 1] * f
    t = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    if shape == "circle":
        return center + size * np.exp(1j * t)
    rx, ry = size
    return center + rx * np.cos(t) + 1j * ry * np.sin(t)
