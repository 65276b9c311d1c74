"""Independent numerical oracles used only by the tests.

The leapfrog integrator cross-checks the exact classical flow; the
Crank-Nicolson stepper cross-checks the diagonal Fock evolution through the
coordinate representation; the remaining helpers provide quadratures that do
not share code with the package implementations.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.special import eval_hermite, factorial

from bundleqm.bundles import GridSection, covariant_derivative, vacuum_connection
from bundleqm.classical import hamiltonian_vector_field, PhasePoint
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


def format_rows_reference(header, rows):
    """Text rows as the package once wrote them: one f-string per value."""
    lines = [header] + [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


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


def coordinate_hamiltonian_reference(n_max, params, half_width=10.0, h=2.5e-4):
    """The coordinate Hamiltonian matrix as the package once built it: the
    overlaps by one broadcast np.trapezoid over an (n, n, points) product.
    The basis is the package's, so only the overlap step is compared."""
    n_pts = int(round(2 * half_width / h)) + 1
    x = np.linspace(-half_width, half_width, n_pts)
    hx = x[1] - x[0]
    basis = hermite_basis(n_max, x, params)
    d2 = np.empty_like(basis)
    d2[:, 1:-1] = (basis[:, 2:] - 2 * basis[:, 1:-1] + basis[:, :-2]) / hx ** 2
    d2[:, 0] = d2[:, 1]
    d2[:, -1] = d2[:, -2]
    hb = -d2 / (2.0 * params.m) + 0.5 * params.m * params.omega ** 2 * x ** 2 * basis
    mat = np.trapezoid(basis[:, None, :] * hb[None, :, :], x, axis=2)
    return 0.5 * (mat + mat.T)


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
