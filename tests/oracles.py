"""Independent numerical oracles used only by the tests.

The leapfrog integrator cross-checks the exact classical flow; the
Crank-Nicolson stepper cross-checks the diagonal Fock evolution through the
coordinate representation; the remaining helpers provide quadratures that do
not share code with the package implementations.
"""

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import eval_hermite, factorial

from bundleqm.classical import hamiltonian_vector_field, PhasePoint


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
