"""Independent oracles used by the tests.

Nothing here reuses the package's solution paths: the Dirichlet oracle is a
finite-difference matrix eigenproblem, the Harper oracle a dense momentum-grid
diagonalization, the torus the dense real-space matrix, the free and step
edge bases closed trigonometric forms, and the linear-potential basis a closed
Airy-function form.  The fiber stack and the longdouble Chambers fit have
exact references: the fiber built one entry at a time, and its determinant
by dense LU with partial pivoting, the arithmetic the package's kernels must
reproduce bit for bit.
"""

import numpy as np


def fd_dirichlet(vfunc, l, n_interior, k_count):
    """Finite-difference Dirichlet eigenvalues on [0, l], V sampled at the
    nodes: second order for smooth V, first order at a jump between nodes."""
    # imported here: bench/oracles.py loads this module, and scipy.linalg
    # would add about 28 MB and 0.35 s to every benchmark process
    from scipy.linalg import eigh_tridiagonal

    h = l / (n_interior + 1)
    t = np.linspace(h, l - h, n_interior)
    diag = 2.0 / h**2 + vfunc(t)
    off = -np.ones(n_interior - 1) / h**2
    return eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, k_count - 1))[0]


def free_basis(z, l=np.pi):
    """(u1, u1', u2, u2') at t=l for V = 0, closed form."""
    if z > 0:
        w = np.sqrt(z)
        return np.sin(w * l) / w, np.cos(w * l), np.cos(w * l), -w * np.sin(w * l)
    if z == 0:
        return l, 1.0, 1.0, 0.0
    w = np.sqrt(-z)
    return np.sinh(w * l) / w, np.cosh(w * l), np.cosh(w * l), w * np.sinh(w * l)


def step_basis(z, height=10.0, l=np.pi):
    """(u1, u1', u2, u2') at t=l for V = 0 on [0, l/2), V = height on [l/2, l],
    closed form: the product of the two segments' transfer matrices."""
    def transfer(k2, d):
        if k2 > 0:
            w = np.sqrt(k2)
            return np.array([[np.cos(w * d), np.sin(w * d) / w],
                             [-w * np.sin(w * d), np.cos(w * d)]])
        if k2 == 0:
            return np.array([[1.0, d], [0.0, 1.0]])
        w = np.sqrt(-k2)
        return np.array([[np.cosh(w * d), np.sinh(w * d) / w],
                         [w * np.sinh(w * d), np.cosh(w * d)]])

    # columns: (u, u') of u2 (starts at (1, 0)) and of u1 (starts at (0, 1))
    m = transfer(z - height, l / 2) @ transfer(z, l / 2)
    return m[0, 1], m[1, 1], m[0, 0], m[1, 0]


def linear_basis(z, l=np.pi):
    """(u1, u1', u2, u2') at t=l for V(t) = t, closed form.

    -u'' + (t - z) u = 0 is Airy's equation in x = t - z; with x0 = -z and
    the Wronskian W(Ai, Bi) = 1/pi the canonical pair is
    u1 = pi [Ai(x0) Bi(x) - Bi(x0) Ai(x)], u2 = pi [Bi'(x0) Ai(x) - Ai'(x0) Bi(x)].
    """
    # imported here: bench/oracles.py loads this module, and scipy.special
    # would add ~4 MB to the benchmark's peak RSS
    from scipy.special import airy

    ai0, aip0, bi0, bip0 = airy(-z)
    ai, aip, bi, bip = airy(l - z)
    return (np.pi * (ai0 * bi - bi0 * ai), np.pi * (ai0 * bip - bi0 * aip),
            np.pi * (bip0 * ai - aip0 * bi), np.pi * (bip0 * aip - aip0 * bip))


def free_eta(z, alpha=0.0, beta=1.0, l=np.pi):
    u1, du1, u2, _ = free_basis(z, l)
    return (1.0 + beta**2) * (du1 + u2) + alpha * u1


def dense_fiber(p, q, beta, k1, k2):
    """Bloch fiber built independently of the package (same convention)."""
    h = np.zeros((q, q), dtype=complex)
    e = np.exp(1j * k1)
    for j in range(q):
        h[j, j] += 2.0 * beta**2 * np.cos(2.0 * np.pi * p * j / q + k2)
        h[j, (j + 1) % q] += e
        h[(j + 1) % q, j] += e.conjugate()
    return h


def ordered_fiber(p, q, beta, k1, k2, real=np.longdouble):
    """The Bloch fiber in the complex type of `real`, each entry summed in the
    order of the package's fiber (diagonal first, then each hop), so that for
    q <= 2 the hops that land on one entry add up the same way."""
    two_pi = 2.0 * np.arccos(real(-1.0))
    h = np.zeros((q, q), dtype=np.result_type(real, np.complex64))
    diag_amp = real(2.0) * real(beta) ** 2
    e = np.exp(1j * real(k1))
    for j in range(q):
        h[j, j] += diag_amp * np.cos(two_pi * real((p * j) % q) / real(q) + real(k2))
        h[j, (j + 1) % q] += e
        h[(j + 1) % q, j] += e.conjugate()
    return h


def dense_det_ld(a):
    """Determinant by dense LU with partial pivoting (first row of largest
    modulus) in complex longdouble; 0 at the first zero pivot."""
    a = np.array(a, dtype=np.clongdouble)
    n = a.shape[0]
    det = np.clongdouble(1.0)
    for col in range(n - 1):
        piv = int(np.argmax(np.abs(a[col:, col]))) + col
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            det = -det
        d = a[col, col]
        if d == 0:
            return np.clongdouble(0.0)
        det = det * d
        a[col + 1:, col + 1:] -= np.outer(a[col + 1:, col] / d, a[col, col + 1:])
    return det * a[n - 1, n - 1]


def dense_kgrid_bands(p, q, beta, nk=200):
    """Per-band (min, max) over an nk x nk momentum grid."""
    ks = np.linspace(0.0, 2.0 * np.pi, nk, endpoint=False)
    energies = np.empty((nk, nk, q))
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            energies[i, j] = np.linalg.eigvalsh(dense_fiber(p, q, beta, k1, k2))
    return [(energies[:, :, b].min(), energies[:, :, b].max()) for b in range(q)]


def landau_torus(p, q, beta, n):
    """Torus eigenvalues from the real-space N^2 x N^2 Landau-gauge matrix:
    hops along m free, hops along n carry e^{-+2 pi i m theta}; wrap-consistent
    when q divides n."""
    dim = n * n
    h = np.zeros((dim, dim), dtype=complex)
    idx = lambda m, nn: (m % n) * n + (nn % n)
    for m in range(n):
        phase = np.exp(-2j * np.pi * ((p * m) % q) / q)
        for nn in range(n):
            i = idx(m, nn)
            h[i, idx(m + 1, nn)] += 1.0
            h[i, idx(m - 1, nn)] += 1.0
            h[i, idx(m, nn + 1)] += beta**2 * phase
            h[i, idx(m, nn - 1)] += beta**2 * phase.conjugate()
    return np.sort(np.linalg.eigvalsh(h))


def symmetric_gauge_torus(p, q, beta, n):
    """Torus eigenvalues with the symmetric-gauge phases e^{+-i pi n theta} /
    e^{-+i pi m theta}; only wrap-consistent when n * p / q is even."""
    assert (n * p) % (2 * q) == 0, "symmetric gauge inconsistent on this torus"
    theta = p / q
    dim = n * n
    h = np.zeros((dim, dim), dtype=complex)
    idx = lambda m, nn: (m % n) * n + (nn % n)
    for m in range(n):
        for nn in range(n):
            i = idx(m, nn)
            h[i, idx(m + 1, nn)] += np.exp(1j * np.pi * nn * theta)
            h[i, idx(m - 1, nn)] += np.exp(-1j * np.pi * nn * theta)
            h[i, idx(m, nn + 1)] += beta**2 * np.exp(-1j * np.pi * m * theta)
            h[i, idx(m, nn - 1)] += beta**2 * np.exp(1j * np.pi * m * theta)
    return np.sort(np.linalg.eigvalsh(h))


def merged_intervals(pairs, eps=1e-9):
    """Union of closed intervals, touching within eps merged."""
    out = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1] + eps:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(a, b) for a, b in out]
