"""Test-side oracles shared by several test modules."""

import numpy as np
import scipy.linalg

from bscount import efimov
from bscount.bsengine import ThresholdCollisionError
from bscount.linop import SymOperator, checked_eigenvalues, count_evs, spectral_decompose, sym
from bscount.radial import RadialGrid, _banded_hamiltonian, _green_swave


def op_function(a, f):
    """Scalar functional calculus: apply ``f`` to the spectrum of ``a``.

    Computes ``V diag(f(lam)) V^T`` from the checked spectral decomposition.
    ``f`` must be finite at every eigenvalue; otherwise a ValueError names
    the offending eigenvalue.
    """
    a = sym(a)
    eigenvalues, v = spectral_decompose(a)
    values = np.empty(a.dim)
    with np.errstate(all="ignore"):
        for i, lam in enumerate(eigenvalues):
            try:
                y = float(f(lam))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise ValueError(
                    f"function undefined at eigenvalue {lam!r}: {exc}"
                ) from exc
            if not np.isfinite(y):
                raise ValueError(
                    f"function value {y!r} at eigenvalue {lam!r} is not finite"
                )
            values[i] = y
    return SymOperator((v * values) @ v.T)


def green_kernel(eps: float, grid: RadialGrid) -> SymOperator:
    """Weight-symmetrized matrix of the reduced free Green function.

    For ell = 0 the semi-infinite closed form is evaluated on the nodes and
    multiplied by sqrt(w_i w_j), so the matrix represents (kinetic + eps)^-1
    in the weight-normalized basis.  For ell > 0 on the uniform scheme the
    discretized kinetic-plus-centrifugal operator plus eps is inverted
    directly (a banded solve).
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if grid.ell == 0:
        root_w = np.sqrt(grid.weights)
        g = _green_swave(eps, grid.nodes)
        return SymOperator(root_w[:, None] * g * root_w[None, :])
    if grid.scheme != "uniform_fd2":
        raise ValueError(
            "ell > 0 kernels are computed by inverting the discretized operator, "
            "which needs the uniform_fd2 scheme")
    inv = scipy.linalg.solveh_banded(_banded_hamiltonian(grid, 0.0, eps),
                                     np.eye(grid.n))
    return SymOperator(0.5 * (inv + inv.T))


def stebz_binds(diag, off) -> bool:
    """The binding test ``find_critical_coupling_radial`` bisected against
    before its O(n) factorization: is the lowest eigenvalue of the
    tridiagonal matrix, selected by LAPACK ``stebz``, below 0?"""
    lowest = scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                               lapack_driver="stebz")[0]
    return bool(lowest < 0.0)


def full_three_boson_kernel(model, energy: float) -> SymOperator:
    """``efimov.three_boson_kernel`` evaluated on the whole ``n x n`` grid.

    ``J`` comes from ``efimov._angular_integral`` on the outer-product terms
    of every ``(s_i, q_j)``, so ``J(i, j)`` and ``J(j, i)`` are computed
    separately and ``SymOperator`` averages the two; the library evaluates
    the upper triangle only and mirrors it.
    """
    a11, a12 = -0.5, np.sqrt(3.0) / 2.0  # the equal-mass Jacobi rotation
    p, w = model.momentum_grid()
    s, q = p[:, None], p[None, :]
    b = (-2.0 * a11) * np.outer(p, p)
    beta2 = a12**2 * model.beta**2
    m1 = (q + a11 * s) ** 2 + beta2
    m2 = (s + a11 * q) ** 2 + beta2
    m3 = (s**2 + q**2) - b
    terms = efimov._AngleTerms(b, m1, m2, m3, efimov._first_difference(m1, m2, b))
    d = 1.0 - model.lam * efimov.two_body_loop(np.sqrt(p**2 - energy), model.beta)
    prefactor = np.sqrt(w * p**2 / d)
    j = efimov._angular_integral(terms, -a12**2 * energy)
    return SymOperator(4.0 * np.pi * model.lam * a12**3
                       * (prefactor[:, None] * j * prefactor[None, :]))


def ladder_spectrum(model, e_floor: float) -> list[float]:
    """Trimer energies of ``efimov.trimer_spectrum`` by the route it replaced.

    Scans ``|E|`` down from ``|e_floor|`` on a quarter-decade ladder to the
    same ``e_stop``; a rise in the count of kernel eigenvalues at or above 1
    between two ladder points brackets a level, which ``efimov._crossing``
    refines on that bracket alone.  Returns the energies ascending.
    """
    parts = efimov._kernel_parts(model)
    e_stop = max((10.0 * parts.p[0]) ** 2, abs(e_floor) * 1e-18,
                 abs(efimov.dimer_energy(model)) * 1.01)
    ratio = 10.0 ** (1.0 / 4)
    energies = []
    abs_hi = abs(e_floor)
    ev_hi = efimov._kernel_eigenvalues(parts, e_floor)
    assert not np.any(ev_hi >= 1.0), "levels exist below e_floor"
    count_hi = 0
    while abs_hi > e_stop * (1.0 + 1e-9):
        abs_lo = max(abs_hi / ratio, e_stop)
        ev_lo = efimov._kernel_eigenvalues(parts, -abs_lo)
        count_lo = int(np.sum(ev_lo >= 1.0))
        for level in range(count_hi, count_lo):
            energies.append(efimov._crossing(parts, level, (np.log(abs_lo), ev_lo),
                                             (np.log(abs_hi), ev_hi)))
        count_hi, abs_hi, ev_hi = count_lo, abs_lo, ev_lo
    return sorted(energies)


def random_problem_oracle(dim: int, rng, *, singular_a=False, indefinite_b=False):
    """``bsengine.random_problem`` one problem at a time, by the route its
    stacks replaced: the same draws in the same order, each operator checked
    by ``SymOperator``.  Returns ``(a, b, eps)`` with ``eps`` jittered."""
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    d = rng.uniform(0.0, 5.0, size=dim)
    if singular_a:
        d[0] = 0.0
    a = SymOperator((q.T * d) @ q)
    g = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    b_mat = -(g.T @ g)
    if indefinite_b:
        w = rng.standard_normal((dim, dim))
        b_mat = b_mat + 0.3 * 0.5 * (w + w.T) / np.sqrt(dim)
    b = SymOperator(b_mat)
    return a, b, jittered_oracle(a, b, float(rng.uniform(0.05, 1.0)))


def jittered_oracle(a, b, eps: float) -> float:
    """``eps`` multiplied by 1 + 1e-6 while it collides with the spectrum of
    ``A + B`` within the guard band, at most 64 times."""
    lam, eta = checked_eigenvalues(a.entries + b.entries)
    for _ in range(64):
        if np.min(np.abs(lam + eps)) >= eta:
            break
        eps *= 1.0 + 1e-6
    return eps


def bs_kernel_oracle(a, b, eps: float) -> SymOperator:
    """``K(eps)`` of one problem from the checked ``eigh`` of ``A``, after
    its positivity check."""
    lam, v = spectral_decompose(a)
    assert lam[0] >= -1e-10 * (1.0 + np.linalg.norm(a.entries)), "A is not PSD"
    s = (v * (lam + eps) ** -0.5) @ v.T
    return SymOperator(-s @ b.entries @ s)


def counts_oracle(a, b, eps: float) -> tuple[int, int]:
    """``(count_direct, count_bs)`` of one problem by the per-problem route:
    checked eigenvalues of ``A + B`` against ``-eps``, ``count_evs`` of
    ``K(eps)`` against 1."""
    lam, eta = checked_eigenvalues(a.entries + b.entries)
    if np.min(np.abs(lam + eps)) < eta:
        raise ThresholdCollisionError("an eigenvalue of A+B lies on -eps")
    return (int(np.count_nonzero(lam < -eps - eta)),
            count_evs(bs_kernel_oracle(a, b, eps), ">", 1.0))


def mu_max_oracle(a, b, eps: float) -> float:
    """Largest checked eigenvalue of ``K(eps)`` of one problem."""
    return float(checked_eigenvalues(bs_kernel_oracle(a, b, eps))[0][-1])
