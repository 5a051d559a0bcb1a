"""Test-side oracles shared by several test modules."""

import numpy as np
import scipy.linalg

from bscount.linop import SymOperator, spectral_decompose, sym
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
