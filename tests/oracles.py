"""Test-side oracles shared by several test modules."""

import numpy as np

from bscount.linop import SymOperator, spectral_decompose, sym


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
