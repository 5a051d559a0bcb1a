"""Dense self-adjoint operator algebra on a finite-dimensional state space.

Everything downstream (counting identities, projection subtraction, radial
kernels) is built from the primitives here: spectral decomposition, checked
eigenvalues, guarded eigenvalue counting, Hilbert-Schmidt norms, and rank-one
projections.  All values are immutable after construction and every operation
is a pure function.

``SymOperator`` is the boundary type: it checks its entries once, when it
is built, by ``_symmetrized``, the one check for a matrix or a stack.  The
Frobenius norm must be finite: it vouches for finite entries, and every
count's guard band is made from it, so finite entries whose norm overflows
are rejected too.  Checked eigenvalues and decompositions check the norm
again, by the same ``_finite_fro``, before their solver runs, and the
Sturm count checks ``|T|_F``, so an unchecked ``_built`` operator or a
stack whose norm is not finite raises ValueError too.  Entries symmetric
within ``SYMMETRY_RTOL`` are averaged with their transpose, and entries
symmetric bit for bit are stored as a copy, without the averaging that
would return the same bits.  Library code that forms a matrix it knows to be exactly symmetric passes the ndarray on
without wrapping it again: bsengine's sums of two operators' entries,
radial's symmetrized support block and efimov's trimer kernel, mirrored
from its upper triangle.  Builders that return an operator of such a fresh
array, radial's reduced Hamiltonian and Birman-Schwinger kernel and
efimov's ``three_boson_kernel``, hand it to the private
``SymOperator._built``, which freezes it in place with no copy and no
check, and records what the builder knows: the diagonals of the
tridiagonal Hamiltonian, the support outside which the kernel vanishes.

linop runs every eigensolve in the package: no other module calls LAPACK
for eigenvalues.  The solver choice, the count guard band
``1e-10 (1 + |A|_F)``, the checks and the conversion of a LAPACK failure
into RuntimeError live here.

``count_evs`` and ``checked_eigenvalues`` take the route of the structure
a builder recorded; a matrix with none recorded, or a stack, is solved
dense, whatever zeros its entries hold.  A tridiagonal count is a Sturm
count: LAPACK ``stebz`` counts the eigenvalues in the guarded range in
O(n) and computes none, so the trace and Frobenius checks have no spectrum
to test.  The Sturm count is exact for a matrix within a few ulps of ``T``
(Kahan 1966), far inside the guard band, and tests hold it to the count of
the full ``sterf`` spectrum.  Every other count, and
``checked_eigenvalues`` itself, takes checked eigenvalues: rows and
columns outside a recorded support are deflated as exact zero eigenvalues
and the rest come from ``eigvalsh`` on the support block, a recorded
tridiagonal matrix goes to LAPACK ``sterf`` (``eigvalsh_tridiagonal``),
and any other matrix to ``eigvalsh``; they are checked against the trace
and Frobenius-norm invariants of the full matrix, both O(n^2).
``_selection`` turns a relation and threshold into the guarded eigenvalue
range, once for every route, and rejects a threshold that is not finite.
``spectral_decompose`` returns eigenvectors too and checks their residual
and orthonormality; it serves the callers that use eigenvectors.  The
private ``_checked_eigenvalues`` and ``_spectral_decompose`` also take a
stack ``(k, n, n)`` of matrices known to be symmetric, solved by one dense
stacked LAPACK call, with every check run on each matrix and a failure
naming the member.  The private ``_tridiagonal_eigenvalues`` also selects
the lowest eigenvalue of a tridiagonal matrix, and
``_tridiagonal_positive_definite`` is the O(n) binding test of the radial
critical-coupling search: LAPACK ``pttrf`` factors the tridiagonal matrix
and reports whether every pivot is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_RTOL = 1e-12

# Default 64-bit seed threaded through every randomized routine.
DEFAULT_SEED = 0xB5C0

# Smallest vector norm rank_one_projection will normalize away.
MIN_PROJECTION_NORM = 1e-8

_RELATIONS = (">", ">=", "<", "<=")


@dataclass(frozen=True)
class SymOperator:
    """A dense real symmetric matrix standing for a self-adjoint operator.

    Entries are validated at construction (finite Frobenius norm,
    symmetric) and frozen; use ``entries`` for the raw ndarray and ``dim``
    for the dimension.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("operator dimension must be at least 1")
        object.__setattr__(self, "entries", _symmetrized(a))

    # the structure a builder recorded with ``_built``; with None the
    # eigenvalue routes solve the dense matrix
    _structure = None

    @classmethod
    def _built(cls, entries: np.ndarray, *, tridiagonal: bool = False,
               support: np.ndarray | None = None) -> "SymOperator":
        """The operator of an array a library builder has just made, finite
        and symmetric bit for bit, that no one else holds.

        The array is frozen in place, with no copy and no check, and the
        structure the builder knows is recorded: its three central diagonals
        when ``tridiagonal``, else the indices ``support`` outside which its
        rows and columns are exactly zero, if given.
        """
        entries.setflags(write=False)
        op = object.__new__(cls)
        object.__setattr__(op, "entries", entries)
        object.__setattr__(op, "_structure", (
            ("tridiagonal", entries.diagonal(), entries.diagonal(-1)) if tridiagonal
            else None if support is None else ("support", support)))
        return op

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"SymOperator(dim={self.dim})"


def sym(entries) -> SymOperator:
    """Shorthand constructor, accepting anything array-like."""
    if isinstance(entries, SymOperator):
        return entries
    return SymOperator(np.asarray(entries, dtype=float))


def spectral_decompose(a: SymOperator) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric operator.

    Returns ``(eigenvalues, eigenvectors)``: eigenvalues in ascending order
    and orthonormal eigenvector columns.  The residual invariants
    ``|A V - V diag(lam)|_F`` and ``|V^T V - I|_F`` are checked before
    returning.
    """
    return _spectral_decompose(sym(a).entries)


def _spectral_decompose(m: np.ndarray, psd: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``spectral_decompose`` of a matrix already known to be symmetric, or of
    every matrix of a stack ``(k, n, n)`` of them by one stacked ``eigh``,
    each matrix checked on its own.  With ``psd``, a matrix whose lowest
    eigenvalue lies below minus the count guard band raises ValueError."""
    eta = _guard(_finite_fro(m))
    try:
        lam, vec = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition did not converge: {exc}") from exc
    residual = _fro(m @ vec - vec * lam[..., None, :])
    _require(residual <= eta, "eigendecomposition residual {:.3e} exceeds 1e-10*(1+|A|_F)",
             residual)
    ortho = _fro(vec.swapaxes(-1, -2) @ vec - np.eye(m.shape[-1]))
    _require(ortho <= 1e-10, "eigenvector orthonormality defect {:.3e} exceeds 1e-10", ortho)
    if psd:
        _require(lam[..., 0] >= -eta, "A must be positive semidefinite: min eigenvalue {:.3e}",
                 lam[..., 0], error=ValueError)
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


def checked_eigenvalues(a: SymOperator) -> tuple[np.ndarray, float]:
    """Ascending eigenvalues of ``a`` and its count guard band.

    The route follows the structure ``a``'s builder recorded: each row and
    column outside a recorded support adds an exact zero eigenvalue, and the
    others come from ``eigvalsh`` on the support block; a recorded
    tridiagonal matrix goes to ``eigvalsh_tridiagonal`` (LAPACK ``sterf``,
    the routine dense ``eigvalsh`` ends in); with nothing recorded the whole
    matrix goes to ``eigvalsh``.  Whatever the route, the eigenvalues
    are checked against the invariants ``sum(lam) = tr A`` and
    ``sum(lam^2) = |A|_F^2`` of the full matrix, within ``eta`` and
    ``eta * (1 + |A|_F)`` for the guard ``eta = 1e-10 (1 + |A|_F)``; a failed
    check or a LAPACK failure raises RuntimeError.  A matrix whose
    ``|A|_F`` is not finite has no guard band and raises ValueError before
    any solve.
    """
    a = sym(a)
    return _checked_eigenvalues(a.entries, a._structure)


def _checked_eigenvalues(m: np.ndarray, structure=None) -> tuple[np.ndarray, float | np.ndarray]:
    """``checked_eigenvalues`` of a matrix already known to be symmetric, by
    the route of the ``structure`` its builder recorded; or of every matrix
    of a stack ``(k, n, n)`` of them by one dense stacked ``eigvalsh``, each
    matrix checked on its own and with its own guard band in the array
    ``eta``."""
    fro = _finite_fro(m)
    try:
        lam = _eigenvalues(m, structure)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solver did not converge: {exc}") from exc
    eta = _guard(fro)
    trace_defect = np.abs(np.sum(lam, axis=-1) - np.trace(m, axis1=-2, axis2=-1))
    _require(trace_defect <= eta, "eigenvalue sum misses the trace by {:.3e}, "
             "more than 1e-10*(1+|A|_F) = {:.3e}", trace_defect, eta)
    norm_defect = np.abs((lam[..., None, :] @ lam[..., None])[..., 0, 0] - fro**2)
    _require(norm_defect <= eta * (1.0 + fro), "eigenvalue square sum misses |A|_F^2 by "
             "{:.3e}, more than 1e-10*(1+|A|_F)^2 = {:.3e}", norm_defect, eta * (1.0 + fro))
    return lam, eta


def _fro(m: np.ndarray):
    """Frobenius norm of a matrix, or the array of those of a stack's
    matrices, each bit for bit ``np.linalg.norm``'s: the root of one dot."""
    if m.ndim == 2:
        flat = m.ravel(order="K")  # np.linalg.norm's own Frobenius sum
        return math.sqrt(flat @ flat)
    flat = m.reshape(len(m), 1, -1)
    return np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _require(ok, message, *values, error=RuntimeError) -> None:
    """Raise ``error`` unless ``ok`` holds for the matrix, or for every matrix
    of a stack.  ``message`` is a format string for the ``values`` of the
    first matrix that fails, or a function of that matrix's index, which
    is ``()`` for one matrix; the error names the index in a stack."""
    if ok is not True and not np.all(ok):
        i = np.unravel_index(np.argmin(ok), np.shape(ok))  # () for one matrix
        text = message(i) if callable(message) else message.format(
            *(v[i] if np.ndim(v) else v for v in values))
        raise error(text + (f" (stack member {i[0]})" if i else ""))


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """The checked, frozen entries of the square matrix ``m``, or of every
    matrix of the stack ``(k, n, n)`` ``m``, as ``SymOperator`` stores them.

    Each matrix must have a finite Frobenius norm (``_finite_fro``) and be
    symmetric within ``SYMMETRY_RTOL``; the first that is not raises
    ValueError, naming its index in a stack.  Input symmetric bit for bit is
    stored as a copy, and any other as the mean ``(A + A^T) / 2``, which
    kills rounding asymmetry.
    """
    scale = 1.0 + _finite_fro(m)
    if m.tobytes() == m.mT.tobytes():  # the mean would return these bits
        out = m.copy()
    else:
        half = 0.5 * (m - m.mT)  # |half|_F <= |A|_F, so its norm is finite
        half_asym = _fro(half)
        _require(half_asym <= 0.5 * SYMMETRY_RTOL * scale, lambda i: (
            f"matrix is not symmetric: max |A - A^T| entry = {2.0 * np.max(np.abs(half[i])):.3e}, "
            f"|A - A^T|_F / (1+|A|_F) = {2.0 * np.asarray(half_asym / scale)[i]:.3e} exceeds "
            f"{SYMMETRY_RTOL:g}"), error=ValueError)
        out = 0.5 * (m + m.mT)
    out.setflags(write=False)
    return out


def _finite_fro(m: np.ndarray):
    """``_fro`` of a matrix or a stack, without a numpy warning, checked
    finite: a norm that is not finite has no guard band, so the first matrix
    whose norm is not raises ValueError, naming its first non-finite entry or
    the overflow of its finite entries' norm, and its index in a stack."""
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        fro = _fro(m)

    def cause(i):
        bad = np.argwhere(~np.isfinite(m[i]))
        return "matrix has no finite Frobenius norm: " + (
            f"{len(bad)} non-finite entries, the first A[{bad[0, 0]}, {bad[0, 1]}] = "
            f"{m[i][tuple(bad[0])]}" if len(bad) else "its entries are finite, its norm overflows")

    _require(fro < math.inf, cause, error=ValueError)  # False where it overflows or is NaN
    return fro


def _eigenvalues(m: np.ndarray, structure) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each matrix of a
    stack, by the route of the recorded ``structure``: dense ``eigvalsh``
    when None."""
    if structure is None:
        return np.linalg.eigvalsh(m)
    kind, *parts = structure
    if kind == "tridiagonal":
        return _tridiagonal_eigenvalues(*parts)
    live = parts[0]
    if live.size == m.shape[0]:  # full support: the block is the matrix
        return np.linalg.eigvalsh(m)
    lam = np.linalg.eigvalsh(m[np.ix_(live, live)])
    return np.sort(np.concatenate([lam, np.zeros(m.shape[0] - live.size)]))


def _tridiagonal_eigenvalues(diag, off, select="a", select_range=None,
                             tol=0.0) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix ``T`` with
    diagonal ``diag`` and off-diagonal ``off``.

    ``select``, ``select_range`` and ``tol`` are those of
    ``scipy.linalg.eigvalsh_tridiagonal``: all eigenvalues by LAPACK
    ``sterf``, or a selection by index (``"i"``) or by value (``"v"``, the
    half-open range ``(lo, hi]``) by Sturm bisection to the absolute
    tolerance ``tol``.  A LAPACK failure raises RuntimeError.
    """
    import scipy.linalg  # only here, so that importing bscount stays light

    try:
        return scipy.linalg.eigvalsh_tridiagonal(
            diag, off, select=select, select_range=select_range, tol=tol,
            lapack_driver="sterf" if select == "a" else "auto")
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solver did not converge: {exc}") from exc


def _tridiagonal_count(diag, off, relation: str, threshold: float) -> int:
    """``count_evs`` of the symmetric tridiagonal matrix ``T`` with diagonal
    ``diag`` and off-diagonal ``off``, by Sturm count in O(n).

    LAPACK ``stebz`` counts the eigenvalues in the guarded range of
    ``_selection``, ``(edge, inf)`` or ``(-inf, edge]``, from the Sturm
    sequences at its two ends, which are exact for a matrix within a few
    ulps of ``T`` (Kahan 1966), far inside the guard band
    ``1e-10 (1 + |T|_F)``.  The count needs no eigenvalue, so the bisection
    tolerance is set wider than the spectrum (Gershgorin:
    ``4 (1 + |T|_F)``), and ``stebz`` stops at those two counts.  A matrix
    whose ``|T|_F`` is not finite has no guard band and raises ValueError.
    """
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        fro = math.sqrt(diag @ diag + 2.0 * (off @ off))
    if not math.isfinite(fro):
        raise ValueError("|T|_F of the tridiagonal matrix is not finite: no finite guard band")
    edge, above = _selection(relation, threshold, _guard(fro))
    return _tridiagonal_eigenvalues(diag, off, "v", (edge, math.inf) if above else (-math.inf, edge),
                                    tol=4.0 * (1.0 + fro)).size


def _tridiagonal_positive_definite(diag, off) -> bool:
    """Whether the symmetric tridiagonal matrix with diagonal ``diag`` and
    off-diagonal ``off`` is positive definite.

    LAPACK ``pttrf`` answers in O(n) by attempting the ``L D L^T``
    factorization, which succeeds exactly when every pivot is positive.
    Non-finite entries raise ValueError, since ``pttrf`` would report a NaN
    diagonal as positive definite; an argument LAPACK rejects raises
    RuntimeError.
    """
    from scipy.linalg import lapack  # only here, so that importing bscount stays light

    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("tridiagonal matrix has non-finite entries")
    if len(diag) == 1:  # the one pivot; f2py rejects pttrf's empty off-diagonal
        return bool(diag[0] > 0.0)
    info = lapack.dpttrf(diag, off)[2]
    if info < 0:
        raise RuntimeError(f"LAPACK pttrf rejected argument {-info}")
    return info == 0


def _guard(fro: float) -> float:
    """Count guard band ``1e-10 (1 + |A|_F)`` of a matrix of Frobenius norm ``fro``."""
    return 1e-10 * (1.0 + fro)


def _selection(relation: str, threshold: float, eta: float) -> tuple[float, bool]:
    """The eigenvalues that satisfy ``relation threshold`` outside the guard
    band ``eta``, as ``(edge, above)``: those above ``edge`` when ``above``,
    else those at most ``edge``.  Strict relations exclude the band around
    the threshold and non-strict ones include it.  An unknown relation or a
    threshold that is not finite raises ValueError.
    """
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}, expected one of {_RELATIONS}")
    if not math.isfinite(threshold):
        raise ValueError(f"count threshold must be finite, got {threshold}")
    edge = threshold + eta if relation in (">", "<=") else threshold - eta
    return edge, relation[0] == ">"


def count_evs(a: SymOperator, relation: str, threshold: float) -> int:
    """Count eigenvalues satisfying ``relation threshold``, with multiplicities.

    Strict relations exclude a guard band around the threshold and non-strict
    ones include it, so counts are exact whenever spectral gaps are large
    compared to the band ``1e-10 * (1 + |A|_F)``.  The route follows the
    structure ``a``'s builder recorded.  A recorded tridiagonal matrix is
    counted by Sturm sequences (``stebz``), in O(n) and with no eigenvalue
    computed, so there is no spectrum for the trace and Frobenius-norm
    checks to test: the Sturm count is exact for a matrix within a few ulps
    of ``A``, and tests hold it to the ``sterf`` count.  Every other matrix
    is counted from ``checked_eigenvalues``, by the deflated route of a
    recorded support or else the dense route, whose trace and
    Frobenius-norm invariants stand in for eigenvector residual checks.
    On every route a matrix whose ``|A|_F`` is not finite raises
    ValueError before any eigenvalue is counted.
    """
    a = sym(a)
    if a._structure is not None and a._structure[0] == "tridiagonal":
        return _tridiagonal_count(*a._structure[1:], relation, threshold)
    lam, eta = _checked_eigenvalues(a.entries, a._structure)
    edge, above = _selection(relation, threshold, eta)
    return int(np.count_nonzero(lam > edge if above else lam <= edge))


def hs_norm(a: SymOperator) -> float:
    """Hilbert-Schmidt (Frobenius) norm of the operator."""
    return float(np.linalg.norm(sym(a).entries))


def rank_one_projection(f: np.ndarray) -> SymOperator:
    """Orthogonal projection onto the span of a vector: ``P = f f^T``.

    The input is normalized internally; vectors with norm below
    ``MIN_PROJECTION_NORM`` are rejected rather than silently amplified.
    """
    f = np.asarray(f, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(f))
    if norm < MIN_PROJECTION_NORM:
        raise ValueError(
            f"vector norm {norm:.3e} below {MIN_PROJECTION_NORM:g}; refusing to normalize"
        )
    u = f / norm
    return SymOperator(np.outer(u, u))
