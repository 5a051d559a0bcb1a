"""Dense self-adjoint operator algebra on a finite-dimensional state space.

Everything downstream (counting identities, projection subtraction, radial
kernels) is built from the primitives here: spectral decomposition, checked
eigenvalues, guarded eigenvalue counting, Hilbert-Schmidt norms, and rank-one
projections.  All values are immutable after construction and every operation
is a pure function.

``SymOperator`` is the boundary type: it checks that its entries are finite
and symmetric, once, when it is built.  A finite Frobenius norm vouches for
finite entries, and entries symmetric bit for bit are stored as a copy,
without the averaging that would return the same bits.  Library code that
forms a matrix it knows to be exactly symmetric passes the ndarray on
without wrapping it again: bsengine's sums of two operators' entries,
radial's symmetrized support block and efimov's three-boson kernel,
mirrored from its upper triangle.  radial's two builders, the reduced
Hamiltonian and the Birman-Schwinger kernel, hand their fresh arrays to the
private ``SymOperator._built``, which freezes each in place with no copy and
no check, and records what the builder knows: the diagonals of the
tridiagonal Hamiltonian, the support outside which the kernel vanishes.

linop runs every eigensolve in the package: no other module calls LAPACK
for eigenvalues.  The solver choice, the count guard band
``1e-10 (1 + |A|_F)``, the checks and the conversion of a LAPACK failure
into RuntimeError live here.

``count_evs`` and ``checked_eigenvalues`` take the route of the recorded
structure or, with none recorded, of the one the exact zeros of the entries
allow.  A tridiagonal count is a Sturm count: LAPACK ``stebz`` counts the
eigenvalues in the guarded range in O(n) and computes none, so the trace
and Frobenius checks have no spectrum to test.  The Sturm count is exact
for a matrix within a few ulps of ``T`` (Kahan 1966), far inside the guard
band, and tests hold it to the count of the full ``sterf`` spectrum.  Every
other count, and ``checked_eigenvalues`` itself, takes checked eigenvalues:
exactly-zero rows and columns are deflated as exact zero eigenvalues, and
the rest come from ``eigvalsh`` on the live block, or from LAPACK ``sterf``
(``eigvalsh_tridiagonal``) on a tridiagonal one; they are checked against
the trace and Frobenius-norm invariants of the full matrix, both O(n^2).  ``_selection`` turns a
relation and threshold into the guarded eigenvalue range, once for every
route, and rejects a threshold that is not finite.  ``spectral_decompose``
returns eigenvectors too and checks their residual and orthonormality; it
serves the callers that use eigenvectors.  The private
``_checked_eigenvalues`` and ``_spectral_decompose`` also take a stack
``(k, n, n)`` of matrices known to be symmetric, solved by one dense
stacked LAPACK call, with every check run on each matrix and a failure
naming the member; ``_symmetrized`` is ``SymOperator``'s check and
average for a stack.  The private
``_tridiagonal_eigenvalues`` also selects the lowest eigenvalue of a
tridiagonal matrix, and ``_tridiagonal_positive_definite`` is the O(n)
binding test of the radial critical-coupling search: LAPACK ``pttrf``
factors the tridiagonal matrix and reports whether every pivot is positive.
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

    Entries are validated at construction (finite, symmetric) and frozen;
    use ``entries`` for the raw ndarray and ``dim`` for the dimension.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("operator dimension must be at least 1")
        flat = a.ravel(order="K")  # np.linalg.norm's own Frobenius sum
        with np.errstate(over="ignore"):  # an overflowing norm is handled below
            scale = 1.0 + math.sqrt(flat @ flat)
        if math.isfinite(scale):  # a finite norm leaves no entry non-finite
            bits = a.view(np.uint64)
            if (bits == bits.T).all():  # the mean below would return these bits
                a = a.copy()
                a.setflags(write=False)
                object.__setattr__(self, "entries", a)
                return
            top, b, norm = 1.0, a, scale
        else:
            finite = np.isfinite(a)
            if not finite.all():
                i, j = np.argwhere(~finite)[0]
                raise ValueError(
                    f"matrix has {a.size - int(finite.sum())} non-finite entries, "
                    f"the first A[{i}, {j}] = {a[i, j]}")
            # the same test on a / max|A|, where neither norm can overflow
            top = float(np.max(np.abs(a)))
            b = a / top
            norm = 1.0 / top + np.linalg.norm(b)
        asym = np.linalg.norm(b - b.T)
        if asym > SYMMETRY_RTOL * norm:
            raise ValueError(
                f"matrix is not symmetric: max |A - A^T| entry = "
                f"{top * float(np.max(np.abs(b - b.T))):.3e}, "
                f"|A - A^T|_F / (1+|A|_F) = {asym / norm:.3e} exceeds {SYMMETRY_RTOL:g}")
        if math.isfinite(scale):  # then no entry is large enough for a + a.T to overflow
            a = 0.5 * (a + a.T)  # kill representation-level rounding asymmetry
        else:  # halving an entry above 1 first is exact and cannot overflow
            with np.errstate(over="ignore"):
                a = np.where(np.abs(a) > 1.0, 0.5 * a + 0.5 * a.T, 0.5 * (a + a.T))
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    # the structure a builder recorded with ``_built``; None has the
    # eigenvalue routes read it from the exact zeros of ``entries``
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
    try:
        lam, vec = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition did not converge: {exc}") from exc
    eta = _guard(_fro(m))
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

    The route follows the structure ``a``'s builder recorded, or else the
    structure its exact zeros allow: each exactly-zero row and column adds an
    exact zero eigenvalue, and the others come from ``eigvalsh`` on the block
    of live rows; a matrix whose every entry off the three central diagonals
    is exactly zero goes to ``eigvalsh_tridiagonal`` (LAPACK ``sterf``, the
    routine dense ``eigvalsh`` ends in).  Whatever the route, the eigenvalues
    are checked against the invariants ``sum(lam) = tr A`` and
    ``sum(lam^2) = |A|_F^2`` of the full matrix, within ``eta`` and
    ``eta * (1 + |A|_F)`` for the guard ``eta = 1e-10 (1 + |A|_F)``; a failed
    check or a LAPACK failure raises RuntimeError.
    """
    a = sym(a)
    return _checked_eigenvalues(a.entries, a._structure)


def _checked_eigenvalues(m: np.ndarray, structure=None) -> tuple[np.ndarray, float | np.ndarray]:
    """``checked_eigenvalues`` of a matrix already known to be symmetric, by
    the route of ``structure`` (see ``_read_structure``), read from ``m`` when
    None; or of every matrix of a stack ``(k, n, n)`` of them by one dense
    stacked ``eigvalsh``, each matrix checked on its own and with its own
    guard band in the array ``eta``."""
    try:
        lam = (np.linalg.eigvalsh(m) if m.ndim == 3 else
               _eigenvalues(m, structure or _read_structure(m)))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solver did not converge: {exc}") from exc
    fro = _fro(m)
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
        return float(np.linalg.norm(m))
    flat = m.reshape(len(m), 1, -1)
    return np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _require(ok, message: str, *values, error=RuntimeError) -> None:
    """Raise ``error`` unless ``ok`` holds for the matrix, or for every matrix
    of a stack; ``message`` is formatted with the ``values`` of the first
    matrix that fails, and names that matrix's index in a stack."""
    ok = np.asarray(ok)
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)  # () for one matrix
        raise error(message.format(*(np.asarray(v)[i] for v in values))
                    + (f" (stack member {i[0]})" if i else ""))


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """The entries ``SymOperator`` makes of each matrix of the stack ``m``,
    bit for bit, checked and averaged together.  Each matrix must have a
    finite Frobenius norm and be symmetric within ``SYMMETRY_RTOL``; the
    first that is not raises ValueError."""
    scale = 1.0 + _fro(m)
    _require(np.isfinite(scale), "matrix has Frobenius norm {}", scale - 1.0, error=ValueError)
    asym = _fro(m - m.swapaxes(1, 2))
    _require(asym <= SYMMETRY_RTOL * scale, "matrix is not symmetric: |A - A^T|_F / (1+|A|_F) = "
             f"{{:.3e}} exceeds {SYMMETRY_RTOL:g}", asym / scale, error=ValueError)
    out = 0.5 * (m + m.swapaxes(1, 2))
    out.setflags(write=False)
    return out


def _read_structure(m: np.ndarray) -> tuple:
    """The structure the exact zeros of the symmetric matrix ``m`` allow:
    ``("support", live)`` with the indices of its nonzero rows when a row is
    exactly zero, ``("tridiagonal", diag, off)`` when every entry off the
    three central diagonals is, and ``("dense",)`` otherwise.  A matrix with
    no zero entry leaves at the first test."""
    nonzero = np.count_nonzero(m)
    if nonzero < m.size:
        live = m.any(axis=0)
        if not live.all():
            return "support", np.flatnonzero(live)
        # by symmetry, no nonzero lies off the three central diagonals when they
        # hold all of them; below dimension 3 dense eigvalsh is the quicker call
        band = np.count_nonzero(m.diagonal()) + 2 * np.count_nonzero(m.diagonal(-1))
        if m.shape[0] > 2 and nonzero == band:
            return "tridiagonal", m.diagonal(), m.diagonal(-1)
    return ("dense",)


def _eigenvalues(m: np.ndarray, structure: tuple) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix of the given structure."""
    kind = structure[0]
    if kind == "tridiagonal":
        return _tridiagonal_eigenvalues(*structure[1:])
    if kind == "support" and structure[1].size < m.shape[0]:
        live = structure[1]
        block = m[np.ix_(live, live)]  # its rows are all live: one level deep
        lam = _eigenvalues(block, _read_structure(block))
        return np.sort(np.concatenate([lam, np.zeros(m.shape[0] - live.size)]))
    return np.linalg.eigvalsh(m)


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
    structure ``a``'s builder recorded, or else the one its exact zeros allow.
    A tridiagonal matrix is counted by Sturm sequences (``stebz``), in O(n)
    and with no eigenvalue computed, so there is no spectrum for the trace
    and Frobenius-norm checks to test: the Sturm count is exact for a matrix
    within a few ulps of ``A``, and tests hold it to the ``sterf`` count.
    Every other matrix is counted from ``checked_eigenvalues``, by its
    deflated or dense route, whose trace and Frobenius-norm invariants stand
    in for eigenvector residual checks.
    """
    a = sym(a)
    structure = a._structure or _read_structure(a.entries)
    if structure[0] == "tridiagonal":
        return _tridiagonal_count(*structure[1:], relation, threshold)
    lam, eta = _checked_eigenvalues(a.entries, structure)
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
