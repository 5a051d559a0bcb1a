"""Self-adjoint operator algebra on a finite-dimensional state space.

Everything downstream (counting identities, projection subtraction, radial
kernels) is built from the primitives here: spectral decomposition, checked
eigenvalues, guarded eigenvalue counting and Hilbert-Schmidt norms.  All
values are immutable after construction and every operation is a pure
function.

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
would return the same bits.  Library code that forms a matrix it knows to
be exactly symmetric passes the ndarray on without wrapping it again:
bsengine's sums of two operators' entries, radial's symmetrized kernel
on the support of v_- and efimov's trimer kernel, mirrored from its upper
triangle.  Builders that return an operator of such a fresh array hand it
to the private ``SymOperator._built``, which freezes it in place with no
copy and no check.  radial's two builders record what they know instead,
by ``SymOperator._structured``: the reduced Hamiltonian is a
``_Tridiagonal`` matrix, its two diagonals, and the Birman-Schwinger kernel
is a ``_Kernel`` ``S T^-1 S``, the two diagonals of the banded ``T`` and
``S^2`` on the whole grid.  ``count_evs`` reads the record; the dense
entries are built by the builder's own code, bit for bit the array it
would have made, only when they are first read, once, under a lock.

linop runs every eigensolve in the package, and makes every guarded count
of a spectrum: no other module calls LAPACK for eigenvalues or compares an
eigenvalue with a guard band.  The solver choice, the count guard band
``1e-10 (1 + |A|_F)``, the counting rule, the checks and the conversion of
a LAPACK failure into RuntimeError live here.

A count of an operator recorded tridiagonal is a Sturm count on its
diagonals: LAPACK ``stebz`` counts the eigenvalues in the guarded range in
O(n) and computes none, so the trace and Frobenius checks have no
spectrum to test.  The Sturm count is exact for a matrix within a few ulps
of ``T`` (Kahan 1966), far inside the guard band, and tests hold it to the
count of the full spectrum.  ``count_evs`` of any other matrix of more
than 64 rows is first proved on an 8-column compression by
``_compressed_count``: the Schur complement onto the compression keeps the
inertia of ``A - tau``, and the count stands when the part it leaves out
is too small to move an eigenvalue across ``tau``.  The proof reads only
products with ``A``, ``|A|_F`` and the column norms, of the entries in
O(n^2) (``_dense_products``), or of a recorded kernel in O(n) from the
``pttrf`` factors of ``T`` (``_kernel_products``), with no dense kernel
built.  Every other count, one that proof does not settle, and
``_checked_eigenvalues`` itself, takes checked eigenvalues: any matrix, or
stack, goes to ``eigvalsh`` whole, whatever zeros or band its entries
hold, and its eigenvalues are checked against the trace and
Frobenius-norm invariants, both O(n^2).
Counts are strict, ``">"`` or ``"<"``: an eigenvalue within the guard band
of the threshold is never counted.  The two relations and the band, the
private relation ``"="``, are three half-open intervals that partition the
real line, ``(t + eta, inf)``, ``(-inf, t - eta]`` and ``(t - eta, t +
eta]``; ``_interval`` makes them, and rejects a threshold that is not
finite.  ``_count`` counts a spectrum in one, for ``count_evs`` and for the
callers that count a spectrum they also read, and ``_tridiagonal_count``
makes a Sturm count in one.  ``_collides`` tells whether an eigenvalue lies
within the guard band of a threshold, where neither relation counts it,
as the count of ``"="``.  A count leaves such an eigenvalue out; a count
that must be exact there is the one guarded count, ``_guarded_count``: it
counts by either route, a spectrum, a stack or a tridiagonal matrix, and
where the count of ``"="`` is not 0 it raises ``ThresholdCollisionError``,
defined here, with the caller's message, naming the stack member.  A
level on the threshold is the case the paper's finiteness theorem excludes
(no subsystem with an eigenvalue or resonance at zero energy), so it is
refused, not counted; no other module raises the error.
``_spectral_decompose`` returns eigenvectors too and checks their residual
and orthonormality; it serves the callers that use eigenvectors.  The
private ``_checked_eigenvalues``, ``_spectral_decompose`` and
``_count_evs`` take a matrix already known to be symmetric, or a stack
``(k, n, n)`` of such matrices, solved by one dense stacked LAPACK call,
with every check run on each matrix and a failure naming the member;
``_count_evs`` and ``_count`` take one threshold per member or one for
all.  The tridiagonal layer is one Sturm count and one factorization:
``_tridiagonal_count`` counts by LAPACK ``stebz``, and
``_tridiagonal_factor`` factors the tridiagonal matrix by LAPACK ``pttrf``
in O(n), which succeeds exactly when the matrix is positive definite; its
factors serve ``_kernel_products`` and ``_kernel_top_eigenvalue``.
``_kernel_top_eigenvalue`` is the
largest eigenvalue of a kernel ``S T^-1 S`` with ``T`` tridiagonal and
``S^2`` a nonnegative diagonal, which radial's critical coupling and
``mu_scan`` read: it brackets by factoring ``T - S^2 / sigma``, which
fails exactly where the kernel has an eigenvalue at or above ``sigma``,
the Birman-Schwinger test, refines by inverse iteration, and stands an
eigenpair residual against the kernel applied by the caller's other route,
and a certificate that no eigenvalue lies above, in for the trace and
Frobenius checks.  It reports how many factorizations it made.

The Gauss-Legendre rules of the package, efimov's momentum grid and
radial's ``gauss_legendre`` grid and Rollnik panels, are eigensolves too:
``_legendre_rule`` takes the nodes of an even order from the Jacobi matrix
of the Legendre recurrence (Golub & Welsch 1969) by ``eigvals_banded``, as
scipy's ``roots_legendre`` does, and ports the rest of that routine, so
that its arrays are scipy's bit for bit without loading ``scipy.special``.
An odd order, which no default run uses, is ``roots_legendre``'s own:
scipy evaluates ``P_n`` at its middle node, 0, by a power series that
needs ``scipy.special`` anyway.  Each rule is computed once per order and
frozen.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

# Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_RTOL = 1e-12

# Default 64-bit seed threaded through every randomized routine.
DEFAULT_SEED = 0xB5C0

_RELATIONS = (">", "<")

# columns of the compression on which count_evs first tries to prove a count
_COMPRESSION_RANK = 8
# count_evs counts a matrix of at most this many rows from its full spectrum,
# which up to about 8 compression ranks is the cheaper route: a dense count
# took 0.07 ms at 14 rows and 0.20 ms at 64, the compression 0.21-0.24 ms at
# both (median of 200, 2 cores, OpenBLAS 0.3.31)
_DENSE_COUNT_ROWS = 8 * _COMPRESSION_RANK

_UNIT_ROUNDOFF = 2.0**-53


class ThresholdCollisionError(RuntimeError):
    """An eigenvalue lies within the guard band of a counting threshold, where
    no count is exact: the level sits on the threshold."""


@dataclass(frozen=True, eq=False)
class SymOperator:
    """A real symmetric matrix standing for a self-adjoint operator.

    Entries are validated at construction (finite Frobenius norm,
    symmetric) and frozen; use ``entries`` for the raw ndarray and ``dim``
    for the dimension.  A 0 x 0 matrix is the operator on the zero space,
    as the radial kernel of a potential with no attractive part is.

    An operator a library builder made may instead record its structure
    (``_structured``): a ``_Tridiagonal`` matrix or a ``_Kernel`` ``S T^-1
    S``, which ``count_evs`` reads without the dense matrix.  Its
    ``entries`` are built, by the builder's own code and once, when they are
    first read; threads that read them together wait for the one build.
    """

    entries: np.ndarray

    # what a builder recorded with ``_structured``, which ``count_evs``
    # reads; None for a plain matrix
    _structure = None

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        object.__setattr__(self, "entries", _symmetrized(a))

    @classmethod
    def _built(cls, entries: np.ndarray) -> "SymOperator":
        """The operator of an array a library builder has just made, finite
        and symmetric bit for bit, that no one else holds.

        The array is frozen in place, with no copy and no check.
        """
        entries.setflags(write=False)
        op = object.__new__(cls)
        object.__setattr__(op, "entries", entries)
        return op

    @classmethod
    def _structured(cls, structure, build) -> "SymOperator":
        """The operator of the ``structure`` a library builder records, a
        ``_Tridiagonal`` or a ``_Kernel`` of arrays no one else holds, frozen
        in place.  ``build()`` returns its dense entries, a fresh array,
        finite and symmetric bit for bit, which is frozen with no check when
        ``entries`` is first read; it is 0 x 0 for a kernel whose weight has
        no positive entry."""
        for array in structure:
            array.setflags(write=False)
        op = object.__new__(cls)
        object.__setattr__(op, "_structure", structure)
        object.__setattr__(op, "_build", build)
        object.__setattr__(op, "_lock", threading.Lock())
        return op

    def __getattr__(self, name):
        # reached only for an attribute that is not set: a structured
        # operator's entries, until they are first read
        build = self.__dict__.get("_build")
        if name != "entries" or build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with self._lock:
            if "entries" not in self.__dict__:
                entries = build()
                entries.setflags(write=False)
                object.__setattr__(self, "entries", entries)
        return self.__dict__["entries"]

    @property
    def dim(self) -> int:
        if self._structure is None:
            return self.entries.shape[0]
        return self._structure.dim

    def __repr__(self):
        return f"SymOperator(dim={self.dim})"


class _Tridiagonal(NamedTuple):
    """The symmetric tridiagonal matrix of diagonal ``diag`` and
    off-diagonal ``off``."""

    diag: np.ndarray
    off: np.ndarray

    @property
    def dim(self) -> int:
        return self.diag.size


class _Kernel(NamedTuple):
    """The kernel ``S T^-1 S`` on the support of ``weight = S^2 >= 0``, one
    row per entry where the weight is positive, for the positive definite
    tridiagonal ``T`` of diagonal ``diag`` and off-diagonal ``off``: all
    three on the whole grid."""

    diag: np.ndarray
    off: np.ndarray
    weight: np.ndarray

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weight > 0)

    @property
    def dim(self) -> int:
        return self.support.size


def sym(entries) -> SymOperator:
    """Shorthand constructor, accepting anything array-like."""
    if isinstance(entries, SymOperator):
        return entries
    return SymOperator(np.asarray(entries, dtype=float))


def _spectral_decompose(m: np.ndarray, psd: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a matrix already known to be symmetric, or
    of every matrix of a stack ``(k, n, n)`` of them by one stacked ``eigh``,
    each matrix checked on its own.

    Returns ``(eigenvalues, eigenvectors)``: eigenvalues in ascending order
    and orthonormal eigenvector columns.  The residual ``|A V - V diag(lam)|_F``
    must be within the count guard band ``1e-10 (1 + |A|_F)`` and the
    orthonormality defect ``|V^T V - I|_F`` within 1e-10, or RuntimeError is
    raised; so is a LAPACK failure.  With ``psd``, a matrix whose lowest
    eigenvalue lies below minus the guard band raises ValueError.
    """
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


def _checked_eigenvalues(m: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Ascending eigenvalues of a matrix already known to be symmetric and its
    count guard band; or those of every matrix of a stack ``(k, n, n)`` of
    them by one dense stacked ``eigvalsh``, each matrix checked on its own
    and with its own guard band in the array ``eta``.

    Every matrix, a recorded tridiagonal one too, goes to ``eigvalsh``
    whole.  The eigenvalues are checked against the invariants
    ``sum(lam) = tr A`` and ``sum(lam^2) = |A|_F^2``, within ``eta`` and
    ``eta * (1 + |A|_F)`` for the guard ``eta = 1e-10 (1 + |A|_F)``; a
    failed check or a LAPACK failure raises RuntimeError.  A matrix whose
    ``|A|_F`` is not finite has no guard band and raises ValueError before
    any solve.
    """
    fro = _finite_fro(m)
    try:
        lam = np.linalg.eigvalsh(m)
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
    is ``()`` for one matrix; the error names the index in a stack of more
    than one matrix."""
    if ok is not True and not np.all(ok):
        i = np.unravel_index(np.argmin(ok), np.shape(ok))  # () for one matrix
        text = message(i) if callable(message) else message.format(
            *(v[i] if np.ndim(v) else v for v in values))
        raise error(text + (f" (stack member {i[0]})" if np.size(ok) > 1 else ""))


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


def _tridiagonal_count(diag, off, relation: str, threshold: float) -> int:
    """The number of eigenvalues of the symmetric tridiagonal matrix ``T``
    with diagonal ``diag`` and off-diagonal ``off`` in the half-open
    ``_interval`` of ``relation threshold``, for its guard band ``eta = 1e-10
    (1 + |T|_F)``, in O(n): ``count_evs`` of ``T`` for ``">"`` and ``"<"``,
    and for ``"="`` the eigenvalues in the band, which ``_collides`` tells
    of a spectrum.

    LAPACK ``stebz`` with ``RANGE='V'`` counts the eigenvalues in exactly
    that half-open range from the Sturm sequences at its two ends, which are
    exact for a matrix within a few ulps of ``T`` (Kahan 1966), far inside
    the guard band.  The count needs no eigenvalue, so the bisection
    tolerance is set wider than the spectrum (Gershgorin: ``4 (1 +
    |T|_F)``), and ``stebz`` stops at those two counts.  A matrix whose
    ``|T|_F`` is not finite has no guard band and raises ValueError; a
    LAPACK failure raises RuntimeError.
    """
    import scipy.linalg  # only here, so that importing bscount stays light

    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        fro = math.sqrt(diag @ diag + 2.0 * (off @ off))
    if not math.isfinite(fro):
        raise ValueError("|T|_F of the tridiagonal matrix is not finite: no finite guard band")
    try:
        return scipy.linalg.eigvalsh_tridiagonal(
            diag, off, select="v", select_range=_interval(relation, threshold, _guard(fro)),
            tol=4.0 * (1.0 + fro)).size
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solver did not converge: {exc}") from exc


def _tridiagonal_factor(diag, off):
    """The ``L D L^T`` factors of the symmetric tridiagonal matrix with
    diagonal ``diag`` and off-diagonal ``off``, or None where it is not
    positive definite.

    LAPACK ``pttrf`` answers in O(n) by attempting the factorization, which
    succeeds exactly when every pivot is positive; the factors feed
    ``pttrs``.  Non-finite entries raise ValueError, since ``pttrf`` would
    report a NaN diagonal as positive definite; an argument LAPACK rejects
    raises RuntimeError.
    """
    from scipy.linalg import lapack  # only here, so that importing bscount stays light

    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("tridiagonal matrix has non-finite entries")
    # f2py wants one off-diagonal entry even at n = 1, where pttrf reads none
    d, e, info = lapack.dpttrf(diag, off if len(off) else np.zeros(1))
    if info < 0:
        raise RuntimeError(f"LAPACK pttrf rejected argument {-info}")
    return (d, e) if info == 0 else None


def _kernel_top_eigenvalue(diag, off, weight, green) -> tuple[float, int]:
    """The largest eigenvalue ``mu`` of ``K = S T^-1 S``, for the positive
    definite tridiagonal ``T`` with diagonal ``diag`` and off-diagonal
    ``off`` and ``S = diag(sqrt(weight))``, ``weight >= 0`` with at least
    one positive entry, in O(n) per step and without forming ``S^-1``,
    which does not exist where the weight vanishes and overflows where it
    underflows.

    By Sylvester's law of inertia, ``K`` has an eigenvalue at or above
    ``sigma > 0`` exactly when ``T - S^2 / sigma`` is not positive definite,
    which ``_tridiagonal_factor`` decides.  The Rayleigh quotient of
    ``S 1``, at most ``mu``, starts a bracket ``[lo, hi)``, bisected to
    relative width 1e-8.  Inverse iteration with ``T - S^2 / hi``, factored
    once, then converges to the top eigenvector ``x``, and ``mu`` is its
    Rayleigh quotient.

    ``green(u)`` applies ``T^-1`` by another route than ``T``, so
    ``K x = S green(S x)`` tests the result in place of the trace and
    Frobenius checks of a full spectrum: the residual ``|K x - mu x|`` must
    be at most ``1e-10 (1 + mu)``, and ``T - S^2 / sigma`` must be positive
    definite at ``sigma = mu + residual + 1e-10 (1 + mu)``, so that no
    eigenvalue lies above the one selected.  Either failure raises
    RuntimeError; a ``T`` that is not positive definite raises ValueError.
    Returns ``mu`` and the number of ``_tridiagonal_factor`` calls made,
    certificate included.
    """
    from scipy.linalg import lapack

    calls = 0

    def factor(d):  # factors of the tridiagonal (d, off), None where not positive definite
        nonlocal calls
        calls += 1
        return _tridiagonal_factor(d, off)

    def shifted(sigma):  # factors of T - S^2/sigma, None where mu >= sigma
        return factor(diag - weight / sigma)

    def solve(factors, b):
        return lapack.dpttrs(*factors, b)[0]

    factors = factor(diag)
    if factors is None:
        raise ValueError("the tridiagonal T of the kernel S T^-1 S is not positive definite")
    lo = hi = float(weight @ solve(factors, weight)) / float(np.sum(weight))
    while (factors := shifted(hi)) is None:
        hi *= 2.0
    while hi - lo > 1e-8 * hi:
        mid = 0.5 * (lo + hi)
        if (mid_factors := shifted(mid)) is None:
            lo = mid
        else:
            hi, factors = mid, mid_factors
    root = np.sqrt(weight)
    x = root / np.linalg.norm(root)
    for _ in range(20):  # x <- S (T - S^2/hi)^-1 S x
        new = root * solve(factors, root * x)
        new /= np.linalg.norm(new)
        step = np.linalg.norm(new - x)
        x = new
        if step <= 1e-12:
            break
    kx = root * green(root * x)
    mu = float(x @ kx)
    residual = float(np.linalg.norm(kx - mu * x))
    _require(residual <= 1e-10 * (1.0 + mu),
             "top kernel eigenpair residual {:.3e} exceeds 1e-10*(1+mu)", residual)
    _require(shifted(mu + residual + 1e-10 * (1.0 + mu)) is not None,
             "a kernel eigenvalue lies above the selected mu = {:.15g}", mu)
    return mu, calls


@cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``n``-point Gauss-Legendre rule on [-1, 1],
    computed once per ``n`` and frozen, since every caller shares them.

    An odd order is ``scipy.special.roots_legendre(n)`` itself: scipy
    evaluates ``P_n`` at the middle node, 0, by a power series whose leading
    constant comes from cephes' ``beta``, so no port of it would save the
    ``scipy.special`` import.  For an even order the nodes are the
    eigenvalues of the Jacobi matrix of the Legendre recurrence (Golub &
    Welsch 1969), by LAPACK ``sbevd`` through ``scipy.linalg.eigvals_banded``.
    The rest is a line-for-line port of ``roots_legendre``: one Newton step
    on ``P_n``, weights ``1 / (P_{n-1} P_n')`` with both factors normalized
    by the geometric mean of their extreme magnitudes, then symmetrized and
    scaled to sum to 2.  It makes the same float operations, so its arrays
    are ``roots_legendre(n)``'s bit for bit while no node lies within 1e-5 of
    0, where scipy too would take the power series: up to n of about 1.5e5.
    Either route makes one ``eigvals_banded`` call.
    """
    if n % 2:
        from scipy.special import roots_legendre  # only here: the package needs it nowhere else

        x, w = roots_legendre(n)
    else:
        from scipy.linalg import eigvals_banded  # only here, so that importing bscount stays light

        k = np.arange(n, dtype=float)
        band = np.zeros((2, n))
        band[0, 1:] = k[1:] * np.sqrt(1.0 / (4 * k[1:] * k[1:] - 1))
        x = eigvals_banded(band, overwrite_a_band=True)
        p_prev, p_n = _legendre_values(n, x)
        dy = (-n * x * p_n + n * p_prev) / (1 - x**2)
        x -= p_n / dy
        fm = _legendre_values(n, x)[0]
        log_fm = np.log(np.abs(fm))
        log_dy = np.log(np.abs(dy))
        fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
        dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
        w = 1.0 / (fm * dy)
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
        w *= 2.0 / w.sum()
    for array in (x, w):
        array.setflags(write=False)
    return x, w


def _legendre_values(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P_{n-1}(x), P_n(x))`` as scipy's ``eval_legendre`` computes them
    where ``|x| >= 1e-5``: its forward recurrence on the difference ``d =
    P_k - P_{k-1}``, vectorized over ``x``, whose step ``k`` gives
    ``P_{k+1}``, so one run gives both."""
    p_prev, p = np.ones_like(x), x.copy()
    d = x_1 = x - 1
    for k in range(1, n):
        d = ((2 * k + 1) / (k + 1)) * x_1 * p + (k / (k + 1)) * d
        p_prev, p = p, p + d
    return p_prev, p


def _guard(fro: float) -> float:
    """Count guard band ``1e-10 (1 + |A|_F)`` of a matrix of Frobenius norm ``fro``."""
    return 1e-10 * (1.0 + fro)


def _count(lam: np.ndarray, eta, relation: str, threshold):
    """The number of the eigenvalues ``lam`` in the half-open ``_interval``
    ``(lo, hi]`` of ``relation threshold`` and the guard band ``eta``; or,
    for the eigenvalues ``(k, n)`` of a stack, the array of each member's
    count, against the same ``threshold`` or its own entry of the array
    ``threshold``, with its own entry of the array ``eta``.  Every guarded
    count of a computed spectrum in the package is made here."""
    lo, hi = (np.expand_dims(edge, -1) for edge in _interval(relation, threshold, eta))
    return np.count_nonzero((lam > lo) & (lam <= hi), axis=-1)


def _collides(lam: np.ndarray, eta, threshold):
    """Whether an eigenvalue of ``lam`` lies in the guard band ``(threshold -
    eta, threshold + eta]``, the ``_interval`` of ``"="``, where neither
    ``">"`` nor ``"<"`` counts it; for the eigenvalues ``(k, n)`` of a
    stack, the array of it per member."""
    return _count(lam, eta, "=", threshold) > 0


def _guarded_count(route, operand, relation: str, threshold, message: str, *values):
    """``route(*operand, relation, threshold)``, the count of ``_count`` over
    a spectrum ``(lam, eta)``, or of a stack, or of ``_tridiagonal_count``
    over a ``_Tridiagonal``, refused where it is not exact: an eigenvalue
    in the guard band of ``threshold``, the count of ``"="``, raises
    ``ThresholdCollisionError`` by ``_require`` with the caller's
    ``message`` and ``values``, naming the member of a stack.  Every
    refusal of a threshold collision in the package is made here."""
    _require(route(*operand, "=", threshold) == 0, message, *values, error=ThresholdCollisionError)
    return route(*operand, relation, threshold)


def _interval(relation: str, threshold, eta) -> tuple:
    """The eigenvalues that satisfy ``relation threshold`` outside the guard
    band ``eta``, as the half-open range ``(lo, hi]``: ``(threshold + eta,
    inf)`` for ``">"``, ``(-inf, threshold - eta]`` for ``"<"``, and for the
    private relation ``"="`` the band ``(threshold - eta, threshold + eta]``
    between them, where neither strict relation counts an eigenvalue.  The
    three partition the real line.  ``threshold`` and ``eta`` may be arrays
    over a stack, giving array edges.  A threshold that is not finite raises
    ValueError, naming the stack member.
    """
    _require(np.isfinite(threshold), "count threshold must be finite, got {}", threshold,
             error=ValueError)
    below, above = threshold - eta, threshold + eta
    return {">": (above, math.inf), "<": (-math.inf, below), "=": (below, above)}[relation]


def count_evs(a: SymOperator, relation: str, threshold: float) -> int:
    """Count eigenvalues satisfying ``relation threshold``, with multiplicities.

    ``relation`` is ``">"`` or ``"<"``; both are strict and exclude a guard
    band around the threshold, so counts are exact whenever spectral gaps
    are large compared to the band ``1e-10 * (1 + |A|_F)``.  Each counts
    the eigenvalues in its half-open ``_interval``, ``(t + eta, inf)`` or
    ``(-inf, t - eta]``.  Any other relation raises ValueError, the band's
    own private ``"="`` too.  A matrix whose builder recorded it
    ``_Tridiagonal`` is counted by Sturm sequences (``stebz``) on its
    diagonals, in O(n), with no n x n matrix formed and no eigenvalue
    computed, so there is no spectrum for the trace and Frobenius-norm
    checks to test: the Sturm count is exact for a matrix within a few ulps
    of ``A``, and tests hold it to the count of the full spectrum.  Any
    other matrix of more than ``_DENSE_COUNT_ROWS = 64`` rows, where the
    full spectrum costs more, is first counted on an 8-column compression by
    ``_compressed_count``, which proves the count of the exact eigenvalues
    outside the guard band, and proves that none lies on its edge, or gives
    up; tests hold it to the count of the full spectrum.  It reads products
    with ``A``, ``|A|_F`` and the column norms: those of the entries
    (``_dense_products``), or, for a recorded ``_Kernel``, those of
    ``_kernel_products``, in O(n) from the factors of ``T``, with no dense
    kernel built.  A count it gives up on, and that of a smaller matrix, is
    made from ``_checked_eigenvalues`` of the whole matrix, built first
    where it was recorded, whose trace and Frobenius-norm invariants stand
    in for eigenvector residual checks.  On every route a matrix whose
    ``|A|_F`` is not finite raises ValueError before any eigenvalue is
    counted.
    """
    a = sym(a)
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}, expected one of {_RELATIONS}")
    structure = a._structure
    if isinstance(structure, _Tridiagonal):
        return _tridiagonal_count(*structure, relation, threshold)
    if a.dim > _DENSE_COUNT_ROWS:
        products = _dense_products(a.entries) if structure is None else \
            _kernel_products(structure)
        if (count := _compressed_count(products, relation, threshold)) is not None:
            return count
    return int(_count_evs(a.entries, relation, threshold))


def _dense_products(m: np.ndarray) -> tuple:
    """What ``_compressed_count`` reads of a matrix already known to be
    symmetric: ``X -> A X``, ``|A|_F`` (``_finite_fro``), the squared
    column norms, the length ``n`` of the sums behind them, and no error
    beyond the rounding of those sums."""
    return m.__matmul__, _finite_fro(m), np.einsum("ij,ij->j", m, m), m.shape[0], 0.0


def _kernel_products(kernel: _Kernel) -> tuple:
    """What ``_compressed_count`` reads of the ``_Kernel`` ``K = S T^-1 S``
    on the support of ``weight = S^2``, in O(n) on the grid of ``n`` nodes
    from the ``pttrf`` factors ``T~ = L D L^T`` of ``T`` (``d``, and ``l``
    below the diagonal of ``L``), with no dense kernel formed (Meurant,
    SIAM J. Matrix Anal. Appl. 13 (1992) 707-728).

    - ``X -> K X`` is ``S T^-1 (S X)``, one ``pttrs`` solve.
    - ``G = T~^-1`` has ``G_ij = -l_i G_(i+1)j`` for ``i < j`` and the
      diagonal ``G_nn = 1/d_n``, ``G_jj = 1/d_j + l_j^2 G_(j+1)(j+1)``.  With
      the forward sum ``P_1 = 0``, ``P_j = l_(j-1)^2 (w_(j-1) + P_(j-1))``
      and the backward sum ``Q_n = 0``, ``Q_j = l_j^2 (w_(j+1)
      G_(j+1)(j+1)^2 + Q_(j+1))``, column ``j`` of ``K~ = S T~^-1 S`` has
      the squared norm ``w_j (G_jj^2 (w_j + P_j) + Q_j)``, and ``|K~|_F^2``
      is their sum, ``sum_j w_j G_jj^2 (w_j + 2 P_j)``.  Every term is
      positive, so the sums do not cancel: their rounding is below ``10 n
      u`` relative, inside ``_compressed_count``'s ``n^2 u`` allowance on
      ``d^2``.
    - The proof is made for ``K~``.  The solves have a backward error of
      about ``5 u |T~|``, and ``|L| D |L^T| = |T~|``, so a product is within
      ``5 u (1 + 2 cond_inf(T)) |K| |X|`` of ``K~ X`` to first order, and
      the two scalings by ``S`` add ``2 u``; the factorization's backward
      error, about ``4 u |T|``, moves each eigenvalue of ``K~`` from ``K``'s
      by at most ``4 u (1 + 2 cond_inf(T)) |K|`` (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2002, ch. 9).
      The error passed on, ``20 u cond_inf(T)`` since the condition number is
      at least 1, and the factor ``k`` of ``e`` cover both.  ``cond_inf(T)
      = |T|_inf max(|T^-1| 1)`` is exact and costs one more ``pttrs``:
      ``|T^-1|`` is the inverse of the tridiagonal with off-diagonal
      ``-|off|``, an M-matrix, whose factors are ``d`` and ``-|l|``.

    A ``T`` that is not positive definite raises ValueError, and so does a
    ``|K~|_F`` that is not finite.
    """
    from scipy.linalg import lapack

    diag, off, weight = kernel
    factors = _tridiagonal_factor(diag, off)
    if factors is None:
        raise ValueError("the tridiagonal T of the kernel S T^-1 S is not positive definite")
    d, l = factors
    n, support = d.size, kernel.support
    root = np.sqrt(weight[support])[:, None]

    def product(x):
        b = np.zeros((n, x.shape[1]))
        b[support] = root * x
        return root * lapack.dpttrs(d, l, b)[0][support]

    row = np.abs(diag)
    row[1:] += np.abs(off)
    row[:-1] += np.abs(off)
    cond = float(row.max() * lapack.dpttrs(d, -np.abs(l), np.ones(n))[0].max())
    pivots, l2, w = d.tolist(), (l * l).tolist(), weight.tolist()
    g, p, q = [0.0] * n, [0.0] * n, [0.0] * n
    g[-1] = 1.0 / pivots[-1]
    for j in range(n - 2, -1, -1):
        g[j] = 1.0 / pivots[j] + l2[j] * g[j + 1]
        q[j] = l2[j] * (w[j + 1] * g[j + 1] * g[j + 1] + q[j + 1])
    for j in range(1, n):
        p[j] = l2[j - 1] * (w[j - 1] + p[j - 1])
    g, p, q, w = (np.array(v)[support] for v in (g, p, q, w))
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        columns = w * (g * g * (w + p) + q)
        fro = math.sqrt(columns.sum())
    if not fro < math.inf:
        raise ValueError("the kernel S T^-1 S has no finite Frobenius norm: its norm overflows")
    return product, fro, columns, n, 20.0 * _UNIT_ROUNDOFF * cond


def _compressed_count(products: tuple, relation: str, threshold: float) -> int | None:
    """``count_evs`` of a symmetric matrix ``A`` of more than
    ``_COMPRESSION_RANK = k`` rows, proved on a compression onto ``k``
    columns, or None where the proof fails; ``count_evs`` then counts the
    full spectrum.

    ``A`` is read only through ``products = (product, fro, columns, terms,
    error)``, from ``_dense_products`` of a matrix or ``_kernel_products`` of
    a kernel: ``product(X)`` is ``A X`` for an ``n x j`` block ``X``,
    ``fro`` is ``|A|_F``, ``columns`` the squared column norms, ``terms``
    the length of the sums behind a product and ``|A|_F``, and ``error`` the
    relative error of a product beyond their rounding.  For ``">"``, whose
    ``_interval`` is ``(lo, inf)``, the count of ``A`` above ``tau = lo`` is
    made; for ``"<"``, whose interval is ``(-inf, hi]``, that of ``-A``
    above ``tau = -hi``, for the guard band ``eta = 1e-10 (1 + |A|_F)``.
    ``Q`` (n x k, orthonormal) is the QR of the k columns of ``A`` of
    largest norm, then of ``A Q`` twice (block subspace iteration, Halko,
    Martinsson & Tropp 2011), by numpy alone, so that no call into scipy's
    BLAS is interleaved; an orthonormality defect ``|Q^T Q - I|_F`` above
    1e-12 raises RuntimeError.  In the basis ``[Q, Q_perp]``, ``A = [[B,
    C^T], [C, D]]`` with ``B = Q^T A Q``, ``c = |C|_F = |A Q - Q B|_F`` and
    ``d^2 = |D|_F^2 = |A|_F^2 - |B|_F^2 - 2 c^2``.  Where ``d < tau``, ``D -
    tau`` is negative definite, so by the inertia additivity of the Schur
    complement (Haynsworth 1968) ``A - tau`` has as many positive
    eigenvalues as ``S = B - tau + C^T (tau - D)^-1 C``, and ``B - tau <= S
    <= B - tau + w`` for ``w = c^2 / (tau - d)``.  So the count is the
    number of eigenvalues of ``B`` above ``tau`` when none lies in ``[tau -
    w, tau]``, and no eigenvalue of ``A`` then sits at ``tau``.

    Every norm is taken relative to ``scale = 1 + |A|_F``, so that no square
    overflows where ``|A|_F^2`` nearly does.  Rounding allowances, with
    ``u = 2^-53`` and ``N = terms``: each eigenvalue of ``B`` and ``c`` may
    be off by ``e = k (4e-12 + 2 (N + k) u + error) scale`` (the defect of
    ``Q`` moves the compression by about ``2e-12 |A|``, each product rounds
    by ``(N + k) u |A|`` per column, and carries ``error |A|`` more);
    ``d^2`` is raised by ``(N^2 u scale + 2 k e) scale``, for the rounding of
    ``|A|_F^2``, a sum of ``N^2`` squares, and the error ``e`` in ``|B|_F^2
    + 2 c^2``; ``c`` is raised by ``e`` in ``w``; and the excluded window
    widens to ``[tau - w - e, tau + e]``.  ``B``'s eigenvalues are
    ``_checked_eigenvalues``'.
    """
    product, fro, columns, terms, error = products
    n, k = columns.size, _COMPRESSION_RANK
    lo, hi = _interval(relation, threshold, _guard(fro))
    sign, tau = (1.0, lo) if relation == ">" else (-1.0, -hi)
    q = np.zeros((n, k))
    q[np.argsort(columns, kind="stable")[-k:], np.arange(k)] = 1.0
    for _ in range(3):  # QR of -A X is that of A X, with R negated
        q = np.linalg.qr(product(q))[0]
    defect = _fro(q.T @ q - np.eye(k))
    _require(defect <= 1e-12, "compression basis orthonormality defect {:.3e} exceeds 1e-12",
             defect)
    scale = 1.0 + fro  # B, c, d, e, w and tau below are in units of it
    aq = sign * product(q) / scale
    b = q.T @ aq
    b = 0.5 * (b + b.T)
    c = _fro(aq - q @ b)
    e = k * (4e-12 + 2.0 * (terms + k) * _UNIT_ROUNDOFF + error)
    d = math.sqrt(max((fro / scale) ** 2 - _fro(b) ** 2 - 2.0 * c**2
                      + terms * terms * _UNIT_ROUNDOFF + 2.0 * k * e, 0.0))
    tau /= scale
    if d >= tau:
        return None
    lam = _checked_eigenvalues(b)[0]
    w = (c + e) ** 2 / (tau - d)
    if np.any((lam >= tau - w - e) & (lam <= tau + e)):
        return None
    return int(np.count_nonzero(lam > tau))


def _count_evs(m: np.ndarray, relation: str, threshold):
    """``count_evs`` of a matrix already known to be symmetric, by ``_count``
    of its checked eigenvalues; or the array of the counts of every matrix
    of a stack ``(k, n, n)`` of them, each against the same ``threshold`` or
    its own entry of the array ``threshold``, from one stacked
    ``eigvalsh``."""
    return _count(*_checked_eigenvalues(m), relation, threshold)


def hs_norm(a: SymOperator) -> float:
    """Hilbert-Schmidt (Frobenius) norm of the operator."""
    return _fro(sym(a).entries)

