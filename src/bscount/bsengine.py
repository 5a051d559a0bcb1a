"""Birman-Schwinger operators and the two-way bound-state count.

For ``A >= 0`` self-adjoint, ``B`` symmetric and a spectral shift
``epsilon > 0`` the Birman-Schwinger operator is

    K(eps) = -(A + eps)^(-1/2) B (A + eps)^(-1/2)

and the counting identity says the eigenvalues of ``A + B`` below ``-eps``
are in bijection with the eigenvalues of ``K(eps)`` above 1 (an exact
equality when ``A`` is strictly positive, an inequality ``>=`` when ``A``
merely has a kernel).  This module realizes the operator, both counts, the
critical-coupling locator, and the Hilbert-Schmidt and rank-one-domination
bounds as checkable procedures.

Every count runs on a stack: ``k`` problems of one dimension ``n``, with
``A`` and ``B`` as ``(k, n, n)`` arrays and the shifts as an array.  Each
spectrum is one stacked call into linop, which runs every eigensolve and
checks each matrix of a stack on its own: the checked eigendecomposition
of every ``A`` (its positivity check, and the square root in ``K(eps)``)
when the stack is built, the checked eigenvalues of every ``A + B`` on
first use, and those of every ``K(eps)``.  The symmetry checks of the
built ``A``, ``B`` and ``K(eps)`` run per matrix too.  The ``eps`` jitter,
the threshold-collision check and both counts are array operations over
the stack, and a failing member raises with its index.

``random_corpus`` draws a property corpus first, in the RNG order of
drawing its problems one by one, then builds one stack per dimension, and
``corpus_counts`` counts it.  ``BsProblem``, ``count_bs``,
``count_direct``, ``mu_max`` and ``random_problem`` run the same code on a
stack of one, so there is one route; the per-problem route it replaced is
kept in the tests as the oracle.  Stacks take linop's dense route, as
does any matrix whose builder recorded no structure: the deflated and
tridiagonal routes serve only the radial builders' operators.

Sign convention: the leading minus is part of the definition here, so
attractive perturbations ``B <= 0`` give ``K(eps) >= 0`` and binding shows
up as eigenvalues crossing +1.  A common variant absorbs the sign into the
perturbation and writes the kernel without the minus; this package uses the
signed form everywhere, including the ``eps = 0`` bounded case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linop import (
    DEFAULT_SEED,
    SymOperator,
    _checked_eigenvalues,
    _require,
    _spectral_decompose,
    _symmetrized,
    count_evs,
    hs_norm,
    rank_one_projection,
    sym,
)

LAMBDA_CAP = 1e6  # largest coupling probed before declaring "never binds"


class ThresholdCollisionError(RuntimeError):
    """An eigenvalue of ``A + B`` sits on the counting threshold ``-eps``."""


class NeverBindsError(RuntimeError):
    """``A + lambda*B`` stays positive semidefinite for all probed couplings."""


@dataclass(frozen=True)
class BsProblem:
    """A counting problem ``(A, B, eps)`` with ``A >= 0`` and ``eps > 0`` finite.

    Construction checks ``eps`` and runs the checked eigendecomposition of
    ``A``, its positivity check, on a stack of one problem; the checked
    eigenvalues of ``A + B``, which both counts read, follow on first use.
    """

    a: SymOperator
    b: SymOperator
    epsilon: float

    def __post_init__(self):
        a, b = sym(self.a), sym(self.b)
        if a.dim != b.dim:
            raise ValueError(f"dimension mismatch: A is {a.dim}, B is {b.dim}")
        self.__dict__.update(a=a, b=b, _stack=_Stack(a.entries[None], b.entries[None],
                                                     self.epsilon))

    @classmethod
    def _of(cls, s: "_Stack") -> "BsProblem":
        """The problem of a stack of one, whose matrices are checked already."""
        p = object.__new__(cls)
        p.__dict__.update(a=SymOperator._built(s.a[0]), b=SymOperator._built(s.b[0]),
                          epsilon=float(s.epsilon[0]), _stack=s)
        return p

    @property
    def dim(self) -> int:
        return self.a.dim


@dataclass(frozen=True)
class _Stack:
    """``k`` counting problems of one dimension ``n``, solved together.

    ``a`` and ``b`` are ``(k, n, n)`` stacks of symmetric matrices, or
    ``(1, n, n)`` shared by all ``k`` shifts ``epsilon``.  Unless given,
    construction solves the checked decomposition of each ``A``, with its
    positivity check, by one stacked call into ``a_eigh``.  Neither it nor
    ``h_spectrum`` depends on the shifts, so ``replace`` keeps both.
    """

    a: np.ndarray
    b: np.ndarray
    epsilon: np.ndarray
    a_eigh: tuple | None = None
    h: tuple | None = None

    def __post_init__(self):
        eps = np.array(self.epsilon, dtype=float, ndmin=1)
        _require(np.isfinite(eps) & (eps > 0), "epsilon must be positive and finite, got {}",
                 eps, error=ValueError)
        eps.setflags(write=False)
        object.__setattr__(self, "epsilon", eps)
        if self.a_eigh is None:
            object.__setattr__(self, "a_eigh", _spectral_decompose(self.a, psd=True))

    def h_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Checked eigenvalues of each ``A + B`` and their guard bands, by
        one stacked call on first use, kept in ``h``.  The sum of two
        symmetric stacks is exactly symmetric."""
        if self.h is None:
            object.__setattr__(self, "h", _checked_eigenvalues(self.a + self.b))
        return self.h


@dataclass(frozen=True)
class CriticalCouplingResult:
    """Location of the coupling at which ``A + lambda*B`` first loses positivity."""

    lambda_star: float
    bracket: tuple[float, float]
    iterations: int
    residual_min_eig: float


def _kernels(s: _Stack) -> np.ndarray:
    """The stack of ``K(eps) = -(A+eps)^(-1/2) B (A+eps)^(-1/2)``, symmetrized."""
    lam, v = s.a_eigh
    shifted = lam + s.epsilon[:, None]
    _require(shifted[:, 0] > 0, "A + eps*I is not positive definite: min shifted "
             "eigenvalue {:.3e} with eps={:g}", shifted[:, 0], s.epsilon, error=ValueError)
    root = (v * shifted[:, None, :] ** -0.5) @ v.swapaxes(1, 2)
    return _symmetrized(-root @ s.b @ root)


def _count_direct(s: _Stack) -> np.ndarray:
    lam, eta = s.h_spectrum()
    return np.count_nonzero(lam < (-s.epsilon - eta)[:, None], axis=1)


def _count_bs(s: _Stack) -> np.ndarray:
    lam, eta = s.h_spectrum()
    gap = np.min(np.abs(lam + s.epsilon[:, None]), axis=1)
    _require(gap >= eta, "an eigenvalue of A+B lies within {:.3e} of -eps (guard {:.3e}); "
             "perturb eps (e.g. by a factor 1 +/- 1e-6) and retry", gap, eta,
             error=ThresholdCollisionError)
    mu, eta_k = _checked_eigenvalues(_kernels(s))
    return np.count_nonzero(mu > (1.0 + eta_k)[:, None], axis=1)


def bs_operator(p: BsProblem) -> SymOperator:
    """The operator ``K(eps) = -(A+eps)^(-1/2) B (A+eps)^(-1/2)``, symmetrized."""
    return SymOperator._built(_kernels(p._stack)[0])


def count_direct(p: BsProblem) -> int:
    """Number of eigenvalues of ``A + B`` below ``-eps``, multiplicities included.

    The strict count of ``count_evs``: eigenvalues within the guard band of
    ``-eps`` are not counted.
    """
    return int(_count_direct(p._stack)[0])


def count_bs(p: BsProblem) -> int:
    """Number of eigenvalues of ``K(eps)`` above 1.

    Raises ThresholdCollisionError when an eigenvalue of ``A + B`` lies
    within the guard band of ``-eps``; the identity with count_direct is
    only asserted off thresholds, so the caller should perturb ``eps``.
    """
    return int(_count_bs(p._stack)[0])


def mu_max(p: BsProblem, epsilons=None):
    """Largest eigenvalue of the Birman-Schwinger operator ``K(eps)``.

    With ``epsilons``, the array of it at each of those shifts instead, all
    from the problem's one decomposition of ``A`` and one stacked eigensolve.
    """
    s = p._stack if epsilons is None else replace(p._stack, epsilon=epsilons)
    top = _checked_eigenvalues(_kernels(s))[0][:, -1]
    return float(top[0]) if epsilons is None else top


def _bisect_coupling(binds, tol: float, rel_tol: float) -> tuple[float, float, int]:
    """Bracket ``(lo, hi]`` of the smallest coupling for which ``binds`` holds.

    Doubles the coupling from 1 until ``binds`` holds, raising
    NeverBindsError past ``LAMBDA_CAP``, then bisects until the bracket is
    no wider than ``max(tol, rel_tol * hi)`` (``hi`` as found by doubling).
    Returns ``(lo, hi, calls)``, ``calls`` counting every ``binds`` call.
    """
    calls = 1
    lo, hi = 0.0, 1.0
    while not binds(hi):
        lo = hi
        hi *= 2.0
        if hi > LAMBDA_CAP:
            raise NeverBindsError(f"no coupling up to {LAMBDA_CAP:g} binds")
        calls += 1
    width = max(tol, rel_tol * hi)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        calls += 1
        if binds(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi, calls


def critical_coupling(a: SymOperator, b: SymOperator, tol: float) -> CriticalCouplingResult:
    """Largest coupling keeping ``A + lambda*B`` positive semidefinite.

    Brackets by doubling lambda from 1 until the smallest eigenvalue drops
    below the guard band, then bisects to a bracket of width <= tol.  Raises
    NeverBindsError if no coupling up to ``LAMBDA_CAP`` binds (which covers
    ``B >= 0``).
    """
    a, b = sym(a), sym(b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: A is {a.dim}, B is {b.dim}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    def min_eig(lam: float) -> tuple[float, float]:
        ev, eta = _checked_eigenvalues(a.entries + lam * b.entries)
        return float(ev[0]), eta

    def binds(lam: float) -> bool:
        e, eta = min_eig(lam)
        return e < -eta

    lo, hi, iterations = _bisect_coupling(binds, tol, 0.0)
    lambda_star = 0.5 * (lo + hi)
    residual, _ = min_eig(lambda_star)
    return CriticalCouplingResult(
        lambda_star=lambda_star,
        bracket=(lo, hi),
        iterations=iterations,
        residual_min_eig=residual,
    )


def hs_count_bound_check(a: SymOperator, delta: float, vectors: np.ndarray) -> tuple[bool, float]:
    """Check ``n <= |A|_HS^2 / delta^2`` for an orthonormal set of test vectors.

    ``vectors`` holds the set as columns; every vector must satisfy
    ``|(phi_i, A phi_i)| >= delta``.  Returns (holds, bound).
    """
    a = sym(a)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    v = np.asarray(vectors, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[0] != a.dim:
        raise ValueError(f"vectors have length {v.shape[0]}, operator dim is {a.dim}")
    n = v.shape[1]
    gram_defect = float(np.max(np.abs(v.T @ v - np.eye(n))))
    if gram_defect > 1e-10:
        raise ValueError(f"vector set is not orthonormal: Gram defect {gram_defect:.3e}")
    expectations = np.einsum("ij,ij->j", v, a.entries @ v)
    # boundary slack so the extremal equality family is not rejected by rounding
    slack = 1e-12 * (1.0 + delta + np.linalg.norm(a.entries))
    small = np.abs(expectations) < delta - slack
    if np.any(small):
        i = int(np.argmax(small))
        raise ValueError(
            f"|(phi_{i}, A phi_{i})| = {abs(expectations[i]):.6e} < delta = {delta:g}"
        )
    bound = hs_norm(a) ** 2 / delta**2
    return n <= bound + 1e-9 * (1.0 + bound), bound


def rank_one_domination(f: np.ndarray, a: SymOperator, epsilon0: float, c: float) -> float:
    """Constant ``L`` with ``max eig(f f^T - L (A+eps0)^(-1)) <= c``.

    Follows the spectral-cutoff construction: pick the smallest cutoff ``k0``
    in the spectrum of ``A`` with ``|f - P_[0,k0] f| < c/2`` and return
    ``L = 2 (k0 + eps0)``.  The bound is re-verified before returning, by
    counting the eigenvalues above ``c``: any (RuntimeError) indicates a
    guard-band misconfiguration.
    """
    a = sym(a)
    if not epsilon0 > 0:
        raise ValueError(f"epsilon0 must be positive, got {epsilon0}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    proj = rank_one_projection(f)  # rejects |f| < MIN_PROJECTION_NORM
    lam, vec = _spectral_decompose(a.entries, psd=True)
    u = np.ravel(f) / np.linalg.norm(f)  # f normalized, as proj = u u^T
    coeffs = vec.T @ u
    # tail norm above each candidate cutoff, scanning cutoffs in ascending order
    tail_sq = np.concatenate(([np.sum(coeffs**2)], np.sum(coeffs**2) - np.cumsum(coeffs**2)))
    cutoffs = np.concatenate(([0.0], np.maximum(lam, 0.0)))
    ok = np.sqrt(np.maximum(tail_sq, 0.0)) < c / 2.0
    if not np.any(ok):
        raise RuntimeError("no spectral cutoff keeps the tail below c/2")
    k0 = float(cutoffs[int(np.argmax(ok))])
    big_l = 2.0 * (k0 + epsilon0)

    inv = (vec / (lam + epsilon0)) @ vec.T  # symmetric only up to rounding
    above = count_evs(sym(proj.entries - big_l * inv), ">", c)
    if above:
        raise RuntimeError(f"verification failed: {above} eigenvalues exceed c={c:g} "
                           f"for L={big_l:g} (guard-band misconfiguration?)")
    return big_l


def _draw(rng, dim: int, singular_a: bool, indefinite_b: bool) -> tuple:
    """One problem of ``random_problem``, drawn in its RNG order, before any
    eigensolve: the QR input, the spectrum ``d`` of ``A``, ``B`` not yet
    checked symmetric, and ``eps``."""
    x = rng.standard_normal((dim, dim))
    d = rng.uniform(0.0, 5.0, size=dim)
    if singular_a:
        d[0] = 0.0
    g = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    b = -(g.T @ g)
    if indefinite_b:
        w = rng.standard_normal((dim, dim))
        b = b + 0.3 * 0.5 * (w + w.T) / np.sqrt(dim)
    return x, d, b, rng.uniform(0.05, 1.0)


def _random_stack(draws: list) -> _Stack:
    """The stack of the problems of ``draws`` (one dimension), ``A`` built
    from one stacked QR as ``random_problem`` describes, with every ``eps``
    that collides with the spectrum of its ``A + B`` jittered by 1e-6
    relative until the guard band clears, at most 64 times."""
    x, d, b, eps = (np.array([draw[i] for draw in draws]) for i in range(4))
    q = np.linalg.qr(x)[0]
    s = _Stack(_symmetrized((q.swapaxes(1, 2) * d[:, None, :]) @ q), _symmetrized(b), eps)
    lam, eta = s.h_spectrum()
    for _ in range(64):
        near = np.min(np.abs(lam + eps[:, None]), axis=1) < eta
        if not near.any():
            break
        eps[near] *= 1.0 + 1e-6
    return replace(s, epsilon=eps)


def random_problem(dim: int, rng=DEFAULT_SEED, *, singular_a: bool = False,
                   indefinite_b: bool = False) -> BsProblem:
    """Seeded random counting problem for property corpora.

    ``A = Q^T D Q`` with ``D`` uniform on [0, 5] (first entry zeroed when
    ``singular_a``), ``B = -G^T G`` with optional symmetric noise of weight
    0.3 making it sign-indefinite, and ``eps`` uniform on [0.05, 1].  When
    ``eps`` collides with the spectrum of ``A + B`` it is jittered by 1e-6
    relative until the guard band clears.  The returned problem has that
    spectrum computed already.
    """
    rng = np.random.default_rng(rng)
    return BsProblem._of(_random_stack([_draw(rng, dim, singular_a, indefinite_b)]))


def random_corpus(size: int, rng, *, singular_a: bool = False):
    """``size`` random problems, as one stack per dimension.

    Each problem draws its dimension uniformly from 2 to 20, whether ``B``
    is indefinite (probability 1/2), and then the problem as
    ``random_problem`` does, in the RNG order of drawing the problems one
    at a time; every draw is made before this returns.  Returns an iterator
    over the stacks, in ascending dimension, each holding its problems in
    draw order.  Each stack is built when the iterator reaches it, and its
    draws are freed then, so that a pass over the corpus holds the arrays
    of one dimension at a time.
    """
    by_dim = {}
    for _ in range(size):
        dim = int(rng.integers(2, 21))
        by_dim.setdefault(dim, []).append(_draw(rng, dim, singular_a, bool(rng.integers(0, 2))))
    return (_random_stack(by_dim.pop(dim)) for dim in sorted(by_dim))


def corpus_counts(corpus) -> tuple[np.ndarray, np.ndarray]:
    """``count_direct`` and ``count_bs`` of every problem of a
    ``random_corpus``, in its order, from one stacked eigensolve of the
    kernels per stack."""
    counts = [(_count_direct(s), _count_bs(s)) for s in corpus] or [(np.zeros(0, int),) * 2]
    return tuple(np.concatenate(c) for c in zip(*counts))
