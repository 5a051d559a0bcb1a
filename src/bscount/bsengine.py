"""Birman-Schwinger operators and the two-way bound-state count.

For ``A >= 0`` self-adjoint, ``B`` symmetric and a spectral shift
``epsilon > 0`` the Birman-Schwinger operator is

    K(eps) = -(A + eps)^(-1/2) B (A + eps)^(-1/2)

and the counting identity says the eigenvalues of ``A + B`` below ``-eps``
are in bijection with the eigenvalues of ``K(eps)`` above 1 (an exact
equality when ``A`` is strictly positive, an inequality ``>=`` when ``A``
merely has a kernel).  This module realizes the operator, both counts, and
the Hilbert-Schmidt and rank-one-domination bounds as checkable procedures.

Every count runs on a stack: ``k`` problems of one dimension ``n``, with
``A`` and ``B`` as ``(k, n, n)`` arrays, and on an array of shifts, the
one input that is not an operator.  Each spectrum is one stacked call into
linop, which runs every eigensolve and checks each matrix of a stack on
its own.  Building a stack solves what does not depend on the shifts: the
checked eigendecomposition of every ``A`` (its positivity check, and the
square root in ``K(eps)``) and the checked eigenvalues of every
``A + B``.  Counting solves those of every ``K(eps)``.  The symmetry
checks of the built ``A``, ``B`` and ``K(eps)`` run per matrix too.  The
``eps`` jitter, the threshold-collision check and both counts are array
operations over the stack, made by linop's ``_collides``, ``_guarded_count``
and ``_count``, which hold the guard-band rule, and a failing member
raises with its index.

``random_corpus`` draws a property corpus first, in the RNG order of
drawing its problems one by one, then builds one stack and its shifts per
dimension, and ``corpus_counts`` counts it.  ``BsProblem``, ``count_bs``,
``count_direct``, ``mu_max`` and ``random_problem`` run the same code on a
stack of one, so there is one route; the per-problem route it replaced is
kept in the tests as the oracle.  The Hilbert-Schmidt and rank-one bounds
have stacked cores too, ``_hs_count_bound`` and ``_rank_one_domination``:
the second returns each member's count of eigenvalues above ``c``, so a
caller can count failed members, and ``hs_count_bound_check`` and
``rank_one_domination`` are those cores on a stack of one.  Stacks take
linop's dense route, as does any matrix not recorded tridiagonal: the
Sturm count serves only radial's reduced Hamiltonian.

Sign convention: the leading minus is part of the definition here, so
attractive perturbations ``B <= 0`` give ``K(eps) >= 0`` and binding shows
up as eigenvalues crossing +1.  A common variant absorbs the sign into the
perturbation and writes the kernel without the minus; this package uses the
signed form everywhere, including the ``eps = 0`` bounded case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import (
    DEFAULT_SEED,
    SymOperator,
    ThresholdCollisionError,  # re-exported: count_bs raises it
    _checked_eigenvalues,
    _collides,
    _count,
    _count_evs,
    _fro,
    _guarded_count,
    _require,
    _spectral_decompose,
    _symmetrized,
    sym,
)

# Smallest vector norm rank_one_domination will normalize away.
MIN_PROJECTION_NORM = 1e-8


@dataclass(frozen=True, eq=False)
class BsProblem:
    """A counting problem ``(A, B, eps)`` with ``A >= 0`` and ``eps > 0`` finite.

    Construction checks ``eps``, then builds a stack of one problem: the
    checked eigendecomposition of ``A``, its positivity check, and the
    checked eigenvalues of ``A + B``, which both counts read.
    """

    a: SymOperator
    b: SymOperator
    epsilon: float

    def __post_init__(self):
        a, b = sym(self.a), sym(self.b)
        if a.dim != b.dim:
            raise ValueError(f"dimension mismatch: A is {a.dim}, B is {b.dim}")
        self.__dict__.update(a=a, b=b, _eps=_shifts(self.epsilon),
                             _stack=_Stack(a.entries[None], b.entries[None]))

    @classmethod
    def _of(cls, s: "_Stack", eps: np.ndarray) -> "BsProblem":
        """The problem of a stack of one, whose matrices are checked already,
        and of its checked shift."""
        p = object.__new__(cls)
        p.__dict__.update(a=SymOperator._built(s.a[0]), b=SymOperator._built(s.b[0]),
                          epsilon=float(eps[0]), _eps=eps, _stack=s)
        return p

    @property
    def dim(self) -> int:
        return self.a.dim


@dataclass(frozen=True, eq=False)
class _Stack:
    """``k`` counting problems of one dimension ``n``, solved together.

    ``a`` and ``b`` are ``(k, n, n)`` stacks of symmetric matrices, or
    ``(1, n, n)`` shared by any number of shifts.  Construction solves, by
    one stacked call each, the checked decomposition ``a_decomposition`` of
    each ``A``, with its positivity check, and the checked eigenvalues of
    each ``A + B`` with their guard bands, ``h_eigenvalues``.  The sum of
    two symmetric stacks is exactly symmetric.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.__dict__.update(a_decomposition=_spectral_decompose(self.a, psd=True),
                             h_eigenvalues=_checked_eigenvalues(self.a + self.b))


def _shifts(epsilon) -> np.ndarray:
    """The frozen ``(k,)`` array of the shifts ``epsilon``, each checked
    positive and finite."""
    eps = np.array(epsilon, dtype=float, ndmin=1)
    _require(np.isfinite(eps) & (eps > 0), "epsilon must be positive and finite, got {}",
             eps, error=ValueError)
    eps.setflags(write=False)
    return eps


def _kernels(s: _Stack, eps: np.ndarray) -> np.ndarray:
    """The stack of ``K(eps) = -(A+eps)^(-1/2) B (A+eps)^(-1/2)``, symmetrized."""
    lam, v = s.a_decomposition
    shifted = lam + eps[:, None]
    _require(shifted[:, 0] > 0, "A + eps*I is not positive definite: min shifted "
             "eigenvalue {:.3e} with eps={:g}", shifted[:, 0], eps, error=ValueError)
    root = (v * shifted[:, None, :] ** -0.5) @ v.swapaxes(1, 2)
    return _symmetrized(-root @ s.b @ root)


def _count_direct(s: _Stack, eps: np.ndarray) -> np.ndarray:
    return _count(*s.h_eigenvalues, "<", -eps)


def _count_bs(s: _Stack, eps: np.ndarray) -> np.ndarray:
    # refused on the spectrum of A+B, counted on the kernel's
    _guarded_count(_count, s.h_eigenvalues, "<", -eps, "an eigenvalue of A+B lies within the "
                   "guard band {:.3e} of -eps; perturb eps (e.g. by a factor 1 +/- 1e-6) and retry",
                   s.h_eigenvalues[1])
    return _count_evs(_kernels(s, eps), ">", 1.0)


def count_direct(p: BsProblem) -> int:
    """Number of eigenvalues of ``A + B`` below ``-eps``, multiplicities included.

    The count ``count_evs(A + B, "<", -eps)`` makes: an eigenvalue within
    the guard band of ``-eps`` is not counted.
    """
    return int(_count_direct(p._stack, p._eps)[0])


def count_bs(p: BsProblem) -> int:
    """Number of eigenvalues of ``K(eps)`` above 1.

    Raises ThresholdCollisionError when an eigenvalue of ``A + B`` lies
    within the guard band of ``-eps``; the identity with count_direct is
    only asserted off thresholds, so the caller should perturb ``eps``.
    """
    return int(_count_bs(p._stack, p._eps)[0])


def mu_max(p: BsProblem, epsilons=None):
    """Largest eigenvalue of the Birman-Schwinger operator ``K(eps)``.

    With ``epsilons``, the array of it at each of those shifts instead, all
    from the problem's one decomposition of ``A`` and one stacked eigensolve.
    """
    eps = p._eps if epsilons is None else _shifts(epsilons)
    top = _checked_eigenvalues(_kernels(p._stack, eps))[0][:, -1]
    return float(top[0]) if epsilons is None else top


def hs_count_bound_check(a: SymOperator, delta: float, vectors: np.ndarray) -> tuple[bool, float]:
    """Check ``n <= |A|_HS^2 / delta^2`` for an orthonormal set of test vectors.

    ``vectors`` holds the set as columns; every vector must satisfy
    ``|(phi_i, A phi_i)| >= delta``, within the rounding slack
    ``1e-12 (1 + delta + |A|_F)``, for ``delta`` finite and at least 1e-12,
    the slack's floor; any other ``delta`` raises ValueError, and so does
    a bound that overflows.  Returns (holds, bound).
    """
    a = sym(a)
    v = np.asarray(vectors, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[0] != a.dim:
        raise ValueError(f"vectors have length {v.shape[0]}, operator dim is {a.dim}")
    holds, bound = _hs_count_bound(a.entries[None], np.array([delta], dtype=float), v[None])
    return bool(holds[0]), float(bound[0])


def _hs_count_bound(a: np.ndarray, delta: np.ndarray, v: np.ndarray):
    """``hs_count_bound_check`` of every member of a stack: ``a`` a
    ``(k, n, n)`` stack of symmetric matrices, ``delta`` their ``(k,)``
    bounds and ``v`` a ``(k, n, r)`` stack of test vector sets.  Returns the
    arrays ``holds`` and ``bound``; a member that fails a check raises
    ValueError with its index."""
    # below the slack's floor 1e-12 no expectation can be told from rounding,
    # and delta**2 underflows from about 1e-162 on
    _require(np.isfinite(delta) & (delta >= 1e-12), "delta must be positive and finite, "
             "at least the expectation slack's floor 1e-12, got {}", delta, error=ValueError)
    r = v.shape[-1]
    gram_defect = np.max(np.abs(v.mT @ v - np.eye(r)), axis=(1, 2))
    _require(gram_defect <= 1e-10, "vector set is not orthonormal: Gram defect {:.3e}",
             gram_defect, error=ValueError)
    expectations = np.einsum("kij,kij->kj", v, a @ v)
    fro = _fro(a)
    # boundary slack so the extremal equality family is not rejected by rounding
    slack = 1e-12 * (1.0 + delta + fro)
    small = np.abs(expectations) < (delta - slack)[:, None]

    def first_small(i):
        j = int(np.argmax(small[i]))
        return f"|(phi_{j}, A phi_{j})| = {abs(expectations[i][j]):.6e} < delta = {delta[i]:g}"

    _require(~small.any(axis=1), first_small, error=ValueError)
    with np.errstate(over="ignore"):  # an overflowing bound is rejected below
        bound = fro**2 / delta**2
    _require(bound < np.inf, "the bound |A|_F^2 / delta^2 overflows: |A|_F = {:.3e}, "
             "delta = {:g}", fro, delta, error=ValueError)
    return r <= bound + 1e-9 * (1.0 + bound), bound


def rank_one_domination(f: np.ndarray, a: SymOperator, epsilon0: float, c: float) -> float:
    """Constant ``L`` with ``max eig(f f^T - L (A+eps0)^(-1)) <= c``.

    Follows the spectral-cutoff construction: pick the smallest cutoff ``k0``
    in the spectrum of ``A`` with ``|f - P_[0,k0] f| < c/2`` and return
    ``L = 2 (k0 + eps0)``; ``eps0`` and ``c`` must be positive and finite.
    The bound is re-verified before returning, by
    counting the eigenvalues above ``c``; a count above 0 raises
    RuntimeError, and so does a ``c`` too small for any cutoff.  Either
    indicates a guard-band misconfiguration.
    """
    a = sym(a)
    big_l, above = _rank_one_domination(
        np.asarray(f, dtype=float).reshape(1, -1), a.entries[None],
        np.array([epsilon0], dtype=float), np.array([c], dtype=float))
    if above[0]:
        raise RuntimeError(f"verification failed: {above[0]} eigenvalues exceed c={c:g} "
                           f"for L={big_l[0]:g} (guard-band misconfiguration?)")
    return float(big_l[0])


def _rank_one_domination(f: np.ndarray, a: np.ndarray, epsilon0: np.ndarray, c: np.ndarray):
    """``rank_one_domination`` of every member of a stack: ``f`` the
    ``(k, n)`` vectors, ``a`` a ``(k, n, n)`` stack of symmetric matrices,
    ``epsilon0`` and ``c`` ``(k,)`` arrays.  Returns the arrays of ``L`` and
    of the count of eigenvalues of ``f f^T / |f|^2 - L (A+eps0)^(-1)`` above
    ``c``, which is 0 where the bound holds.  A member with bad input, or
    with no cutoff keeping the tail below ``c/2``, raises with its index."""
    _require(np.isfinite(epsilon0) & (epsilon0 > 0), "epsilon0 must be positive and finite, "
             "got {}", epsilon0, error=ValueError)
    _require(np.isfinite(c) & (c > 0), "c must be positive and finite, got {}", c,
             error=ValueError)
    norm = _fro(f[:, :, None])
    _require(norm >= MIN_PROJECTION_NORM, "vector norm {:.3e} below "
             f"{MIN_PROJECTION_NORM:g}; refusing to normalize", norm, error=ValueError)
    u = f / norm[:, None]
    lam, vec = _spectral_decompose(a, psd=True)
    coeffs = (vec.mT @ u[:, :, None])[:, :, 0]
    # tail norm above each candidate cutoff, scanning cutoffs in ascending order
    sq = coeffs**2
    total = np.sum(sq, axis=1)[:, None]
    tail_sq = np.concatenate((total, total - np.cumsum(sq, axis=1)), axis=1)
    cutoffs = np.concatenate((np.zeros_like(total), np.maximum(lam, 0.0)), axis=1)
    ok = np.sqrt(np.maximum(tail_sq, 0.0)) < (c / 2.0)[:, None]
    _require(ok.any(axis=1), "no spectral cutoff keeps the tail below c/2")
    big_l = 2.0 * (cutoffs[np.arange(len(ok)), np.argmax(ok, axis=1)] + epsilon0)

    inv = (vec / (lam + epsilon0[:, None])[:, None, :]) @ vec.mT  # symmetric up to rounding
    proj = u[:, :, None] * u[:, None, :]
    return big_l, _count_evs(_symmetrized(proj - big_l[:, None, None] * inv), ">", c)


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


def _random_stack(draws: list) -> tuple[_Stack, np.ndarray]:
    """The stack of the problems of ``draws`` (one dimension), ``A`` built
    from one stacked QR as ``random_problem`` describes, and its checked
    shifts: every ``eps`` that collides with the spectrum of its ``A + B``
    is jittered by 1e-6 relative until the guard band clears, at most 64
    times."""
    x, d, b, eps = (np.array([draw[i] for draw in draws]) for i in range(4))
    q = np.linalg.qr(x)[0]
    s = _Stack(_symmetrized((q.swapaxes(1, 2) * d[:, None, :]) @ q), _symmetrized(b))
    for _ in range(64):
        near = _collides(*s.h_eigenvalues, -eps)
        if not near.any():
            break
        eps[near] *= 1.0 + 1e-6
    return s, _shifts(eps)


def random_problem(dim: int, rng=DEFAULT_SEED, *, singular_a: bool = False,
                   indefinite_b: bool = False) -> BsProblem:
    """Seeded random counting problem for property corpora.

    ``A = Q^T D Q`` with ``D`` uniform on [0, 5] (first entry zeroed when
    ``singular_a``), ``B = -G^T G`` with optional symmetric noise of weight
    0.3 making it sign-indefinite, and ``eps`` uniform on [0.05, 1].  When
    ``eps`` collides with the spectrum of ``A + B`` it is jittered by 1e-6
    relative until the guard band clears; the counts of the returned
    problem read the spectrum that the jitter solved.
    """
    rng = np.random.default_rng(rng)
    return BsProblem._of(*_random_stack([_draw(rng, dim, singular_a, indefinite_b)]))


def random_corpus(size: int, rng, *, singular_a: bool = False):
    """``size`` random problems, as one stack per dimension.

    Each problem draws its dimension uniformly from 2 to 20, whether ``B``
    is indefinite (probability 1/2), and then the problem as
    ``random_problem`` does, in the RNG order of drawing the problems one
    at a time; every draw is made before this returns.  Returns an iterator
    over the pairs of a stack and its shifts, in ascending dimension, each
    holding its problems in draw order.  Each stack is built when the
    iterator reaches it, and its draws are freed then, so that a pass over
    the corpus holds the arrays of one dimension at a time.
    """
    def draw():
        dim = int(rng.integers(2, 21))
        return dim, _draw(rng, dim, singular_a, bool(rng.integers(0, 2)))

    return (_random_stack(draws) for _, draws in _grouped(size, draw))


def _grouped(size: int, draw):
    """``size`` problems drawn one at a time by ``draw()``, which returns a
    problem's group key and its draws; every draw is made before this
    returns.  Returns an iterator over the groups in ascending key order,
    each as its key and the list of its members' draws in draw order, which
    frees a group's draws when it reaches them.  A negative ``size`` raises
    ValueError (``_require_draws``)."""
    _require_draws(size)
    groups = {}
    for _ in range(size):
        key, member = draw()
        groups.setdefault(key, []).append(member)
    return ((key, groups.pop(key)) for key in sorted(groups))


def _require_draws(n: int) -> None:
    """Reject a number of random draws that is negative."""
    if n < 0:
        raise ValueError(f"need a nonnegative number of draws, got {n}")


def corpus_counts(corpus) -> tuple[np.ndarray, np.ndarray]:
    """``count_direct`` and ``count_bs`` of every problem of a
    ``random_corpus``, in its order, from one stacked eigensolve of the
    kernels per stack."""
    counts = ([(_count_direct(s, eps), _count_bs(s, eps)) for s, eps in corpus]
              or [(np.zeros(0, int),) * 2])
    return tuple(np.concatenate(c) for c in zip(*counts))
