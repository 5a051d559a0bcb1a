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

A ``BsProblem`` owns the two spectra every count reads, each computed once:
the checked eigendecomposition of ``A`` (its positivity check, and the
square root in ``bs_operator``) at construction, and the checked
eigenvalues of ``A + B`` (``h_spectrum``) on first use.  linop runs every
eigensolve, so each spectrum read here carries linop's checks.

Sign convention: the leading minus is part of the definition here, so
attractive perturbations ``B <= 0`` give ``K(eps) >= 0`` and binding shows
up as eigenvalues crossing +1.  A common variant absorbs the sign into the
perturbation and writes the kernel without the minus; this package uses the
signed form everywhere, including the ``eps = 0`` bounded case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linop import (
    DEFAULT_SEED,
    SymOperator,
    _checked_eigenvalues,
    _guard,
    checked_eigenvalues,
    count_evs,
    hs_norm,
    rank_one_projection,
    spectral_decompose,
    sym,
)

LAMBDA_CAP = 1e6  # largest coupling probed before declaring "never binds"


class ThresholdCollisionError(RuntimeError):
    """An eigenvalue of ``A + B`` sits on the counting threshold ``-eps``."""


class NeverBindsError(RuntimeError):
    """``A + lambda*B`` stays positive semidefinite for all probed couplings."""


@dataclass(frozen=True)
class BsProblem:
    """A counting problem ``(A, B, eps)`` with ``A >= 0`` and ``eps > 0``.

    Construction runs one checked eigendecomposition of ``A``: it serves as
    the positivity check and is kept for ``bs_operator``.
    """

    a: SymOperator
    b: SymOperator
    epsilon: float

    def __post_init__(self):
        a, b = sym(self.a), sym(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.dim != b.dim:
            raise ValueError(f"dimension mismatch: A is {a.dim}, B is {b.dim}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "_a_eigh", _psd_decompose(a))

    @property
    def dim(self) -> int:
        return self.a.dim

    @cached_property
    def h_spectrum(self) -> tuple[np.ndarray, float]:
        """Checked ascending eigenvalues of ``A + B`` and their guard band.

        Computed on first use and kept.  The sum of two symmetric operators'
        entries is exactly symmetric, so it is not wrapped and checked again.
        """
        lam, eta = _checked_eigenvalues(self.a.entries + self.b.entries)
        lam.setflags(write=False)
        return lam, eta


def _psd_decompose(a: SymOperator) -> tuple[np.ndarray, np.ndarray]:
    """``spectral_decompose(a)``, after checking that ``a`` is positive
    semidefinite up to the count guard band (ValueError otherwise)."""
    lam, vec = spectral_decompose(a)
    if lam[0] < -_guard(float(np.linalg.norm(a.entries))):
        raise ValueError(f"A must be positive semidefinite: min eigenvalue {lam[0]:.3e}")
    return lam, vec


@dataclass(frozen=True)
class CriticalCouplingResult:
    """Location of the coupling at which ``A + lambda*B`` first loses positivity."""

    lambda_star: float
    bracket: tuple[float, float]
    iterations: int
    residual_min_eig: float


def bs_operator(p: BsProblem) -> SymOperator:
    """The operator ``K(eps) = -(A+eps)^(-1/2) B (A+eps)^(-1/2)``, symmetrized."""
    lam, v = p._a_eigh
    shifted = lam + p.epsilon
    if np.min(shifted) <= 0:
        raise ValueError(
            f"A + eps*I is not positive definite: min shifted eigenvalue "
            f"{np.min(shifted):.3e} with eps={p.epsilon:g}"
        )
    s = (v * shifted**-0.5) @ v.T
    return SymOperator(-s @ p.b.entries @ s)


def count_direct(p: BsProblem) -> int:
    """Number of eigenvalues of ``A + B`` below ``-eps``, multiplicities included.

    The strict count of ``count_evs``: eigenvalues within the guard band of
    ``-eps`` are not counted.
    """
    lam, eta = p.h_spectrum
    return int(np.count_nonzero(lam < -p.epsilon - eta))


def count_bs(p: BsProblem) -> int:
    """Number of eigenvalues of ``K(eps)`` above 1.

    Raises ThresholdCollisionError when an eigenvalue of ``A + B`` lies
    within the guard band of ``-eps``; the identity with count_direct is
    only asserted off thresholds, so the caller should perturb ``eps``.
    """
    lam, eta = p.h_spectrum
    gap = np.min(np.abs(lam + p.epsilon))
    if gap < eta:
        raise ThresholdCollisionError(
            f"an eigenvalue of A+B lies within {gap:.3e} of -eps (guard {eta:.3e}); "
            f"perturb eps (e.g. by a factor 1 +/- 1e-6) and retry"
        )
    return count_evs(bs_operator(p), ">", 1.0)


def mu_max(p: BsProblem) -> float:
    """Largest eigenvalue of the Birman-Schwinger operator ``K(eps)``."""
    return float(checked_eigenvalues(bs_operator(p))[0][-1])


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
    ``L = 2 (k0 + eps0)``.  The bound is re-verified numerically before
    returning; a failure indicates a guard-band misconfiguration.
    """
    a = sym(a)
    if not epsilon0 > 0:
        raise ValueError(f"epsilon0 must be positive, got {epsilon0}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    proj = rank_one_projection(f)  # rejects |f| < MIN_PROJECTION_NORM
    lam, vec = _psd_decompose(a)
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
    ev, eta = checked_eigenvalues(proj.entries - big_l * inv)
    top = float(ev[-1])
    if top > c + eta:
        raise RuntimeError(
            f"verification failed: max eigenvalue {top:.6e} exceeds c={c:g} "
            f"for L={big_l:g} (guard-band misconfiguration?)"
        )
    return big_l


def random_problem(dim: int, rng=DEFAULT_SEED, *, singular_a: bool = False,
                   indefinite_b: bool = False) -> BsProblem:
    """Seeded random counting problem for property corpora.

    ``A = Q^T D Q`` with ``D`` uniform on [0, 5] (first entry zeroed when
    ``singular_a``), ``B = -G^T G`` with optional symmetric noise of weight
    0.3 making it sign-indefinite, and ``eps`` uniform on [0.05, 1].  When
    ``eps`` collides with the spectrum of ``A + B`` it is jittered by 1e-6
    relative until the guard band clears.  The returned problem has that
    spectrum computed already; a jittered ``eps`` builds it anew.
    """
    rng = np.random.default_rng(rng)
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

    p = BsProblem(a=a, b=b, epsilon=float(rng.uniform(0.05, 1.0)))
    lam, eta = p.h_spectrum
    eps = p.epsilon
    for _ in range(64):
        if np.min(np.abs(lam + eps)) >= eta:
            break
        eps *= 1.0 + 1e-6
    return p if eps == p.epsilon else BsProblem(a=a, b=b, epsilon=eps)
