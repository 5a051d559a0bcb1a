"""Successive Birman-Schwinger transforms by projection subtraction.

Given a total operator ``K`` split per stage as ``K = K_j + L_j`` with a
spectral projection ``P_j`` of ``K_j`` at eigenvalue ``mu_j < 1``, the
transform

    T_j = (1 - mu_j P_j)^(-1/2) (T_{j-1} - mu_j P_j) (1 - mu_j P_j)^(-1/2)

preserves the number of eigenvalues above 1 at every stage (a congruence,
hence Sylvester inertia).  The same ``T_k`` admits the closed form
``K - sum_i mu_i P_i + M_k`` where ``M_k`` obeys a recurrence in the
remainder operators ``R_j = (1 - mu_j P_j)^(-1/2) - 1``; ``iterate`` runs
both and checks them against each other within ``CONSISTENCY_TOL``.
``(1 - mu P)^(-1/2)`` has one route, its closed form for an orthogonal
projection.  A ``ProjectionStep`` checks its projection once, at
construction, and builds that closed form there; ``iterate`` reads it
from the step instead of checking ``P`` again.

Every stage runs on a stack: ``k`` problems of one dimension ``n``, with
each operator a ``(k, n, n)`` array and the weights ``mu`` an array.  A
``_Steps`` holds one stage of every problem and checks each member at
construction; ``_iterate`` runs the subtraction on the stack with every
check made per member, and a failing member raises with its index.  The
symmetry checks of ``K_part``, ``P``, ``L_part``, ``T_k`` and ``M_k`` are
linop's stacked ``_symmetrized``.  ``ProjectionStep``, ``iterate`` and
``random_spectral_step`` run the same code on a stack of one, so there is
one route; the per-problem route it replaced is kept in the tests as the
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import SymOperator, _fro, _require, _symmetrized, sym

PROJECTION_TOL = 1e-10       # |P^2 - P|_F acceptance
SPECTRAL_COMPAT_TOL = 1e-8   # |(K_part - mu P) P|_F at construction
SPECTRAL_RUN_TOL = 1e-6      # |(K_part - mu P) R|_F allowed inside iterate
CONSISTENCY_TOL = 1e-8       # recurrence vs conjugation residual


def _check_projection(p: np.ndarray) -> None:
    """Reject the stack ``p`` unless each ``|P^2 - P|_F <= PROJECTION_TOL``."""
    idem = _fro(p @ p - p)
    _require(idem <= PROJECTION_TOL, "P is not a projection: |P^2 - P|_F = {:.3e}", idem,
             error=ValueError)


@dataclass(frozen=True, eq=False)
class _Steps:
    """One subtraction stage of each of ``k`` problems of one dimension.

    ``p``, ``k_part`` and ``l_part`` are ``(k, n, n)`` stacks of checked
    symmetric matrices and ``mu`` the ``(k,)`` weights.  Construction checks
    every member as ``ProjectionStep`` describes and builds the stack
    ``inv_sqrt`` of ``(1 - mu P)^(-1/2)``.
    """

    p: np.ndarray
    mu: np.ndarray
    k_part: np.ndarray
    l_part: np.ndarray

    def __post_init__(self):
        mu = self.mu
        _require((0.0 < mu) & (mu < 1.0), "mu must lie in (0, 1), got {}", mu, error=ValueError)
        _check_projection(self.p)
        _require(np.trace(self.p, axis1=1, axis2=2) >= 0.5, "P must be a nonzero projection",
                 error=ValueError)
        compat = _fro((self.k_part - mu[:, None, None] * self.p) @ self.p)
        _require(compat <= SPECTRAL_COMPAT_TOL, "P is not a spectral projection of K_part at "
                 "mu={:g}: |(K_part - mu P) P|_F = {:.3e}", mu, compat, error=ValueError)
        # 1 - mu P is 1 - mu on ran(P) and 1 on its complement, so this closed
        # form is exact at any rank, and exactly symmetric for a symmetric P
        w = np.eye(self.p.shape[-1]) + (1.0 / np.sqrt(1.0 - mu) - 1.0)[:, None, None] * self.p
        w.setflags(write=False)
        object.__setattr__(self, "inv_sqrt", w)

    def conjugate(self, t: np.ndarray) -> np.ndarray:
        """One conjugation stage of each member: the checked stack
        ``(1-muP)^(-1/2) (T - muP) (1-muP)^(-1/2)``."""
        w = self.inv_sqrt
        return _symmetrized(w @ (t - self.mu[:, None, None] * self.p) @ w)


@dataclass(frozen=True, eq=False)
class ProjectionStep:
    """One subtraction stage: projection, weight, and the K/L splitting.

    ``p`` must be an orthogonal projection that is spectral for ``k_part``
    at eigenvalue ``mu`` (the finite-dimensional stand-in for a subsystem
    threshold channel); ``l_part`` is the remainder, with
    ``k_part + l_part`` equal to the parent operator.  Construction also
    builds ``(1 - mu P)^(-1/2)``, which every stage of ``iterate`` uses.
    """

    p: SymOperator
    mu: float
    k_part: SymOperator
    l_part: SymOperator

    def __post_init__(self):
        p, k_part, l_part = sym(self.p), sym(self.k_part), sym(self.l_part)
        self.__dict__.update(p=p, k_part=k_part, l_part=l_part, _steps=_Steps(
            p.entries[None], np.array([self.mu], dtype=float), k_part.entries[None],
            l_part.entries[None]))

    @classmethod
    def _of(cls, s: _Steps) -> "ProjectionStep":
        """The step of a stack of one, whose members are checked already."""
        step = object.__new__(cls)
        step.__dict__.update(p=SymOperator._built(s.p[0]), mu=float(s.mu[0]),
                             k_part=SymOperator._built(s.k_part[0]),
                             l_part=SymOperator._built(s.l_part[0]), _steps=s)
        return step


@dataclass(frozen=True, eq=False)
class StageResult:
    """Stage-k transform, recurrence remainder, and their agreement residual."""

    t: SymOperator
    m: SymOperator
    consistency_residual: float


def _spectral_stack(x: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checked stack of ``Q diag(lam) Q^T``, with ``Q`` the orthogonal
    factor of each matrix of ``x`` by one stacked QR, and ``Q``."""
    q = np.linalg.qr(x)[0]
    return _symmetrized((q * lam[:, None, :]) @ q.mT), q


def _require_dim(dim: int) -> None:
    """Reject a dimension of a random split below 1, which has no top eigenvalue."""
    if dim < 1:
        raise ValueError(f"need a dimension >= 1, got {dim}")


def _draw_split(rng, dim: int) -> tuple:
    """One ``random_spectral_step`` drawn in its RNG order, before any QR:
    the QR input, ``mu`` and the spectrum of ``K_part``.  A ``dim`` below 1
    raises ValueError (``_require_dim``)."""
    _require_dim(dim)
    x = rng.standard_normal((dim, dim))
    mu = float(rng.uniform(0.3, 0.95))
    lam = rng.uniform(-0.5, mu - 0.1, size=dim)
    lam[0] = mu
    return x, mu, lam


def _random_steps(k_total: np.ndarray, draws: list) -> _Steps:
    """The stage of each member of the stack ``k_total`` split by its draw of
    ``draws`` as ``random_spectral_step`` describes, from one stacked QR."""
    x, mu, lam = (np.array([draw[i] for draw in draws]) for i in range(3))
    k_part, q = _spectral_stack(x, lam)
    top = q[:, :, 0]
    return _Steps(_symmetrized(top[:, :, None] * top[:, None, :]), mu, k_part,
                  _symmetrized(k_total - k_part))


def random_spectral_step(k_total: SymOperator, rng) -> ProjectionStep:
    """Random subsystem split for property corpora.

    Draws ``K_part`` in a random orthonormal basis with a designated top
    eigenvalue ``mu`` uniform on [0.3, 0.95] and its top eigenvector as the
    rank-one channel; ``L_part`` is the remainder against ``k_total``.
    """
    rng = np.random.default_rng(rng)
    k_total = sym(k_total)
    return ProjectionStep._of(_random_steps(k_total.entries[None],
                                            [_draw_split(rng, k_total.dim)]))


def _iterate(k_total: np.ndarray, steps: list[_Steps]) -> list[tuple]:
    """``iterate`` of every member of the stack ``k_total`` through its
    stage in each of ``steps``.  Returns per stage the stacks of ``T_k`` and
    of the checked ``M_k`` and the array of consistency residuals."""
    eye = np.eye(k_total.shape[-1])
    t = k_total
    m = np.zeros_like(k_total)
    p_sum = np.zeros_like(k_total)
    split_tol = 1e-10 * (1.0 + _fro(k_total))
    out = []
    for idx, step in enumerate(steps):
        split_gap = _fro(step.k_part + step.l_part - k_total)
        _require(split_gap <= split_tol, f"step {idx}: K_part + L_part differs from K_total "
                 "by {:.3e}", split_gap, error=ValueError)
        r = step.inv_sqrt - eye
        script_p = step.mu[:, None, None] * step.p
        spectral_defect = _fro((step.k_part - script_p) @ r)
        _require(spectral_defect <= SPECTRAL_RUN_TOL, f"step {idx}: projection is not "
                 "spectral for its subsystem part (|(K_k - mu_k P_k) R_k|_F = {:.3e})",
                 spectral_defect, error=ValueError)

        one_r = eye + r
        corr = step.l_part - p_sum
        m = one_r @ m @ one_r + r @ corr @ r + r @ corr + corr @ r
        p_sum = p_sum + script_p

        t = step.conjugate(t)
        residual = _fro(t - (k_total - p_sum + m))
        _require(residual <= CONSISTENCY_TOL, f"step {idx}: recurrence disagrees with "
                 "conjugation by {:.3e} " f"(allowed {CONSISTENCY_TOL:g})", residual)
        out.append((t, _symmetrized(m), residual))
    return out


def iterate(k_total: SymOperator, steps: list[ProjectionStep]) -> list[StageResult]:
    """Run the full subtraction pipeline, checking the remainder recurrence.

    Per stage the transform is computed twice: by direct conjugation and as
    ``K - sum_i mu_i P_i + M_k`` with ``M_k`` from the recurrence

        M_k = (1+R_k) M_{k-1} (1+R_k) + R_k C_k R_k + R_k C_k + C_k R_k,
        C_k = L_k - sum_{i<k} mu_i P_i,

    (``M_0 = 0``).  The two must agree within ``CONSISTENCY_TOL`` in
    Frobenius norm; intermediate products are accumulated unsymmetrized and
    the symmetry of each ``M_k`` is itself checked when wrapping the result.
    """
    stages = _iterate(sym(k_total).entries[None], [step._steps for step in steps])
    return [StageResult(t=SymOperator._built(t[0]), m=SymOperator._built(m[0]),
                        consistency_residual=float(residual[0]))
            for t, m, residual in stages]
