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
construction, and builds that closed form there; ``bs_step`` and
``iterate`` read it from the step instead of checking ``P`` again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import SymOperator, sym

PROJECTION_TOL = 1e-10       # |P^2 - P|_F acceptance
SPECTRAL_COMPAT_TOL = 1e-8   # |(K_part - mu P) P|_F at construction
SPECTRAL_RUN_TOL = 1e-6      # |(K_part - mu P) R|_F allowed inside iterate
CONSISTENCY_TOL = 1e-8       # recurrence vs conjugation residual


def _check_projection(p: SymOperator) -> None:
    """Reject ``p`` unless ``|P^2 - P|_F <= PROJECTION_TOL``."""
    idem = float(np.linalg.norm(p.entries @ p.entries - p.entries))
    if idem > PROJECTION_TOL:
        raise ValueError(f"P is not a projection: |P^2 - P|_F = {idem:.3e}")


@dataclass(frozen=True)
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
        p = sym(self.p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k_part", sym(self.k_part))
        object.__setattr__(self, "l_part", sym(self.l_part))
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        _check_projection(p)
        if float(np.trace(p.entries)) < 0.5:
            raise ValueError("P must be a nonzero projection")
        compat = float(np.linalg.norm(
            (self.k_part.entries - self.mu * p.entries) @ p.entries))
        if compat > SPECTRAL_COMPAT_TOL:
            raise ValueError(
                f"P is not a spectral projection of K_part at mu={self.mu:g}: "
                f"|(K_part - mu P) P|_F = {compat:.3e}"
            )
        # 1 - mu P is 1 - mu on ran(P) and 1 on its complement, so this closed
        # form is exact at any rank, and exactly symmetric for a symmetric P
        w = np.eye(p.dim) + (1.0 / np.sqrt(1.0 - self.mu) - 1.0) * p.entries
        w.setflags(write=False)
        object.__setattr__(self, "_inv_sqrt", w)


@dataclass(frozen=True)
class StageResult:
    """Stage-k transform, recurrence remainder, and their agreement residual."""

    t: SymOperator
    m: SymOperator
    consistency_residual: float


def random_spectral_step(k_total: SymOperator, rng) -> ProjectionStep:
    """Random subsystem split for property corpora.

    Draws ``K_part`` in a random orthonormal basis with a designated top
    eigenvalue ``mu`` uniform on [0.3, 0.95] and its top eigenvector as the
    rank-one channel; ``L_part`` is the remainder against ``k_total``.
    """
    rng = np.random.default_rng(rng)
    k_total = sym(k_total)
    dim = k_total.dim
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    mu = float(rng.uniform(0.3, 0.95))
    lam = rng.uniform(-0.5, mu - 0.1, size=dim)
    lam[0] = mu
    k_part = SymOperator((q * lam) @ q.T)
    p = SymOperator(np.outer(q[:, 0], q[:, 0]))
    return ProjectionStep(p=p, mu=mu, k_part=k_part,
                          l_part=SymOperator(k_total.entries - k_part.entries))


def bs_step(t: SymOperator, step: ProjectionStep) -> SymOperator:
    """One conjugation stage: ``(1-muP)^(-1/2) (T - muP) (1-muP)^(-1/2)``."""
    t = sym(t)
    w = step._inv_sqrt
    return SymOperator(w @ (t.entries - step.mu * step.p.entries) @ w)


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
    k_total = sym(k_total)
    dim = k_total.dim
    t = k_total
    m = np.zeros((dim, dim))
    p_sum = np.zeros((dim, dim))
    out: list[StageResult] = []
    for idx, step in enumerate(steps):
        split_gap = float(np.linalg.norm(
            step.k_part.entries + step.l_part.entries - k_total.entries))
        if split_gap > 1e-10 * (1.0 + np.linalg.norm(k_total.entries)):
            raise ValueError(
                f"step {idx}: K_part + L_part differs from K_total by {split_gap:.3e}")
        r = step._inv_sqrt - np.eye(dim)
        script_p = step.mu * step.p.entries
        spectral_defect = float(np.linalg.norm((step.k_part.entries - script_p) @ r))
        if spectral_defect > SPECTRAL_RUN_TOL:
            raise ValueError(
                f"step {idx}: projection is not spectral for its subsystem part "
                f"(|(K_k - mu_k P_k) R_k|_F = {spectral_defect:.3e})")

        one_r = np.eye(dim) + r
        corr = step.l_part.entries - p_sum
        m = one_r @ m @ one_r + r @ corr @ r + r @ corr + corr @ r
        p_sum = p_sum + script_p

        t = bs_step(t, step)
        reconstructed = k_total.entries - p_sum + m
        residual = float(np.linalg.norm(t.entries - reconstructed))
        if residual > CONSISTENCY_TOL:
            raise RuntimeError(
                f"step {idx}: recurrence disagrees with conjugation by {residual:.3e} "
                f"(allowed {CONSISTENCY_TOL:g})")
        out.append(StageResult(t=t, m=SymOperator(m), consistency_residual=residual))
    return out
