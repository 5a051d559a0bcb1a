"""Tests for the iterated projection-subtraction transform."""

import contextlib

import numpy as np
import pytest

from bscount import iterbs
from bscount.iterbs import ProjectionStep, iterate, random_spectral_step
from bscount.linop import SymOperator, count_evs, sym
from oracles import iterate_oracle, projection, random_step_oracle, step_oracle


def bs_step(t, step):
    """One conjugation stage of ``t``, by the step's stacked core."""
    return SymOperator._built(step._steps.conjugate(t.entries[None])[0])


def projection_step(k_total, k_part, p, mu):
    """Step with ``l_part = k_total - k_part``."""
    return ProjectionStep(p=p, mu=mu, k_part=k_part,
                          l_part=SymOperator(k_total.entries - k_part.entries))


def random_k_total(rng, dim, top_scale=0.9):
    """Random symmetric operator with spectrum inside (-1, top_scale)."""
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    lam = rng.uniform(-0.8, top_scale, size=dim)
    return sym((q.T * lam) @ q)


def split_with_spectral_projection(rng, k_total):
    """Split K into K_part + L_part with a rank-one spectral K_part channel.

    K_part is built in a random orthonormal basis with a designated top
    eigenvalue mu in (0, 1); L_part is the remainder.
    """
    dim = k_total.dim
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    mu = float(rng.uniform(0.3, 0.95))
    lam = rng.uniform(-0.5, mu - 0.1, size=dim)
    lam[0] = mu
    k_part = sym((q * lam) @ q.T)
    p = SymOperator(np.outer(q[:, 0], q[:, 0]))
    return projection_step(k_total, k_part, p, mu)


def step_from_top_eigenpair(k_total, k_part):
    """Step whose projection is onto the top eigenvector of ``k_part``."""
    lam, vec = np.linalg.eigh(k_part.entries)
    p = SymOperator(np.outer(vec[:, -1], vec[:, -1]))
    return projection_step(k_total, k_part, p, float(lam[-1]))


# ---------------------------------------------------------------------------
# (1 - mu P)^(-1/2) and R = (1 - mu P)^(-1/2) - 1, as a ProjectionStep builds them


def inv_sqrt_one_minus(p, mu):
    step = ProjectionStep(p=p, mu=mu, k_part=SymOperator(mu * p.entries),
                          l_part=SymOperator(0 * p.entries))
    return SymOperator(step._steps.inv_sqrt[0])


def r_operator(p, mu):
    return SymOperator(inv_sqrt_one_minus(p, mu).entries - np.eye(p.dim))


def test_inv_sqrt_small_mu_is_near_identity():
    p = projection(np.array([1.0, 0.0, 0.0]))
    out = inv_sqrt_one_minus(p, 1e-14)
    np.testing.assert_allclose(out.entries, np.eye(3), atol=1e-15 * 10)


def test_inv_sqrt_rank_one_closed_form():
    p = projection(np.array([1.0, 0.0]))
    out = inv_sqrt_one_minus(p, 0.75)
    np.testing.assert_allclose(out.entries, np.diag([2.0, 1.0]), atol=1e-12)


def test_inv_sqrt_algebraic_identity():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(6)
    p = projection(f)
    mu = 0.5
    w = inv_sqrt_one_minus(p, mu).entries
    product = w @ w @ (np.eye(6) - mu * p.entries)
    np.testing.assert_allclose(product, np.eye(6), atol=1e-12)


def test_inv_sqrt_higher_rank_projection():
    q = np.linalg.qr(np.random.default_rng(6).standard_normal((5, 5)))[0][:, :2]
    p = SymOperator(q @ q.T)
    mu = 0.36
    w = inv_sqrt_one_minus(p, mu).entries
    product = w @ w @ (np.eye(5) - mu * p.entries)
    np.testing.assert_allclose(product, np.eye(5), atol=1e-12)


def inv_sqrt_spectral(p, mu):
    """Oracle: ``(1 - mu P)^(-1/2)`` by spectral calculus on ``1 - mu P``."""
    lam, vec = np.linalg.eigh(np.eye(p.dim) - mu * p.entries)
    return (vec * lam**-0.5) @ vec.T


@pytest.mark.parametrize("rank", [1, 2])
def test_inv_sqrt_matches_spectral_calculus(rank):
    rng = np.random.default_rng(20 + rank)
    for mu in (1e-6, 0.3, 0.75, 0.99):
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :rank]
        p = SymOperator(q @ q.T)
        np.testing.assert_allclose(inv_sqrt_one_minus(p, mu).entries,
                                   inv_sqrt_spectral(p, mu), rtol=0.0, atol=1e-12)


def test_inv_sqrt_rejects_non_projection():
    with pytest.raises(ValueError, match="not a projection"):
        inv_sqrt_one_minus(sym(0.5 * np.eye(3)), 0.5)


def test_inv_sqrt_rejects_bad_mu():
    p = projection(np.array([1.0, 0.0]))
    for mu in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError, match="mu"):
            inv_sqrt_one_minus(p, mu)


def test_r_operator_is_projection_multiple():
    # mu = 0.75 makes 1/sqrt(1-mu) - 1 = 1, so R equals P itself
    p = projection(np.array([0.0, 1.0]))
    r = r_operator(p, 0.75)
    np.testing.assert_allclose(r.entries, p.entries, atol=1e-12)


def test_r_operator_commutes_and_absorbs():
    rng = np.random.default_rng(8)
    f = rng.standard_normal(7)
    p = projection(f)
    r = r_operator(p, 0.6).entries
    np.testing.assert_allclose(r @ p.entries, r, atol=1e-12)
    np.testing.assert_allclose(p.entries @ r, r, atol=1e-12)
    np.testing.assert_allclose(r @ (np.eye(7) - p.entries), np.zeros((7, 7)),
                               atol=1e-12)


def test_r_operator_vanishes_with_mu():
    p = projection(np.array([1.0, 0.0]))
    r = r_operator(p, 1e-15)
    assert np.linalg.norm(r.entries) <= 1e-12


# ---------------------------------------------------------------------------
# ProjectionStep validation


def test_step_rejects_non_projection():
    k = sym(np.diag([0.5, 0.1]))
    with pytest.raises(ValueError, match="projection"):
        ProjectionStep(p=sym(0.5 * np.eye(2)), mu=0.5, k_part=k,
                       l_part=sym(np.zeros((2, 2))))


def test_step_rejects_non_spectral_projection():
    # P projects onto e1 but K_part's eigenvector at mu is rotated away
    theta = 0.4
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    k_part = sym((q * [0.5, 0.1]) @ q.T)
    with pytest.raises(ValueError, match="spectral"):
        ProjectionStep(p=projection(np.array([1.0, 0.0])), mu=0.5,
                       k_part=k_part, l_part=sym(np.zeros((2, 2))))


def test_step_rejects_mu_out_of_range():
    k = sym(np.diag([1.2, 0.0]))
    with pytest.raises(ValueError, match="mu"):
        ProjectionStep(p=projection(np.array([1.0, 0.0])), mu=1.2,
                       k_part=k, l_part=sym(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# bs_step count invariance


def test_bs_step_orthogonal_channel_preserves_count():
    # T acts on a block orthogonal to P: counts above 1 unchanged
    t = sym(np.diag([1.5, 1.2, 0.3, 0.0]))
    p = projection(np.array([0.0, 0.0, 0.0, 1.0]))
    step = ProjectionStep(p=p, mu=0.5, k_part=sym(0.5 * p.entries),
                          l_part=sym(t.entries - 0.5 * p.entries))
    t1 = bs_step(t, step)
    assert count_evs(t1, ">", 1.0) == count_evs(t, ">", 1.0) == 2
    # on ran(P) the transformed operator sits at -mu/(1-mu)
    val = t1.entries[3, 3]
    assert val == pytest.approx(-0.5 / 0.5, abs=1e-12)


def test_bs_step_count_invariance_random():
    rng = np.random.default_rng(31)
    for _ in range(50):
        dim = int(rng.integers(3, 14))
        k = random_k_total(rng, dim, top_scale=1.6)
        lam, vec = np.linalg.eigh(k.entries)
        # pick a positive eigenvalue below 1 as the subtraction channel
        ok = (lam > 0.05) & (lam < 0.95)
        if not np.any(ok):
            continue
        j = int(np.nonzero(ok)[0][-1])
        step = projection_step(
            k, k, SymOperator(np.outer(vec[:, j], vec[:, j])), float(lam[j]))
        t1 = bs_step(k, step)
        assert count_evs(t1, ">", 1.0) == count_evs(k, ">", 1.0)


def test_two_orthogonal_steps_preserve_count():
    rng = np.random.default_rng(37)
    dim = 10
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    lam = rng.uniform(-0.5, 1.8, size=dim)
    lam[0], lam[1] = 0.7, 0.4
    k = sym((q * lam) @ q.T)
    base = count_evs(k, ">", 1.0)
    t = k
    for j in (0, 1):
        p = SymOperator(np.outer(q[:, j], q[:, j]))
        step = projection_step(k, k, p, float(lam[j]))
        t = bs_step(t, step)
        assert count_evs(t, ">", 1.0) == base


# ---------------------------------------------------------------------------
# iterate: recurrence vs conjugation


def test_iterate_zero_weight_limit():
    # all mu -> 0: every stage stays at K_total and M_k ~ 0
    rng = np.random.default_rng(41)
    k = random_k_total(rng, 8)
    steps = []
    for j in range(3):
        e = np.zeros(8)
        e[j] = 1.0
        mu = 1e-12
        p = projection(e)
        steps.append(ProjectionStep(p=p, mu=mu, k_part=sym(mu * p.entries),
                                    l_part=sym(k.entries - mu * p.entries)))
    stages = iterate(k, steps)
    for stage in stages:
        assert np.linalg.norm(stage.m.entries) <= 1e-10
        assert np.linalg.norm(stage.t.entries - k.entries) <= 1e-10


def test_iterate_full_subsystem_kills_m():
    # K_1 = K_total, L_1 = 0: M_1 = 0 and the count is preserved
    rng = np.random.default_rng(43)
    k = random_k_total(rng, 9)
    step = step_from_top_eigenpair(k, k)
    stages = iterate(k, [step])
    assert np.linalg.norm(stages[0].m.entries) <= 1e-10
    assert count_evs(stages[0].t, ">", 1.0) == count_evs(k, ">", 1.0)


def test_iterate_three_spectral_steps_consistency_and_count():
    rng = np.random.default_rng(47)
    for _ in range(20):
        k = random_k_total(rng, 12, top_scale=1.5)
        base = count_evs(k, ">", 1.0)
        stages = []
        t_ref = k
        steps = []
        for _ in range(3):
            steps.append(split_with_spectral_projection(rng, k))
        stages = iterate(k, steps)
        assert len(stages) == 3
        for stage in stages:
            assert stage.consistency_residual <= 1e-8
            assert count_evs(stage.t, ">", 1.0) == base
        # the stack of one gives the per-step route's bits
        oracle = iterate_oracle(k, [step_oracle(s.p, s.mu, s.k_part, s.l_part) for s in steps])
        for stage, (t, m, residual) in zip(stages, oracle):
            assert stage.t.entries.tobytes() == t.entries.tobytes()
            assert stage.m.entries.tobytes() == m.entries.tobytes()
            assert stage.consistency_residual == residual


def test_random_spectral_step_matches_the_per_step_oracle_bit_for_bit():
    rng, oracle_rng = np.random.default_rng(67), np.random.default_rng(67)
    for dim in (1, 2, 7, 15):
        k = sym(np.diag(np.linspace(-0.5, 1.5, dim)))
        step, oracle = random_spectral_step(k, rng), random_step_oracle(k, oracle_rng)
        assert step.mu == oracle["mu"]
        for name in ("p", "k_part", "l_part"):
            assert getattr(step, name).entries.tobytes() == oracle[name].entries.tobytes()
        assert step._steps.inv_sqrt[0].tobytes() == oracle["inv_sqrt"].tobytes()
        t = iterate_oracle(k, [oracle])[0][0]
        assert bs_step(k, step).entries.tobytes() == t.entries.tobytes()


def test_iterate_rejects_wrong_split():
    rng = np.random.default_rng(53)
    k = random_k_total(rng, 6)
    step = split_with_spectral_projection(rng, k)
    other = sym(k.entries + 0.5 * np.eye(6))
    with pytest.raises(ValueError, match="K_part"):
        iterate(other, [step])


def test_iterate_checks_each_projection_once(monkeypatch):
    # the step checks |P^2 - P| at construction; iterate does not repeat it
    checked = []
    true_check = iterbs._check_projection
    monkeypatch.setattr(iterbs, "_check_projection",
                        lambda p: checked.append(p) or true_check(p))
    rng = np.random.default_rng(59)
    k = random_k_total(rng, 10, top_scale=1.5)
    steps = [split_with_spectral_projection(rng, k) for _ in range(3)]
    assert len(checked) == 3
    stages = iterate(k, steps)
    assert len(stages) == 3
    assert len(checked) == 3


# ---------------------------------------------------------------------------
# each check fires just above its tolerance and not just below


def raises_unless(accepted, error, match):
    return contextlib.nullcontext() if accepted else pytest.raises(error, match=match)


@pytest.mark.parametrize("defect, accepted", [(3e-11, True), (3e-10, False)])
def test_projection_check_fires_at_its_tolerance(defect, accepted):
    # |P^2 - P|_F = defect (1 + defect) for P = diag(1 + defect, 0)
    p = sym(np.diag([1.0 + defect, 0.0]))
    with raises_unless(accepted, ValueError, "not a projection"):
        ProjectionStep(p=p, mu=0.5, k_part=sym(0.5 * p.entries), l_part=sym(np.zeros((2, 2))))


@pytest.mark.parametrize("gamma, accepted", [(3e-9, True), (3e-8, False)])
def test_spectral_compatibility_check_fires_at_its_tolerance(gamma, accepted):
    # (K_part - mu P) P = gamma e1 e1^T
    with raises_unless(accepted, ValueError, "spectral projection"):
        ProjectionStep(p=projection(np.array([1.0, 0.0])), mu=0.5,
                       k_part=sym(np.diag([0.5 + gamma, 0.0])), l_part=sym(np.zeros((2, 2))))


@pytest.mark.parametrize("gap, accepted", [(3.5e-10, True), (8e-10, False)])
def test_split_check_fires_at_its_tolerance(gap, accepted):
    # |K_total|_F = 3, so the split may miss K_total by 1e-10 (1 + 3)
    p = projection(np.array([1.0, 0.0]))
    step = ProjectionStep(p=p, mu=0.5, k_part=sym(0.5 * p.entries),
                          l_part=sym(np.diag([2.5, gap])))
    with raises_unless(accepted, ValueError, "K_part \\+ L_part differs"):
        assert iterate(sym(np.diag([3.0, 0.0])), [step])[0].consistency_residual <= 1e-15


def off_spectral_stage(gamma, c):
    """``iterate`` of ``K = K_part = diag(mu + gamma, 0)`` through the channel
    ``P = e1 e1^T`` at the ``mu`` with ``R = c P``: the spectral defect is
    ``gamma c``, and the recurrence misses ``R D + D R + R D R = gamma (2c +
    c^2) P`` of the conjugation, ``D = K_part - mu P``."""
    mu = 1.0 - 1.0 / (1.0 + c) ** 2
    k = sym(np.diag([mu + gamma, 0.0]))
    step = ProjectionStep(p=projection(np.array([1.0, 0.0])), mu=mu, k_part=k,
                          l_part=sym(np.zeros((2, 2))))
    return iterate(k, [step])


@pytest.mark.parametrize("gamma, consistent", [(2e-9, True), (5e-9, False)])
def test_consistency_check_fires_at_its_tolerance(gamma, consistent):
    # c = 1: the residual is 3 gamma against CONSISTENCY_TOL = 1e-8
    with raises_unless(consistent, RuntimeError, "recurrence disagrees"):
        assert off_spectral_stage(gamma, 1.0)[0].consistency_residual == pytest.approx(3 * gamma)


def test_spectral_defect_check_fires_at_its_tolerance():
    # gamma = 5e-9 passes the construction check; the defect 5e-7 passes
    # SPECTRAL_RUN_TOL = 1e-6 and fails the consistency check, 5e-6 fails it
    with pytest.raises(RuntimeError, match="recurrence disagrees"):
        off_spectral_stage(5e-9, 100.0)
    with pytest.raises(ValueError, match="not spectral for its subsystem part"):
        off_spectral_stage(5e-9, 1000.0)
