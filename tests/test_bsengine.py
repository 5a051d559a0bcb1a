"""Tests for the Birman-Schwinger counting machinery."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from bscount import bsengine, radial
from bscount.bsengine import (
    BsProblem,
    ThresholdCollisionError,
    corpus_counts,
    count_bs,
    count_direct,
    hs_count_bound_check,
    mu_max,
    random_corpus,
    random_problem,
    rank_one_domination,
)
from bscount.linop import DEFAULT_SEED, count_evs, hs_norm, sym
from oracles import (
    bisect_coupling,
    checked_eigenvalues,
    counts_oracle,
    hs_count_bound_oracle,
    jittered_oracle,
    mu_max_oracle,
    random_problem_oracle,
    rank_one_domination_oracle,
    spectral_decompose,
)


def brute_force_count_below(a, b, eps):
    """Independent oracle: sort the eigenvalues of A+B and scan."""
    lam = np.linalg.eigvalsh(a.entries + b.entries)
    return int(np.sum(lam < -eps))


# ---------------------------------------------------------------------------
# BsProblem validation


def test_problem_rejects_negative_a():
    with pytest.raises(ValueError, match="semidefinite"):
        BsProblem(a=sym(np.diag([-1.0, 2.0])), b=sym(np.zeros((2, 2))), epsilon=1.0)


def test_problem_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        BsProblem(a=sym(np.eye(2)), b=sym(-np.eye(2)), epsilon=0.0)


@pytest.mark.parametrize("epsilon", [np.inf, np.nan])
def test_problem_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        BsProblem(a=sym(np.eye(2)), b=sym(-np.eye(2)), epsilon=epsilon)


# ---------------------------------------------------------------------------
# the Birman-Schwinger operator


def test_bs_operator_scalar_case():
    p = BsProblem(a=sym(np.eye(3)), b=sym(-np.eye(3)), epsilon=1.0)
    np.testing.assert_allclose(bsengine._kernels(p._stack, p._eps)[0], 0.5 * np.eye(3), atol=1e-12)


def test_bs_operator_diagonal_case():
    p = BsProblem(a=sym(np.diag([0.0, 3.0])), b=sym(-2.0 * np.eye(2)), epsilon=1.0)
    np.testing.assert_allclose(bsengine._kernels(p._stack, p._eps)[0], np.diag([2.0, 0.5]),
                               atol=1e-12)


def test_bs_eigenvalues_match_generalized_problem():
    # oracle: mu solves the generalized problem -B x = mu (A + eps) x
    rng = np.random.default_rng(7)
    p = random_problem(9, rng=rng)
    k_eigs, _ = spectral_decompose(bsengine._kernels(p._stack, p._eps)[0])
    gen = scipy.linalg.eigh(-p.b.entries,
                            p.a.entries + p.epsilon * np.eye(p.dim),
                            eigvals_only=True)
    np.testing.assert_allclose(k_eigs, np.sort(gen), atol=1e-9)


# ---------------------------------------------------------------------------
# the counting identity


def test_count_direct_no_spectrum_below():
    p = BsProblem(a=sym(np.eye(2)), b=sym(np.zeros((2, 2))), epsilon=0.5)
    assert count_direct(p) == 0


def test_count_direct_diagonal_two():
    p = BsProblem(a=sym(np.zeros((2, 2))), b=sym(np.diag([-3.0, -3.0])), epsilon=1.0)
    assert count_direct(p) == 2


def test_counts_agree_scalar():
    p = BsProblem(a=sym(np.eye(2)), b=sym(-np.eye(2)), epsilon=1.0)
    assert count_direct(p) == 0
    assert count_bs(p) == 0


def test_counts_agree_diagonal_with_binding():
    p = BsProblem(a=sym(np.diag([0.0, 1.0])), b=sym(np.diag([-2.0, 0.0])), epsilon=0.5)
    assert count_direct(p) == 1
    assert count_bs(p) == 1


@pytest.mark.parametrize("indefinite", [False, True])
def test_counting_equality_random_corpus(indefinite):
    # strictly positive A: exact equality on every instance
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(120):
        dim = int(rng.integers(2, 21))
        p = random_problem(dim, rng=rng, indefinite_b=indefinite)
        direct = count_direct(p)
        assert count_bs(p) == direct
        assert direct == brute_force_count_below(p.a, p.b, p.epsilon)


def test_counting_inequality_with_kernel():
    # A with a kernel: the Birman-Schwinger count may only overcount
    rng = np.random.default_rng(DEFAULT_SEED + 1)
    for _ in range(120):
        dim = int(rng.integers(2, 21))
        p = random_problem(dim, rng=rng, singular_a=True,
                           indefinite_b=bool(rng.integers(0, 2)))
        assert count_bs(p) >= count_direct(p)


def test_bounded_case_zero_shift():
    # A bounded below by alpha > 0: eps = 0 counting via K(0) = -A^(-1/2) B A^(-1/2)
    rng = np.random.default_rng(11)
    for _ in range(60):
        dim = int(rng.integers(2, 16))
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        a = sym((q.T * rng.uniform(0.5, 5.0, size=dim)) @ q)
        g = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        b = sym(-(g.T @ g))
        lam_a, vec_a = spectral_decompose(a)
        inv_sqrt = (vec_a * lam_a**-0.5) @ vec_a.T
        k0_raw = -inv_sqrt @ b.entries @ inv_sqrt
        k0 = sym(0.5 * (k0_raw + k0_raw.T))
        from bscount.linop import count_evs
        h = sym(a.entries + b.entries)
        lam_h = np.linalg.eigvalsh(h.entries)
        if np.min(np.abs(lam_h)) < checked_eigenvalues(h)[1]:
            continue  # eigenvalue at the threshold itself: identity not asserted
        assert count_evs(k0, ">", 1.0) == count_evs(h, "<", 0.0)


def test_threshold_collision_detected():
    # engineered exact collision: eigenvalue of A+B equals -eps
    a = sym(np.diag([0.0, 1.0]))
    b = sym(np.diag([-1.5, 0.0]))
    p = BsProblem(a=a, b=b, epsilon=1.5)
    with pytest.raises(ThresholdCollisionError, match="perturb"):
        count_bs(p)


@pytest.mark.parametrize("procedure", [count_bs, count_direct, mu_max])
def test_eigenvalue_check_fires_in_counts(monkeypatch, procedure):
    p = random_problem(8, rng=np.random.default_rng(11))
    true_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: true_eigvalsh(m) + 1e-6)
    # building a problem solves the spectrum of A + B, which both counts read
    with pytest.raises(RuntimeError, match="trace"):
        procedure(BsProblem(a=p.a, b=p.b, epsilon=p.epsilon))
    if procedure is not count_direct:  # these solve K(eps) on each call
        with pytest.raises(RuntimeError, match="trace"):
            procedure(p)


def counted_eigensolves(monkeypatch) -> dict:
    """The numbers of ``np.linalg.eigh`` and ``eigvalsh`` calls from now on."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_bs_equality_problem_costs_three_eigensolves(monkeypatch):
    # eigh(A) and eigvalsh(A+B) at construction, both counts read, eigvalsh(K)
    calls = counted_eigensolves(monkeypatch)
    p = random_problem(9, rng=np.random.default_rng(61), indefinite_b=True)
    assert count_bs(p) == count_direct(p)
    assert calls == {"eigh": 1, "eigvalsh": 2}


def test_problem_construction_solves_a_and_a_plus_b_once_each(monkeypatch):
    calls = counted_eigensolves(monkeypatch)
    BsProblem(a=sym(np.diag([0.0, 1.0, 2.0])), b=sym(-np.eye(3)), epsilon=0.3)
    assert calls == {"eigh": 1, "eigvalsh": 1}


def test_mu_max_over_shifts_is_one_stacked_eigensolve(monkeypatch):
    p = BsProblem(a=sym(np.diag([0.0, 1.0, 2.0])), b=sym(-np.eye(3)), epsilon=0.3)
    calls = counted_eigensolves(monkeypatch)
    assert mu_max(p, np.linspace(0.05, 2.0, 10)).shape == (10,)
    assert calls == {"eigh": 0, "eigvalsh": 1}


# ---------------------------------------------------------------------------
# stacks: verify's corpus solved per dimension


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 901])
def test_corpus_matches_the_per_problem_oracle_bit_for_bit(seed):
    # verify's bs_equality and bs_inequality sections, one after the other
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for singular_a in (False, True):
        corpus = list(random_corpus(500, rng, singular_a=singular_a))
        direct, via_kernel = corpus_counts(corpus)
        problems = []
        for _ in range(500):
            dim = int(oracle_rng.integers(2, 21))
            problems.append(random_problem_oracle(
                dim, oracle_rng, singular_a=singular_a,
                indefinite_b=bool(oracle_rng.integers(0, 2))))
        # the corpus order: ascending dimension, then draw order
        problems.sort(key=lambda problem: problem[0].dim)
        members = [(s, shifts, j) for s, shifts in corpus for j in range(len(shifts))]
        assert len(members) == len(problems) == 500
        for i, ((s, shifts, j), (a, b, eps)) in enumerate(zip(members, problems)):
            assert s.a[j].tobytes() == a.entries.tobytes()
            assert s.b[j].tobytes() == b.entries.tobytes()
            assert shifts[j] == eps
            assert (direct[i], via_kernel[i]) == counts_oracle(a, b, eps)


def test_count_direct_is_the_strict_count_of_a_plus_b_across_the_verify_corpus():
    # verify's bs_equality and bs_inequality corpora, one after the other
    rng = np.random.default_rng(DEFAULT_SEED)
    for singular_a in (False, True):
        for s, shifts in random_corpus(500, rng, singular_a=singular_a):
            direct = bsengine._count_direct(s, shifts)
            for j, eps in enumerate(shifts):
                assert direct[j] == count_evs(sym(s.a[j] + s.b[j]), "<", -eps)


def test_empty_corpus_has_empty_counts():
    direct, via_kernel = corpus_counts(random_corpus(0, np.random.default_rng(1)))
    assert direct.shape == via_kernel.shape == (0,)


def test_mu_max_over_shifts_matches_the_per_problem_oracle_bit_for_bit():
    rng, oracle_rng = np.random.default_rng(DEFAULT_SEED), np.random.default_rng(DEFAULT_SEED)
    eps_grid = np.linspace(0.05, 2.0, 10)
    for _ in range(20):
        p = random_problem(int(rng.integers(2, 12)), rng=rng)
        a, b, _ = random_problem_oracle(int(oracle_rng.integers(2, 12)), oracle_rng)
        expected = [mu_max_oracle(a, b, float(e)) for e in eps_grid]
        assert mu_max(p, eps_grid).tolist() == expected
        assert mu_max(p) == mu_max_oracle(a, b, p.epsilon)


def three_problems(**bad):
    """A stack of three 2x2 problems and its shifts; ``bad`` replaces member
    1's ``a``, ``b`` or ``eps``."""
    a, b, eps = [np.eye(2)] * 3, [-0.5 * np.eye(2)] * 3, [1.0, 0.7, 0.4]
    member = {"a": a, "b": b, "eps": eps}
    for name, value in bad.items():
        member[name][1] = value
    return bsengine._Stack(np.array(a), np.array(b)), bsengine._shifts(eps)


def test_stack_member_breaking_the_trace_check_fails_loudly(monkeypatch):
    true_eigvalsh = np.linalg.eigvalsh

    def off_in_member_one(m):
        lam = true_eigvalsh(m)
        lam[1] += 1e-6
        return lam

    monkeypatch.setattr(np.linalg, "eigvalsh", off_in_member_one)
    with pytest.raises(RuntimeError, match=r"trace.*\(stack member 1\)"):
        bsengine._count_direct(*three_problems())


@pytest.mark.parametrize("gap", [0.0, 0.75])
def test_stack_member_on_the_threshold_fails_loudly(gap):
    # A + B = diag(-1.5 + gap * eta, 1) has an eigenvalue within the band of -eps
    eta = 1e-10 * (1.0 + np.sqrt(1.5**2 + 1.0))
    s = three_problems(a=np.diag([0.0, 1.0]), b=np.diag([-1.5 + gap * eta, 0.0]), eps=1.5)
    assert bsengine._count_direct(*s).tolist() == [0, 0, 0]
    with pytest.raises(ThresholdCollisionError, match=r"\(stack member 1\)"):
        bsengine._count_bs(*s)


def test_stack_kernel_eigenvalue_inside_the_band_of_one_is_not_counted():
    # K = diag(1 + 1e-10, 0.5): inside the band of 1, while the eigenvalue
    # -1 - 1e-4 of A + B lies clear of -eps = -1; both counts as count_evs has them
    a, b = np.diag([1e6, 1.0]), np.diag([-(1.0 + 1e-10) * (1e6 + 1.0), -1.0])
    s = three_problems(a=a, b=b, eps=1.0)
    direct, via_kernel = bsengine._count_direct(*s), bsengine._count_bs(*s)
    assert (direct[1], via_kernel[1]) == counts_oracle(sym(a), sym(b), 1.0) == (1, 0)


def test_random_stack_jitters_a_colliding_eps_as_the_oracle_does():
    # member 1's A + B = diag(-1e-4, 1) has the eigenvalue -eps; one jitter
    # moves eps by about 1e-10, inside the guard band, so it takes more
    d, b, eps = [[0.5, 1.0], [0.0, 1.0], [0.5, 1.0]], [-0.25, -1e-4, -0.25], [0.3, 1e-4, 0.7]
    draws = [(np.eye(2), np.array(d[i]), np.diag([b[i], 0.0]), eps[i]) for i in range(3)]
    s, shifts = bsengine._random_stack(draws)
    expected = [jittered_oracle(sym(s.a[i]), sym(s.b[i]), eps[i]) for i in range(3)]
    assert shifts.tolist() == expected
    assert expected[0] == 0.3 and expected[1] > 1e-4 * (1.0 + 1e-6)  # two jitters or more
    oracle = [counts_oracle(sym(s.a[i]), sym(s.b[i]), expected[i]) for i in range(3)]
    assert bsengine._count_bs(s, shifts).tolist() == [via_kernel for _, via_kernel in oracle]


def test_stack_member_with_no_positive_shift_fails_loudly():
    # A passes the positivity check inside its guard band, but eps does not
    # lift its lowest eigenvalue above 0
    s = three_problems(a=np.diag([-1e-11, 1.0]), eps=1e-12)
    with pytest.raises(ValueError, match=r"not positive definite.*\(stack member 1\)"):
        bsengine._count_bs(*s)


def test_stack_member_with_a_non_psd_a_fails_loudly():
    with pytest.raises(ValueError, match=r"semidefinite.*\(stack member 1\)"):
        three_problems(a=np.diag([-1.0, 2.0]))


@pytest.mark.parametrize("eps", [0.0, np.inf, np.nan])
def test_stack_member_with_a_bad_epsilon_fails_loudly(eps):
    with pytest.raises(ValueError, match="epsilon"):
        three_problems(eps=eps)


# ---------------------------------------------------------------------------
# mu_max


def test_mu_scalar_resolvent():
    p = BsProblem(a=sym(np.eye(4)), b=sym(-np.eye(4)), epsilon=1.0)
    assert mu_max(p) == pytest.approx(0.5, abs=1e-12)


def test_mu_diagonal():
    p = BsProblem(a=sym(np.diag([0.0, 2.0])), b=sym(-np.eye(2)), epsilon=0.25)
    assert mu_max(p) == pytest.approx(4.0, abs=1e-12)


def test_mu_monotone_decreasing_in_eps():
    rng = np.random.default_rng(13)
    for _ in range(10):
        dim = int(rng.integers(2, 12))
        base = random_problem(dim, rng=rng)
        eps_grid = np.linspace(0.05, 2.0, 10)
        mus = [mu_max(BsProblem(a=base.a, b=base.b, epsilon=float(e)))
               for e in eps_grid]
        diffs = np.diff(mus)
        assert np.all(diffs <= 1e-12)
        positive = np.array(mus[:-1]) > 1e-8
        assert np.all(diffs[positive] < 0)


def test_inf_spec_monotone_in_coupling():
    rng = np.random.default_rng(17)
    for _ in range(10):
        dim = int(rng.integers(2, 12))
        p = random_problem(dim, rng=rng)
        lams = np.linspace(0.0, 3.0, 10)
        depth = [-np.linalg.eigvalsh(p.a.entries + lam * p.b.entries)[0]
                 for lam in lams]
        assert np.all(np.diff(depth) >= -1e-12)


# ---------------------------------------------------------------------------
# the critical-coupling bisection oracle, on pencils A + lam*B with a dense binding test


def coupling_bracket(a, b, tol):
    """The bracket ``(lo, hi]`` that the bisection oracle finds for the smallest
    coupling at which ``A + lam*B`` has an eigenvalue below 0."""
    lo, hi, _ = bisect_coupling(
        lambda lam: count_evs(sym(a.entries + lam * b.entries), "<", 0.0) > 0, tol, 0.0)
    return lo, hi


def test_critical_coupling_identity_pair():
    lo, hi = coupling_bracket(sym(np.eye(3)), sym(-np.eye(3)), tol=1e-8)
    lambda_star = 0.5 * (lo + hi)
    assert lambda_star == pytest.approx(1.0, abs=1e-7)
    assert lo <= lambda_star <= hi
    assert hi - lo <= 1e-8


def test_critical_coupling_quadratic_oracle_kernel_case():
    # A = diag(0, 1), B = -(1/2) ones: det(A + tB) = -t/2 is negative for
    # every t > 0, so the closed-form quadratic gives lambda* = 0 exactly.
    lo, hi = coupling_bracket(sym(np.diag([0.0, 1.0])), sym(-0.5 * np.ones((2, 2))), tol=1e-10)
    assert 0.5 * (lo + hi) == pytest.approx(0.0, abs=1e-6)


def test_critical_coupling_quadratic_oracle():
    # A = diag(1, 2), B = -ones: det(A + tB) = 2 - 3t crosses zero at
    # t = 2/3 with positive trace, the closed-form quadratic root.
    lo, hi = coupling_bracket(sym(np.diag([1.0, 2.0])), sym(-np.ones((2, 2))), tol=1e-10)
    assert 0.5 * (lo + hi) == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_critical_coupling_scaling_covariance():
    rng = np.random.default_rng(19)
    for _ in range(8):
        dim = int(rng.integers(2, 10))
        p = random_problem(dim, rng=rng)
        c = float(rng.uniform(0.3, 4.0))
        base = 0.5 * sum(coupling_bracket(p.a, p.b, tol=1e-11))
        scaled = 0.5 * sum(coupling_bracket(p.a, sym(c * p.b.entries), tol=1e-11))
        assert scaled == pytest.approx(base / c, rel=1e-6)


def test_critical_coupling_never_binds():
    with pytest.raises(radial.NeverBindsError):
        coupling_bracket(sym(np.eye(2)), sym(np.eye(2)), tol=1e-6)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt counting bound


def test_hs_bound_identity_equality():
    holds, bound = hs_count_bound_check(sym(np.eye(4)), 1.0, np.eye(4))
    assert holds
    assert bound == pytest.approx(4.0, abs=1e-12)


def test_hs_bound_single_vector():
    holds, bound = hs_count_bound_check(sym(np.diag([2.0, 0.1])), 2.0,
                                        np.array([[1.0], [0.0]]))
    assert holds
    assert bound == pytest.approx((4.0 + 0.01) / 4.0, rel=1e-12)


def test_hs_bound_takes_one_vector_as_a_1d_array():
    a = sym(np.diag([2.0, 0.1]))
    assert hs_count_bound_check(a, 2.0, np.array([1.0, 0.0])) == hs_count_bound_check(
        a, 2.0, np.array([[1.0], [0.0]]))


@pytest.mark.parametrize("delta", [0.0, -0.5, np.nan, np.inf])
def test_hs_bound_rejects_a_delta_that_is_not_positive(delta):
    with pytest.raises(ValueError, match="delta must be positive"):
        hs_count_bound_check(sym(np.eye(2)), delta, np.eye(2))


@pytest.mark.parametrize("a", [np.zeros((2, 2)), np.eye(2)], ids=["zero", "identity"])
@pytest.mark.parametrize("delta", [1e-200, 9.9e-13])
def test_hs_bound_rejects_a_delta_below_the_slack_floor_without_a_warning(a, delta):
    # 1e-200 used to give a NaN bound for the zero matrix and (True, inf) for
    # the identity, each with a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least the expectation slack's floor 1e-12"):
            hs_count_bound_check(sym(a), delta, np.eye(2))


def test_hs_bound_rejects_a_bound_that_overflows_without_a_warning():
    # |A|_F^2 / delta^2 = 1e300 / 1e-24 overflows to inf, with a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            hs_count_bound_check(sym(np.diag([1e150, 0.0])), 1e-12, np.array([1.0, 0.0]))
        a = np.array([np.eye(2), np.diag([1e150, 0.0]), np.eye(2)])
        v = np.array([np.eye(2)[:, :1]] * 3)
        with pytest.raises(ValueError, match=r"overflows.*\(stack member 1\)"):
            bsengine._hs_count_bound(a, np.array([1.0, 1e-12, 1.0]), v)


@pytest.mark.parametrize("stretch, accepted", [(1.5e-11, True), (1.5e-10, False)])
def test_hs_bound_orthonormality_check_fires_at_its_tolerance(stretch, accepted):
    # the Gram defect of the one vector (1 + stretch) e1 is 2 stretch, against 1e-10
    v = np.array([1.0 + stretch, 0.0, 0.0])
    if accepted:
        assert hs_count_bound_check(sym(np.eye(3)), 1.0, v)[0]
    else:
        with pytest.raises(ValueError, match="not orthonormal"):
            hs_count_bound_check(sym(np.eye(3)), 1.0, v)


@pytest.mark.parametrize("excess, accepted", [(2.5e-12, True), (5e-12, False)])
def test_hs_bound_expectation_slack_is_relative_to_delta_and_the_norm(excess, accepted):
    # (e1, A e1) = 1 = delta - excess, and the slack is 1e-12 (1 + delta + |A|_F) ~ 3e-12
    a, delta = sym(np.diag([1.0, 0.0])), 1.0 + excess
    if accepted:
        assert hs_count_bound_check(a, delta, np.array([1.0, 0.0]))[0]
    else:
        with pytest.raises(ValueError, match="phi_0"):
            hs_count_bound_check(a, delta, np.array([1.0, 0.0]))


@pytest.mark.parametrize("shortfall, holds", [(1.5e-9, True), (3e-9, False)])
def test_hs_bound_holds_within_its_tolerance_and_not_beyond(shortfall, holds):
    # delta = 1e-12 puts the expectation slack at delta itself, so the one
    # vector e1 is accepted with (e1, A e1) below delta and the bound below n
    # = 1: it holds when 1 <= bound + 1e-9 (1 + bound), bound = 1 - shortfall
    delta = 1e-12
    a = sym(np.diag([delta * np.sqrt(1.0 - shortfall), 0.0]))
    result, bound = hs_count_bound_check(a, delta, np.array([1.0, 0.0]))
    assert bound == pytest.approx(1.0 - shortfall, rel=0, abs=1e-15)
    assert result is holds


def test_hs_bound_stack_names_the_member_that_fails_a_check():
    v = np.zeros((3, 2, 1))
    v[:, 0, 0] = [1.0, 1.0 + 1e-9, 1.0]
    with pytest.raises(ValueError, match=r"not orthonormal.*\(stack member 1\)"):
        bsengine._hs_count_bound(np.array([np.eye(2)] * 3), np.ones(3), v)
    v[1, 0, 0] = 1.0
    with pytest.raises(ValueError, match=r"phi_0.*\(stack member 2\)"):
        bsengine._hs_count_bound(np.array([np.eye(2)] * 3), np.array([1.0, 1.0, 2.0]), v)


def test_hs_bound_extremal_projection_family():
    # A = delta * (rank-r projection): n = r test vectors achieve equality
    rng = np.random.default_rng(23)
    for _ in range(10):
        dim = int(rng.integers(3, 12))
        r = int(rng.integers(1, dim))
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :r]
        delta = float(rng.uniform(0.5, 3.0))
        a = sym(delta * q @ q.T)
        holds, bound = hs_count_bound_check(a, delta, q)
        assert holds
        assert bound == pytest.approx(r, rel=1e-9)
        assert (holds, bound) == hs_count_bound_oracle(a, delta, q)


def test_hs_bound_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        hs_count_bound_check(sym(np.eye(3)), 1.0,
                             np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))


def test_hs_bound_rejects_small_expectation():
    with pytest.raises(ValueError, match="phi_1"):
        hs_count_bound_check(sym(np.diag([2.0, 0.1])), 1.0, np.eye(2))


# ---------------------------------------------------------------------------
# rank-one domination construction


def test_domination_identity_case():
    a = sym(np.eye(4))
    f = np.zeros(4)
    f[0] = 1.0
    big_l = rank_one_domination(f, a, epsilon0=1.0, c=0.5)
    assert big_l == pytest.approx(4.0, abs=1e-12)
    top = np.linalg.eigvalsh(np.outer(f, f) - (big_l / 2.0) * np.eye(4))[-1]
    assert top <= 0.5 + 1e-12


def test_domination_large_c_returns_small_l():
    a = sym(np.diag([1.0, 5.0]))
    f = np.array([1.0, 0.0])
    big_l = rank_one_domination(f, a, epsilon0=0.5, c=2.5)
    # c/2 > |f|: the empty cutoff works and L = 2 * eps0
    assert big_l == pytest.approx(1.0, abs=1e-12)
    top = np.linalg.eigvalsh(np.outer(f, f)
                             - big_l * np.linalg.inv(a.entries + 0.5 * np.eye(2)))[-1]
    assert top <= 2.5 + 1e-12


@pytest.mark.parametrize("name, value", [("epsilon0", 0.0), ("epsilon0", -0.5),
                                         ("epsilon0", np.inf), ("c", 0.0), ("c", -0.5),
                                         ("c", np.inf)])
def test_domination_rejects_a_shift_or_bound_that_is_not_positive(name, value):
    args = {"epsilon0": 1.0, "c": 0.5, name: value}
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        rank_one_domination(np.array([1.0, 0.0]), sym(np.eye(2)), **args)


def test_domination_rejects_a_vector_too_small_to_normalize():
    with pytest.raises(ValueError, match="refusing to normalize"):
        rank_one_domination(np.array([1e-9, 0.0]), sym(np.eye(2)), epsilon0=1.0, c=0.5)


def test_domination_property_run():
    rng = np.random.default_rng(29)
    for _ in range(200):
        dim = int(rng.integers(2, 12))
        g = rng.standard_normal((dim, dim))
        a = sym(g @ g.T)
        f = rng.standard_normal(dim)
        f /= np.linalg.norm(f)
        c = float(rng.uniform(0.05, 1.5))
        eps0 = float(rng.uniform(0.1, 2.0))
        big_l = rank_one_domination(f, a, epsilon0=eps0, c=c)
        assert big_l == rank_one_domination_oracle(f, a, eps0, c)
        top = np.linalg.eigvalsh(
            np.outer(f, f) - big_l * np.linalg.inv(a.entries + eps0 * np.eye(dim)))[-1]
        assert top <= c + 1e-9
