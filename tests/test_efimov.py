"""Tests for the three-boson separable-force solver."""

import functools
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from scipy.special import roots_legendre

from bscount import efimov
from bscount.bsengine import BsProblem, count_bs
from bscount.efimov import (
    A11,
    A12,
    SeparableModel,
    dimer_energy,
    efimov_spectrum,
    lambda_unitary,
    s0_oracle,
    three_boson_kernel,
    trimer_spectrum,
    two_body_loop,
)
from bscount.linop import SymOperator, sym
from oracles import full_three_boson_kernel, ladder_spectrum

LAM_U = lambda_unitary(1.0)


def kernel_top_eigenvalue(model, energy):
    """Largest eigenvalue of the three-boson kernel at ``energy``."""
    return float(efimov._kernel_eigenvalues(efimov._kernel_parts(model), energy)[-1])


def unitary_model(n_p=256, p_max=40.0, grid_c=300.0, lam=LAM_U):
    return SeparableModel(beta=1.0, lam=lam, p_max=p_max, n_p=n_p, grid_c=grid_c)


def angular_integrand(s, q, abs_e, u, beta=1.0):
    """The integrand of J(s, q; E) at angle cosines ``u``, as written out in
    ``three_boson_kernel``'s docstring."""
    cross = -2.0 * A11 * s * q * u
    beta2 = A12**2 * beta**2
    return 1.0 / ((q * q + cross + A11**2 * s * s + beta2)
                  * (s * s + cross + A11**2 * q * q + beta2)
                  * (s * s + q * q + cross + A12**2 * abs_e))


def reference_j(s, q, abs_e, nodes=30, panels=60):
    """J by composite Gauss-Legendre on panels that halve toward u = -1,
    where the integrand peaks."""
    x, w = roots_legendre(nodes)
    edges = np.concatenate([[-1.0], -1.0 + 2.0 * 0.5 ** np.arange(panels, -1, -1)])
    half = 0.5 * np.diff(edges)[:, None]
    u = (edges[:-1, None] + half * (x + 1.0)).ravel()
    return float(np.sum((half * w).ravel() * angular_integrand(s, q, abs_e, u)))


def closed_form_j(s, q, abs_e):
    terms = efimov._angle_terms(np.array([s]), np.array([q]), A11, A12**2)
    return float(efimov._angular_integral(terms, A12**2 * abs_e)[0])


def quadrature_kernel(model, energy, n_angle):
    """The kernel with J from an ``n_angle``-node Gauss-Legendre rule."""
    p, w = model.momentum_grid()
    d = 1.0 - model.lam * two_body_loop(np.sqrt(p**2 - energy), model.beta)
    j = np.zeros((model.n_p, model.n_p))
    for u, wu in zip(*roots_legendre(n_angle)):
        j += wu * angular_integrand(p[:, None], p[None, :], -energy, u)
    prefactor = np.sqrt(w * p**2 / d)
    return (4.0 * np.pi * model.lam * A12**3
            * prefactor[:, None] * j * prefactor[None, :])


def count_bisection_spectrum(model, e_floor, rel_tol=1e-10, points_per_decade=4):
    """Trimer energies by bisecting the eigenvalue count at-or-above 1 in
    log|E| over the ladder of ``oracles.ladder_spectrum``: the route that
    preceded brentq, kept as the oracle for its roots (unbound pair only)."""

    def count(abs_e):
        lam = np.linalg.eigvalsh(three_boson_kernel(model, -abs_e).entries)
        return int(np.sum(lam >= 1.0))

    e_stop = (10.0 * model.momentum_grid()[0][0]) ** 2
    ratio = 10.0 ** (1.0 / points_per_decade)
    energies = []
    abs_hi, count_hi = abs(e_floor), 0
    while abs_hi > e_stop * (1.0 + 1e-9):
        abs_lo = max(abs_hi / ratio, e_stop)
        count_lo = count(abs_lo)
        for level in range(count_hi, count_lo):
            lo, hi = np.log(abs_lo), np.log(abs_hi)
            while hi - lo > rel_tol:
                mid = 0.5 * (lo + hi)
                if count(np.exp(mid)) > level:
                    lo = mid
                else:
                    hi = mid
            energies.append(-np.exp(0.5 * (lo + hi)))
        count_hi, abs_hi = count_lo, abs_lo
    return sorted(energies)


# ---------------------------------------------------------------------------
# Jacobi coefficients


def test_equal_mass_coefficients():
    # docs/three_boson_kernel.md: a11 = -sqrt(m1 m2 / ((M - m1)(M - m2))),
    # a12 = sqrt(M (M - m1 - m2) / ((M - m1)(M - m2))) at masses (1, 1, 1)
    m1 = m2 = 1.0
    total = 3.0
    denom = (total - m1) * (total - m2)
    assert A11 == -np.sqrt(m1 * m2 / denom)
    assert A12 == np.sqrt(total * (total - m1 - m2) / denom)
    a = np.array([[A11, A12], [A12, -A11]])
    np.testing.assert_allclose(a.T @ a, np.eye(2), rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# two-body ingredients


def test_lambda_unitary_closed_form_and_scaling():
    for beta in (0.5, 1.0, 2.0):
        assert lambda_unitary(beta) == pytest.approx(beta**3 / np.pi**2, rel=1e-12)
    c = 1.7
    assert lambda_unitary(c * 1.0) == pytest.approx(c**3 * lambda_unitary(1.0),
                                                    rel=1e-12)


def test_lambda_unitary_radial_integral_against_quadrature():
    # lam_u = beta^3 / pi^2 rests on Int_0^inf dq / (q^2 + beta^2)^2 = pi / (4 beta^3)
    for beta in (0.5, 1.0, 2.0):
        quadrature, _ = scipy.integrate.quad(
            lambda q: 1.0 / (q**2 + beta**2) ** 2, 0.0, np.inf,
            epsabs=0.0, epsrel=1e-13)
        assert quadrature == pytest.approx(np.pi / (4.0 * beta**3), rel=1e-10)
        assert 1.0 / (4.0 * np.pi * quadrature) == pytest.approx(lambda_unitary(beta),
                                                                rel=1e-10)


def test_two_body_loop_against_quadrature():
    for beta, c in [(1.0, 0.0), (1.0, 0.7), (2.0, 3.0)]:
        quadrature, _ = scipy.integrate.quad(
            lambda k: 4 * np.pi * k**2 / ((k**2 + beta**2) ** 2 * (k**2 + c**2)),
            0.0, np.inf, epsabs=0.0, epsrel=1e-12)
        assert two_body_loop(c, beta) == pytest.approx(quadrature, rel=1e-9)


def test_two_body_binding_flips_at_unitarity():
    # BS count oracle for the rank-one two-body problem on a momentum grid:
    # eigenvalues of K(eps) = lam (p^2+eps)^(-1/2)|g><g|(p^2+eps)^(-1/2)
    from scipy.special import roots_legendre
    x, w = roots_legendre(400)
    p = 20.0 * 0.5 * (x + 1.0)
    wp = 20.0 * 0.5 * w
    g = 1.0 / (p**2 + 1.0)

    def count(lam, eps=1e-9):
        vec = np.sqrt(4 * np.pi * wp) * p * g / np.sqrt(p**2 + eps)
        top = lam * float(vec @ vec)  # rank-one kernel: single eigenvalue
        return int(top > 1.0)

    assert count(0.999 * LAM_U) == 0
    assert count(1.001 * LAM_U) == 1


def test_dimer_energy():
    assert dimer_energy(unitary_model(lam=0.9 * LAM_U)) == 0.0
    ed = dimer_energy(unitary_model(lam=1.001 * LAM_U))
    kappa = np.sqrt(1.001 * LAM_U * np.pi**2) - 1.0
    assert ed == pytest.approx(-(kappa**2), rel=1e-12)


# ---------------------------------------------------------------------------
# the trimer kernel


def test_kernel_is_symmetric():
    m = unitary_model(n_p=128)
    k = three_boson_kernel(m, -0.5)
    assert np.linalg.norm(k.entries - k.entries.T) <= 1e-10


@pytest.mark.parametrize("n_p", [128, 256, 512])
def test_triangle_kernel_matches_full_grid_assembly(n_p):
    m = unitary_model(n_p=n_p)
    parts = efimov._kernel_parts(m)
    for energy in -np.geomspace(1.0, 1e-9, 10):
        k = efimov._assemble(parts, float(energy))
        oracle = full_three_boson_kernel(m, float(energy)).entries
        assert np.array_equal(k, k.T)
        # so SymOperator's averaging, skipped on the trimer route, is the identity
        assert np.array_equal(SymOperator(k).entries, k)
        assert np.linalg.norm(k - oracle) <= 1e-13 * np.linalg.norm(oracle)
        np.testing.assert_allclose(k, oracle, rtol=1e-9, atol=0.0)


def test_ladder_matches_full_grid_assembly(monkeypatch):
    m = unitary_model(n_p=256)
    energies = [l.energy for l in efimov_spectrum(m, -1.0)]
    monkeypatch.setattr(
        efimov, "_assemble",
        lambda parts, energy: full_three_boson_kernel(parts.model, energy).entries)
    oracle = [l.energy for l in efimov_spectrum(m, -1.0)]
    assert len(energies) == len(oracle) >= 3
    np.testing.assert_allclose(energies, oracle, rtol=efimov.LEVEL_REL_TOL, atol=0.0)


def test_trimer_route_builds_no_symoperator(monkeypatch):
    built = []
    validate = SymOperator.__post_init__
    monkeypatch.setattr(SymOperator, "__post_init__",
                        lambda self: built.append(self) or validate(self))
    assert trimer_spectrum(unitary_model(n_p=128, lam=0.9 * LAM_U), -1.0)
    assert len(efimov_spectrum(unitary_model(n_p=128), -1.0)) >= 3
    k = three_boson_kernel(unitary_model(n_p=128), -0.5)
    assert isinstance(k, SymOperator) and not k.entries.flags.writeable
    assert built == []  # the kernel, symmetric bit for bit, is handed to _built


def test_kernel_rejects_nonnegative_energy():
    with pytest.raises(ValueError, match="energy"):
        three_boson_kernel(unitary_model(n_p=128), 0.0)


TRIPLE_S = 0.5  # s = q with s^2 + |E| = beta^2: all three c_i coincide


@pytest.mark.parametrize("s, q, abs_e", [
    # generic off-diagonal entries
    (0.3, 2.0, 0.5), (5.0, 0.7, 1e-3), (12.0, 30.0, 2.0), (0.02, 0.05, 1e-8),
    # the diagonal, c1 = c2
    (0.1, 0.1, 0.01), (3.0, 3.0, 0.2), (40.0, 40.0, 1e-6),
    # the triple-confluent point and offsets from it
    *[(TRIPLE_S, TRIPLE_S, 1.0 - TRIPLE_S**2 + sign * off)
      for off in (0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
      for sign in ((1,) if off == 0.0 else (1, -1))],
    # b/c -> 0: tiny s or q
    (1e-7, 2.0, 0.3), (1.5, 1e-9, 1e-4), (1e-6, 1e-6, 1e-10),
    # b/c1 -> 1: q near s/2 with s >> beta
    (40.0, 20.0, 0.1), (400.0, 200.0, 1.0), (2000.0, 1000.0, 1e-4),
    (1000.0, 500.0005, 0.5), (300.0, 600.0, 1e-3),
])
def test_angular_closed_form_matches_graded_quadrature(s, q, abs_e):
    assert closed_form_j(s, q, abs_e) == pytest.approx(reference_j(s, q, abs_e),
                                                       rel=1e-9, abs=0.0)


def test_kernel_matches_fine_angular_quadrature():
    m = unitary_model(n_p=256)
    for energy in (-1.0, -1e-3, -1e-7):
        reference = quadrature_kernel(m, energy, n_angle=400)
        k = three_boson_kernel(m, energy).entries
        assert np.max(np.abs(k / reference - 1.0)) < 1e-8


def test_weak_coupling_no_trimers():
    m = unitary_model(n_p=128, lam=0.2 * LAM_U)
    for energy in (-3.0, -0.3, -0.03, -0.003):
        assert kernel_top_eigenvalue(m, energy) < 1.0


def test_top_eigenvalue_decreases_with_binding():
    m = unitary_model(n_p=128)
    energies = -np.geomspace(1e-4, 3.0, 8)  # shallow to deep
    tops = [kernel_top_eigenvalue(m, float(e)) for e in energies]
    assert np.all(np.diff(tops) < 0)  # strictly decreasing in |E|


def test_infrared_limit_matches_scale_free_kernel():
    # at unitarity, E -> 0, p << beta the kernel must collapse to
    # (4/(sqrt(3) pi)) (sq)^(-1/2) ln((s^2+sq+q^2)/(s^2-sq+q^2))
    m = unitary_model(n_p=256)
    k = three_boson_kernel(m, -1e-14)
    p, w = m.momentum_grid()
    for i, j in [(30, 42), (25, 55), (40, 40)]:
        s, q = p[i], p[j]
        assert max(s, q) < 2e-2  # both deep in the scale-free window
        code = k.entries[i, j] / np.sqrt(w[i] * w[j])
        exact = (4.0 / (np.sqrt(3.0) * np.pi)) / np.sqrt(s * q) * np.log(
            (s * s + s * q + q * q) / (s * s - s * q + q * q))
        assert code == pytest.approx(exact, rel=0.03)


# ---------------------------------------------------------------------------
# s0 oracle


def test_s0_oracle_residual_and_ratio():
    s0, ratio = s0_oracle()
    residual = s0 * np.cosh(np.pi * s0 / 2) - (8 / np.sqrt(3)) * np.sinh(np.pi * s0 / 6)
    assert abs(residual) <= 1e-10
    assert ratio > 1.0
    assert ratio == pytest.approx(np.exp(2 * np.pi / s0), rel=1e-12)


def test_s0_oracle_bracket_signs():
    def residual(s):
        return s * np.cosh(np.pi * s / 2) - (8 / np.sqrt(3)) * np.sinh(np.pi * s / 6)

    assert residual(0.1) < 0 < residual(2.0)


# ---------------------------------------------------------------------------
# spectra


def test_unitary_ladder_small_grid():
    # three levels resolve already at n_p = 256; ratios land near the
    # accumulation constant from the transcendental oracle
    m = unitary_model(n_p=256)
    levels = efimov_spectrum(m, -1.0)
    energies = np.array([l.energy for l in levels])
    assert len(energies) >= 3
    assert np.all(np.diff(energies) > 0)
    ratios = energies[:-1] / energies[1:]
    _, ratio_star = s0_oracle()
    assert abs(ratios[-1] / ratio_star - 1.0) < 0.1


def test_trimer_below_dimer_above_unitarity():
    m = unitary_model(n_p=256, lam=1.001 * LAM_U)
    levels = trimer_spectrum(m, -1.0)
    assert levels[0].energy < dimer_energy(m)


def test_detuned_spectrum_is_finite():
    m = unitary_model(n_p=256, lam=0.9 * LAM_U)
    levels = trimer_spectrum(m, -1.0)
    assert 1 <= len(levels) <= 2  # no accumulation away from unitarity


def test_roots_match_count_bisection():
    m = unitary_model(n_p=128, lam=0.9 * LAM_U)
    energies = [l.energy for l in trimer_spectrum(m, -1.0)]
    oracle = count_bisection_spectrum(m, -1.0)
    assert len(energies) == len(oracle) >= 1
    np.testing.assert_allclose(energies, oracle, rtol=1e-9, atol=0.0)


def test_kernel_builds_per_level(monkeypatch):
    builds = 0
    assemble = efimov._assemble

    def counted(*args):
        nonlocal builds
        builds += 1
        return assemble(*args)

    monkeypatch.setattr(efimov, "_assemble", counted)
    levels = efimov_spectrum(unitary_model(n_p=256), -1.0)
    assert builds <= 30 * len(levels)


@functools.cache
def counted_spectrum(n_p, coupling):
    """``trimer_spectrum`` energies of ``unitary_model(n_p, coupling * LAM_U)``
    and the number of kernel eigensolves it made."""
    model = unitary_model(n_p=n_p, lam=coupling * LAM_U)
    with mock.patch.object(efimov, "_kernel_eigenvalues",
                           wraps=efimov._kernel_eigenvalues) as solve:
        energies = [l.energy for l in trimer_spectrum(model, -1.0)]
    return energies, solve.call_count


# 1.001 lam_u binds the pair, so the bracket stops at the dimer threshold
@pytest.mark.parametrize("n_p, coupling", [
    (128, 1.0), (128, 0.9), (256, 1.0), (256, 0.9), (512, 1.0), (256, 1.001)])
def test_one_bracket_matches_ladder_oracle(n_p, coupling):
    energies, _ = counted_spectrum(n_p, coupling)
    oracle = ladder_spectrum(unitary_model(n_p=n_p, lam=coupling * LAM_U), -1.0)
    assert len(energies) == len(oracle) >= 1
    np.testing.assert_allclose(energies, oracle, rtol=efimov.LEVEL_REL_TOL, atol=0.0)


# criterion 9's unitary model, and the detuned model of trimer_ladder
@pytest.mark.parametrize("n_p, coupling, most", [(512, 1.0, 32), (256, 0.9, 12)])
def test_kernel_eigensolves_per_spectrum(n_p, coupling, most):
    assert counted_spectrum(n_p, coupling)[1] <= most


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("miscount", [1, -1], ids=["gains", "loses"])
def test_non_monotone_count_names_the_level(monkeypatch, level, miscount):
    m = unitary_model(n_p=128)
    energies = [l.energy for l in trimer_spectrum(m, -1.0)]
    assert len(energies) >= 3
    mid = -np.sqrt(energies[level - 1] * energies[level])
    kernel_eigenvalues = efimov._kernel_eigenvalues

    def miscounted(parts, energy):
        ev = kernel_eigenvalues(parts, energy)
        if abs(energy / mid - 1.0) > 1e-9:
            return ev
        # a spectrum whose count at or above 1 is off by one at the midpoint
        return np.where(np.arange(ev.size) >= ev.size - (level + miscount), 1.5, 0.5)

    monkeypatch.setattr(efimov, "_kernel_eigenvalues", miscounted)
    with pytest.raises(RuntimeError, match=f"trimer level {level}:"):
        trimer_spectrum(m, -1.0)


def test_trimer_spectrum_thread_safe():
    m = unitary_model(n_p=128, lam=0.9 * LAM_U)
    serial = trimer_spectrum(m, -1.0)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(trimer_spectrum, m, -1.0) for _ in range(2)]
        results = [f.result(timeout=300) for f in futures]
    for levels in results:
        assert [l.energy for l in levels] == [l.energy for l in serial]
        assert [l.cutoff_stable for l in levels] == [l.cutoff_stable for l in serial]


def test_efimov_spectrum_rejects_detuned_coupling():
    with pytest.raises(ValueError, match="unitarity"):
        efimov_spectrum(unitary_model(n_p=128, lam=0.9 * LAM_U), -1.0)


def test_efimov_spectrum_needs_enough_resolution():
    # the default map at c = 3 cannot resolve three levels at small n_p
    m = SeparableModel(beta=1.0, lam=LAM_U, p_max=40.0, n_p=64)
    with pytest.raises(RuntimeError, match="raise p_max or n_p"):
        efimov_spectrum(m, -1.0)


def test_trimer_floor_validation():
    m = unitary_model(n_p=128)
    with pytest.raises(ValueError, match="below e_floor"):
        trimer_spectrum(m, -1e-4)


def test_shallow_ratios_stable_under_cutoff_doubling():
    # the form factor regulates the ultraviolet end, so doubling p_max moves
    # only the deepest state; the shallow ratios shift by far less than 2%
    e1 = np.array([l.energy for l in
                   trimer_spectrum(unitary_model(n_p=256), -1.0)])
    e2 = np.array([l.energy for l in
                   trimer_spectrum(unitary_model(n_p=256, p_max=80.0), -1.0)])
    r1 = e1[:-1] / e1[1:]
    r2 = e2[:-1] / e2[1:]
    keep = min(2, len(r1), len(r2))
    assert keep >= 2
    assert np.all(np.abs(r1[-keep:] / r2[-keep:] - 1.0) < 0.02)
