"""Tests for the three-boson separable-force solver."""

import functools
import inspect
import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
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
    trimer_spectrum,
    two_body_loop,
)
from bscount.linop import DEFAULT_SEED, SymOperator, ThresholdCollisionError, _collides, sym
from oracles import full_three_boson_kernel, ladder_spectrum, triangle_kernel, triangle_kernel_parts

LAM_U = lambda_unitary(1.0)

# the level search and the solve as imported, kept while tests patch them
BRENTQ = efimov._brentq
KERNEL_SPECTRUM = efimov._kernel_spectrum


def three_boson_kernel(model, energy):
    """The trimer kernel at ``energy``, as ``trimer_spectrum`` assembles it."""
    return efimov._assemble(efimov._kernel_parts(model), energy)


def kernel_top_eigenvalue(model, energy):
    """Largest eigenvalue of the three-boson kernel at ``energy``."""
    return float(efimov._kernel_spectrum(efimov._kernel_parts(model), energy)[0][-1])


def unitary_model(n_p=256, p_max=40.0, grid_c=300.0, lam=LAM_U):
    return SeparableModel(beta=1.0, lam=lam, p_max=p_max, n_p=n_p, grid_c=grid_c)


def angular_integrand(s, q, abs_e, u, beta=1.0):
    """The integrand of J(s, q; E) at angle cosines ``u``, as written out in
    ``efimov._assemble``'s docstring."""
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
        lam = np.linalg.eigvalsh(three_boson_kernel(model, -abs_e))
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
    # docs/trimer_kernel.md: a11 = -sqrt(m1 m2 / ((M - m1)(M - m2))),
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
    assert np.linalg.norm(k - k.T) <= 1e-10


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


def confluent_energy(parts):
    """An energy at which ``J`` takes its confluent limit on the diagonal:
    ``s^2 + |E| = beta^2`` at the first node ``s >= 1/2``."""
    s = parts.p[np.searchsorted(parts.p, 0.5)]
    return -(1.0 - s * s)


def assert_kernels_equal_bit_for_bit(parts, oracle, energies):
    for energy in energies:
        try:
            expected = triangle_kernel(oracle, energy)
        except ValueError as exc:  # above the dimer threshold
            with pytest.raises(ValueError, match=str(exc)):
                efimov._assemble(parts, energy)
        else:
            assert np.array_equal(efimov._assemble(parts, energy), expected), energy


@pytest.mark.parametrize("coupling", [0.9, 1.0, 1.05])
@pytest.mark.parametrize("n_p", [64, 65, 127, 256, 300, 512])
def test_row_block_kernel_is_the_whole_triangle_kernel_bit_for_bit(n_p, coupling):
    model = unitary_model(n_p=n_p, lam=coupling * LAM_U)
    parts, oracle = efimov._kernel_parts(model), triangle_kernel_parts(model)
    assert all(np.array_equal(a, b) for a, b in zip(parts.terms, oracle.terms))
    energies = [float(e) for e in -np.geomspace(1.0, 1e-7, 8)] + [confluent_energy(parts)]
    assert_kernels_equal_bit_for_bit(parts, oracle, energies)


@pytest.mark.parametrize("n_p", [64, 65, 256])
def test_blocks_of_one_row_give_the_whole_triangle_kernel_bit_for_bit(monkeypatch, n_p):
    monkeypatch.setattr(efimov, "_BLOCK_ENTRIES", 1)
    model = unitary_model(n_p=n_p)
    parts, oracle = efimov._kernel_parts(model), triangle_kernel_parts(model)
    blocks = [(r0, r1) for r0, r1, _ in efimov._row_blocks(parts.offsets)]
    assert blocks == [(i, i + 1) for i in range(n_p)]
    assert all(np.array_equal(a, b) for a, b in zip(parts.terms, oracle.terms))
    assert_kernels_equal_bit_for_bit(parts, oracle, [-1.0, -1e-4, confluent_energy(parts)])


@pytest.mark.parametrize("n_p,entries", [(64, 8192), (256, 8192), (512, 8192), (65, 100),
                                         (65, 65), (65, 64)])
def test_row_blocks_cover_the_triangle_within_the_budget(monkeypatch, n_p, entries):
    monkeypatch.setattr(efimov, "_BLOCK_ENTRIES", entries)
    offsets = efimov._kernel_parts(unitary_model(n_p=n_p)).offsets
    assert offsets[0] == 0 and offsets[-1] == n_p * (n_p + 1) // 2
    assert np.array_equal(np.diff(offsets), np.arange(n_p, 0, -1))  # row i has n_p - i entries
    blocks = list(efimov._row_blocks(offsets))
    assert [r0 for r0, _, _ in blocks[1:]] == [r1 for _, r1, _ in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == n_p
    for r0, r1, held in blocks:
        assert held == slice(offsets[r0], offsets[r1])
        size = offsets[r1] - offsets[r0]
        assert size <= entries or r1 == r0 + 1
        # the block is as long as the budget allows
        assert r1 == n_p or offsets[r1 + 1] - offsets[r0] > entries


def test_confluent_energy_reaches_the_confluent_limit(monkeypatch):
    parts = efimov._kernel_parts(unitary_model(n_p=256))
    energy = confluent_energy(parts)
    k = efimov._assemble(parts, energy)
    monkeypatch.setattr(efimov, "CONFLUENT_RTOL", -1.0)  # never take the limit
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.array_equal(efimov._assemble(parts, energy), k)


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
    assert built == []


@pytest.mark.parametrize("field,value", [
    ("lam", np.nan), ("lam", np.inf), ("lam", -1.0),
    ("beta", np.inf), ("beta", np.nan), ("beta", 0.0),
    ("p_max", np.inf), ("p_max", -40.0),
    ("grid_c", np.nan), ("grid_c", np.inf), ("grid_c", -2.0), ("grid_c", -1.0),
    ("n_p", 100.5), ("n_p", np.nan), ("n_p", 32),
])
def test_model_rejects_a_field_out_of_range_when_it_is_built(field, value):
    fields = {"beta": 1.0, "lam": LAM_U, "p_max": 40.0, "n_p": 128, "grid_c": 300.0}
    with pytest.raises(ValueError, match={"lam": "coupling"}.get(field, field)):
        SeparableModel(**{**fields, field: value})


def test_model_takes_an_integral_float_n_p_as_that_many_points():
    as_float, as_int = unitary_model(n_p=128.0), unitary_model(n_p=128)
    assert type(as_float.n_p) is int
    for got, want in zip(as_float.momentum_grid(), as_int.momentum_grid()):
        assert got.tobytes() == want.tobytes()

    def levels(model):
        return [(l.energy, l.cutoff_stable) for l in trimer_spectrum(model, -1.0)]

    assert levels(as_float) == levels(as_int)


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


@pytest.mark.parametrize("s", [TRIPLE_S, 0.999])
@pytest.mark.parametrize("off", [1e-8, -1e-7, 1e-7, 3e-7, 1e-6, 2e-6])
def test_angular_closed_form_holds_1e_12_near_the_triple_point(s, off):
    # near s = beta, c - b is small against c + b, so a confluence test
    # scaled by c - b would leave the limit for a divided difference that
    # loses 1e-9; at off = 2e-6 (a relative gap of 1.4e-6 at s = 1/2) the
    # divided difference loses 6e-11, and the confluent limit keeps 1e-12
    abs_e = 1.0 - s**2 + off
    assert closed_form_j(s, s, abs_e) == pytest.approx(reference_j(s, s, abs_e),
                                                       rel=1e-12, abs=0.0)


@pytest.mark.parametrize("off", [0.0, 3e-7, 1e-6, 1e-5])
@pytest.mark.parametrize("scale", [2.0**-20, 2.0**20])
def test_angular_closed_form_is_homogeneous_near_the_triple_point(off, scale):
    # J is homogeneous of degree -3 in (c_i, b), and a power-of-two scale is
    # exact, so the choice of the confluent limit must scale with the c_i
    def j(lam):
        s = TRIPLE_S * np.sqrt(lam)
        terms = efimov._angle_terms(np.array([s]), np.array([s]), A11, lam * A12**2)
        return float(efimov._angular_integral(terms, A12**2 * lam * (1.0 - TRIPLE_S**2 + off))[0])

    assert j(scale) * scale**3 == pytest.approx(j(1.0), rel=1e-12, abs=0.0)


def test_kernel_matches_fine_angular_quadrature():
    m = unitary_model(n_p=256)
    for energy in (-1.0, -1e-3, -1e-7):
        reference = quadrature_kernel(m, energy, n_angle=400)
        k = three_boson_kernel(m, energy)
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
        code = k[i, j] / np.sqrt(w[i] * w[j])
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
    with mock.patch.object(efimov, "_kernel_spectrum",
                           wraps=efimov._kernel_spectrum) as solve:
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


# criterion 9's unitary model, and the two models of trimer_ladder: every
# spectrum is solved once, and the monotone check reads the ones held
@pytest.mark.parametrize("n_p, coupling, most", [(512, 1.0, 28), (256, 0.9, 11), (256, 1.0, 22)])
def test_kernel_eigensolves_per_spectrum(n_p, coupling, most):
    assert counted_spectrum(n_p, coupling)[1] <= most


def scipy_brentq(f, xa, xb, xtol, **kwargs):
    """``scipy.optimize.brentq`` in ``efimov._brentq``'s signature: the oracle
    the port is held to."""
    return scipy.optimize.brentq(f, xa, xb, xtol=xtol, **kwargs)


@pytest.mark.parametrize("n_p, coupling", [
    (128, 1.0), (128, 0.9), (256, 1.0), (256, 0.9), (512, 1.0), (256, 1.001)])
def test_brentq_port_gives_scipy_roots_and_eigensolves(n_p, coupling):
    with mock.patch.object(efimov, "_brentq", scipy_brentq):
        oracle = counted_spectrum.__wrapped__(n_p, coupling)
    assert counted_spectrum(n_p, coupling) == oracle  # energies under ==, and solve counts


def brentq_corpus(seed=DEFAULT_SEED, per_family=40):
    """``(f, a, b)`` brackets of smooth, steep, flat-sided, oscillating,
    quantized and tiny-valued functions.  The tiny ones (values near 1e-150)
    make the extrapolation step's denominator underflow to 0, where C's
    quotient is inf or NaN and Python's raises."""
    rng = np.random.default_rng(seed)
    families = [
        lambda r, p: lambda x: math.tanh(p * (x - r)),
        lambda r, p: lambda x: (x - r) ** 3 + 0.01 * p * (x - r),
        lambda r, p: lambda x: math.expm1(p * (x - r)),
        lambda r, p: lambda x: math.atan(x - r) * p + 1e-3 * math.sin(50.0 * x) * (x - r),
        lambda r, p: lambda x: (math.floor((x - r) * 16.0) + p / 20.0) / 16.0,
        lambda r, p: lambda x: 1e-150 * ((x - r) ** 3 + 0.01 * p * (x - r)),
    ]
    for family in families:
        for _ in range(per_family):
            a, b = np.sort(rng.uniform(-10.0, 10.0, 2))
            yield family(float(rng.uniform(a, b)), float(rng.uniform(0.1, 20.0))), a, b


def iterates(solve, f, a, b, xtol):
    """The root ``solve`` returns, or the type of error it raises, and every
    point at which it evaluated ``f``."""
    points = []

    def traced(x):
        points.append(x)
        return f(x)

    try:
        return solve(traced, a, b, xtol), points
    except (ValueError, RuntimeError) as error:
        return type(error), points


@pytest.mark.parametrize("xtol", [1e-10, 1e-12, 1e-4])
def test_brentq_port_makes_scipy_iterates_bit_for_bit(xtol):
    runs = 0
    for f, a, b in brentq_corpus():
        root, points = iterates(efimov._brentq, f, a, b, xtol)
        assert (root, points) == iterates(scipy_brentq, f, a, b, xtol), (a, b)
        runs += isinstance(root, float)
    assert runs >= 200  # of the 240 brackets; the quantized ones may miss a sign change


@pytest.mark.parametrize("f, root", [
    (lambda x: x + 1.5, -1.5),
    (lambda x: x - 2.5, 2.5),
    (lambda x: -0.0 if x < 0 else 1.0, -1.5),  # -0.0 is a zero, not a sign
], ids=["lower-end", "upper-end", "negative-zero"])
def test_brentq_port_returns_an_exact_zero_at_either_end(f, root):
    assert efimov._brentq(f, -1.5, 2.5, 1e-12) == scipy_brentq(f, -1.5, 2.5, 1e-12) == root


@pytest.mark.parametrize("f, match", [
    (lambda x: x * x + 1.0, "different signs"),
    (lambda x: math.nan if x > 0 else -1.0, "NaN"),
    (lambda x: math.nan if 0 < x < 2 else x - 1.0, "NaN"),  # at the first iterate, 1
], ids=["same-sign", "nan-end", "nan-iterate"])
def test_brentq_port_raises_where_scipy_raises(f, match):
    for solve in (efimov._brentq, scipy_brentq):
        with pytest.raises(ValueError, match=match):
            solve(f, -1.0, 2.0, 1e-12)


def test_brentq_port_takes_scipys_defaults():
    # rtol is 4 machine epsilons: the corpus, whose xtol dominates, cannot
    # tell it from 4 * 2.22e-16
    ours, theirs = (inspect.signature(solve).parameters
                    for solve in (efimov._brentq, scipy.optimize.brentq))
    for name in ("rtol", "maxiter"):
        assert ours[name].default == theirs[name].default


def test_brentq_port_raises_when_it_does_not_converge():
    def f(x):
        return math.tanh(x - 0.3)

    with pytest.raises(RuntimeError, match="failed to converge after 3 iterations"):
        efimov._brentq(f, -10.0, 10.0, 1e-12, maxiter=3)
    with pytest.raises(RuntimeError):
        scipy_brentq(f, -10.0, 10.0, 1e-12, maxiter=3)
    assert efimov._brentq(f, -10.0, 10.0, 1e-12) == scipy_brentq(f, -10.0, 10.0, 1e-12)


def brentq_roots(model):
    """The roots in ``log |E|`` that ``trimer_spectrum`` finds, level by level."""
    roots = []
    with mock.patch.object(efimov, "_brentq", lambda *args: roots.append(
            BRENTQ(*args)) or roots[-1]):
        trimer_spectrum(model, -1.0)
    return roots


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("miscount", [1, -1], ids=["gains", "loses"])
def test_non_monotone_count_names_the_level(monkeypatch, level, miscount):
    # the root of one level moved by a third of the gap to a neighbour, with
    # its search's spectra kept: the spectra held between the true and the
    # moved root count one more ("gains", root moved shallower) or one fewer
    # eigenvalue above 1 than the roots deeper than them
    m = unitary_model(n_p=128)
    roots = brentq_roots(m)
    assert len(roots) >= 3
    step = min(-np.diff(roots)) / 3.0
    calls = iter(range(len(roots)))
    monkeypatch.setattr(efimov, "_brentq", lambda *args: BRENTQ(*args) - (
        miscount * step if next(calls) == level else 0.0))
    with pytest.raises(RuntimeError, match=f"trimer level {level}: the count above 1 at E = "):
        trimer_spectrum(m, -1.0)


@pytest.mark.parametrize("level", [1, 2])
def test_monotone_check_rejects_two_levels_at_one_energy(monkeypatch, level):
    # both roots at their log-midpoint, where the count is the right one:
    # only the strict order of the roots fails
    m = unitary_model(n_p=128)
    roots = brentq_roots(m)
    mid = 0.5 * (roots[level - 1] + roots[level])
    calls = iter(range(len(roots)))
    monkeypatch.setattr(efimov, "_brentq", lambda *args: (
        mid if next(calls) in (level - 1, level) else BRENTQ(*args)))
    with pytest.raises(RuntimeError, match=f"trimer level {level}: root not shallower"):
        trimer_spectrum(m, -1.0)


def test_monotone_check_solves_a_midpoint_only_where_no_spectrum_is_held(monkeypatch):
    # roots handed over by a search that reads only two spectra 1e-12 to
    # either side of its root, which collide: every interval between roots
    # holds spectra, none free of a collision, so each gets its log-midpoint
    m = unitary_model(n_p=128)
    energies, roots = counted_spectrum(128, 1.0)[0], brentq_roots(m)
    calls = iter(roots)
    monkeypatch.setattr(efimov, "_brentq", lambda f, *args: (
        root := next(calls), f(root - 1e-12), f(root + 1e-12))[0])
    solved = []
    monkeypatch.setattr(efimov, "_kernel_spectrum", lambda parts, energy: (
        solved.append(energy) or KERNEL_SPECTRUM(parts, energy)))
    assert [l.energy for l in trimer_spectrum(m, -1.0)] == energies
    middles = [-np.exp(0.5 * (a + b)) for a, b in zip(roots, roots[1:])]
    assert solved[2 + 2 * len(roots):] == middles and len(middles) >= 2


def test_monotone_check_reads_held_spectra_inside_the_band(monkeypatch):
    # Brent's last iterates of a level put its eigenvalue within the guard
    # band of 1, where it may lie on either side of 1: the check passes them
    held = []
    monkeypatch.setattr(efimov, "_kernel_spectrum", lambda parts, energy: (
        held.append(KERNEL_SPECTRUM(parts, energy)) or held[-1]))
    energies = [l.energy for l in trimer_spectrum(unitary_model(n_p=128), -1.0)]
    assert energies == counted_spectrum(128, 1.0)[0]
    assert sum(bool(_collides(lam, eta, 1.0)) for lam, eta in held) >= len(energies)


@pytest.mark.parametrize("end", [0, 1], ids=["e_floor", "e_stop"])
def test_an_eigenvalue_of_exactly_one_at_a_bracket_end_is_a_collision(monkeypatch, end):
    # the ends are solved first, e_floor then e_stop; neither relation counts
    # an eigenvalue of exactly 1, so no level can be bracketed there
    solved = []

    def at_one(parts, energy):
        lam, eta = KERNEL_SPECTRUM(parts, energy)
        solved.append(energy)
        if len(solved) == end + 1:
            lam = np.where(np.arange(lam.size) == lam.size - 1, 1.0, 0.5)
        return lam, eta

    monkeypatch.setattr(efimov, "_kernel_spectrum", at_one)
    with pytest.raises(ThresholdCollisionError, match="at the bracket end E = ") as raised:
        trimer_spectrum(unitary_model(n_p=128), -1.0)
    assert str(raised.value).endswith(f"E = {solved[end]!r}")


def test_a_floor_on_a_level_names_the_collision():
    # e_floor exactly at the detuned model's one level: its eigenvalue sits
    # within the guard band of 1 there, which no count may bracket
    m = unitary_model(n_p=256, lam=0.9 * LAM_U)
    e_floor = -0.021102264483425375
    assert counted_spectrum(256, 0.9)[0] == [e_floor]
    with pytest.raises(ThresholdCollisionError, match=f"bracket end E = {e_floor!r}$"):
        trimer_spectrum(m, e_floor)


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


@pytest.mark.parametrize("e_floor", [-np.inf, np.nan, 0.0])
def test_trimer_floor_must_be_negative_and_finite(e_floor):
    with pytest.raises(ValueError, match=f"e_floor must be negative and finite, got {e_floor}$"):
        trimer_spectrum(unitary_model(n_p=128), e_floor)


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
