"""Tests for the two-body radial experiments."""

import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import gamma as gamma_fn

from bscount import ThresholdCollisionError
from bscount.linop import SymOperator, _tridiagonal_count, count_evs, hs_norm, sym
from bscount.radial import (
    MuScalingReport,
    NeverBindsError,
    PotentialSpec,
    RadialGrid,
    bs_count_and_top,
    bs_kernel_radial,
    find_critical_coupling_radial,
    kernel_critical_strength,
    mu_scan,
    reduced_hamiltonian,
    resolvent_power_kernel,
    rollnik_norm,
    schwinger_bound_check,
)
from bscount import linop, radial
from bscount.radial import (
    _angular_reduced_kernel,
    _fd_diagonals,
    _gl_on_panels,
    _graded_panels,
    _green_apply,
    _green_inverse,
    _kernel_top,
    _negative_count_off_threshold,
    _segment_edges,
)
from oracles import (_green_swave, bisected_coupling, block_top_oracle, fine_bracket_top,
                     green_kernel, legendre_rules_computed, op_function, stebz_binds)

DEFAULT_SEED = 0xB5C0


def quiet_hamiltonian(pot, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return reduced_hamiltonian(pot, grid)


def _calculus_kernel(pot, grid, eps):
    """Oracle: ``(H_w+eps)^(-1/2) v_- (H_w+eps)^(-1/2)`` by dense functional
    calculus, with ``H_w = H_0 + v_+`` (the Green function on gauss_legendre)."""
    r = grid.nodes
    if grid.scheme == "gauss_legendre":
        root_g = op_function(green_kernel(eps, grid),
                             lambda x: np.sqrt(max(x, 0.0))).entries
    else:
        diag, off = _fd_diagonals(None, grid)
        hw = np.diag(diag + pot.v_plus(r)) + np.diag(off, 1) + np.diag(off, -1)
        lam, vec = np.linalg.eigh(hw)
        assert lam[0] + eps > 0
        root_g = (vec * (lam + eps) ** -0.5) @ vec.T
    calc = (root_g * pot.v_minus(r)) @ root_g
    return SymOperator(0.5 * (calc + calc.T))


def _rollnik_integral_loop(pot, gamma, r_cut):
    """Oracle: the Rollnik double integral with the inner panels laid out and
    integrated one outer node at a time."""
    t = 8.0 * gamma
    breaks = pot.breakpoints()
    per_unit = 24.0 / max(pot.support_radius(), 1e-12)
    r_out, w_out = _gl_on_panels(_segment_edges(r_cut, breaks, per_unit), m=12)
    f_out = pot.v_minus(r_out) * r_out
    total = 0.0
    inner_break = np.array([b for b in breaks if 0.0 < b < r_cut])
    for r0, wf in zip(r_out, w_out * f_out):
        if wf == 0.0:
            continue
        cuts = np.unique(np.concatenate([[0.0, r0, r_cut], inner_break]))
        rp_parts, wp_parts = [], []
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b == r0:
                panel = _graded_panels(a, b, singular_at_a=False)
            elif a == r0:
                panel = _graded_panels(a, b, singular_at_a=True)
            else:
                panel = np.linspace(a, b, 7)
            nodes, weights = _gl_on_panels(panel)
            rp_parts.append(nodes)
            wp_parts.append(weights)
        rp = np.concatenate(rp_parts)
        wp = np.concatenate(wp_parts)
        total += wf * np.sum(wp * pot.v_minus(rp) * rp
                             * _angular_reduced_kernel(r0, rp, t))
    return (4.0 * np.pi) ** 2 * total


def assert_top_spectra_agree(kernel, oracle, rank):
    top = np.linalg.eigvalsh(kernel.entries)[-rank:]
    top_oracle = np.linalg.eigvalsh(oracle.entries)[-rank:]
    gap = np.max(np.abs(top - top_oracle))
    assert gap <= 1e-8 * (1.0 + np.max(np.abs(top_oracle)))


def shoot_zero_energy_coefficient(shape_fn, ell, lam, r_out=60.0):
    """Growth coefficient of the zero-energy solution beyond the potential.

    Integrates u'' = (l(l+1)/r^2 - lam*shape) u outward from the regular
    r^(l+1) behavior; beyond the support u = A r^(l+1) + B r^(-l), and the
    sign of A decides sub/supercritical.
    """
    r0 = 1e-6

    def rhs(r, y):
        return [y[1], (ell * (ell + 1) / r**2 - lam * shape_fn(r)) * y[0]]

    sol = solve_ivp(rhs, [r0, r_out], [r0 ** (ell + 1), (ell + 1) * r0**ell],
                    rtol=1e-11, atol=1e-14)
    u, up = sol.y[0, -1], sol.y[1, -1]
    return (ell * u + r_out * up) / ((2 * ell + 1) * r_out**ell)


def shoot_critical_coupling(shape_fn, ell, lam_lo, lam_hi):
    """Independent shooting oracle for the critical coupling."""
    assert shoot_zero_energy_coefficient(shape_fn, ell, lam_lo) > 0
    assert shoot_zero_energy_coefficient(shape_fn, ell, lam_hi) < 0
    lo, hi = lam_lo, lam_hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if shoot_zero_energy_coefficient(shape_fn, ell, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# potentials and grids


def test_potential_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        PotentialSpec(kind="box", strength=1.0)


def test_potential_table_interpolation():
    pot = PotentialSpec(kind="table", strength=2.0,
                        table_r=np.array([0.5, 1.0, 2.0]),
                        table_v=np.array([1.0, 0.5, 0.0]))
    assert pot.shape(0.75) == pytest.approx(0.75)
    assert pot.shape(0.1) == pytest.approx(1.0)   # constant extension to r = 0
    assert pot.shape(3.0) == 0.0                  # vanishes beyond the table
    assert pot.v(0.75) == pytest.approx(-1.5)


def test_potential_table_rejects_negative_shape():
    with pytest.raises(ValueError, match="nonnegative"):
        PotentialSpec(kind="table", strength=1.0,
                      table_r=np.array([0.0, 1.0]),
                      table_v=np.array([1.0, -0.5]))


@pytest.mark.parametrize("column,table_r,table_v", [
    ("table_v", [0.0, 1.0], [np.nan, 1.0]),
    ("table_v", [0.0, 1.0], [1.0, np.inf]),
    ("table_r", [0.0, np.inf], [1.0, 1.0]),
    ("table_r", [np.nan, 1.0], [1.0, 1.0]),
])
def test_potential_table_rejects_non_finite_columns(column, table_r, table_v):
    # a NaN shape value passes the sign check and an infinite abscissa the
    # ordering check, so finiteness is checked on its own
    with pytest.raises(ValueError, match=f"table column {column} has non-finite entries"):
        PotentialSpec(kind="table", strength=1.0, table_r=np.array(table_r),
                      table_v=np.array(table_v))


@pytest.mark.parametrize("kind", ["yukawa", "exponential", "gaussian", "square_well", "table"])
def test_potential_construction_evaluates_no_shape(kind, monkeypatch):
    calls = []
    shape = PotentialSpec.shape
    monkeypatch.setattr(PotentialSpec, "shape",
                        lambda self, r: calls.append(r) or shape(self, r))
    table = ({"table_r": np.array([0.5, 1.0, 2.0]), "table_v": np.array([1.0, 0.5, 0.0])}
             if kind == "table" else {})
    rep = PotentialSpec(kind="gaussian", strength=4.0, range=0.5)
    pot = PotentialSpec(kind=kind, strength=2.0, range=1.5, repulsive_part=rep, **table)
    stronger = pot.with_strength(3.0)
    assert calls == []
    assert stronger.strength == 3.0 and stronger.kind == kind
    assert stronger.v(1.0) == pytest.approx(-3.0 * shape(pot, 1.0) + 4.0 * shape(rep, 1.0))


def test_potential_splits_signs():
    rep = PotentialSpec(kind="gaussian", strength=4.0, range=0.5)
    pot = PotentialSpec(kind="square_well", strength=2.0, range=1.0,
                        repulsive_part=rep)
    r = np.array([0.05, 0.9, 1.5])
    v = pot.v(r)
    np.testing.assert_allclose(pot.v_minus(r), np.maximum(-v, 0))
    np.testing.assert_allclose(pot.v_plus(r), np.maximum(v, 0))
    assert pot.v_plus(r)[0] > 0  # repulsion wins at the origin
    assert pot.v_minus(r)[1] > 0


def test_grid_requires_enough_points():
    with pytest.raises(ValueError, match="n >= 16"):
        RadialGrid(ell=0, r_max=10.0, n=8)


@pytest.mark.parametrize("n", [100.5, np.nan, np.inf])
def test_grid_rejects_a_point_count_that_is_not_an_integer(n):
    # n = 100.5 used to build 101 nodes with h = r_max / 100.5
    with pytest.raises(ValueError, match="integer n >= 16"):
        RadialGrid(ell=0, r_max=10.0, n=n)


def test_grid_takes_an_integral_float_point_count_as_its_integer():
    pot = PotentialSpec(kind="square_well", strength=26.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=25.0, n=200.0)
    assert type(grid.n) is int and grid == RadialGrid(ell=0, r_max=25.0, n=200)
    assert _negative_count_off_threshold(pot, grid, 0.0) == \
        _negative_count_off_threshold(pot, RadialGrid(ell=0, r_max=25.0, n=200), 0.0)


@pytest.mark.parametrize("field,build", [
    ("r_max", lambda x: RadialGrid(ell=0, r_max=x, n=100)),
    ("strength", lambda x: PotentialSpec(kind="gaussian", strength=x)),
    ("range", lambda x: PotentialSpec(kind="gaussian", strength=1.0, range=x)),
])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_radial_inputs_are_rejected_where_they_are_built(field, build, value):
    with pytest.raises(ValueError, match=field):
        build(value)


def test_grid_small_box_warns():
    pot = PotentialSpec(kind="gaussian", strength=1.0, range=2.0)
    with pytest.warns(UserWarning, match="r_max"):
        reduced_hamiltonian(pot, RadialGrid(ell=0, r_max=10.0, n=100))


# ---------------------------------------------------------------------------
# reduced Hamiltonian


def test_free_box_modes():
    grid = RadialGrid(ell=0, r_max=10.0, n=1000)
    pot = PotentialSpec(kind="square_well", strength=0.0, range=1.0)
    lam = np.linalg.eigvalsh(quiet_hamiltonian(pot, grid).entries)[:5]
    exact = (np.arange(1, 6) * np.pi / 10.0) ** 2
    assert np.max(np.abs(lam / exact - 1)) < 0.01


@pytest.mark.parametrize("lam,expected", [(2.0, 0), (2.6, 1)])
def test_square_well_threshold_counts(lam, expected):
    # textbook: first s-state appears at lam * a^2 = pi^2 / 4 ~ 2.467,
    # cross-checked by the shooting oracle
    coeff = shoot_zero_energy_coefficient(
        lambda r: np.where(r < 1.0, 1.0, 0.0), 0, lam)
    assert (coeff < 0) == bool(expected)
    grid = RadialGrid(ell=0, r_max=60.0, n=1500)
    pot = PotentialSpec(kind="square_well", strength=lam, range=1.0)
    h = quiet_hamiltonian(pot, grid)
    assert count_evs(h, "<", 0.0) == expected


# ---------------------------------------------------------------------------
# Green kernels


def test_green_kernel_rejects_nonpositive_eps():
    with pytest.raises(ValueError, match="eps"):
        green_kernel(0.0, RadialGrid(ell=0, r_max=10.0, n=100))


def test_green_kernel_swave_inverse_residual():
    grid = RadialGrid(ell=0, r_max=30.0, n=600)
    eps = 1.0
    g = green_kernel(eps, grid)
    diag, off = _fd_diagonals(None, grid)
    t = np.diag(diag + eps)
    idx = np.arange(grid.n - 1)
    t[idx, idx + 1] = off
    t[idx + 1, idx] = off
    residual = t @ g.entries - np.eye(grid.n)
    # delta-like identity up to discretization order (h^2 ~ 2.5e-3)
    assert np.max(np.abs(residual[5:-5, 5:-5])) < 5e-3


def test_green_kernel_swave_positive_entries():
    g = green_kernel(0.7, RadialGrid(ell=0, r_max=20.0, n=200))
    assert np.all(g.entries >= 0.0)


def test_green_kernel_higher_wave_is_exact_inverse():
    grid = RadialGrid(ell=1, r_max=30.0, n=400)
    eps = 0.5
    g = green_kernel(eps, grid)
    diag, off = _fd_diagonals(None, grid)
    t = np.diag(diag + eps)
    idx = np.arange(grid.n - 1)
    t[idx, idx + 1] = off
    t[idx + 1, idx] = off
    assert np.max(np.abs(t @ g.entries - np.eye(grid.n))) < 1e-10


def test_green_kernel_higher_wave_needs_uniform_scheme():
    with pytest.raises(ValueError, match="uniform_fd2"):
        green_kernel(1.0, RadialGrid(ell=1, r_max=5.0, n=64,
                                     scheme="gauss_legendre"))


def test_full_kernel_exponential_bound():
    # 3-d free kernel exp(-k|x-y|)/(4 pi |x-y|) obeys the exp(-kR)/R bound
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(100):
        k = rng.uniform(0.1, 3.0)
        x = rng.uniform(-3, 3, 3)
        y = rng.uniform(-3, 3, 3)
        dist = np.linalg.norm(x - y)
        if dist < 1e-3:
            continue
        kernel = np.exp(-k * dist) / (4 * np.pi * dist)
        assert 0.0 <= kernel <= np.exp(-k * dist) / dist


# ---------------------------------------------------------------------------
# radial Birman-Schwinger kernel


def test_pure_repulsion_kernel_vanishes():
    pot = PotentialSpec(
        kind="square_well", strength=0.0, range=1.0,
        repulsive_part=PotentialSpec(kind="gaussian", strength=5.0, range=1.0))
    k = bs_kernel_radial(pot, RadialGrid(ell=0, r_max=20.0, n=300), 0.5)
    # the kernel on the empty support of v_- is 0 x 0, as is its spectrum
    assert k.entries.shape == (0, 0)
    # and it round-trips through the public constructor
    rebuilt = sym(np.array(k.entries))
    assert rebuilt.dim == 0 and hs_norm(rebuilt) == 0.0
    for relation, threshold in ((">", 1.0), ("<", -1.0)):
        assert count_evs(k, relation, threshold) == count_evs(rebuilt, relation, threshold) == 0


def test_half_critical_depth_gives_half_mu():
    # BS eigenvalue is linear in the coupling for attractive potentials
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=1.0, n=200, scheme="gauss_legendre")
    lam_c = kernel_critical_strength(well, grid)
    mu = _kernel_top(well.with_strength(lam_c / 2.0), grid, 1e-6)
    assert mu == pytest.approx(0.5, abs=5e-3)


@pytest.mark.parametrize("kind,lam,ell,eps", [
    ("square_well", 10.0, 0, 0.5),
    ("square_well", 26.0, 0, 2.0),
    ("gaussian", 18.0, 0, 0.2),
    ("exponential", 18.0, 0, 0.1),
    ("yukawa", 8.0, 0, 0.3),
    ("square_well", 40.0, 1, 0.25),
])
def test_kernel_count_matches_direct_count(kind, lam, ell, eps):
    pot = PotentialSpec(kind=kind, strength=lam, range=1.0)
    grid = RadialGrid(ell=ell, r_max=25.0, n=700)
    k = bs_kernel_radial(pot, grid, eps)
    calc = _calculus_kernel(pot, grid, eps)
    h = quiet_hamiltonian(pot, grid)
    assert_top_spectra_agree(k, calc, max(int(np.sum(pot.v_minus(grid.nodes) > 0)), 1))
    direct = count_evs(h, "<", -eps)
    assert count_evs(k, ">", 1.0) == direct
    assert count_evs(calc, ">", 1.0) == direct
    assert _negative_count_off_threshold(pot, grid, eps) == direct


def test_kernel_forms_share_top_eigenvalue():
    pot = PotentialSpec(kind="gaussian", strength=12.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=25.0, n=500)
    k = bs_kernel_radial(pot, grid, 0.4)
    calc = _calculus_kernel(pot, grid, 0.4)
    assert_top_spectra_agree(k, calc, 10)
    top = np.linalg.eigvalsh(calc.entries)[-1]
    assert bs_count_and_top(pot, grid, 0.4)[1] == pytest.approx(top, rel=1e-8)
    # gauss_legendre builds no kernel, only its top eigenvalue
    grid = RadialGrid(ell=0, r_max=8.0, n=200, scheme="gauss_legendre")
    top = np.linalg.eigvalsh(_calculus_kernel(pot, grid, 0.4).entries)[-1]
    assert _kernel_top(pot, grid, 0.4) == pytest.approx(top, rel=1e-8)


@pytest.mark.parametrize("level", [0, 1])
def test_threshold_collision_excluded_from_counts(level):
    # -eps sits exactly on a tridiagonal eigenvalue: the guard band drops it
    pot = PotentialSpec(kind="square_well", strength=26.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=25.0, n=700)
    lam = eigvalsh_tridiagonal(*_fd_diagonals(pot, grid))
    eps = -lam[level]
    assert eps > 0
    assert _tridiagonal_count(*_fd_diagonals(pot, grid), "<", -eps) == level
    assert count_evs(quiet_hamiltonian(pot, grid), "<", -eps) == level


@pytest.mark.parametrize("level", [0, 1])
def test_counts_of_twobody_refuse_a_threshold_collision(level):
    # the same collision: count_evs keeps its contract and drops the level,
    # while the counts twobody makes, on both sides, name eps
    pot = PotentialSpec(kind="square_well", strength=26.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=25.0, n=700)
    diag, off = _fd_diagonals(pot, grid)
    lam = eigvalsh_tridiagonal(diag, off)
    eps = -lam[level]
    for count in (_negative_count_off_threshold, bs_count_and_top):
        with pytest.raises(ThresholdCollisionError, match=f"at eps = {eps:.17g}: "):
            count(pot, grid, eps)
    # -eps walked across both edges of the Hamiltonian's guard band
    eta = 1e-10 * (1.0 + np.sqrt(diag @ diag + 2.0 * (off @ off)))
    for shift, below in ((-2.0, level), (-0.8, None), (0.8, None), (2.0, level + 1)):
        eps = -(lam[level] + shift * eta)
        if below is None:
            with pytest.raises(ThresholdCollisionError, match="reduced Hamiltonian at ell = 0"):
                _negative_count_off_threshold(pot, grid, eps)
        else:
            assert _negative_count_off_threshold(pot, grid, eps) == below == \
                count_evs(quiet_hamiltonian(pot, grid), "<", -eps)


def test_schwinger_bound_refuses_a_zero_energy_level():
    # the coupling at which the s-wave ground state of the bound check's grid
    # sits at zero energy, the case the paper's theorem excludes: the count
    # there leaves it out, and the check refuses to count
    grid = RadialGrid(ell=0, r_max=25.0, n=radial.SCHWINGER_N)

    def ground(strength):
        pot = PotentialSpec(kind="square_well", strength=strength, range=1.0)
        return eigvalsh_tridiagonal(*_fd_diagonals(pot, grid), select="i",
                                    select_range=(0, 0))[0]

    pot = PotentialSpec(kind="square_well", range=1.0,
                        strength=scipy.optimize.brentq(ground, 2.0, 8.0, xtol=1e-15))
    assert count_evs(quiet_hamiltonian(pot, grid), "<", 0.0) == 0
    with pytest.raises(ThresholdCollisionError, match="at ell = 0 .* at eps = 0: "):
        schwinger_bound_check(pot)


# how the finite-difference routes reject a gauss_legendre grid
FD_ONLY = "on the uniform_fd2 scheme; gauss_legendre serves only the top kernel eigenvalue"


def assert_kernel_builders_reject(pot, grid, eps):
    """The dense kernel builders reject a gauss_legendre grid, naming
    uniform_fd2, before the small-box warning (r_max <= 10 ranges here)."""
    assert grid.r_max <= 10.0 * pot.range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (bs_kernel_radial, bs_count_and_top):
            with pytest.raises(ValueError, match=FD_ONLY):
                build(pot, grid, eps)


@pytest.mark.parametrize("kind,lam,grid", [
    ("square_well", 26.0, RadialGrid(ell=0, r_max=25.0, n=700)),
    ("gaussian", 40.0, RadialGrid(ell=2, r_max=25.0, n=700)),
    ("yukawa", 15.0, RadialGrid(ell=0, r_max=25.0, n=700)),
    ("gaussian", 12.0, RadialGrid(ell=0, r_max=8.0, n=200, scheme="gauss_legendre")),
])
def test_bs_count_and_top_matches_kernel(kind, lam, grid):
    pot = PotentialSpec(kind=kind, strength=lam, range=1.0)
    for eps in (0.05, 0.5, 2.0):
        if grid.scheme == "gauss_legendre":
            assert_kernel_builders_reject(pot, grid, eps)
            continue
        count, top = bs_count_and_top(pot, grid, eps)
        kernel = bs_kernel_radial(pot, grid, eps)
        assert count == count_evs(kernel, ">", 1.0)
        assert top == pytest.approx(np.linalg.eigvalsh(kernel.entries)[-1], rel=1e-13)


def test_bs_count_and_top_edge_cases():
    grid = RadialGrid(ell=0, r_max=25.0, n=200)
    repulsive = PotentialSpec(
        kind="square_well", strength=0.0, range=1.0,
        repulsive_part=PotentialSpec(kind="gaussian", strength=2.0, range=1.0))
    assert bs_count_and_top(repulsive, grid, 0.5) == (0, 0.0)
    well = PotentialSpec(kind="square_well", strength=26.0, range=1.0)
    with pytest.raises(ValueError, match="eps"):
        bs_count_and_top(well, grid, 0.0)
    with pytest.warns(UserWarning, match="box effects"):
        bs_count_and_top(well, RadialGrid(ell=0, r_max=5.0, n=200), 0.5)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_counts_reject_a_non_finite_eps(eps):
    well = PotentialSpec(kind="square_well", strength=26.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=25.0, n=200)
    with pytest.raises(ValueError, match="threshold"):
        _negative_count_off_threshold(well, grid, eps)
    for kernel in (bs_kernel_radial, bs_count_and_top):
        with pytest.raises(ValueError, match="eps"):
            kernel(well, grid, eps)


def test_bs_count_and_top_runs_the_eigenvalue_check(monkeypatch):
    pot = PotentialSpec(kind="square_well", strength=26.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=25.0, n=700)
    true_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: true_eigvalsh(m) + 1e-6)
    with pytest.raises(RuntimeError, match="trace"):
        bs_count_and_top(pot, grid, 0.5)


def test_gauss_legendre_route_rejects_repulsion():
    # strong core repulsion wins over the well near the origin, so v_+ > 0
    pot = PotentialSpec(
        kind="square_well", strength=2.0, range=1.0,
        repulsive_part=PotentialSpec(kind="gaussian", strength=8.0, range=0.3))
    grid = RadialGrid(ell=0, r_max=1.0, n=64, scheme="gauss_legendre")
    assert_kernel_builders_reject(pot, grid, 0.1)
    with pytest.raises(ValueError, match="repulsive"):
        kernel_critical_strength(pot, grid)


# ---------------------------------------------------------------------------
# Rollnik norm


def test_rollnik_of_pure_repulsion_is_zero():
    pot = PotentialSpec(
        kind="square_well", strength=0.0, range=1.0,
        repulsive_part=PotentialSpec(kind="gaussian", strength=2.0, range=1.0))
    assert rollnik_norm(pot, 0.0) == 0.0


def test_rollnik_strength_scaling():
    pot = PotentialSpec(kind="exponential", strength=1.0, range=1.0)
    base = rollnik_norm(pot, 0.0)
    assert rollnik_norm(pot.with_strength(3.0), 0.0) == pytest.approx(
        3.0 * base, rel=1e-12)


def test_rollnik_yukawa_closed_form():
    # Fourier route: c0^2 = (2pi)^-3 int |4pi/(k^2+1)|^2 (2pi^2/k) d3k = 8 pi^2
    pot = PotentialSpec(kind="yukawa", strength=1.0, range=1.0)
    assert rollnik_norm(pot, 0.0) ** 2 == pytest.approx(8 * np.pi**2, rel=2e-3)


def test_rollnik_square_well_fourier_oracle():
    # fhat(k) = 4 pi (sin k - k cos k)/k^3 for the unit ball indicator
    def integrand(k):
        fh = 4 * np.pi * (np.sin(k) - k * np.cos(k)) / k**3
        return (2 * np.pi) ** -3 * fh**2 * (2 * np.pi**2 / k) * 4 * np.pi * k**2

    oracle, _ = quad(integrand, 0.0, 200.0, limit=400)
    pot = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    assert rollnik_norm(pot, 0.0) ** 2 == pytest.approx(oracle, rel=1e-4)


def test_rollnik_monte_carlo_oracle():
    # importance-sampled 6-d integral for the unit yukawa, seeded
    rng = np.random.default_rng(DEFAULT_SEED)
    n = 400_000
    rad = rng.gamma(2.0, 1.0, n)
    u = rng.standard_normal((n, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    x = rad[:, None] * u
    smag = rng.exponential(1.0, n)
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    ry = np.linalg.norm(x + smag[:, None] * v, axis=1)
    w = 4 * np.pi * (np.exp(-ry) / ry) * (4 * np.pi) * np.exp(smag)
    mc = float(np.mean(w))
    pot = PotentialSpec(kind="yukawa", strength=1.0, range=1.0)
    assert rollnik_norm(pot, 0.0) ** 2 == pytest.approx(mc, rel=0.01)


ROLLNIK_CASES = [
    PotentialSpec(kind="square_well", strength=2.0, range=1.0),
    PotentialSpec(kind="square_well", strength=8.0, range=1.0),
    PotentialSpec(kind="square_well", strength=60.0, range=1.0),
    PotentialSpec(kind="gaussian", strength=30.0, range=1.0),
    PotentialSpec(kind="exponential", strength=18.0, range=1.0),
    PotentialSpec(kind="yukawa", strength=8.0, range=1.0),
    # a repulsive core puts a shape break at r = 0.4, inside r_cut = 1
    PotentialSpec(kind="square_well", strength=5.0, range=1.0,
                  repulsive_part=PotentialSpec(kind="square_well", strength=2.0,
                                               range=0.4)),
]


@pytest.mark.parametrize("gamma", [0.0, 0.05])
@pytest.mark.parametrize("pot", ROLLNIK_CASES, ids=lambda p: f"{p.kind}-{p.strength:g}")
def test_rollnik_batched_matches_loop_oracle(pot, gamma):
    r_cut = pot.support_radius()
    for cut in (r_cut, 2.0 * r_cut):
        oracle = _rollnik_integral_loop(pot, gamma, cut)
        assert radial._rollnik_integral(pot, gamma, cut) == pytest.approx(oracle, rel=1e-12)
    # rollnik_norm reports the integral over the doubled cut
    assert rollnik_norm(pot, gamma) == pytest.approx(np.sqrt(oracle), rel=1e-12)


@pytest.mark.parametrize("pot", ROLLNIK_CASES, ids=lambda p: f"{p.kind}-{p.strength:g}")
def test_rollnik_row_blocks_give_the_whole_group_sums_bit_for_bit(monkeypatch, pot):
    blocked = [radial._rollnik_integral(pot, gamma, 2.0 * pot.support_radius())
               for gamma in (0.0, 0.05)]
    monkeypatch.setattr(radial, "_ROLLNIK_ROWS", 10**6)  # each group in one block
    assert blocked == [radial._rollnik_integral(pot, gamma, 2.0 * pot.support_radius())
                       for gamma in (0.0, 0.05)]


def test_rollnik_norm_computes_each_unit_rule_once(monkeypatch):
    def run():
        for pot in ROLLNIK_CASES:
            rollnik_norm(pot, 0.0)

    assert sorted(legendre_rules_computed(monkeypatch, run)) == [10, 12]


def test_rollnik_batched_and_loop_vanish_on_pure_repulsion():
    pot = PotentialSpec(
        kind="square_well", strength=0.0, range=1.0,
        repulsive_part=PotentialSpec(kind="gaussian", strength=2.0, range=1.0))
    assert radial._rollnik_integral(pot, 0.05, pot.support_radius()) == 0.0
    assert _rollnik_integral_loop(pot, 0.05, pot.support_radius()) == 0.0
    assert rollnik_norm(pot, 0.05) == 0.0


def test_rollnik_rejects_gamma_out_of_range():
    pot = PotentialSpec(kind="gaussian", strength=1.0, range=1.0)
    with pytest.raises(ValueError, match="gamma"):
        rollnik_norm(pot, 0.125)


# ---------------------------------------------------------------------------
# Schwinger-type counting bound


def test_schwinger_subcritical_well():
    pot = PotentialSpec(kind="square_well", strength=2.0, range=1.0)
    count, bound = schwinger_bound_check(pot)
    assert count == 0
    assert bound > 0


def test_schwinger_single_s_state():
    pot = PotentialSpec(kind="square_well", strength=8.0, range=1.0)
    count, bound = schwinger_bound_check(pot)
    assert count == 1
    assert count <= bound


def test_schwinger_deep_well_multiple_waves():
    pot = PotentialSpec(kind="square_well", strength=60.0, range=1.0)
    count, bound = schwinger_bound_check(pot)
    # lam a^2 = 60: two s-levels, p and d levels enter below their thresholds
    assert count > 5
    assert count <= bound


# ---------------------------------------------------------------------------
# resolvent-power kernel


def test_resolvent_kernel_matches_free_resolvent():
    for eps in np.geomspace(0.01, 10.0, 5):
        # R = 1e-300: 1/(4 pi R) ~ 8e298 is finite, and so must the kernel be
        for r_dist in [*np.geomspace(0.1, 8.0, 5), 1e-300]:
            value = resolvent_power_kernel(0.0, eps, r_dist)
            exact = np.exp(-np.sqrt(eps) * r_dist) / (4 * np.pi * r_dist)
            assert value == pytest.approx(exact, rel=1e-6)


def test_resolvent_kernel_bound_at_gamma_zero():
    # e^{-x} <= 1 makes the closed-form bound 1/(4 pi R) trivially true
    value = resolvent_power_kernel(0.0, 2.0, 1.5)
    assert value <= 1.0 / (4 * np.pi * 1.5)


def _resolvent_kernel_direct(gamma, eps, r_dist):
    """Oracle: the resolvent-power integral in ``u = t^(1/p)`` over (0, inf)."""
    p = 1.0 + 2.0 * gamma

    def integrand_u(u):
        return p * u ** (p - 2.5) * np.exp(-eps * u - r_dist**2 / (4.0 * u))

    integral, _ = quad(integrand_u, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return (4.0 * np.pi) ** -1.5 / (p * gamma_fn(p)) * integral


def test_resolvent_kernel_two_substitutions_agree():
    points = [(g, e, r) for g in (0.0, 0.1, 0.2, 0.24)
              for e in (0.01, 1.0, 10.0) for r in (0.2, 2.0, 5.0)]
    for gamma, eps, r_dist in points:
        assert resolvent_power_kernel(gamma, eps, r_dist) == pytest.approx(
            _resolvent_kernel_direct(gamma, eps, r_dist), rel=1e-12)


def test_resolvent_kernel_rejects_large_power():
    for gamma, eps, r_dist, match in [
            (0.25, 1.0, 1.0, "3/2"), (np.nan, 1.0, 1.0, "3/2"),
            (0.0, np.inf, 1.0, "finite"), (0.0, 1.0, np.inf, "finite"),
            (0.0, np.nan, 1.0, "finite"), (0.0, 1.0, np.nan, "finite")]:
        with pytest.raises(ValueError, match=match):
            resolvent_power_kernel(gamma, eps, r_dist)


@pytest.mark.parametrize("gamma", [0.0, 0.2, 0.249])
def test_resolvent_kernel_limit_where_the_argument_underflows(gamma):
    # sqrt(eps) R underflows to 0, where x^nu K_nu(x) -> 2^(nu-1) Gamma(nu) with
    # nu = 3/2 - p; the kernel's x -> 0 limit then simplifies to this form
    p, r_dist = 1.0 + 2.0 * gamma, 1e-300
    limit = (2.0 ** (-2.0 * p) * gamma_fn(1.5 - p) / (np.pi**1.5 * gamma_fn(p))
             * r_dist ** (2.0 * p - 3.0))
    assert resolvent_power_kernel(gamma, 1e-300, r_dist) == pytest.approx(limit, rel=1e-13)
    if gamma == 0.0:
        assert limit == pytest.approx(1.0 / (4.0 * np.pi * r_dist), rel=1e-13)


# ---------------------------------------------------------------------------
# critical coupling on the grid


def test_square_well_critical_coupling():
    shape = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=100.0, n=2000)
    res = find_critical_coupling_radial(shape, grid, tol=0.05)
    assert res.lambda_star == pytest.approx(np.pi**2 / 4.0, rel=1e-3)
    assert res.bracket[0] <= res.lambda_star <= res.bracket[1]


def test_yukawa_critical_coupling_vs_shooting():
    oracle = shoot_critical_coupling(lambda r: np.exp(-r) / r, 0, 1.0, 3.0)
    shape = PotentialSpec(kind="yukawa", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=100.0, n=2000)
    res = find_critical_coupling_radial(shape, grid, tol=0.05)
    assert res.lambda_star == pytest.approx(oracle, rel=5e-3)


def test_critical_coupling_range_rescaling():
    # scaling r -> r/a maps the discretized family exactly when the grid
    # scales along, so the quadratic coupling law holds to round-off
    shape1 = PotentialSpec(kind="gaussian", strength=1.0, range=1.0)
    shape2 = PotentialSpec(kind="gaussian", strength=1.0, range=2.0)
    g1 = RadialGrid(ell=0, r_max=80.0, n=1600)
    g2 = RadialGrid(ell=0, r_max=160.0, n=1600)
    r1 = find_critical_coupling_radial(shape1, g1, tol=0.05)
    r2 = find_critical_coupling_radial(shape2, g2, tol=0.05)
    assert r2.lambda_star == pytest.approx(r1.lambda_star / 4.0, rel=1e-9)


def test_critical_coupling_counts_every_eigensolve(monkeypatch):
    factorizations = []
    factor = linop._tridiagonal_factor

    def counted_factor(diag, off):
        factorizations.append(diag.size)
        return factor(diag, off)

    monkeypatch.setattr(linop, "_tridiagonal_factor", counted_factor)
    shape = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    res = find_critical_coupling_radial(
        shape, RadialGrid(ell=0, r_max=30.0, n=300), tol=0.1)
    assert res.iterations == len(factorizations)
    assert sorted(set(factorizations)) == [300, 600]  # both grids, nothing else


# (potential, grid) pairs whose critical coupling the oracle route re-derives
CRITICAL_CASES = {
    "criterion 5": (PotentialSpec(kind="square_well", strength=1.0),
                    RadialGrid(ell=0, r_max=100.0, n=2000)),
    "gaussian ell=0": (PotentialSpec(kind="gaussian", strength=1.0),
                       RadialGrid(ell=0, r_max=80.0, n=1600)),
    "yukawa ell=0": (PotentialSpec(kind="yukawa", strength=1.0),
                     RadialGrid(ell=0, r_max=100.0, n=2000)),
    "exponential ell=1": (PotentialSpec(kind="exponential", strength=1.0),
                          RadialGrid(ell=1, r_max=60.0, n=1000)),
    "square_well ell=2": (PotentialSpec(kind="square_well", strength=1.0),
                          RadialGrid(ell=2, r_max=40.0, n=800)),
}


@pytest.mark.parametrize("case", CRITICAL_CASES)
def test_critical_coupling_matches_the_bisection_oracle(case):
    # the same extrapolation from couplings bisected against the stebz
    # binding test on both grids, each to 1e-10
    shape, grid = CRITICAL_CASES[case]
    res = find_critical_coupling_radial(shape, grid, tol=0.05)
    fine = RadialGrid(ell=grid.ell, r_max=2.0 * grid.r_max, n=2 * grid.n)
    oracle = 2.0 * bisected_coupling(shape, fine) - bisected_coupling(shape, grid)
    assert res.lambda_star == pytest.approx(oracle, rel=1e-9, abs=0)
    assert res.bracket[0] <= oracle <= res.bracket[1]


@pytest.mark.parametrize("case", CRITICAL_CASES)
def test_binding_tests_agree_in_sign_through_the_critical_coupling(case):
    shape, grid = CRITICAL_CASES[case]
    lam_star = find_critical_coupling_radial(shape, grid, tol=0.05).lambda_star
    offsets = np.geomspace(1e-12, 0.5, 23)
    signs = []
    for lam in lam_star * np.concatenate([1.0 - offsets, [1.0], 1.0 + offsets]):
        diag, off = _fd_diagonals(shape.with_strength(lam), grid)
        binds = stebz_binds(diag, off)
        assert binds == (linop._tridiagonal_factor(diag, off) is None), lam
        signs.append(binds)
    assert signs[0] is False and signs[-1] is True  # the sweep crosses binding


CORED_GAUSSIAN = PotentialSpec(kind="gaussian", strength=1.0, range=1.0,
                               repulsive_part=PotentialSpec(kind="gaussian", strength=5.0,
                                                            range=0.3))


def test_kernel_critical_strength_is_exact_where_a_core_overlaps_the_well():
    # the pointwise split v_+ - v_- is not linear in the coupling where the
    # core overlaps the well; on it the strengths 1, 3 and 10 gave 3.3274,
    # 3.0098 and 2.8346
    grid = RadialGrid(ell=0, r_max=40.0, n=800)
    lam = [kernel_critical_strength(CORED_GAUSSIAN.with_strength(s), grid)
           for s in (1.0, 3.0, 10.0)]
    assert lam[1] == pytest.approx(lam[0], rel=1e-12, abs=0)
    assert lam[2] == pytest.approx(lam[0], rel=1e-12, abs=0)
    assert lam[0] == pytest.approx(bisected_coupling(CORED_GAUSSIAN, grid), rel=1e-9, abs=0)


def test_critical_coupling_never_binds():
    flat = PotentialSpec(kind="table", strength=1.0,
                         table_r=np.array([0.5, 1.0]), table_v=np.zeros(2))
    with pytest.raises(NeverBindsError, match="1e\\+06"):
        find_critical_coupling_radial(flat, RadialGrid(ell=0, r_max=20.0, n=64),
                                      tol=0.05)


def test_critical_coupling_above_the_cap_never_binds():
    # a shape 1e-9 deep binds only above a coupling of about 1e9
    faint = PotentialSpec(kind="table", strength=1.0,
                          table_r=np.array([0.5, 1.0]), table_v=np.full(2, 1e-9))
    with pytest.raises(NeverBindsError, match="1e\\+06"):
        find_critical_coupling_radial(faint, RadialGrid(ell=0, r_max=20.0, n=64),
                                      tol=0.05)


def test_critical_coupling_refinement_disagreement_raises():
    shape = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=30.0, n=2000)
    with pytest.raises(RuntimeError, match="disagree"):
        find_critical_coupling_radial(shape, grid, tol=1e-9)


# ---------------------------------------------------------------------------
# mu(eps) scaling


def test_mu_scan_resonance_exponent_half():
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=1.0, n=200, scheme="gauss_legendre")
    pot = well.with_strength(kernel_critical_strength(well, grid))
    report = mu_scan(pot, grid, np.geomspace(1e-6, 1e-4, 9))
    assert report.fitted_exponent == pytest.approx(0.5, abs=0.05)
    assert report.a_mu_estimate > 0
    assert np.all(np.diff(report.mus) <= 0)
    assert np.all(report.mus < 1.0)


def test_mu_scan_resonance_richardson_cross_check():
    # local log-log slopes drift linearly in sqrt(eps); extrapolating them
    # to eps -> 0 is an independent route to the limiting exponent 1/2
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=1.0, n=200, scheme="gauss_legendre")
    pot = well.with_strength(kernel_critical_strength(well, grid))
    eps = np.geomspace(1e-7, 1e-4, 13)
    report = mu_scan(pot, grid, eps)
    x = np.log(report.epsilons)
    y = np.log(1.0 - report.mus)
    local = np.diff(y) / np.diff(x)
    mid = np.sqrt(report.epsilons[:-1] * report.epsilons[1:])
    slope, intercept = np.polyfit(np.sqrt(mid), local, 1)
    assert intercept == pytest.approx(0.5, abs=0.02)


def test_mu_scan_bound_state_exponent_one():
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=1, r_max=40.0, n=2000)
    pot = well.with_strength(kernel_critical_strength(well, grid))
    report = mu_scan(pot, grid, np.geomspace(1e-6, 1e-4, 9))
    assert report.fitted_exponent == pytest.approx(1.0, abs=0.05)


def test_mu_scan_rejects_detuned_potential():
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=1.0, n=128, scheme="gauss_legendre")
    lam = kernel_critical_strength(well, grid)
    with pytest.raises(ValueError, match="criticality"):
        mu_scan(well.with_strength(0.99 * lam), grid,
                np.geomspace(1e-6, 1e-4, 5))


def test_mu_scan_computes_the_legendre_rule_once_per_grid(monkeypatch):
    # once per order: the third grid shares the second one's rule
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grids = [RadialGrid(ell=0, r_max=r_max, n=n, scheme="gauss_legendre")
             for r_max, n in ((1.0, 96), (1.0, 128), (1.5, 128))]

    def run():
        for grid in grids:
            pot = well.with_strength(kernel_critical_strength(well, grid))
            mu_scan(pot, grid, np.geomspace(1e-6, 1e-4, 5))

    assert legendre_rules_computed(monkeypatch, run) == [96, 128]


def test_counts_stable_under_mesh_refinement():
    pot = PotentialSpec(kind="gaussian", strength=18.0, range=1.0)
    for eps in (0.1, 0.5):
        counts = []
        for n in (500, 1000):
            grid = RadialGrid(ell=0, r_max=25.0, n=n)
            h = quiet_hamiltonian(pot, grid)
            counts.append(count_evs(h, "<", -eps))
        assert counts[0] == counts[1]


def test_kernel_critical_strength_marks_threshold():
    # at the tuned coupling the box operator has lowest eigenvalue ~ 0
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=1, r_max=40.0, n=1200)
    lam = kernel_critical_strength(well, grid)
    h = quiet_hamiltonian(well.with_strength(lam), grid)
    low = np.linalg.eigvalsh(h.entries)[0]
    assert abs(low) < 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("grid", [RadialGrid(ell=0, r_max=1.0, n=64, scheme="gauss_legendre"),
                                  RadialGrid(ell=1, r_max=40.0, n=400)],
                         ids=["gauss_legendre", "uniform_fd2"])
def test_mu_scan_rejects_a_non_finite_eps_up_front(grid, bad):
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    pot = well.with_strength(kernel_critical_strength(well, grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive, finite eps"):
            mu_scan(pot, grid, [1e-6, bad, 1e-4])


def test_mu_scan_rejects_a_detuning_just_above_its_bound():
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=1.0, n=64, scheme="gauss_legendre")
    lam = kernel_critical_strength(well, grid)
    eps = np.geomspace(1e-6, 1e-4, 3)
    for detune in (3e-9, -3e-9):
        mu_scan(well.with_strength(lam * (1.0 + detune)), grid, eps)
    for detune in (3e-8, -3e-8):
        with pytest.raises(ValueError, match="criticality"):
            mu_scan(well.with_strength(lam * (1.0 + detune)), grid, eps)


def test_mu_scan_rejects_a_supercritical_scan():
    # 9e-9 above criticality passes the detuning check, and 1 - mu(eps)
    # falls below 9e-9 once sqrt(eps) is small enough: here at the first
    # scan point only
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=1.0, n=64, scheme="gauss_legendre")
    pot = well.with_strength(kernel_critical_strength(well, grid) * (1.0 + 9e-9))
    with pytest.raises(RuntimeError, match="supercritical"):
        mu_scan(pot, grid, [1e-22, 1e-4])


# mu at the four scan points, and the check that fails, if any
SCAN_VALUES = {
    "rise-5e-12": ([0.5, 0.5, 0.5 + 5e-12, 0.5], "nonincreasing"),
    "rise-5e-13": ([0.5, 0.5, 0.5 + 5e-13, 0.5], None),
    "rise-exactly-1e-12": ([2e-12, 0.0, 1e-12, 0.0], None),  # the tolerance is inclusive
    "mu-exactly-1": ([1.0, 0.5, 0.5, 0.5], "supercritical"),
}


@pytest.mark.parametrize("case", SCAN_VALUES)
def test_mu_scan_checks_of_the_scanned_values(monkeypatch, case):
    values, fails = SCAN_VALUES[case]
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=1.0, n=64, scheme="gauss_legendre")
    pot = well.with_strength(kernel_critical_strength(well, grid))
    eps = [1e-6, 3e-6, 1e-5, 1e-4]
    true_top = radial._kernel_top
    monkeypatch.setattr(radial, "_kernel_top", lambda pot, grid, e: (
        true_top(pot, grid, e) if e == 0.0 else values[eps.index(e)]))
    if fails is None:
        assert mu_scan(pot, grid, eps).mus.tolist() == values
    else:
        with pytest.raises(RuntimeError, match=fails):
            mu_scan(pot, grid, eps)


@pytest.mark.parametrize("factor,raises", [(1.5, True), (3.0, False)])
def test_critical_coupling_refinement_gap_is_held_to_half_tol(factor, raises):
    shape = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=30.0, n=600)
    res = find_critical_coupling_radial(shape, grid, tol=1.0)
    gap = 0.5 * (res.bracket[1] - res.bracket[0])  # the bracket's half-width is the gap
    if raises:
        with pytest.raises(RuntimeError, match="disagree"):
            find_critical_coupling_radial(shape, grid, tol=factor * gap)
    else:
        find_critical_coupling_radial(shape, grid, tol=factor * gap)


def test_critical_coupling_bracket_is_at_least_the_certified_width(monkeypatch):
    # where both grids agree, the bracket is the width the top eigenvalue's
    # residual check and certificate leave: mu_0 in [mu, mu + 2e-10 (1 + mu)]
    monkeypatch.setattr(radial, "_critical_top", lambda shape, grid: (0.4, 31))
    shape = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    res = find_critical_coupling_radial(shape, RadialGrid(ell=0, r_max=30.0, n=600), tol=1.0)
    assert res.lambda_star == 2.5 and res.iterations == 62
    lo, hi = 1.0 / (0.4 + 2e-10 * 1.4), 1.0 / 0.4  # the couplings mu_0 allows
    assert res.bracket[0] <= lo and res.bracket[1] >= hi
    assert res.bracket[1] - res.bracket[0] == pytest.approx(2.0 * (hi - lo), rel=1e-6)


# ---------------------------------------------------------------------------
# the top kernel eigenvalue in O(n)

CRITERION_6_GRIDS = (
    [RadialGrid(ell=0, r_max=1.0, n=n, scheme="gauss_legendre") for n in (200, 400)]
    + [RadialGrid(ell=1, r_max=40.0, n=n) for n in (2000, 4000)])


@pytest.mark.parametrize("grid", CRITERION_6_GRIDS, ids=lambda g: f"{g.scheme}-{g.n}")
def test_top_eigenvalue_matches_the_dense_oracle_on_criterion_6(grid):
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    lam = kernel_critical_strength(well, grid)
    assert lam == pytest.approx(1.0 / block_top_oracle(well, grid, 0.0), rel=1e-10, abs=0)
    pot = well.with_strength(lam)
    for eps in [0.0, *np.geomspace(1e-6, 1e-4, 9), 0.5]:
        mu, ref = _kernel_top(pot, grid, eps), block_top_oracle(pot, grid, eps)
        assert mu == pytest.approx(ref, rel=1e-10, abs=0), eps
        if eps > 0:  # at eps = 0 both are 1 to within rounding
            assert 1.0 - mu == pytest.approx(1.0 - ref, rel=1e-7, abs=0), eps


def criteria_5_and_6_top_eigenvalues(monkeypatch):
    """Criterion 5's critical-coupling search and criterion 6's tunings and
    scans, as tests/test_acceptance.py runs them, with every top kernel
    eigenvalue recorded.  Returns criterion 5's result and, per top
    eigenvalue in order, its arguments, ``mu``, the factorizations it
    reports and those counted at ``linop._tridiagonal_factor``."""
    counted, tops = [], []
    factor, top = linop._tridiagonal_factor, radial._kernel_top_eigenvalue

    def counted_factor(diag, off):
        counted.append(diag.size)
        return factor(diag, off)

    def recorded_top(*args):
        before = len(counted)
        mu, calls = top(*args)
        tops.append((args, mu, calls, len(counted) - before))
        return mu, calls

    monkeypatch.setattr(linop, "_tridiagonal_factor", counted_factor)
    monkeypatch.setattr(radial, "_kernel_top_eigenvalue", recorded_top)
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    res = find_critical_coupling_radial(well, RadialGrid(ell=0, r_max=100.0, n=2000), tol=0.05)
    for grid in CRITERION_6_GRIDS:
        mu_scan(well.with_strength(kernel_critical_strength(well, grid)), grid,
                np.geomspace(1e-6, 1e-4, 9))
    return res, tops


def test_top_eigenvalues_of_criteria_5_and_6_make_their_pinned_factorizations(monkeypatch):
    # T, the doubling and bisection to the 1e-3 bracket, and the certificate,
    # with no fallback; the 1e-8 bracket made 31 each, 62 and 1,364 in all
    res, tops = criteria_5_and_6_top_eigenvalues(monkeypatch)
    assert len(tops) == 2 + 4 * 11  # per criterion 6 grid: two tunings, nine scan points
    assert [(calls, counted) for _, _, calls, counted in tops] == [(14, 14)] * len(tops)
    assert res.iterations == 28
    assert sum(counted for *_, counted in tops[2:]) == 616


def test_top_eigenvalues_of_criteria_5_and_6_are_the_fine_bracket_oracle(monkeypatch):
    res, tops = criteria_5_and_6_top_eigenvalues(monkeypatch)
    for args, mu, _, _ in tops:
        assert mu == pytest.approx(fine_bracket_top(*args)[0], rel=1e-14, abs=0)
    monkeypatch.setattr(radial, "_kernel_top_eigenvalue", fine_bracket_top)
    oracle = find_critical_coupling_radial(PotentialSpec(kind="square_well", strength=1.0),
                                           RadialGrid(ell=0, r_max=100.0, n=2000), tol=0.05)
    assert oracle.iterations == 62
    assert res.lambda_star == pytest.approx(oracle.lambda_star, rel=1e-14, abs=0)


GAPPED_TABLE = PotentialSpec(kind="table", strength=3.0,
                             table_r=np.array([0.0, 1.0, 1.5, 2.5, 3.0, 4.0]),
                             table_v=np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.5]))
CORED_WELL = PotentialSpec(kind="square_well", strength=6.0, range=1.0,
                           repulsive_part=PotentialSpec(kind="gaussian", strength=20.0,
                                                        range=0.3))


@pytest.mark.parametrize("pot,grid", [
    (GAPPED_TABLE, RadialGrid(ell=0, r_max=6.0, n=300)),
    (GAPPED_TABLE, RadialGrid(ell=0, r_max=6.0, n=200, scheme="gauss_legendre")),
    (CORED_WELL, RadialGrid(ell=0, r_max=12.0, n=600)),
    (PotentialSpec(kind="gaussian", strength=5.0, range=1.0), RadialGrid(ell=0, r_max=40.0, n=800)),
], ids=["gapped_table-fd", "gapped_table-gl", "cored_well-fd", "gaussian-fd-r40"])
def test_top_eigenvalue_matches_the_dense_oracle_on_gapped_and_decaying_supports(pot, grid):
    v_minus = pot.v_minus(grid.nodes)
    supp = np.flatnonzero(v_minus > 0)
    gapped, cut = bool(np.any(np.diff(supp) > 1)), bool(supp[0] > 0)
    assert gapped or cut or v_minus[supp].min() < 1e-300  # where S^-1 T S^-1 overflows
    for eps in (0.0, 0.05, 1.0):
        assert _kernel_top(pot, grid, eps) == pytest.approx(
            block_top_oracle(pot, grid, eps), rel=1e-10, abs=0), eps


@pytest.mark.parametrize("eps", [0.0, 1e-2, 0.5, 1e3])
def test_green_inverse_and_sweeps_match_the_closed_form_kernel(eps):
    r = np.concatenate([np.linspace(0.01, 1.0, 12), np.linspace(2.0, 3.0, 7)])  # a gap
    g = _green_swave(eps, r)
    diag, off = _green_inverse(eps, r)
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.max(np.abs(t @ g - np.eye(r.size))) <= 1e-12
    u = np.random.default_rng(DEFAULT_SEED).uniform(-1.0, 1.0, r.size)
    assert np.allclose(_green_apply(eps, r, u), g @ u, rtol=0, atol=1e-13 * np.abs(g).sum(1).max())


@pytest.mark.parametrize("eps", [1e-6, 1e-2, 0.5, 1e3])
def test_green_swave_rows_agree_with_the_sweeps_to_rounding(eps):
    # the form (exp(-k|r-r'|) - exp(-k(r+r'))) / (2k) cancels at small k r,
    # by 1e-10 relative in row 0 at eps = 1e-6
    r = RadialGrid(ell=0, r_max=1.0, n=400, scheme="gauss_legendre").nodes
    u = np.random.default_rng(DEFAULT_SEED).uniform(0.1, 1.0, r.size)
    sweep = _green_apply(eps, r, u)
    assert np.max(np.abs(_green_swave(eps, r) @ u - sweep) / sweep) <= 1e-14


@pytest.mark.parametrize("grid,builder", [
    (RadialGrid(ell=0, r_max=1.0, n=64, scheme="gauss_legendre"), "_green_inverse"),
    (RadialGrid(ell=1, r_max=40.0, n=400), "factors"),
])
def test_top_eigenvalue_residual_check_catches_a_corrupted_inverse(monkeypatch, grid, builder):
    # gauss_legendre: one off-diagonal entry of T; uniform_fd2, where T is
    # the banded Hamiltonian itself and the check solves with its factors:
    # one support entry of the pivots d of those factors
    owner = radial if builder == "_green_inverse" else linop._Kernel
    true_builder = getattr(owner, builder)

    def corrupted(*args, **kwargs):
        out = true_builder(*args, **kwargs)
        if builder == "_green_inverse":
            diag, off = out
            off = off.copy()
            off[off.size // 2] *= 1.0 + 1e-6
            return diag, off
        d, l = out
        live = args[0].support
        d[live[live.size // 2]] *= 1.0 + 1e-6
        return d, l

    monkeypatch.setattr(owner, builder, corrupted)
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    with pytest.raises(RuntimeError, match="residual"):
        kernel_critical_strength(well, grid)


@pytest.mark.parametrize("pot,ell,match", [
    (PotentialSpec(kind="square_well", strength=1.0, range=1.0), 1, "s-wave only"),
    # a core whose v_+ peaks near 0.5, below 1
    (PotentialSpec(kind="square_well", strength=1.0, range=1.0, repulsive_part=PotentialSpec(
        kind="gaussian", strength=1.5, range=0.3)), 0, "absorbs no repulsive part"),
], ids=["p-wave", "weak-core"])
def test_gauss_legendre_kernels_reject_a_partial_wave_or_a_repulsive_part(pot, ell, match):
    grid = RadialGrid(ell=ell, r_max=1.0, n=64, scheme="gauss_legendre")
    with pytest.raises(ValueError, match=match):
        kernel_critical_strength(pot, grid)
    # the dense kernel is built on uniform_fd2 only, whatever the potential
    with pytest.raises(ValueError, match=FD_ONLY):
        bs_count_and_top(pot, grid, 0.5)


BOTH_SCHEMES = [RadialGrid(ell=0, r_max=25.0, n=200),
                RadialGrid(ell=0, r_max=25.0, n=200, scheme="gauss_legendre")]


@pytest.mark.parametrize("grid", BOTH_SCHEMES, ids=["uniform_fd2", "gauss_legendre"])
@pytest.mark.parametrize("strength", [1e-300, 1e-200, 1e-160, 3.0])
def test_kernel_critical_strength_is_strength_ones_value_at_every_strength(grid, strength):
    # the split is linear in the coupling, so the kernel is read at unit
    # coupling and no strength scales S^2 toward underflow, where the top
    # eigenvalue loses digits (near 1e-160) and its bracket cannot start
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel_critical_strength(well.with_strength(strength), grid) == \
            kernel_critical_strength(well, grid)


@pytest.mark.parametrize("grid", BOTH_SCHEMES, ids=["uniform_fd2", "gauss_legendre"])
def test_kernel_critical_strength_refuses_a_shape_whose_kernel_underflows(grid):
    # S^2 of 1e-170 gives a Rayleigh quotient of S 1 that underflows to 0,
    # where S^2 / sigma is not finite: refused before any shifted factorization
    tiny = PotentialSpec(kind="table", strength=1.0, table_r=np.array([0.0, 1.0]),
                         table_v=np.full(2, 1e-170))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="underflows to 0"):
            kernel_critical_strength(tiny, grid)


def test_kernel_critical_strength_needs_an_attractive_part():
    pot = PotentialSpec(kind="square_well", strength=0.0, range=1.0)
    with pytest.raises(ValueError, match="no attractive part"):
        kernel_critical_strength(pot, RadialGrid(ell=0, r_max=20.0, n=100))
