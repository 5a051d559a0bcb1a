"""Test-side oracles shared by several test modules."""

from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.optimize

from bscount import efimov
from bscount.bsengine import ThresholdCollisionError
from bscount.linop import (SymOperator, _checked_eigenvalues, _legendre_rule, _spectral_decompose,
                           _tridiagonal_factor, count_evs, sym)
from bscount.radial import LAMBDA_CAP, NeverBindsError, RadialGrid, _fd_diagonals


def checked_eigenvalues(a):
    """Checked ascending eigenvalues of an operator and its count guard band,
    by linop's core."""
    return _checked_eigenvalues(sym(a).entries)


def spectral_decompose(a):
    """Checked eigendecomposition of an operator, by linop's core."""
    return _spectral_decompose(sym(a).entries)


def projection(f) -> SymOperator:
    """Orthogonal projection ``u u^T`` onto the span of the vector ``f``,
    with ``u = f / |f|``."""
    u = np.ravel(f) / np.linalg.norm(f)
    return SymOperator(np.outer(u, u))


def op_function(a, f):
    """Scalar functional calculus: apply ``f`` to the spectrum of ``a``.

    Computes ``V diag(f(lam)) V^T`` from the checked spectral decomposition.
    ``f`` must be finite at every eigenvalue; otherwise a ValueError names
    the offending eigenvalue.
    """
    a = sym(a)
    eigenvalues, v = spectral_decompose(a)
    values = np.empty(a.dim)
    with np.errstate(all="ignore"):
        for i, lam in enumerate(eigenvalues):
            try:
                y = float(f(lam))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise ValueError(
                    f"function undefined at eigenvalue {lam!r}: {exc}"
                ) from exc
            if not np.isfinite(y):
                raise ValueError(
                    f"function value {y!r} at eigenvalue {lam!r} is not finite"
                )
            values[i] = y
    return SymOperator((v * values) @ v.T)


def banded_hamiltonian(grid: RadialGrid, v_plus, eps: float) -> np.ndarray:
    """``H_0 + v_+ + eps`` on the uniform mesh, in ``solveh_banded`` storage."""
    diag, off = _fd_diagonals(None, grid)
    ab = np.zeros((2, grid.n))
    ab[0, 1:] = off
    ab[1, :] = diag + v_plus + eps
    return ab


def bs_block(pot, grid: RadialGrid, eps: float) -> np.ndarray:
    """``sqrt(v_-) (H_0 + v_+ + eps)^-1 sqrt(v_-)`` on the support of v_-,
    by the builder radial had before ``linop._Kernel.dense``: the box
    operator in band storage, inverted by ``solveh_banded`` on the columns
    of ``sqrt(v_-)``, the block symmetrized.  One row and column per node
    where v_- > 0, 0 x 0 where there is none; uniform_fd2 only."""
    v_minus = pot.v_minus(grid.nodes)
    supp = np.nonzero(v_minus > 0)[0]
    root = np.sqrt(v_minus[supp])
    rhs = np.zeros((grid.n, supp.size), order="F")  # solved in place
    rhs[supp, np.arange(supp.size)] = root
    x = scipy.linalg.solveh_banded(
        banded_hamiltonian(grid, pot.v_plus(grid.nodes), eps), rhs, overwrite_b=True)
    block = x if supp.size == grid.n else x[supp, :]
    block *= root[:, None]
    block = block + block.T
    block *= 0.5  # the bits of 0.5 * (block + block.T), without a second n x n array
    return block


def _green_swave(eps: float, r: np.ndarray) -> np.ndarray:
    """Closed-form s-wave kernel of the semi-infinite domain, Dirichlet at 0,
    as a dense matrix on the nodes ``r``: the kernel ``radial._green_apply``
    applies in O(n) and ``radial._green_inverse`` inverts.

    G(r, r') = exp(-k r_>) sinh(k r_<) / k with k = sqrt(eps), written as
    ``a(r_<) exp(-k |r - r'|)`` with ``a(r) = -expm1(-2 k r) / (2 k)``, so
    nothing overflows or cancels; at eps = 0 it is min(r, r').  ``a`` grows
    with r, so ``a(r_<) = min(a(r), a(r'))``.
    """
    k = np.sqrt(eps)
    a = -np.expm1(-2.0 * k * r) / (2.0 * k) if k > 0 else r
    return np.minimum(a[:, None], a[None, :]) * np.exp(-k * np.abs(r[:, None] - r[None, :]))


def green_kernel(eps: float, grid: RadialGrid) -> SymOperator:
    """Weight-symmetrized matrix of the reduced free Green function.

    For ell = 0 the semi-infinite closed form is evaluated on the nodes and
    multiplied by sqrt(w_i w_j), so the matrix represents (kinetic + eps)^-1
    in the weight-normalized basis.  For ell > 0 on the uniform scheme the
    discretized kinetic-plus-centrifugal operator plus eps is inverted
    directly (a banded solve).
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if grid.ell == 0:
        root_w = np.sqrt(grid.weights)
        g = _green_swave(eps, grid.nodes)
        return SymOperator(root_w[:, None] * g * root_w[None, :])
    if grid.scheme != "uniform_fd2":
        raise ValueError(
            "ell > 0 kernels are computed by inverting the discretized operator, "
            "which needs the uniform_fd2 scheme")
    inv = scipy.linalg.solveh_banded(banded_hamiltonian(grid, 0.0, eps),
                                     np.eye(grid.n))
    return SymOperator(0.5 * (inv + inv.T))


def block_top_oracle(pot, grid: RadialGrid, eps: float) -> float:
    """The largest kernel eigenvalue at shift ``eps >= 0`` by the route
    ``kernel_critical_strength`` and ``mu_scan`` took before their O(n)
    one: linop's checked dense spectrum of the support block, built by
    ``bs_block`` on uniform_fd2 and from the closed-form
    ``_green_swave`` times the quadrature weights on gauss_legendre."""
    if grid.scheme == "uniform_fd2":
        block = bs_block(pot, grid, eps)
    else:
        v_minus = pot.v_minus(grid.nodes)
        supp = np.flatnonzero(v_minus > 0)
        root = np.sqrt(v_minus[supp] * grid.weights[supp])
        block = root[:, None] * _green_swave(eps, grid.nodes[supp]) * root[None, :]
        block = 0.5 * (block + block.T)
    return float(_checked_eigenvalues(block)[0][-1])


def fine_bracket_top(kernel, green=None) -> tuple[float, int]:
    """``linop._kernel_top_eigenvalue`` as it was before its coarse bracket:
    the bracket from the Rayleigh quotient of ``S 1`` bisected by the
    Birman-Schwinger test to relative width 1e-8, then at most 20 steps of
    inverse iteration, the same residual check and certificate, which
    without ``green`` applies ``T^-1`` by the factors of ``T``.  Returns
    ``mu`` and the number of factorizations made."""
    diag, off, weight = kernel
    calls = 0

    def shifted(d):
        nonlocal calls
        calls += 1
        return _tridiagonal_factor(d, off)

    def solve(factors, b):
        return scipy.linalg.lapack.dpttrs(*factors, b)[0]

    factors = t = shifted(diag)
    if factors is None:
        raise ValueError("the tridiagonal T of the kernel S T^-1 S is not positive definite")
    lo = hi = float(weight @ solve(factors, weight)) / float(np.sum(weight))
    while (factors := shifted(diag - weight / hi)) is None:
        hi *= 2.0
    while hi - lo > 1e-8 * hi:
        mid = 0.5 * (lo + hi)
        if (mid_factors := shifted(diag - weight / mid)) is None:
            lo = mid
        else:
            hi, factors = mid, mid_factors
    root = np.sqrt(weight)
    x = root / np.linalg.norm(root)
    for _ in range(20):
        new = root * solve(factors, root * x)
        new /= np.linalg.norm(new)
        step = np.linalg.norm(new - x)
        x = new
        if step <= 1e-12:
            break
    kx = root * (solve(t, root * x) if green is None else green(root * x))
    mu = float(x @ kx)
    residual = float(np.linalg.norm(kx - mu * x))
    if residual > 1e-10 * (1.0 + mu):
        raise RuntimeError(f"top kernel eigenpair residual {residual:.3e} exceeds 1e-10*(1+mu)")
    if shifted(diag - weight / (mu + residual + 1e-10 * (1.0 + mu))) is None:
        raise RuntimeError(f"a kernel eigenvalue lies above the selected mu = {mu:.15g}")
    return mu, calls


def stebz_binds(diag, off) -> bool:
    """A binding test by another LAPACK route than ``pttrf``: is the lowest
    eigenvalue of the tridiagonal matrix, selected by LAPACK ``stebz``,
    below 0?"""
    lowest = scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                               lapack_driver="stebz")[0]
    return bool(lowest < 0.0)


def bisect_coupling(binds, tol: float, rel_tol: float) -> tuple[float, float, int]:
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


def bisected_coupling(shape, grid: RadialGrid) -> float:
    """The critical coupling of the family ``R - lam * shape`` on one box by
    the route ``find_critical_coupling_radial`` took before the kernel's top
    eigenvalue: the midpoint of the bracket, 1e-10 wide, that
    ``bisect_coupling`` finds against the binding test ``stebz_binds`` of
    the reduced Hamiltonian, with any repulsive part ``R`` at its own
    strength."""
    lo, hi, _ = bisect_coupling(
        lambda lam: stebz_binds(*_fd_diagonals(shape.with_strength(lam), grid)), 1e-10, 1e-13)
    return 0.5 * (lo + hi)


def full_three_boson_kernel(model, energy: float) -> SymOperator:
    """The kernel of ``efimov._assemble`` evaluated on the whole ``n x n`` grid.

    ``J`` comes from ``efimov._angular_integral`` on the outer-product terms
    of every ``(s_i, q_j)``, so ``J(i, j)`` and ``J(j, i)`` are computed
    separately and ``SymOperator`` averages the two; the library evaluates
    the upper triangle only and mirrors it.
    """
    a11, a12 = -0.5, np.sqrt(3.0) / 2.0  # the equal-mass Jacobi rotation
    p, w = model.momentum_grid()
    s, q = p[:, None], p[None, :]
    b = (-2.0 * a11) * np.outer(p, p)
    beta2 = a12**2 * model.beta**2
    m1 = (q + a11 * s) ** 2 + beta2
    m2 = (s + a11 * q) ** 2 + beta2
    m3 = (s**2 + q**2) - b
    terms = efimov._AngleTerms(b, m1, m2, m3, efimov._first_difference(m1, m2, b))
    d = 1.0 - model.lam * efimov.two_body_loop(np.sqrt(p**2 - energy), model.beta)
    prefactor = np.sqrt(w * p**2 / d)
    j = efimov._angular_integral(terms, -a12**2 * energy)
    return SymOperator(4.0 * np.pi * model.lam * a12**3
                       * (prefactor[:, None] * j * prefactor[None, :]))


class TriangleParts(NamedTuple):
    """``efimov._KernelParts`` of the whole-triangle assembly: the ``(i, j)``
    of every entry of the upper triangle and its two flat positions, in
    place of the row offsets and the triangle mask."""

    model: efimov.SeparableModel
    p: np.ndarray
    ws2: np.ndarray
    a12_sq: float
    constant: float
    pairs: np.ndarray   # (i, j) of each triangle entry, shape (2, m)
    flat: np.ndarray    # (i n + j, j n + i): its flat n x n positions
    terms: efimov._AngleTerms


def triangle_kernel_parts(model) -> TriangleParts:
    """``efimov._kernel_parts`` by the route that preceded the row blocks:
    the terms of the whole triangle from one ``_angle_terms`` call."""
    p, w = model.momentum_grid()
    pairs = np.array(np.triu_indices(p.size))
    return TriangleParts(
        model=model, p=p, ws2=w * p**2, a12_sq=efimov.A12**2,
        constant=4.0 * np.pi * model.lam * efimov.A12**3,
        pairs=pairs, flat=pairs * p.size + pairs[::-1],
        terms=efimov._angle_terms(*p[pairs], efimov.A11, efimov.A12**2 * model.beta**2))


def triangle_kernel(parts: TriangleParts, energy: float) -> np.ndarray:
    """``efimov._assemble`` by the route that preceded the row blocks: ``J``
    on the whole triangle at once, scattered to both halves through the flat
    positions."""
    if not energy < 0:
        raise ValueError(f"trimer search needs energy < 0, got {energy}")
    abs_e = -float(energy)
    d = 1.0 - parts.model.lam * efimov.two_body_loop(np.sqrt(parts.p**2 + abs_e),
                                                      parts.model.beta)
    if np.any(d <= 0):
        raise ValueError(
            "pair amplitude denominator vanishes: energy is above the "
            "two-body threshold for this coupling")
    prefactor = np.sqrt(parts.ws2 / d)
    j = efimov._angular_integral(parts.terms, parts.a12_sq * abs_e)
    pre_i, pre_j = prefactor[parts.pairs]
    n = parts.p.size
    values = parts.constant * (pre_i * j * pre_j)
    k = np.empty(n * n)
    k[parts.flat[0]] = values
    k[parts.flat[1]] = values
    return k.reshape(n, n)


def legendre_rules_computed(monkeypatch, run):
    """The orders of the Gauss-Legendre rules that ``run()`` computes, from
    an empty rule cache: each computation makes one Jacobi eigensolve."""
    orders = []
    solver = scipy.linalg.eigvals_banded
    monkeypatch.setattr(scipy.linalg, "eigvals_banded",
                        lambda band, **kw: orders.append(band.shape[1]) or solver(band, **kw))
    _legendre_rule.cache_clear()
    try:
        run()
    finally:
        _legendre_rule.cache_clear()  # holds no rule made under the spy
    return orders


def ladder_spectrum(model, e_floor: float) -> list[float]:
    """Trimer energies of ``efimov.trimer_spectrum`` by the route it replaced.

    Scans ``|E|`` down from ``|e_floor|`` on a quarter-decade ladder to the
    same ``e_stop``; a rise in the count of kernel eigenvalues at or above 1
    between two ladder points brackets a level, which ``scipy.optimize.brentq``
    refines on that bracket alone, on that eigenvalue minus 1 in ``log |E|``,
    reusing the spectra at the bracket's ends.  Only the kernel and its
    checked eigensolve, ``efimov._kernel_spectrum``, are the route's own.
    Returns the energies ascending.
    """
    parts = efimov._kernel_parts(model)
    e_stop = max((10.0 * parts.p[0]) ** 2, abs(e_floor) * 1e-18,
                 abs(efimov.dimer_energy(model)) * 1.01)
    ratio = 10.0 ** (1.0 / 4)
    energies = []
    abs_hi = abs(e_floor)
    ev_hi = efimov._kernel_spectrum(parts, e_floor)[0]
    assert not np.any(ev_hi >= 1.0), "levels exist below e_floor"
    count_hi = 0
    while abs_hi > e_stop * (1.0 + 1e-9):
        abs_lo = max(abs_hi / ratio, e_stop)
        ev_lo = efimov._kernel_spectrum(parts, -abs_lo)[0]
        count_lo = int(np.sum(ev_lo >= 1.0))
        known = {np.log(abs_lo): ev_lo, np.log(abs_hi): ev_hi}
        for level in range(count_hi, count_lo):
            def excess(log_abs_e, level=level):
                ev = known.get(log_abs_e)
                if ev is None:
                    ev = efimov._kernel_spectrum(parts, -np.exp(log_abs_e))[0]
                return ev[-1 - level] - 1.0

            energies.append(-float(np.exp(scipy.optimize.brentq(
                excess, np.log(abs_lo), np.log(abs_hi), xtol=efimov.LEVEL_REL_TOL))))
        count_hi, abs_hi, ev_hi = count_lo, abs_lo, ev_lo
    return sorted(energies)


def random_problem_oracle(dim: int, rng, *, singular_a=False, indefinite_b=False):
    """``bsengine.random_problem`` one problem at a time, by the route its
    stacks replaced: the same draws in the same order, each operator checked
    by ``SymOperator``.  Returns ``(a, b, eps)`` with ``eps`` jittered."""
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
    return a, b, jittered_oracle(a, b, float(rng.uniform(0.05, 1.0)))


def jittered_oracle(a, b, eps: float) -> float:
    """``eps`` multiplied by 1 + 1e-6 while it collides with the spectrum of
    ``A + B`` within the guard band, at most 64 times."""
    lam, eta = checked_eigenvalues(a.entries + b.entries)
    for _ in range(64):
        if np.min(np.abs(lam + eps)) >= eta:
            break
        eps *= 1.0 + 1e-6
    return eps


def bs_kernel_oracle(a, b, eps: float) -> SymOperator:
    """``K(eps)`` of one problem from the checked ``eigh`` of ``A``, after
    its positivity check."""
    lam, v = spectral_decompose(a)
    assert lam[0] >= -1e-10 * (1.0 + np.linalg.norm(a.entries)), "A is not PSD"
    s = (v * (lam + eps) ** -0.5) @ v.T
    return SymOperator(-s @ b.entries @ s)


def counts_oracle(a, b, eps: float) -> tuple[int, int]:
    """``(count_direct, count_bs)`` of one problem by the per-problem route:
    checked eigenvalues of ``A + B`` against ``-eps``, ``count_evs`` of
    ``K(eps)`` against 1."""
    lam, eta = checked_eigenvalues(a.entries + b.entries)
    if np.min(np.abs(lam + eps)) < eta:
        raise ThresholdCollisionError("an eigenvalue of A+B lies on -eps")
    return (int(np.count_nonzero(lam < -eps - eta)),
            count_evs(bs_kernel_oracle(a, b, eps), ">", 1.0))


def mu_max_oracle(a, b, eps: float) -> float:
    """Largest checked eigenvalue of ``K(eps)`` of one problem."""
    return float(checked_eigenvalues(bs_kernel_oracle(a, b, eps))[0][-1])


# ---------------------------------------------------------------------------
# the per-problem route of iterbs and of bsengine's two bounds, which their
# stacked cores replaced


def step_oracle(p, mu: float, k_part, l_part) -> dict:
    """``iterbs.ProjectionStep`` of one stage by the per-step route: each
    check on the one matrix, then ``(1 - mu P)^(-1/2)`` in closed form."""
    p, k_part, l_part = sym(p), sym(k_part), sym(l_part)
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    idem = float(np.linalg.norm(p.entries @ p.entries - p.entries))
    if idem > 1e-10:
        raise ValueError(f"P is not a projection: |P^2 - P|_F = {idem:.3e}")
    if float(np.trace(p.entries)) < 0.5:
        raise ValueError("P must be a nonzero projection")
    compat = float(np.linalg.norm((k_part.entries - mu * p.entries) @ p.entries))
    if compat > 1e-8:
        raise ValueError(f"P is not a spectral projection of K_part: {compat:.3e}")
    w = np.eye(p.dim) + (1.0 / np.sqrt(1.0 - mu) - 1.0) * p.entries
    return {"p": p, "mu": mu, "k_part": k_part, "l_part": l_part, "inv_sqrt": w}


def random_step_oracle(k_total, rng) -> dict:
    """``iterbs.random_spectral_step`` by the per-step route."""
    dim = k_total.dim
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    mu = float(rng.uniform(0.3, 0.95))
    lam = rng.uniform(-0.5, mu - 0.1, size=dim)
    lam[0] = mu
    k_part = SymOperator((q * lam) @ q.T)
    return step_oracle(SymOperator(np.outer(q[:, 0], q[:, 0])), mu, k_part,
                       SymOperator(k_total.entries - k_part.entries))


def iterate_oracle(k_total, steps) -> list[tuple]:
    """``iterbs.iterate`` by the per-problem route: ``(T_k, M_k, residual)``
    of each stage, each a ``SymOperator`` checked on its own."""
    dim = k_total.dim
    t, m, p_sum = k_total, np.zeros((dim, dim)), np.zeros((dim, dim))
    out = []
    for step in steps:
        split_gap = float(np.linalg.norm(
            step["k_part"].entries + step["l_part"].entries - k_total.entries))
        if split_gap > 1e-10 * (1.0 + np.linalg.norm(k_total.entries)):
            raise ValueError(f"K_part + L_part differs from K_total by {split_gap:.3e}")
        w = step["inv_sqrt"]
        r = w - np.eye(dim)
        script_p = step["mu"] * step["p"].entries
        if float(np.linalg.norm((step["k_part"].entries - script_p) @ r)) > 1e-6:
            raise ValueError("projection is not spectral for its subsystem part")
        one_r = np.eye(dim) + r
        corr = step["l_part"].entries - p_sum
        m = one_r @ m @ one_r + r @ corr @ r + r @ corr + corr @ r
        p_sum = p_sum + script_p
        t = SymOperator(w @ (t.entries - step["mu"] * step["p"].entries) @ w)
        residual = float(np.linalg.norm(t.entries - (k_total.entries - p_sum + m)))
        if residual > 1e-8:
            raise RuntimeError(f"recurrence disagrees with conjugation by {residual:.3e}")
        out.append((t, SymOperator(m), residual))
    return out


def hs_count_bound_oracle(a, delta: float, v) -> tuple[bool, float]:
    """``bsengine.hs_count_bound_check`` by the per-problem route."""
    n = v.shape[1]
    if float(np.max(np.abs(v.T @ v - np.eye(n)))) > 1e-10:
        raise ValueError("vector set is not orthonormal")
    expectations = np.einsum("ij,ij->j", v, a.entries @ v)
    slack = 1e-12 * (1.0 + delta + np.linalg.norm(a.entries))
    if np.any(np.abs(expectations) < delta - slack):
        raise ValueError("an expectation is below delta")
    bound = float(np.linalg.norm(a.entries)) ** 2 / delta**2
    return n <= bound + 1e-9 * (1.0 + bound), bound


def rank_one_domination_oracle(f, a, epsilon0: float, c: float) -> float:
    """``bsengine.rank_one_domination`` by the per-problem route: the
    spectral cutoff from the checked ``eigh`` of ``A``, verified by
    ``count_evs``; a failed verification raises RuntimeError."""
    lam, vec = spectral_decompose(a)
    assert lam[0] >= -1e-10 * (1.0 + np.linalg.norm(a.entries)), "A is not PSD"
    u = np.ravel(f) / np.linalg.norm(f)
    coeffs = vec.T @ u
    tail_sq = np.concatenate(([np.sum(coeffs**2)], np.sum(coeffs**2) - np.cumsum(coeffs**2)))
    cutoffs = np.concatenate(([0.0], np.maximum(lam, 0.0)))
    ok = np.sqrt(np.maximum(tail_sq, 0.0)) < c / 2.0
    if not np.any(ok):
        raise RuntimeError("no spectral cutoff keeps the tail below c/2")
    big_l = 2.0 * (float(cutoffs[int(np.argmax(ok))]) + epsilon0)
    inv = (vec / (lam + epsilon0)) @ vec.T
    if count_evs(sym(np.outer(u, u) - big_l * inv), ">", c):
        raise RuntimeError(f"verification failed for L={big_l:g}")
    return big_l


def verify_sections_oracle(rng, n_iter: int, n_bound: int) -> dict:
    """``verify``'s iterbs_invariance, hs_bound_extremal and
    rank_one_domination sections one problem at a time, in draw order, by
    the oracles above.  Returns each section's failures, the largest
    consistency residual, and per problem the key of its stack, with the
    ``T_k`` of its stages or its ``L`` (None where the bound failed)."""
    out = {"iterbs_failures": 0, "max_residual": 0.0, "stages": [],
           "hs_failures": 0, "rank_one_failures": 0, "big_l": []}
    for _ in range(n_iter):
        dim = int(rng.integers(6, 16))
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        lam = rng.uniform(-0.8, 1.6, size=dim)
        k_total = SymOperator((q * lam) @ q.T)
        base = count_evs(k_total, ">", 1.0)
        steps = [random_step_oracle(k_total, rng) for _ in range(int(rng.integers(1, 4)))]
        stages = iterate_oracle(k_total, steps)
        out["iterbs_failures"] += not all(count_evs(t, ">", 1.0) == base for t, _, _ in stages)
        out["max_residual"] = max(out["max_residual"], max(res for _, _, res in stages))
        out["stages"].append(((dim, len(steps)), [t.entries for t, _, _ in stages]))
    for _ in range(n_bound):
        dim = int(rng.integers(3, 12))
        r = int(rng.integers(1, dim))
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :r]
        delta = float(rng.uniform(0.5, 3.0))
        holds, bound = hs_count_bound_oracle(SymOperator(delta * q @ q.T), delta, q)
        out["hs_failures"] += (not holds) or abs(bound - r) > 1e-9 * r
    for _ in range(n_bound):
        dim = int(rng.integers(2, 12))
        g = rng.standard_normal((dim, dim))
        a = SymOperator(g @ g.T)
        f = rng.standard_normal(dim)
        f /= np.linalg.norm(f)
        c = float(rng.uniform(0.05, 1.5))
        eps0 = float(rng.uniform(0.1, 2.0))
        try:
            big_l = rank_one_domination_oracle(f, a, eps0, c)
        except RuntimeError:
            big_l = None
            out["rank_one_failures"] += 1
        out["big_l"].append((dim, big_l))
    return out
