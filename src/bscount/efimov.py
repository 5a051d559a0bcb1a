"""Three identical bosons with a rank-one separable pair force.

The pair interaction is ``v = -lam |g><g|`` with the Yamaguchi form factor
``g(p) = 1/(p^2 + beta^2)`` acting on the pair momentum of each two-body
subsystem, in mass-scaled Jacobi coordinates that keep the kinetic operator
a flat Laplacian.  Projecting the bound-state problem on the form factor
reduces it to a one-dimensional integral kernel in the spectator momentum;
trimer energies are the points where an eigenvalue of that kernel crosses 1.
``trimer_spectrum`` finds them from one table of solved spectra and counts
by linop's rule alone: every count of eigenvalues against 1 is linop's
``_count``, strict outside the guard band, and the counts at the bracket
ends are linop's guarded count, which refuses an eigenvalue within the band
of 1 there, a threshold collision.

The kernel's mass coefficients ``A11``, ``A12`` come from the orthogonal
Jacobi rotation between spectator frames (see docs/trimer_kernel.md
for the full derivation); they are validated against independent oracles
(weak-coupling absence of trimers, two-body counting at the unitarity
coupling, and the geometric accumulation ratio at unitarity) rather than
asserted.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .linop import _checked_eigenvalues, _collides, _count, _guarded_count, _legendre_rule

UNITARITY_RTOL = 1e-8
# a11 and a12 of the Jacobi rotation between the spectator frames of three
# equal masses, the only masses the kernel takes (docs/trimer_kernel.md
# gives the general-mass formula)
A11 = -0.5
A12 = math.sqrt(0.75)
# trimer_spectrum: the _brentq tolerance on log|E| (relative tolerance on the
# energy)
LEVEL_REL_TOL = 1e-10
# widest gap between the c_i, relative to the largest, below which J takes
# its confluent limit: near the triple point the divided difference loses
# up to 7e-11 relative at gaps of 1e-6 to 1e-5, where the limit is closer
CONFLUENT_RTOL = 1e-5
# entries of the kernel's triangle that _kernel_parts and _assemble evaluate at
# once: the temporaries of a block then take about 1 MiB at any n_p
_BLOCK_ENTRIES = 8192


@dataclass(frozen=True, eq=False)
class SeparableModel:
    """Yamaguchi model of three identical bosons: range, coupling, momentum grid.

    ``grid_c`` controls the node map ``p = p_max * t / (1 + c (1 - t))``
    concentrating Gauss-Legendre nodes at small momenta, where the trimer
    accumulation lives.
    """

    beta: float
    lam: float
    p_max: float
    n_p: int
    grid_c: float = 3.0

    def __post_init__(self):
        if not (0 < self.beta < math.inf and 0 < self.p_max < math.inf):
            raise ValueError(f"beta and p_max must be finite and > 0, got {self.beta}, {self.p_max}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"coupling must be finite and >= 0, got {self.lam}")
        if not -1 < self.grid_c < math.inf:  # keeps the node map's 1 + c (1 - t) positive
            raise ValueError(f"grid_c must be finite and > -1, got {self.grid_c}")
        if not (self.n_p >= 64 and float(self.n_p).is_integer()):
            raise ValueError(f"need an integer n_p >= 64 quadrature points, got {self.n_p}")
        object.__setattr__(self, "n_p", int(self.n_p))  # 128.0 counts as 128 points

    def momentum_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Mapped Gauss-Legendre nodes and weights on (0, p_max), from linop's
        ``n_p``-point rule."""
        x, w = _legendre_rule(self.n_p)
        t = 0.5 * (x + 1.0)
        wt = 0.5 * w
        denom = 1.0 + self.grid_c * (1.0 - t)
        p = self.p_max * t / denom
        dp = self.p_max * (1.0 + self.grid_c) / denom**2
        return p, wt * dp

    def with_lam(self, lam: float) -> "SeparableModel":
        return replace(self, lam=float(lam))


def lambda_unitary(beta: float) -> float:
    """Coupling at which the two-body subsystem reaches zero binding.

    The condition ``1 = lam * 4 pi Int g^2(q) dq`` gives ``lam = beta^3/pi^2``
    in closed form, from ``Int_0^inf dq / (q^2 + beta^2)^2 = pi / (4 beta^3)``.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return beta**3 / np.pi**2


def two_body_loop(c: float, beta: float) -> float:
    """``Int g^2(k) / (k^2 + c^2) d3k = pi^2 / (beta (beta + c)^2)``."""
    return np.pi**2 / (beta * (beta + c) ** 2)


def dimer_energy(model: SeparableModel) -> float:
    """Two-body binding energy of the pair subsystem (0.0 when unbound).

    The bound state sits where the pair amplitude denominator vanishes at
    zero spectator momentum: ``E_d = -(sqrt(lam pi^2 / beta) - beta)^2``
    once the coupling exceeds the zero-binding value.
    """
    kappa = np.sqrt(model.lam * np.pi**2 / model.beta) - model.beta
    return -float(kappa**2) if kappa > 0 else 0.0


class _AngleTerms(NamedTuple):
    """Energy-independent terms of the angular integral ``J`` at paired
    spectator momenta ``(s_k, q_k)``.

    ``J`` is the second divided difference ``F[c1, c2, c3]`` of
    ``F(c) = Int_-1^1 du / (c + b u)``; each ``c_i`` is carried as
    ``c_i - b``, written as a sum of positive terms so that it keeps full
    relative accuracy where ``b / c_i -> 1``.
    """

    b: np.ndarray    # -2 a11 s q >= 0
    m1: np.ndarray   # c1 - b = (q + a11 s)^2 + a12^2 beta^2
    m2: np.ndarray   # c2 - b = (s + a11 q)^2 + a12^2 beta^2
    m3: np.ndarray   # c3 - b without its energy term: s^2 + q^2 - b
    f12: np.ndarray  # F[c1, c2]


def _angle_terms(s: np.ndarray, q: np.ndarray, a11: float, beta2: float) -> _AngleTerms:
    """Terms of ``J`` at the pairs ``(s[k], q[k])`` of two equal-length 1-D
    arrays; ``beta2`` is ``a12^2 beta^2``."""
    b = (-2.0 * a11) * (s * q)
    m1 = (q + a11 * s) ** 2 + beta2
    m2 = (s + a11 * q) ** 2 + beta2
    m3 = (s**2 + q**2) - b
    return _AngleTerms(b, m1, m2, m3, _first_difference(m1, m2, b))


def _first_difference(mx: np.ndarray, my: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``F[x, y]`` from ``mx = x - b`` and ``my = y - b``.

    ``F[x, y] = -2/((x-b)(y+b)) log1p(t)/t`` with
    ``t = 2b(y-x)/((x-b)(y+b))`` has no cancellation and is exact at
    ``t = 0``, i.e. at ``x = y`` and as ``b -> 0``.
    """
    scale = -2.0 / (mx * (my + 2.0 * b))
    t = -b * (my - mx) * scale
    return scale * np.divide(np.log1p(t), t, out=np.ones_like(t), where=t != 0.0)


def _angular_integral(terms: _AngleTerms, e_term: float) -> np.ndarray:
    """``J = F[c1, c2, c3]`` in closed form; ``e_term`` is ``a12^2 |E|``.

    As for sorted ``x1 <= x2 <= x3``, the second difference is
    ``(F[x2, x3] - F[x1, x2]) / (x3 - x1)``: it divides by the widest gap,
    which spans the two ``c_i`` on either side of the middle one.  Where that
    gap is at most ``CONFLUENT_RTOL`` of the largest ``c_i`` (the triple
    point ``s^2 + |E| = beta^2`` on the diagonal) the confluent limit
    ``Int du / (m + b u)^3 = 2m / (m^2 - b^2)^2`` at the mean ``m`` is used.
    """
    b, m1, m2, m3, f12 = terms
    m3 = m3 + e_term
    f13 = _first_difference(m1, m3, b)
    f23 = _first_difference(m2, m3, b)
    g12, g13, g23 = m2 - m1, m3 - m1, m3 - m2
    # which c_i is the middle one
    mid3 = g13 * g23 <= 0.0
    mid1 = ~mid3 & (g12 * g13 <= 0.0)
    gap = np.where(mid3, g12, np.where(mid1, g23, g13))
    numerator = np.where(mid3, f23 - f13, np.where(mid1, f13 - f12, f23 - f12))
    confluent = np.abs(gap) <= CONFLUENT_RTOL * (np.maximum(np.maximum(m1, m2), m3) + b)
    j = numerator / np.where(confluent, 1.0, gap)
    if confluent.any():
        m = (m1[confluent] + m2[confluent] + m3[confluent]) / 3.0
        bc = b[confluent]
        j[confluent] = 2.0 * (m + bc) / (m * (m + 2.0 * bc)) ** 2
    return j


class _KernelParts(NamedTuple):
    """Everything in the kernel of ``_assemble`` that does not depend on the energy.

    ``J`` is symmetric in ``(s, q)``, so its terms are kept for the upper
    triangle ``i <= j`` of the grid only, row after row, and each value is
    written to its entry and to the mirror entry.  Row ``i`` of the triangle
    is ``offsets[i]:offsets[i + 1]`` of the term arrays, and ``upper`` marks
    its entries in the rows of the ``n x n`` kernel.
    """

    model: SeparableModel
    p: np.ndarray       # momentum nodes
    ws2: np.ndarray     # w_i p_i^2
    constant: float     # C = 4 pi lam a12^3
    offsets: tuple      # where each row of the triangle starts, then its size
    upper: np.ndarray   # n x n bool, True where i <= j
    terms: _AngleTerms  # at (p_i, p_j) on the triangle


def _row_blocks(offsets: tuple):
    """``(r0, r1, entries)`` of consecutive blocks of whole rows ``r0:r1`` of
    the triangle, each of at most ``_BLOCK_ENTRIES`` entries or of one row,
    with the slice ``entries`` of the term arrays that holds them."""
    r0, last = 0, len(offsets) - 1
    while r0 < last:
        r1 = max(bisect.bisect_right(offsets, offsets[r0] + _BLOCK_ENTRIES) - 1, r0 + 1)
        yield r0, r1, slice(offsets[r0], offsets[r1])
        r0 = r1


def _on_block(values: np.ndarray, upper: np.ndarray, r0: int, r1: int):
    """``values`` at the row and at the column of each triangle entry of rows
    ``r0:r1``, in the triangle's order."""
    shape, block = (r1 - r0, values.size), upper[r0:r1]
    return (np.broadcast_to(values[r0:r1, None], shape)[block],
            np.broadcast_to(values, shape)[block])


def _kernel_parts(model: SeparableModel) -> _KernelParts:
    p, w = model.momentum_grid()
    n = p.size
    offsets = tuple(i * n - i * (i - 1) // 2 for i in range(n + 1))
    upper = np.triu(np.ones((n, n), dtype=bool))
    terms = _AngleTerms(*np.empty((5, offsets[-1])))
    for r0, r1, entries in _row_blocks(offsets):
        block = _angle_terms(*_on_block(p, upper, r0, r1), A11, A12**2 * model.beta**2)
        for whole, part in zip(terms, block):
            whole[entries] = part
    return _KernelParts(
        model=model, p=p, ws2=w * p**2,
        constant=4.0 * np.pi * model.lam * A12**3,
        offsets=offsets, upper=upper, terms=terms)


def _assemble(parts: _KernelParts, energy: float) -> np.ndarray:
    """Spectator-momentum kernel whose unit eigenvalues mark trimer energies.

    Weight-symmetrized s-wave kernel at total energy ``energy < 0``:

        K(s,q) = C sqrt(w_s w_q) s q J(s,q) / sqrt(D(s) D(q)),
        C = 4 pi lam a12^3,
        J = Int_-1^1 du / [(q^2 - 2 a11 s q u + a11^2 s^2 + a12^2 beta^2)
                           (s^2 - 2 a11 s q u + a11^2 q^2 + a12^2 beta^2)
                           (s^2 + q^2 - 2 a11 s q u + a12^2 |E|)]

    where (a11, a12) is the orthogonal Jacobi rotation of the equal-mass
    system and ``D`` the two-body pair amplitude denominator.  ``J`` is
    evaluated in closed form as a divided difference (see
    docs/trimer_kernel.md), from the prebuilt ``parts``, on the upper
    triangle, a block of whole rows at a time, so that its temporaries stay
    the size of a block; each block is scaled and mirrored into both halves,
    so the array is symmetric bit for bit and needs no ``SymOperator`` check.
    """
    if not energy < 0:
        raise ValueError(f"trimer search needs energy < 0, got {energy}")
    abs_e = -float(energy)
    # the pair amplitude denominator D(p_i; E) = 1 - lam two_body_loop(sqrt(p_i^2 + |E|))
    d = 1.0 - parts.model.lam * two_body_loop(np.sqrt(parts.p**2 + abs_e), parts.model.beta)
    if np.any(d <= 0):
        raise ValueError(
            "pair amplitude denominator vanishes: energy is above the "
            "two-body threshold for this coupling")
    prefactor = np.sqrt(parts.ws2 / d)  # sqrt(w_i) p_i / sqrt(D_i)
    n = parts.p.size
    k = np.empty((n, n))
    for r0, r1, entries in _row_blocks(parts.offsets):
        j = _angular_integral(_AngleTerms(*(t[entries] for t in parts.terms)), A12**2 * abs_e)
        pre_i, pre_j = _on_block(prefactor, parts.upper, r0, r1)
        values = parts.constant * (pre_i * j * pre_j)
        k[r0:r1][parts.upper[r0:r1]] = values
        k.T[r0:r1][parts.upper[r0:r1]] = values
    return k


def _kernel_spectrum(parts: _KernelParts, energy: float) -> tuple[np.ndarray, float]:
    """Checked ascending eigenvalues of the kernel at ``energy`` and their
    guard band."""
    return _checked_eigenvalues(_assemble(parts, energy))


@dataclass(frozen=True, eq=False)
class TrimerLevel:
    """One trimer root: energy, and whether it sits in the cutoff-stable zone."""

    energy: float
    cutoff_stable: bool


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float = 4 * 2.0**-52,
            maxiter: int = 100) -> float:
    """A zero of ``f`` between ``xa`` and ``xb`` by Brent's method (Brent,
    *Algorithms for Minimization Without Derivatives*, 1973, ch. 4).

    A line-for-line port of scipy's C ``brentq``, with its defaults (``rtol``
    of 4 machine epsilons, 100 iterations): it makes the same float
    operations, so its iterates and its root are ``scipy.optimize.brentq``'s
    bit for bit.  Ends whose values have the same sign, or a NaN value, raise
    ValueError; no convergence in ``maxiter`` steps raises RuntimeError.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; brentq cannot continue")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denominator = dblk * dpre * (fblk - fpre)
                # where the denominator underflows to 0, C's step is inf or
                # NaN, and either fails the test below, as inf does here
                stry = (-fcur * (fblk * dblk - fpre * dpre) / denominator
                        if denominator else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


def _require_floor(e_floor: float) -> None:
    """Reject a scan floor ``e_floor`` that is not negative and finite."""
    if not -math.inf < e_floor < 0:
        raise ValueError(f"e_floor must be negative and finite, got {e_floor}")


def trimer_spectrum(model: SeparableModel, e_floor: float) -> list[TrimerLevel]:
    """All kernel-eigenvalue-1 crossings between ``e_floor`` and the grid floor.

    Eigenvalues of the kernel grow as ``|E|`` falls (the Birman-Schwinger
    principle), so eigenvalue ``level`` (0 = largest) crosses 1 once, and
    linop's count of eigenvalues above 1 at the shallow end ``e_stop`` is the
    number of levels.  Each crossing is found by ``_brentq`` on that
    eigenvalue minus 1 in ``log |E|`` over the one bracket ``[e_stop,
    |e_floor|]``, to ``LEVEL_REL_TOL`` relative.  Every spectrum is solved
    once, by ``_kernel_spectrum``, and held in one table ``log|E| ->
    (eigenvalues, eta)`` that the bracket ends, every iterate of every
    search and the monotone check read.

    ``e_floor`` must be negative and finite, or ValueError is raised.  The
    count above 1 at either end is linop's guarded count, ``e_floor``'s
    first: a kernel eigenvalue within the guard band of 1 there raises
    ``ThresholdCollisionError`` naming that energy, since a level on a
    bracket end is neither counted nor bracketed; one above 1 at
    ``e_floor`` raises ValueError.  The monotone count is checked, not
    assumed, by linop's counting rule, without a tolerance of its own: the
    roots must grow strictly shallower with the level index, and on every held
    spectrum with ``k`` roots deeper than its energy the count above 1 must
    be at most ``k`` and the count below 1 at most ``n - k``, so that an
    eigenvalue inside the band, as at Brent's iterates next to a root, may
    lie on either side of 1.  An interval between two roots that holds no
    spectrum free of a collision gets one at its log-midpoint.  A failure
    raises ``RuntimeError`` naming the level whose eigenvalue is on the
    wrong side of 1.

    ``e_stop`` is where the momentum grid can no longer resolve the states
    (binding momentum within a decade of the smallest node) or, above the
    two-body binding coupling, the dimer threshold; levels below ten times the
    infrared node are flagged cutoff-unstable.  Energies come back ascending
    (deepest first).
    """
    _require_floor(e_floor)
    parts = _kernel_parts(model)
    stable_floor = (10.0 * float(parts.p[0])) ** 2
    # above two-body binding, stop 1% above the dimer threshold: the pair
    # amplitude denominator vanishes there and eigenvalues pile up
    e_stop = max(stable_floor, abs(e_floor) * 1e-18, abs(dimer_energy(model)) * 1.01)
    if e_stop >= abs(e_floor):
        raise ValueError("e_floor is inside the grid-limited region; raise n_p or lower |e_floor|")
    x_stop, x_floor = np.log(e_stop), np.log(abs(e_floor))
    table = {}  # log|E| -> (eigenvalues, eta); the ends solved at their own energies
    deep, n_levels = [_guarded_count(  # the counts above 1 at the ends, e_floor's first
        _count, table.setdefault(x, _kernel_spectrum(parts, energy)), ">", 1.0,
        "kernel eigenvalue within the guard band of 1 at the bracket end E = {!r}", energy)
        for x, energy in ((x_floor, e_floor), (x_stop, -e_stop))]
    if deep:
        raise ValueError(f"levels exist below e_floor = {e_floor:g}; deepen the floor")

    def spectrum(x):  # solved on first use only
        return table[x] if x in table else table.setdefault(x, _kernel_spectrum(parts, -np.exp(x)))

    roots = [_brentq(lambda x: spectrum(x)[0][-1 - level] - 1.0, x_stop, x_floor, LEVEL_REL_TOL)
             for level in range(n_levels)]
    energies = [-float(np.exp(x)) for x in roots]
    for level in range(1, len(roots)):
        if not energies[level - 1] < energies[level]:
            raise RuntimeError(f"trimer level {level}: root not shallower than level {level - 1}")
        if not any(roots[level] < x < roots[level - 1] and not _collides(*table[x], 1.0)
                   for x in table):
            spectrum(0.5 * (roots[level] + roots[level - 1]))
    for x, (lam, eta) in table.items():
        deeper = sum(root > x for root in roots)
        above, below = _count(lam, eta, ">", 1.0), _count(lam, eta, "<", 1.0)
        if above > deeper or below > lam.size - deeper:
            level = deeper if above > deeper else deeper - 1  # its eigenvalue is across 1
            raise RuntimeError(f"trimer level {level}: the count above 1 at E = "
                               f"{-float(np.exp(x))!r} is not monotone in |E|")
    return [TrimerLevel(e, abs(e) >= stable_floor) for e in energies]


def efimov_spectrum(model: SeparableModel, e_floor: float) -> list[TrimerLevel]:
    """Trimer ladder at two-body unitarity.

    Requires the coupling to sit at ``lambda_unitary(beta)`` within 1e-8
    relative, and at least three resolved levels (otherwise the grid is too
    coarse: raise ``p_max`` or ``n_p``).  Energies come back ascending
    (deepest first).
    """
    lam_u = lambda_unitary(model.beta)
    if abs(model.lam - lam_u) > UNITARITY_RTOL * lam_u:
        raise ValueError(
            f"coupling {model.lam!r} is off unitarity {lam_u!r} by more than "
            f"{UNITARITY_RTOL:g} relative")
    levels = trimer_spectrum(model, e_floor)
    if len(levels) < 3:
        raise RuntimeError(
            f"only {len(levels)} trimer levels resolved; raise p_max or n_p")
    return levels


def s0_oracle() -> tuple[float, float]:
    """Scale exponent of the accumulation law and the energy ratio it implies.

    Solves ``s cosh(pi s / 2) = (8 / sqrt(3)) sinh(pi s / 6)`` for s in
    (0, 2) by bisection to 1e-12 and returns ``(s0, exp(2 pi / s0))``.
    """

    def residual(s):
        return s * np.cosh(np.pi * s / 2.0) - (8.0 / np.sqrt(3.0)) * np.sinh(np.pi * s / 6.0)

    lo, hi = 0.1, 2.0
    if not (residual(lo) < 0 < residual(hi)):
        raise RuntimeError("bisection bracket lost the transcendental root")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
    s0 = 0.5 * (lo + hi)
    return s0, float(np.exp(2.0 * np.pi / s0))
