"""Three identical bosons with a rank-one separable pair force.

The pair interaction is ``v = -lam |g><g|`` with the Yamaguchi form factor
``g(p) = 1/(p^2 + beta^2)`` acting on the pair momentum of each two-body
subsystem, in mass-scaled Jacobi coordinates that keep the kinetic operator
a flat Laplacian.  Projecting the bound-state problem on the form factor
reduces it to a one-dimensional integral kernel in the spectator momentum;
trimer energies are the points where an eigenvalue of that kernel crosses 1.

The kernel's mass coefficients ``A11``, ``A12`` come from the orthogonal
Jacobi rotation between spectator frames (see docs/three_boson_kernel.md
for the full derivation); they are validated against independent oracles
(weak-coupling absence of trimers, two-body counting at the unitarity
coupling, and the geometric accumulation ratio at unitarity) rather than
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .linop import SymOperator, _checked_eigenvalues

UNITARITY_RTOL = 1e-8
# a11 and a12 of the Jacobi rotation between the spectator frames of three
# equal masses, the only masses the kernel takes (docs/three_boson_kernel.md
# gives the general-mass formula)
A11 = -0.5
A12 = math.sqrt(0.75)
# trimer_spectrum: the brentq tolerance on log|E| (relative tolerance on the
# energy)
LEVEL_REL_TOL = 1e-10
# widest gap between the c_i, relative to the largest, below which J takes
# its confluent limit
CONFLUENT_RTOL = 1e-6


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
        if not (self.beta > 0 and self.p_max > 0):
            raise ValueError("beta and p_max must be positive")
        if self.lam < 0:
            raise ValueError(f"coupling must be >= 0, got {self.lam}")
        if self.n_p < 64:
            raise ValueError(f"need n_p >= 64 quadrature points, got {self.n_p}")

    def momentum_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Mapped Gauss-Legendre nodes and weights on (0, p_max)."""
        from scipy.special import roots_legendre
        x, w = roots_legendre(self.n_p)
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
    if kappa <= 0:
        return 0.0
    return -float(kappa**2)


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
    """Everything in ``three_boson_kernel`` that does not depend on the energy.

    ``J`` is symmetric in ``(s, q)``, so its terms are kept for the upper
    triangle ``i <= j`` of the grid only, and each value is written to its
    entry and to the mirror entry.
    """

    model: SeparableModel
    p: np.ndarray       # momentum nodes
    ws2: np.ndarray     # w_i p_i^2
    a12_sq: float       # multiplies |E| in c3
    constant: float     # C = 4 pi lam a12^3
    pairs: np.ndarray   # (i, j) of each triangle entry, shape (2, m)
    flat: np.ndarray    # (i n + j, j n + i): its flat n x n positions
    terms: _AngleTerms  # at (p_i, p_j) on the triangle


def _kernel_parts(model: SeparableModel) -> _KernelParts:
    p, w = model.momentum_grid()
    pairs = np.array(np.triu_indices(p.size))
    return _KernelParts(
        model=model, p=p, ws2=w * p**2, a12_sq=A12**2,
        constant=4.0 * np.pi * model.lam * A12**3,
        pairs=pairs, flat=pairs * p.size + pairs[::-1],
        terms=_angle_terms(*p[pairs], A11, A12**2 * model.beta**2))


def _assemble(parts: _KernelParts, energy: float) -> np.ndarray:
    """The kernel of ``three_boson_kernel`` at ``energy`` from prebuilt parts:
    ``J`` on the upper triangle, scaled and mirrored into both halves, so the
    array is symmetric bit for bit and needs no ``SymOperator`` check."""
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
    j = _angular_integral(parts.terms, parts.a12_sq * abs_e)
    pre_i, pre_j = prefactor[parts.pairs]
    n = parts.p.size
    values = parts.constant * (pre_i * j * pre_j)
    k = np.empty(n * n)
    k[parts.flat[0]] = values
    k[parts.flat[1]] = values
    return k.reshape(n, n)


def three_boson_kernel(model: SeparableModel, energy: float) -> SymOperator:
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
    docs/three_boson_kernel.md).
    """
    return SymOperator._built(_assemble(_kernel_parts(model), energy))


def _kernel_eigenvalues(parts: _KernelParts, energy: float) -> np.ndarray:
    """Checked ascending eigenvalues of the kernel at ``energy``."""
    return _checked_eigenvalues(_assemble(parts, energy))[0]


@dataclass(frozen=True, eq=False)
class TrimerLevel:
    """One trimer root: energy, and whether it sits in the cutoff-stable zone."""

    energy: float
    cutoff_stable: bool


def _crossing(parts: _KernelParts, level: int, lo, hi) -> float:
    """Energy where eigenvalue ``level`` (0 = largest) crosses 1.

    ``lo`` and ``hi`` are ``(log|E|, eigenvalues)`` at the shallow and deep
    ends of the bracket; their eigenvalues are reused, not recomputed.
    """
    import scipy.optimize
    known = dict([lo, hi])

    def excess(log_abs_e):
        ev = known.get(log_abs_e)
        if ev is None:
            ev = _kernel_eigenvalues(parts, -np.exp(log_abs_e))
        return ev[-1 - level] - 1.0

    return -float(np.exp(scipy.optimize.brentq(excess, lo[0], hi[0],
                                               xtol=LEVEL_REL_TOL)))


def trimer_spectrum(model: SeparableModel, e_floor: float) -> list[TrimerLevel]:
    """All kernel-eigenvalue-1 crossings between ``e_floor`` and the grid floor.

    Eigenvalues of the kernel grow as ``|E|`` falls (the Birman-Schwinger
    principle), so eigenvalue ``level`` crosses 1 once, and the count of
    eigenvalues at or above 1 at the shallow end ``e_stop`` is the number of
    levels.  Each crossing is found by ``brentq`` on that eigenvalue minus 1
    in ``log |E|`` over the one bracket ``[e_stop, |e_floor|]``, to
    ``LEVEL_REL_TOL`` relative, reusing the spectra at its ends.

    The monotone count is checked, not assumed: the roots must grow shallower
    with the level index, and at the log-midpoint between consecutive roots
    the count must equal the shallower root's level; otherwise
    ``RuntimeError`` names that level.

    ``e_stop`` is where the momentum grid can no longer resolve the states
    (binding momentum within a decade of the smallest node) or, above the
    two-body binding coupling, the dimer threshold; levels below ten times the
    infrared node are flagged cutoff-unstable.  Energies come back ascending
    (deepest first).
    """
    if not e_floor < 0:
        raise ValueError(f"e_floor must be negative, got {e_floor}")
    parts = _kernel_parts(model)
    stable_floor = (10.0 * float(parts.p[0])) ** 2
    # above two-body binding, stop 1% above the dimer threshold: the pair
    # amplitude denominator vanishes there and eigenvalues pile up
    e_stop = max(stable_floor, abs(e_floor) * 1e-18,
                 abs(dimer_energy(model)) * 1.01)
    if e_stop >= abs(e_floor):
        raise ValueError("e_floor is already inside the grid-limited region; "
                         "raise n_p or lower |e_floor|")
    ev_floor = _kernel_eigenvalues(parts, e_floor)
    if np.any(ev_floor >= 1.0):
        raise ValueError(
            f"levels exist below e_floor = {e_floor:g}; deepen the floor")
    ev_stop = _kernel_eigenvalues(parts, -e_stop)
    lo, hi = (np.log(e_stop), ev_stop), (np.log(abs(e_floor)), ev_floor)
    energies = [_crossing(parts, level, lo, hi)
                for level in range(int(np.sum(ev_stop >= 1.0)))]
    for level, (deeper, shallower) in enumerate(zip(energies, energies[1:]), 1):
        if not (deeper < shallower and np.sum(_kernel_eigenvalues(
                parts, -math.sqrt(deeper * shallower)) >= 1.0) == level):
            raise RuntimeError(
                f"trimer level {level}: the count of kernel eigenvalues >= 1 "
                "is not monotone in |E|")
    return [TrimerLevel(energy=e, cutoff_stable=abs(e) >= stable_floor)
            for e in energies]


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
