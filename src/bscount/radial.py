"""Two-body continuum experiments on a radial grid.

Units are hbar = 2m = 1 with H = -Laplacian + v, so energies carry
1/length^2.  A partial wave ``ell`` reduces H to

    -d^2/dr^2 + ell(ell+1)/r^2 + v(r)     on (0, r_max), Dirichlet ends.

Two discretization schemes coexist, each with one job:

* ``uniform_fd2`` -- second-order finite differences on a half-step-offset
  uniform mesh (nodes at (j - 1/2) h), which regularizes the centrifugal
  term at the origin.  This is the route for Hamiltonian spectra, counts,
  critical couplings and the Birman-Schwinger kernel itself.
* ``gauss_legendre`` -- quadrature nodes for the closed-form s-wave Green
  function of the *semi-infinite* domain.  It serves only the largest
  kernel eigenvalue, for the near-threshold scaling of ``mu_scan``, where
  any finite box would destroy the square-root law of the resonance
  channel; the kernel builders and the critical-coupling search reject it.

linop runs every eigensolve and makes every count; the counts that must be
exact at their threshold, on both sides of ``twobody`` and in
``schwinger_bound_check``, are linop's one guarded count, which refuses a
level on the threshold.  The Birman-Schwinger kernel is an operator on the
support of v_-, where the attractive part lives, of one row per node where
v_- > 0.  ``bs_kernel_radial`` records it
as ``S T^-1 S`` with ``T = H_0 + v_+ + eps`` banded and ``S^2 = v_-``, and
builds the support block, ``_bs_block``, only when its entries are read;
``bs_count_and_top`` counts above 1 that block's spectrum, linop's checked
dense spectrum, which also gives the top eigenvalue.  ``count_evs`` of a
kernel of more than 64 rows proves its count on an 8-column compression
where it can, which the kernel's fast-falling spectrum allows, from
products with the kernel by banded solves with the factors of ``T``, in
O(n) and with no block built, and counts a smaller block's full spectrum,
the cheaper there; the counts of the tridiagonal Hamiltonian are Sturm
counts on its two diagonals, with no n x n matrix formed.
The critical coupling and ``mu_scan`` read only the largest kernel
eigenvalue, which linop finds in O(n) without a full spectrum: there the
kernel is ``S T^-1 S`` on the whole grid, with ``T`` tridiagonal and
``S^2`` exactly zero off the support of the attractive part.  On
gauss_legendre ``T`` is the closed-form inverse of the Green function; on
uniform_fd2 it is the banded ``H_0 + v_+ + eps`` itself, so uniform_fd2
has one Green representation for the block, the top eigenvalue and the
counts.  ``mu_scan`` reads the top of the block's spectrum, of the split
``v_+ - v_-``.  The critical coupling has one route, the Birman-Schwinger
principle: ``H_0 + R - lam * shape``, with the repulsive part ``R`` held
at its own strength, binds exactly when ``lam mu_0 > 1``, for ``mu_0``
the top eigenvalue at zero shift of ``T = H_0 + R`` and ``S^2 = shape``,
the split linear in ``lam``.  ``kernel_critical_strength`` returns that
coupling, and ``find_critical_coupling_radial`` extrapolates it from a box
and its double.  Without a repulsive part the two splits are the same
arrays.  The two operator builders record their structure with linop
unchecked, and the dense matrix of either is built by its own code, here,
on its first read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .linop import (SymOperator, _Kernel, _Tridiagonal, _checked_eigenvalues, _count,
                    _guarded_count, _kernel_top_eigenvalue, _legendre_rule, _tridiagonal_count)

POTENTIAL_KINDS = ("yukawa", "exponential", "gaussian", "square_well", "table")

# tail fraction above which a radial quadrature is declared divergent
TAIL_LIMIT = 1e-3

# mu_scan fits log(1 - mu) against log eps on the scan points in this window
FIT_WINDOW = (1e-6, 1e-4)

# schwinger_bound_check's grid size and the highest partial wave it visits
SCHWINGER_N = 1500
SCHWINGER_ELL_MAX = 25

LAMBDA_CAP = 1e6  # largest critical coupling accepted; above it a shape "never binds"

# outer nodes whose inner Rollnik sums are evaluated together, which bounds
# the temporaries of one vectorized integrand evaluation
_ROLLNIK_ROWS = 64


class NeverBindsError(RuntimeError):
    """The Hamiltonian binds at no coupling up to ``LAMBDA_CAP``."""


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Radial pair potential: ``v(r) = -strength * shape(r)`` plus an
    optional repulsive part of the same structure with positive sign.

    ``shape`` is a nonnegative, bounded unit profile set by ``kind`` and
    ``range``; tables interpolate linearly inside their abscissas, extend
    the first value to r = 0 and vanish beyond the last point.

    Every accepted spec meets the fall-off restriction by its kind, so no
    numerical probe checks it: ``square_well`` and ``table`` shapes vanish
    beyond ``support_radius()``, and the yukawa, exponential and gaussian
    shapes decay exponentially in ``r / range``, so ``r^2 shape(r)`` is
    integrable for every positive ``range``.
    """

    kind: str
    strength: float
    range: float = 1.0
    table_r: np.ndarray | None = None
    table_v: np.ndarray | None = None
    repulsive_part: "PotentialSpec | None" = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not 0 <= self.strength < np.inf:
            raise ValueError(f"strength must be finite and >= 0, got {self.strength}")
        if not 0 < self.range < np.inf:
            raise ValueError(f"range must be positive and finite, got {self.range}")
        if self.kind == "table":
            r = np.asarray(self.table_r, dtype=float)
            v = np.asarray(self.table_v, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size < 2:
                raise ValueError("table potentials need matching 1-d r and v columns")
            for name, column in (("table_r", r), ("table_v", v)):
                if not np.isfinite(column).all():
                    raise ValueError(f"table column {name} has non-finite entries")
            if np.any(np.diff(r) <= 0):
                raise ValueError("table abscissas must be strictly increasing")
            if np.any(v < 0):
                raise ValueError("table shape values must be nonnegative")
            object.__setattr__(self, "table_r", r)
            object.__setattr__(self, "table_v", v)

    def shape(self, r):
        """Unit attractive profile, vectorized over r >= 0."""
        r = np.asarray(r, dtype=float)
        x = r / self.range
        if self.kind == "yukawa":
            with np.errstate(divide="ignore"):
                out = np.where(x > 0, np.exp(-x) / np.maximum(x, 1e-300), np.inf)
            return out
        if self.kind == "exponential":
            return np.exp(-x)
        if self.kind == "gaussian":
            return np.exp(-(x**2))
        if self.kind == "square_well":
            return np.where(r < self.range, 1.0, 0.0)
        return np.interp(r, self.table_r, self.table_v,
                         left=self.table_v[0], right=0.0)

    def support_radius(self) -> float:
        """Radius beyond which the shape is (effectively) negligible."""
        if self.kind == "square_well":
            return self.range
        if self.kind == "table":
            return float(self.table_r[-1])
        if self.kind == "gaussian":
            return 8.0 * self.range
        return 45.0 * self.range  # yukawa / exponential tails

    def v(self, r):
        """Full potential ``-strength*shape + repulsive part`` on r."""
        out = -self.strength * self.shape(r)
        if self.repulsive_part is not None:
            out = out + self.repulsive_part.strength * self.repulsive_part.shape(r)
        return out

    def v_minus(self, r):
        return np.maximum(-self.v(r), 0.0)

    def v_plus(self, r):
        return np.maximum(self.v(r), 0.0)

    def with_strength(self, strength: float) -> "PotentialSpec":
        return replace(self, strength=float(strength))

    def breakpoints(self) -> tuple[float, ...]:
        """Radii where the shape is discontinuous (quadrature panel edges)."""
        own = (self.range,) if self.kind == "square_well" else ()
        if self.repulsive_part is not None:
            own = own + self.repulsive_part.breakpoints()
        return own


@dataclass(frozen=True)
class RadialGrid:
    """Partial-wave index, mesh and quadrature weights for one channel."""

    ell: int
    r_max: float
    n: int
    scheme: str = "uniform_fd2"

    def __post_init__(self):
        if self.ell < 0 or int(self.ell) != self.ell:
            raise ValueError(f"ell must be a nonnegative integer, got {self.ell}")
        if not 0 < self.r_max < np.inf:
            raise ValueError(f"r_max must be positive and finite, got {self.r_max}")
        if not (self.n >= 16 and float(self.n).is_integer()):
            raise ValueError(f"need an integer n >= 16 interior points, got {self.n}")
        object.__setattr__(self, "n", int(self.n))  # 200.0 counts as 200 points
        if self.scheme not in ("uniform_fd2", "gauss_legendre"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def h(self) -> float:
        """Mesh spacing of the uniform scheme; nodes sit at cell midpoints."""
        return self.r_max / self.n

    @property
    def nodes(self) -> np.ndarray:
        if self.scheme == "uniform_fd2":
            return (np.arange(1, self.n + 1) - 0.5) * self.h
        return 0.5 * self.r_max * (_legendre_rule(self.n)[0] + 1.0)

    @property
    def weights(self) -> np.ndarray:
        if self.scheme == "uniform_fd2":
            return np.full(self.n, self.h)
        return 0.5 * self.r_max * _legendre_rule(self.n)[1]


@dataclass(frozen=True)
class CriticalCouplingResult:
    """Location of the coupling at which the Hamiltonian first binds."""

    lambda_star: float
    bracket: tuple[float, float]
    iterations: int


@dataclass(frozen=True, eq=False)
class MuScalingReport:
    """Near-threshold scan of the largest Birman-Schwinger eigenvalue."""

    epsilons: np.ndarray
    mus: np.ndarray
    fitted_exponent: float
    a_mu_estimate: float


# ---------------------------------------------------------------------------
# finite-difference Hamiltonian


def _require_box(grid: RadialGrid):
    if grid.scheme != "uniform_fd2":
        raise ValueError("the box Hamiltonian and its kernel are built by finite differences "
                         "on the uniform_fd2 scheme; gauss_legendre serves only the top "
                         "kernel eigenvalue")


def _fd_diagonals(pot: PotentialSpec | None, grid: RadialGrid):
    """Main and off diagonal of the reduced operator on the uniform mesh."""
    _require_box(grid)
    r = grid.nodes
    h = grid.h
    diag = np.full(grid.n, 2.0 / h**2)
    # antisymmetric ghosts enforce u(0) = 0 and u(r_max) = 0 on the
    # cell-midpoint mesh (the discrete sine modes are exact eigenvectors)
    diag[0] += 1.0 / h**2
    diag[-1] += 1.0 / h**2
    if grid.ell > 0:
        diag += grid.ell * (grid.ell + 1) / r**2
    if pot is not None:
        diag += pot.v(r)
    off = np.full(grid.n - 1, -1.0 / h**2)
    return diag, off


def _warn_if_box_small(pot: PotentialSpec, grid: RadialGrid):
    if grid.r_max <= 10.0 * pot.range:
        warnings.warn(
            f"r_max = {grid.r_max:g} is below 10x the potential range {pot.range:g}; "
            f"box effects may be significant", stacklevel=3)


def reduced_hamiltonian(pot: PotentialSpec, grid: RadialGrid) -> SymOperator:
    """Second-order discretization of the reduced radial operator.

    The operator records that it is tridiagonal, by its two diagonals, so
    ``count_evs`` counts it by Sturm sequences on them; its dense
    ``entries`` are built, by ``_dense_tridiagonal``, only when read.
    """
    diag, off = _fd_diagonals(pot, grid)  # rejects a grid other than uniform_fd2
    _warn_if_box_small(pot, grid)
    return SymOperator._structured(_Tridiagonal(diag, off), partial(_dense_tridiagonal, diag, off))


def _dense_tridiagonal(diag, off) -> np.ndarray:
    """The n x n symmetric tridiagonal matrix of ``diag`` and ``off``."""
    m = np.diag(diag)
    idx = np.arange(diag.size - 1)
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off
    return m


def _negative_count_off_threshold(pot: PotentialSpec, grid: RadialGrid, eps: float) -> int:
    """Number of eigenvalues of the reduced operator below ``-eps``, refused
    where it is not exact.

    linop's guarded count of the tridiagonal matrix, by Sturm sequence, as
    ``count_evs`` counts ``reduced_hamiltonian(pot, grid)`` below ``-eps``:
    an eigenvalue within ``1e-10 * (1 + |H|_F)`` of ``-eps``, which that
    count leaves out, raises ThresholdCollisionError naming ``ell`` and
    ``eps`` instead.  At ``eps = 0`` that eigenvalue is a zero-energy
    level, the case the paper's finiteness theorem excludes.
    """
    return _guarded_count(_tridiagonal_count, _Tridiagonal(*_fd_diagonals(pot, grid)), "<", -eps,
                          "an eigenvalue of the reduced Hamiltonian at ell = {} lies within the "
                          "guard band of -eps at eps = {:.17g}: a level sits on the counting "
                          "threshold", grid.ell, eps)


def _banded_hamiltonian(grid: RadialGrid, v_plus, eps: float) -> np.ndarray:
    """``H_0 + v_+ + eps`` on the uniform mesh, in ``solveh_banded`` storage."""
    diag, off = _fd_diagonals(None, grid)
    ab = np.zeros((2, grid.n))
    ab[0, 1:] = off
    ab[1, :] = diag + v_plus + eps
    return ab


# ---------------------------------------------------------------------------
# Green kernels


def _green_apply(eps: float, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``G u`` on sorted nodes ``r`` in O(n), for the closed-form s-wave
    kernel of the semi-infinite domain, Dirichlet at 0,
    ``G(r, r') = exp(-k r_>) sinh(k r_<) / k`` with ``k = sqrt(eps)``
    (``min(r, r')`` at k = 0), by two sweeps over its single pair.

    ``G = a(r_<) exp(-k |r - r'|)`` with ``a(r) = -expm1(-2 k r) / (2 k)``,
    which has no cancellation at small ``k r`` (``a = r`` at k = 0), so
    ``(G u)_i = F_i + a_i B_i`` for the forward sum
    ``F_i = sum_(j <= i) exp(-k (r_i - r_j)) a_j u_j`` and the backward sum
    ``B_i = sum_(j > i) exp(-k (r_j - r_i)) u_j``.  No factor grows, so
    nothing overflows.
    """
    k = np.sqrt(eps)
    a = -np.expm1(-2.0 * k * r) / (2.0 * k) if k > 0 else r
    decay = np.exp(-k * np.diff(r)).tolist()
    au, uu = (a * u).tolist(), u.tolist()
    forward, backward = [au[0]], [0.0]
    for d, v in zip(decay, au[1:]):
        forward.append(d * forward[-1] + v)
    for d, v in zip(decay[::-1], uu[:0:-1]):
        backward.append(d * (backward[-1] + v))
    return np.array(forward) + a * np.array(backward[::-1])


def _green_inverse(eps: float, r: np.ndarray):
    """Diagonal and off-diagonal of ``T``, the tridiagonal inverse of the
    s-wave kernel ``G`` of ``_green_apply`` on sorted nodes ``r``.

    The kernel is a single pair ``sinh(k r_<) / k * exp(-k r_>)``, so its
    inverse is tridiagonal, in closed form (Gantmacher & Krein 1950).  With
    ``D_i = r_(i+1) - r_i``, ``D_(-1) = r_0`` for the Dirichlet end and
    ``c(D) = k coth(k D)`` (``1 / D`` at k = 0): the off-diagonal is
    ``-k / sinh(k D_i)`` (``-1 / D_i``), the diagonal ``c(D_(i-1)) + c(D_i)``,
    and the last diagonal entry ``c(D_(n-2)) + k`` for the decaying end.
    """
    k = np.sqrt(eps)
    gaps = np.diff(r, prepend=0.0)
    if k > 0:
        c, off = k / np.tanh(k * gaps), -k / np.sinh(k * gaps[1:])
    else:
        c = 1.0 / gaps
        off = -c[1:]
    diag = c.copy()
    diag[:-1] += c[1:]
    diag[-1] += k
    return diag, off


# ---------------------------------------------------------------------------
# the radial Birman-Schwinger kernel


def _bs_block(pot: PotentialSpec, grid: RadialGrid, eps: float):
    """``sqrt(v_-) (H_0 + v_+ + eps)^-1 sqrt(v_-)`` on the support of v_-.

    Returns the block, one row and column per node where v_- > 0 (0 x 0
    where there is none), for ``eps >= 0``, on the uniform_fd2 box (another
    scheme raises ValueError): the box operator is inverted by banded
    solves, and the block is symmetrized, so it is exactly symmetric.
    """
    import scipy.linalg
    v_minus = pot.v_minus(grid.nodes)
    supp = np.nonzero(v_minus > 0)[0]
    root = np.sqrt(v_minus[supp])
    rhs = np.zeros((grid.n, supp.size), order="F")  # solved in place
    rhs[supp, np.arange(supp.size)] = root
    x = scipy.linalg.solveh_banded(
        _banded_hamiltonian(grid, pot.v_plus(grid.nodes), eps), rhs, overwrite_b=True)
    block = x if supp.size == grid.n else x[supp, :]
    block *= root[:, None]
    block = block + block.T
    block *= 0.5  # the bits of 0.5 * (block + block.T), without a second n x n array
    return block


def _split_kernel_top(grid: RadialGrid, eps: float, repulsive, weight) -> tuple[float, int]:
    """Largest eigenvalue of the kernel ``S T^-1 S`` at ``eps >= 0`` of one
    split of the potential, ``repulsive - weight`` with both parts
    nonnegative, by linop's O(n) top eigenvalue on the whole grid, and the
    number of factorizations it made.  ``S^2`` is ``weight``, exactly zero
    off its support; a weight with no positive entry is the zero kernel,
    whose largest eigenvalue is 0, found with no factorization.

    On uniform_fd2 ``T`` is the banded ``H_0 + repulsive + eps``, so the
    binding test is the Birman-Schwinger test on
    ``H_0 + repulsive + eps - weight / sigma``, and the check applies
    ``T^-1`` by a banded solve.  On gauss_legendre ``S^2`` is the weight
    times the quadrature weights and ``T`` the closed-form tridiagonal
    inverse of the semi-infinite s-wave Green function, which the check
    applies in O(n) by ``_green_apply``; that kernel leaves no room for a
    partial wave above 0 or a repulsive part, and either raises ValueError.
    """
    if not np.any(weight > 0):
        return 0.0, 0
    if grid.scheme == "uniform_fd2":
        import scipy.linalg
        ab = _banded_hamiltonian(grid, repulsive, eps)
        return _kernel_top_eigenvalue(ab[1], ab[0, 1:], weight,
                                      lambda u: scipy.linalg.solveh_banded(ab, u))
    if grid.ell != 0:
        raise ValueError("gauss_legendre kernels are s-wave only")
    if np.any(repulsive > 0):
        raise ValueError(
            "the gauss_legendre route absorbs no repulsive part; "
            "use the uniform_fd2 scheme for potentials with a repulsive part")
    r = grid.nodes
    return _kernel_top_eigenvalue(*_green_inverse(eps, r), weight * grid.weights,
                                  lambda u: _green_apply(eps, r, u))


def _kernel_top(pot: PotentialSpec, grid: RadialGrid, eps: float) -> float:
    """``mu_scan``'s largest kernel eigenvalue at ``eps >= 0``:
    ``_split_kernel_top`` of the pointwise split ``v_+ - v_-``, whose kernel
    on uniform_fd2 is ``bs_kernel_radial``'s."""
    r = grid.nodes
    return _split_kernel_top(grid, eps, pot.v_plus(r), pot.v_minus(r))[0]


def _critical_top(pot: PotentialSpec, grid: RadialGrid) -> tuple[float, int]:
    """``_split_kernel_top`` at zero shift of the split that is linear in the
    coupling: the repulsive part at its own strength, and the weight
    ``strength * shape``."""
    r = grid.nodes
    core = pot.repulsive_part
    repulsive = 0.0 if core is None else core.strength * core.shape(r)
    return _split_kernel_top(grid, 0.0, repulsive, pot.strength * pot.shape(r))


def _require_shift(eps: float) -> None:
    """Reject a shift ``eps`` of the Birman-Schwinger kernel that is not
    positive and finite."""
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")


def bs_kernel_radial(pot: PotentialSpec, grid: RadialGrid, eps: float) -> SymOperator:
    """Birman-Schwinger kernel of the radial problem at spectral shift eps.

    The repulsive part of the potential is absorbed into the reference
    operator ``H_w = H_0 + v_+``, so the kernel is built from the attractive
    part only: ``sqrt(v_-) (H_w + eps)^-1 sqrt(v_-)``, the kernel on the
    support of v_-.  Its ``dim`` is the number of grid nodes where
    v_- > 0, and it is 0 x 0 when v_- vanishes on the grid.  Its spectrum
    is the nonzero spectrum of ``(H_w + eps)^(-1/2) v_- (H_w + eps)^(-1/2)``.
    It is built on the uniform_fd2 box only: another scheme raises
    ValueError before the small-box warning.

    The operator records the kernel as linop's ``_Kernel``: the banded
    ``T = H_w + eps`` and ``v_-`` on the whole grid, from which
    ``count_evs`` proves a count of a support of more than 64 nodes without
    the dense block.  The block, ``_bs_block``, is built only when
    ``entries`` is read, as it is by ``bs_count_and_top``.
    """
    _require_shift(eps)
    r = grid.nodes
    ab = _banded_hamiltonian(grid, pot.v_plus(r), eps)  # rejects a grid other than uniform_fd2
    _warn_if_box_small(pot, grid)
    return SymOperator._structured(_Kernel(ab[1], ab[0, 1:], pot.v_minus(r)),
                                   partial(_bs_block, pot, grid, eps))


def bs_count_and_top(pot: PotentialSpec, grid: RadialGrid, eps: float) -> tuple[int, float]:
    """Kernel eigenvalues above 1 and the largest kernel eigenvalue at shift eps.

    Both come from one checked eigensolve of ``bs_kernel_radial(pot, grid,
    eps)``, the kernel on the support of v_-, so the count is
    ``count_evs`` of that kernel above 1, and the arguments are checked and
    the small box is warned of as there.  The largest eigenvalue is 0 when
    v_- vanishes on the grid, where the kernel is 0 x 0.  The count is
    linop's guarded count: a kernel eigenvalue within the guard band of 1,
    which ``count_evs`` leaves out, raises ThresholdCollisionError naming
    ``eps``.
    """
    lam, eta = _checked_eigenvalues(bs_kernel_radial(pot, grid, eps).entries)
    if not lam.size:
        return 0, 0.0
    count = _guarded_count(_count, (lam, eta), ">", 1.0, "a Birman-Schwinger kernel eigenvalue "
                           "lies within the guard band {:.3e} of 1 at eps = {:.17g}: a level "
                           "sits on the counting threshold", eta, eps)
    return int(count), float(lam[-1])


def kernel_critical_strength(pot: PotentialSpec, grid: RadialGrid) -> float:
    """Coupling at which the zero-shift kernel reaches eigenvalue one.

    The potential is split as ``R - strength * shape``, with ``R`` its
    repulsive part at its own strength, and the kernel is
    ``S (H_0 + R)^-1 S`` with ``S^2 = strength * shape``.  That kernel is
    linear in the coupling, so by the Birman-Schwinger principle the
    discretized ``H_0 + R - lam * shape`` is exactly critical at
    ``lam = strength / mu_0``, whatever the strength passed in, also where
    the repulsive part overlaps the well.  Without a repulsive part the
    split is ``v_+ - v_-`` bit for bit.  ``mu_0``, the kernel's largest
    eigenvalue, comes from linop's O(n) route (``_split_kernel_top``),
    checked by an eigenpair residual and a certificate that no eigenvalue
    lies above it, so that the true ``mu_0`` lies in
    ``[mu, mu + 2e-10 (1 + mu)]`` and the coupling is exact to the relative
    width ``2e-10 (1 + mu) / mu``.  A potential with no attractive part on
    the grid raises ValueError.
    """
    mu = _critical_top(pot, grid)[0]
    if mu == 0.0:
        raise ValueError("potential has no attractive part on the grid")
    return pot.strength / mu


# ---------------------------------------------------------------------------
# Rollnik norm and the Schwinger-type bound


def _angular_reduced_kernel(r, rp, t):
    """Angular average of |x - y|^(-(2-t)) for radial arguments, times r r'.

    Returns r r' <k>(r, r'), i.e. the quantity entering the reduced 2-d
    integral; t = 8*gamma, with the logarithmic closed form at t = 0.
    """
    s = r + rp
    d = np.abs(r - rp)
    if t == 0.0:
        with np.errstate(divide="ignore"):
            return 0.5 * np.log(s / d)
    return (s**t - d**t) / (2.0 * t)


def _graded_panels(a, b, singular_at_a, levels=9):
    """Panel edges on [a, b], geometrically refined toward the singular end."""
    if b <= a:
        return np.array([a, b])
    fractions = 0.5 ** np.arange(levels, 0, -1)
    if singular_at_a:
        edges = a + (b - a) * np.concatenate(([0.0], fractions, [1.0]))
    else:
        edges = a + (b - a) * np.concatenate(([0.0], 1.0 - fractions[::-1], [1.0]))
    return np.unique(edges)


def _gl_on_panels(edges, m=10):
    x, w = _legendre_rule(m)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _segment_edges(r_cut: float, breaks, per_unit: float) -> np.ndarray:
    """Outer panel edges on [0, r_cut]: uniform spacing, split at shape breaks."""
    edges = [0.0] + [b for b in breaks if 0.0 < b < r_cut] + [r_cut]
    edges = np.unique(edges)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(int(np.ceil((b - a) * per_unit)), 2)
        out.append(np.linspace(a, b, k + 1))
    return np.unique(np.concatenate(out))


def _rollnik_integral(pot: PotentialSpec, gamma: float, r_cut: float) -> float:
    """(4 pi)^2 double radial integral of v_- v_- r r' <kernel> over [0, r_cut]^2.

    The inner integral is split at the shape breaks and at the singular
    diagonal point r' = r, with panels graded toward r on both sides.  Outer
    nodes between the same breaks share that layout, so each such group gets
    its inner nodes and weights as (outer x inner) arrays, mapped from
    unit-interval templates, and vectorized integrand evaluations over
    blocks of ``_ROLLNIK_ROWS`` outer nodes, each row summed as a whole.
    """
    t = 8.0 * gamma
    breaks = pot.breakpoints()
    per_unit = 24.0 / max(pot.support_radius(), 1e-12)
    r_out, w_out = _gl_on_panels(_segment_edges(r_cut, breaks, per_unit), m=12)
    wf_out = w_out * pot.v_minus(r_out) * r_out
    cuts = np.unique([0.0, r_cut] + [b for b in breaks if 0.0 < b < r_cut])
    x_uni, w_uni = _gl_on_panels(np.linspace(0.0, 1.0, 7))
    x_up, w_up = _gl_on_panels(_graded_panels(0.0, 1.0, singular_at_a=False))
    x_down, w_down = _gl_on_panels(_graded_panels(0.0, 1.0, singular_at_a=True))
    # every segment on six uniform panels, used where it holds no diagonal point
    width = np.diff(cuts)[:, None]
    rp_seg = cuts[:-1, None] + width * x_uni
    wp_seg = width * w_uni
    total = 0.0
    for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        group = (r_out > a) & (r_out < b) & (wf_out != 0.0)
        if not np.any(group):
            continue
        r_group = r_out[group]
        rp_far = np.delete(rp_seg, k, axis=0).ravel()
        wp_far = np.delete(wp_seg, k, axis=0).ravel()
        inner = np.empty(r_group.size)
        for start in range(0, r_group.size, _ROLLNIK_ROWS):
            r0 = r_group[start:start + _ROLLNIK_ROWS, None]
            shape = (r0.size, rp_far.size)
            rp = np.concatenate([np.broadcast_to(rp_far, shape),
                                 a + (r0 - a) * x_up, r0 + (b - r0) * x_down], axis=1)
            wp = np.concatenate([np.broadcast_to(wp_far, shape),
                                 (r0 - a) * w_up, (b - r0) * w_down], axis=1)
            inner[start:start + r0.size] = np.sum(
                wp * pot.v_minus(rp) * rp * _angular_reduced_kernel(r0, rp, t), axis=1)
        total += float(wf_out[group] @ inner)
    return (4.0 * np.pi) ** 2 * total


def rollnik_norm(pot: PotentialSpec, gamma: float = 0.0) -> float:
    """Generalized Rollnik norm of the attractive part.

    Computes ``[iint v_-(x) v_-(y) / |x-y|^(2 - 8 gamma) d3x d3y]^(1/2)`` by
    reducing the angular integrals in closed form and integrating the
    remaining 2-d radial integrand with panels split at the (integrable)
    diagonal singularity.  The inner panels are batched: all outer nodes
    between the same shape breaks are integrated in one vectorized pass.
    The integral over ``[0, r_cut]^2`` is checked against the one over
    ``[0, 2 r_cut]^2`` (tail fraction at most ``TAIL_LIMIT``).
    """
    if not 0.0 <= gamma < 0.125:
        raise ValueError(f"gamma must lie in [0, 1/8), got {gamma}")
    r_cut = pot.support_radius()
    value = _rollnik_integral(pot, gamma, r_cut)
    if value == 0.0:
        return 0.0
    extended = _rollnik_integral(pot, gamma, 2.0 * r_cut)
    if abs(extended - value) > TAIL_LIMIT * abs(extended):
        raise RuntimeError(
            f"radial quadrature tail {abs(extended - value):.3e} exceeds "
            f"{TAIL_LIMIT:g} of the accumulated value; integral looks divergent")
    return float(np.sqrt(extended))


def schwinger_bound_check(pot: PotentialSpec) -> tuple[int, float]:
    """Total bound-state count against the Rollnik-norm counting bound.

    Sums ``(2 ell + 1) x (negative eigenvalues at wave ell)`` over partial
    waves until a wave carries none, and checks the total against
    ``(4 pi)^-2 c_0^2`` with ``c_0`` the Rollnik norm of ``v_-``.  Each wave
    is counted on ``SCHWINGER_N`` points in a box of radius
    ``max(25 range, 12)``; bound states still present at
    ``SCHWINGER_ELL_MAX`` raise RuntimeError.  Each wave's count is
    linop's guarded count (``_negative_count_off_threshold`` at ``eps =
    0``), so an eigenvalue within the guard band of zero at a wave visited,
    a zero-energy level that the bound assumes away, raises
    ThresholdCollisionError naming the wave.
    """
    r_max = max(25.0 * pot.range, 12.0)
    total = 0
    for ell in range(SCHWINGER_ELL_MAX + 1):
        count = _negative_count_off_threshold(
            pot, RadialGrid(ell=ell, r_max=r_max, n=SCHWINGER_N), 0.0)
        if count == 0:
            break
        total += (2 * ell + 1) * count
    else:
        raise RuntimeError(
            f"bound states persist at ell = {SCHWINGER_ELL_MAX}; "
            f"check the potential")
    c0 = rollnik_norm(pot, 0.0)
    bound = c0**2 / (4.0 * np.pi) ** 2
    if total > bound:
        raise RuntimeError(
            f"count {total} exceeds the Rollnik bound {bound:.6g}; "
            f"quadrature or grid failure")
    return total, bound


# ---------------------------------------------------------------------------
# resolvent-power kernel


def _resolvent_power_bound(p: float, r_dist: float) -> float:
    """``2^(-2p) Gamma(3/2-p) / (pi^(3/2) Gamma(p)) R^(2p-3)``, the bound on
    ``resolvent_power_kernel`` at power ``p`` and distance ``R``."""
    from scipy.special import gamma
    return 2.0 ** (-2.0 * p) * gamma(1.5 - p) / (np.pi**1.5 * gamma(p)) * r_dist ** (2.0 * p - 3.0)


def _resolvent_power(gamma: float, eps: float, r_dist: float) -> float:
    """The power ``p = 1 + 2 gamma`` of ``resolvent_power_kernel`` at its
    arguments, checked: ``p`` outside [1, 3/2), or ``eps`` or ``R`` not
    positive and finite, raises ValueError."""
    p = 1.0 + 2.0 * gamma
    if not 1.0 <= p < 1.5:
        raise ValueError(f"power p = 1 + 2*gamma = {p:g} outside [1, 3/2)")
    if not (0 < eps < np.inf and 0 < r_dist < np.inf):
        raise ValueError(f"eps and R must be positive and finite, got {eps}, {r_dist}")
    return p


def resolvent_power_kernel(gamma: float, eps: float, r_dist: float) -> float:
    """Diagonal-distance kernel of ``(-Laplacian + eps)^(-(1+2 gamma))`` in 3-d.

    With ``p = 1 + 2 gamma in [1, 3/2)`` this is the Bessel potential

        G(eps; R) = 2^(1-p) / ((2 pi)^(3/2) Gamma(p))
                    * (sqrt(eps)/R)^(3/2-p) K_(3/2-p)(sqrt(eps) R),

    evaluated as ``x^nu K_nu(x) R^(2p-3)`` with ``x = sqrt(eps) R`` and
    ``nu = 3/2 - p``, so that no factor overflows where ``G`` is finite;
    where ``x`` underflows to 0, ``x^nu K_nu(x)`` takes its limit
    ``2^(nu-1) Gamma(nu)``.  At ``p = 1`` it is
    ``exp(-sqrt(eps) R) / (4 pi R)``.  ``eps`` and ``R`` must be positive
    and finite (ValueError); a value that is not finite, or that exceeds
    the closed-form upper bound
    ``2^(-2p) Gamma(3/2-p) / (pi^(3/2) Gamma(p)) R^(2p-3)``, raises
    RuntimeError.
    """
    p = _resolvent_power(gamma, eps, r_dist)
    from scipy.special import gamma as gamma_fn, kv

    nu = 1.5 - p
    x = np.sqrt(eps) * r_dist
    c = 2.0 ** (1.0 - p) / ((2.0 * np.pi) ** 1.5 * gamma_fn(p))
    bessel = c * x**nu * kv(nu, x) if x > 0 else c * 2.0 ** (nu - 1.0) * gamma_fn(nu)
    value = float(bessel * r_dist ** (2.0 * p - 3.0))
    if not np.isfinite(value):
        raise RuntimeError(f"kernel value {value} at eps={eps:g}, R={r_dist:g} is not finite")
    bound = _resolvent_power_bound(p, r_dist)
    if value > bound * (1.0 + 1e-9):
        raise RuntimeError(
            f"kernel value {value:.6e} violates the closed-form bound {bound:.6e}")
    return value


# ---------------------------------------------------------------------------
# critical coupling and the near-threshold scan


def find_critical_coupling_radial(pot_shape: PotentialSpec, grid: RadialGrid,
                                  tol: float) -> CriticalCouplingResult:
    """Coupling at which the first negative eigenvalue appears on the box.

    The strength field of ``pot_shape`` is treated as the unit of the family
    ``R - lam * shape``, with any repulsive part ``R`` held at its own
    strength, and the critical coupling on a grid is
    ``kernel_critical_strength`` of the unit shape, ``1 / mu_0`` of the
    split linear in ``lam``.  It is found on the given grid and on the grid
    with box and point count both doubled (same mesh spacing); the two
    couplings must agree within ``tol / 2``.  The dominant error for a
    threshold state is the 1/r_max truncation of its flat tail, which the
    pair removes by extrapolation.  The bracket's half-width is the larger
    of that gap and the finer grid's width ``2e-10 (1 + mu_0) / mu_0``
    relative, which the top eigenvalue's residual check and certificate
    guarantee.  ``iterations`` counts the ``pttrf`` factorizations of both
    top eigenvalues, the only eigenvalue work the search does.
    NeverBindsError is raised when no coupling up to ``LAMBDA_CAP`` binds,
    a shape with no attractive part on the grid among them, and a grid
    other than uniform_fd2 raises ValueError.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _require_box(grid)
    shape = pot_shape.with_strength(1.0)
    fine = replace(grid, n=2 * grid.n, r_max=2.0 * grid.r_max)
    (mu_c, calls_c), (mu_f, calls_f) = _critical_top(shape, grid), _critical_top(shape, fine)
    if min(mu_c, mu_f) < 1.0 / LAMBDA_CAP:
        raise NeverBindsError(f"no coupling up to {LAMBDA_CAP:g} binds")
    lam_coarse, lam_fine = 1.0 / mu_c, 1.0 / mu_f
    gap = abs(lam_fine - lam_coarse)
    if gap > tol / 2.0:
        raise RuntimeError(
            f"grid refinements disagree: coupling {lam_coarse:.10g} on "
            f"(r_max={grid.r_max:g}, n={grid.n}) vs {lam_fine:.10g} on "
            f"(r_max={fine.r_max:g}, n={fine.n}); gap {gap:.3e} > tol/2")
    lam_star = 2.0 * lam_fine - lam_coarse  # error model c / r_max
    half = max(gap, 2e-10 * (1.0 + mu_f) / mu_f * lam_fine)
    return CriticalCouplingResult(
        lambda_star=lam_star,
        bracket=(lam_star - half, lam_star + half),
        iterations=calls_c + calls_f,
    )


def mu_scan(pot: PotentialSpec, grid: RadialGrid, eps_list) -> MuScalingReport:
    """Near-threshold scan of mu(eps) for a potential tuned to criticality.

    Computes the largest Birman-Schwinger eigenvalue over ``eps_list``, at
    least two positive, finite values (ValueError otherwise), as the top of
    ``bs_kernel_radial``'s spectrum by linop's O(n) route, after
    ``kernel_critical_strength`` has confirmed the tuning, checks
    monotonicity, and fits
    ``log(1 - mu)`` against ``log eps`` on the scan points inside
    ``FIT_WINDOW``; ``a_mu_estimate`` is the fit's prefactor.  A
    zero-energy resonance (s-wave criticality on the semi-infinite kernel
    of gauss_legendre) gives exponent 1/2; a square-integrable zero-energy
    state (ell >= 1, on uniform_fd2) gives exponent 1.
    """
    eps_arr = np.sort(np.asarray(list(eps_list), dtype=float))
    if eps_arr.size < 2 or not np.all((eps_arr > 0) & (eps_arr < np.inf)):
        raise ValueError(f"need at least two positive, finite eps values, got {eps_arr}")
    lam_star = kernel_critical_strength(pot, grid)
    detune = abs(pot.strength - lam_star) / lam_star
    if detune > 1e-8:
        raise ValueError(
            f"potential is off criticality by {detune:.3e} relative "
            f"(strength {pot.strength:.12g}, critical {lam_star:.12g})")
    mus = np.array([_kernel_top(pot, grid, float(e)) for e in eps_arr])
    if np.any(mus >= 1.0):
        raise RuntimeError("mu(eps) >= 1 in the scan: supercritical tuning")
    if np.any(np.diff(mus) > 1e-12):
        raise RuntimeError("mu(eps) is not nonincreasing along the scan")
    in_window = (eps_arr >= FIT_WINDOW[0] * (1 - 1e-12)) \
        & (eps_arr <= FIT_WINDOW[1] * (1 + 1e-12))
    if np.sum(in_window) < 2:
        raise ValueError("fewer than two scan points inside the fit window")
    x = np.log(eps_arr[in_window])
    y = np.log(1.0 - mus[in_window])
    slope, intercept = np.polyfit(x, y, 1)
    return MuScalingReport(
        epsilons=eps_arr,
        mus=mus,
        fitted_exponent=float(slope),
        a_mu_estimate=float(np.exp(intercept)),
    )
