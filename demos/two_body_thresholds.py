"""Two-body thresholds on a radial grid: where binding starts, and how fast
the kernel eigenvalue leaves 1.

First the critical coupling of the s-wave square well is located by the
Birman-Schwinger principle: the grid Hamiltonian ``H_0 - lambda shape``
first binds at ``lambda = 1 / mu_0``, with ``mu_0`` the largest zero-shift
kernel eigenvalue of the unit well, and a box-doubling refinement removes
the long 1/r_max tail error of the threshold state; the exact answer is
lambda* a^2 = pi^2/4.

Then the potential is tuned exactly to criticality of the discretized
kernel and the largest Birman-Schwinger eigenvalue mu(eps) is scanned
toward threshold.  Each mu, mu_0 too, comes in O(n), without a full
spectrum: by bisection on the Birman-Schwinger binding test, whether
``T - S^2 / sigma`` is positive definite, with ``S^2`` the attractive
potential (times the quadrature weights on gauss_legendre) and ``T``
tridiagonal: the grid operator ``H_0 + eps`` itself on uniform_fd2, the
closed-form inverse of the Green part on gauss_legendre.  Inverse
iteration follows, checked by the eigenpair's residual.  The decay of
1 - mu distinguishes the two kinds of zero-energy states:

* s-wave criticality leaves a zero-energy resonance (not square-integrable)
  and 1 - mu ~ sqrt(eps);
* p-wave criticality leaves a genuine square-integrable state
  and 1 - mu ~ eps.
"""

import numpy as np

from bscount.radial import (
    PotentialSpec,
    RadialGrid,
    find_critical_coupling_radial,
    kernel_critical_strength,
    mu_scan,
)

well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)

print("=== critical coupling of the square well (s-wave) ===")
grid = RadialGrid(ell=0, r_max=100.0, n=2000)
res = find_critical_coupling_radial(well, grid, tol=0.05)
exact = np.pi**2 / 4.0
print(f"located lambda* = {res.lambda_star:.6f}")
print(f"exact   pi^2/4  = {exact:.6f}   (relative error "
      f"{abs(res.lambda_star / exact - 1):.2e})")

print()
print("=== near-threshold scaling of the kernel eigenvalue ===")
eps_list = np.geomspace(1e-6, 1e-4, 9)

gl = RadialGrid(ell=0, r_max=1.0, n=200, scheme="gauss_legendre")
pot0 = well.with_strength(kernel_critical_strength(well, gl))
rep0 = mu_scan(pot0, gl, eps_list)

fd = RadialGrid(ell=1, r_max=40.0, n=2000)
pot1 = well.with_strength(kernel_critical_strength(well, fd))
rep1 = mu_scan(pot1, fd, eps_list)

print("eps        1-mu (l=0, resonance)    1-mu (l=1, bound state)")
for eps, m0, m1 in zip(rep0.epsilons, rep0.mus, rep1.mus):
    print(f"{eps:8.1e}   {1 - m0:12.6e}          {1 - m1:12.6e}")
print()
print(f"fitted exponents: l=0 -> {rep0.fitted_exponent:.3f} (sqrt law), "
      f"l=1 -> {rep1.fitted_exponent:.3f} (linear law)")
