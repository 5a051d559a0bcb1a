"""The geometric trimer ladder of three bosons at two-body unitarity.

With the pair interaction tuned so the two-body subsystem has exactly zero
binding, three identical bosons develop a ladder of bound states
accumulating geometrically at zero energy: E_n / E_{n+1} approaches
exp(2 pi / s0) ~ 515, where s0 solves a transcendental equation computed
here by an independent bisection oracle.  Detuning the pair force by ten
percent destroys the ladder and leaves a single level.

Uses a reduced grid (n_p = 256), which runs in a few seconds; the
package's acceptance suite runs the full n_p = 512 version.
"""

import numpy as np

from bscount.efimov import (
    SeparableModel,
    efimov_spectrum,
    lambda_unitary,
    s0_oracle,
    trimer_spectrum,
)

beta = 1.0
lam_u = lambda_unitary(beta)
s0, ratio_star = s0_oracle()
print(f"two-body zero-binding coupling: {lam_u:.8f}")
print(f"accumulation oracle: s0 = {s0:.6f}, ratio = {ratio_star:.2f}")
print()

model = SeparableModel(beta=beta, lam=lam_u, p_max=40.0, n_p=256, grid_c=300.0)
levels = efimov_spectrum(model, -1.0)
energies = np.array([l.energy for l in levels])

print("=== at unitarity ===")
print("n   E_n              E_n / E_n+1")
for n, e in enumerate(energies):
    ratio = f"{energies[n] / energies[n + 1]:10.2f}" if n + 1 < len(energies) else "-"
    print(f"{n}   {e:13.6e}   {ratio}")
print(f"the ratio approaches the oracle value {ratio_star:.2f}")
print()

print("=== detuned to 0.9 of unitarity ===")
detuned = SeparableModel(beta=beta, lam=0.9 * lam_u, p_max=40.0, n_p=256,
                         grid_c=300.0)
finite = trimer_spectrum(detuned, -1.0)
for n, level in enumerate(finite):
    print(f"{n}   {level.energy:13.6e}")
print(f"{len(finite)} level(s), no accumulation: the ladder needs the "
      f"two-body system exactly at threshold.")
