#!/usr/bin/env python3
"""Canonical Wiener-Hopf factorization a = u_minus u_plus = v_plus v_minus.

The right factors are analytic outside and inside the disk respectively;
the normalization u_minus(inf) = I makes them unique.  The block path
solves a finite Toeplitz system for the first column of the inverse, and
a transposed solve on the same LU for the left factors; the scalar path
splits the logarithm of the symbol.  Both agree.
"""
import numpy as np

import toepasym as tp

a = tp.scalar_symbol({0: 1.25, 1: -0.5, -1: -0.5})

w = tp.scalar_wiener_hopf(a)
print("scalar path, a = 1.25 - 0.5 t - 0.5 / t:")
print("  u_minus coefficients:",
      {k: round(w.u_minus.block(k)[0, 0].real, 10) for k in w.u_minus.support()})
print("  u_plus coefficients:",
      {k: round(w.u_plus.block(k)[0, 0].real, 10) for k in w.u_plus.support()})
print("  (hand factorization: (1 - 0.5/t) and (1 - 0.5 t))")
print("  residuals:", w.residuals)

wb = tp.block_wiener_hopf(a, section=128)
grid = max(w.u_plus.grid_size, wb.u_plus.grid_size)
diff = np.max(np.abs(w.u_plus.sample(grid).samples - wb.u_plus.sample(grid).samples))
print(f"\nfinite-section (block) path agrees with the scalar path to {diff:.2e}")

# A genuinely 2x2 example: positive definite on the circle, so a canonical
# factorization exists; no closed form is claimed, the residuals certify it.
r = np.array([[1.0, 0.2], [0.0, 1.0]])
a2 = tp.LaurentMatrixSeries(2, {0: 1.25 * np.eye(2), 1: -0.5 * r, -1: -0.5 * r.T})
w2 = tp.block_wiener_hopf(a2, section=256)
print("\n2x2 fixture at section 256:")
print(f"  product residual (right): {w2.residuals.product_residual_right:.2e}")
print(f"  product residual (left):  {w2.residuals.product_residual_left:.2e}")
print(f"  one-sided leakage:        {w2.residuals.leakage:.2e}")

# The mismatch symbols b = v_minus u_plus^-1 and c = u_minus^-1 v_plus feed
# the determinant correction terms.
b, c = tp.correction_symbols(w)
print("\nmismatch symbol b (geometric coefficients 0.75 * 0.5^j):")
for j in (-1, 0, 1, 2, 3):
    print(f"  b_{j:+d} = {b.block(j)[0, 0].real:+.8f}")

# Nonzero winding blocks the canonical factorization.
try:
    tp.scalar_wiener_hopf(tp.scalar_symbol({1: 1.0}))
except tp.NonZeroWinding as exc:
    print("\na(t) = t:", type(exc).__name__, "->", exc)

# Factorizations of a - lambda along a contour stay continuous in lambda
# once the normalization pins them; the diagnostic gauges out the trivial
# scale drift carried by the plus factor.
spectrum = tp.estimate_spectrum(a)
contour = tp.build_contour(spectrum, margin=4.0 - spectrum.max_radius, nodes=64)
sweep = tp.factorization_sweep(a, contour, section=64)
print(f"\ncontour sweep over {len(sweep.factors)} nodes: "
      f"continuity diagnostic {sweep.continuity_diagnostic:.4f}, "
      f"max product residual {sweep.max_product_residual:.2e}")
