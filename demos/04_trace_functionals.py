#!/usr/bin/env python3
"""Trace asymptotics tr f(T_n(a)) = (n+1) G_f + E_f + remainder.

G_f is the circle average of tr f(a).  E_f is a contour integral of f
against the logarithmic derivative of the operator determinant
det T(a - lambda) T((a - lambda)^-1) around the joint spectrum.  For
polynomial f and band-limited a the two-term formula is exact at finite
n; for rough symbols the remainder decays like 1/n^(2 gamma - 1).
"""
import numpy as np

import toepasym as tp

a = tp.scalar_symbol({0: 1.25, 1: -0.5, -1: -0.5})

spectrum = tp.estimate_spectrum(a)
print(f"spectral enclosure: disk about {spectrum.centroid.real:.3f} of radius "
      f"{spectrum.max_radius:.3f}; the symbol's {len(spectrum.points)} grid values lie in "
      f"[{spectrum.bbox[0]:.3f}, {spectrum.bbox[1]:.3f}] x "
      f"[{spectrum.bbox[2]:.1e}, {spectrum.bbox[3]:.1e}]i")
contour = tp.build_contour(spectrum, margin=0.5)
print(f"contour: circle at {contour.center.real:.3f} radius {contour.radius:.3f}, "
      f"clearance {contour.clearance:.3f}, {len(contour.nodes)} nodes")

gf = tp.trace_mean(a, tp.SQUARE)
ef = tp.trace_constant(a, tp.SQUARE, contour)
print(f"\nf = square: G_f = {gf.real:.6f} (oracle 2.0625), "
      f"E_f = {ef.real:.6f} (oracle -0.5)")

print("\nexactness for polynomial f on a band-limited symbol:")
for n in (1, 4, 16, 64):
    direct = tp.trace_f_direct(a, n, tp.SQUARE)
    predicted = (n + 1) * gf + ef
    print(f"  n = {n:3d}: direct {direct.real:12.6f}  "
          f"predicted {predicted.real:12.6f}  diff {abs(direct - predicted):.1e}")

# Cauchy deformation: the constant term does not care about the contour.
bigger = tp.build_contour(spectrum, margin=1.5 * contour.radius - spectrum.max_radius)
print(f"\nE_f with a 1.5x larger contour differs by "
      f"{abs(tp.trace_constant(a, tp.SQUARE, bigger) - ef):.2e}")

# Entire functions work the same way; here f = exp on the same symbol.
ef_exp = tp.trace_constant(a, tp.exponential(), contour)
gf_exp = tp.trace_mean(a, tp.exponential())
n = 24
direct = tp.trace_f_direct(a, n, tp.exponential())
print(f"\nf = exp at n = {n}: direct {direct.real:.8f}, "
      f"two-term value {( (n + 1) * gf_exp + ef_exp).real:.8f}")

# A rough (lacunary) symbol: the remainder now decays at the rate set by
# the Hoelder exponent, slope about -(2 gamma - 1).
gamma = 0.75
z = tp.zygmund_symbol(gamma, 9)
sz = tp.estimate_spectrum(z)
cz = tp.build_contour(sz, 0.5, nodes=128)
fit = tp.trace_remainder_scan(z, tp.SQUARE, [8, 16, 32, 64, 128, 256], cz)
print(f"\nlacunary symbol, gamma = {gamma}:")
for n, mag in fit.points:
    print(f"  n = {n:3d}: |tr f(T_n) - (n+1) G_f - E_f| = {mag:.3e}")
print(f"fitted slope {fit.slope:.3f}, band check (<= {fit.target_slope:.2f}): "
      f"{'passed' if fit.meets_target else 'failed'}")
