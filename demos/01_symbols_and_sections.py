#!/usr/bin/env python3
"""Symbols as Laurent coefficient series, and the finite sections they generate.

Walks through the basic calculus: building a symbol, sampling it on the
unit circle, recovering coefficients by FFT, and assembling Toeplitz and
Hankel sections whose determinants we can check against a closed form.
"""
import numpy as np

import toepasym as tp

# The running example: a(t) = (1 - 0.5 t)(1 - 0.5 / t) = 1.25 - 0.5 t - 0.5 / t.
# It is positive on the circle, so every Toeplitz section is positive definite.
a = tp.scalar_symbol({0: 1.25, 1: -0.5, -1: -0.5})

print("symbol support:", a.support())
print("a(1) =", a.eval(0.0)[0, 0].real, "   a(-1) =", a.eval(np.pi)[0, 0].real)

# Coefficients are the source of truth; grids are derived caches.
grid = a.sample(32)
back, tail = tp.coefficients_from_samples(grid, cutoff=4)
print("\nFFT round trip recovers the coefficients:")
for k in back.support():
    print(f"  a_{k:+d} = {back.block(k)[0, 0].real:+.6f}")
print(f"  discarded tail energy: {tail:.2e}")

# Toeplitz section T_n(a) has block (j, k) = a_{j-k}; the Hankel section
# H(a) has block (j, k) = a_{j+k+1} and feels only positive offsets.
print("\nT_1(a) =")
print(tp.toeplitz_section(a, 1).real)
print("H(a) 2x2 section =")
print(tp.hankel_section(a, 2).real)

# For this symbol det T_n(a) has the closed form (1 - 0.25^(n+2)) / 0.75.
print("\nlog det T_n(a) against the closed form:")
for n in (0, 1, 4, 16, 64):
    direct = tp.log_det_direct(a, n).real
    closed = np.log((1 - 0.5 ** (2 * (n + 2))) / 0.75)
    print(f"  n = {n:3d}: direct {direct:+.12f}   closed {closed:+.12f}"
          f"   diff {abs(direct - closed):.1e}")

# Traces of matrix functions of the section, here f = square.
n = 1
tr = tp.trace_f_direct(a, n, tp.SQUARE)
print(f"\ntr T_{n}(a)^2 = {tr.real:.6f}  (hand value 3.625)")

# Winding numbers classify the factorization behavior later on.
print("\nwinding numbers: a ->", tp.winding_number(a),
      ",  t ->", tp.winding_number(tp.scalar_symbol({1: 1.0})),
      ",  1/t^2 ->", tp.winding_number(tp.scalar_symbol({-2: 1.0})))

# Symbols serialize to a simple JSON format with 17 significant digits.
text = tp.symbol_to_json(a)
print("\nJSON form:")
print(text.strip())
