"""Gauss quadrature for the rational weights and the orthogonality they induce.

The exceptional families are orthogonal under classical densities divided by
(x+k)^2 (Laguerre) or (x-b)^2 (Jacobi).  Integration folds the rational
factor into the integrand and applies the classical Gauss rule with node
doubling until two estimates agree -- the integrand is analytic near the
domain, so convergence is geometric.
"""

import numpy as np

from exopoly import WeightSpec, golub_welsch, gram_matrix, integrate
from exopoly.quad import legendre_recurrence, recurrence_coefficients
from exopoly.xop import best_approximation_errors, gram_schmidt_family

print("== Golub-Welsch rules from the Jacobi (recurrence) matrix ==")
rule = golub_welsch(legendre_recurrence(2), 2)
print(f"2-point Legendre: nodes {rule.nodes}, weights {rule.weights}")
rule = golub_welsch(recurrence_coefficients(WeightSpec.laguerre("1/2"), 1), 1)
print(f"1-point Laguerre (k=1/2): node {rule.nodes[0]:.6f} (= k+1), "
      f"weight {rule.weights[0]:.6f} (= weight mass)")

w128 = golub_welsch(recurrence_coefficients(WeightSpec.laguerre(1), 128), 128)
print(f"128-point Laguerre rule: smallest weight {w128.weights.min():.3e} "
      "(positive, no underflow)")

print("\n== integrating against the rational weight ==")
w = WeightSpec.x1_laguerre(1)
val = integrate(lambda x: np.ones_like(x), w)
print(f"mass of x e^-x/(x+1)^2 on (0, inf): {val:.15f}")

kf = 1.0
val = integrate(lambda x: (x + kf + 1) * (x + kf) ** 2, w)
print(f"(x+k+1)(x+k)^2 against the same weight: {val:.12f} "
      "(rational factor cancels; equals a pure Gamma moment: 2(k+1)Gamma(k+1) = 4)")

print("\n== orthogonality of the exceptional family ==")
# member i depends only on the first i seeds, so one 10-member family serves
# both sections below
family = gram_schmidt_family(w, 10)
gram = gram_matrix(family[:6], w)
off = np.abs(gram - np.eye(6)).max()
print(f"Gram matrix of the first 6 members: max |G - I| = {off:.2e}")

print("\n== completeness proxy ==")
errs = best_approximation_errors(w, family)
print("L2(weight) best-approximation error of the constant 1 by the first N members:")
for n, e in enumerate(errs, start=1):
    print(f"  N={n:2d}: {e:.6f}")
print("strictly decreasing:", all(b < a for a, b in zip(errs, errs[1:])))
