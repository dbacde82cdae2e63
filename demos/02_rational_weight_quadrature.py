"""Gauss quadrature for the rational weights and the orthogonality they induce.

The exceptional families are orthogonal under classical densities divided by
(x+k)^2 (Laguerre) or (x-b)^2 (Jacobi).  Dividing the classical recurrence
twice by (x-z), z the pole, gives the recurrence of the rational weight
itself, and so Gauss rules (`gauss_rule`, for any weight) that integrate
polynomials exactly by degree.
`gram_matrix` is the one inner product on those rules, and `integrate` is its
1x1 case.
"""

import numpy as np

from exopoly import WeightSpec, golub_welsch, gram_matrix, integrate
from exopoly.quad import gauss_rule, recurrence_coefficients
from exopoly.xop import best_approximation_errors, gram_schmidt_family

print("== Golub-Welsch rules from the Jacobi (recurrence) matrix ==")
rule = golub_welsch(recurrence_coefficients(WeightSpec.jacobi(0, 0), 2))
print(f"2-point Legendre: nodes {rule.nodes}, weights {rule.weights}")
rule = golub_welsch(recurrence_coefficients(WeightSpec.laguerre("1/2"), 1))
print(f"1-point Laguerre (k=1/2): node {rule.nodes[0]:.6f} (= k+1), "
      f"weight {rule.weights[0]:.6f} (= weight mass)")

w128 = golub_welsch(recurrence_coefficients(WeightSpec.laguerre(1), 128))
print(f"128-point Laguerre rule: smallest weight {w128.weights.min():.3e} "
      "(positive, no underflow)")

print("\n== integrating against the rational weight ==")
w = WeightSpec.x1_laguerre(1)
val = integrate(np.ones(1), w)
print(f"mass of x e^-x/(x+1)^2 on (0, inf), by integrate: {val:.15f}")
rule = gauss_rule(w, 1)
print(f"the same mass as the weight of the 1-point rule of the weight itself: "
      f"{rule.weights[0]:.15f}")

kf = 1.0
rule = gauss_rule(w, 2)  # exact through degree 3
val = rule.integrate(lambda x: (x + kf + 1) * (x + kf) ** 2)
print(f"(x+k+1)(x+k)^2 on the 2-point rule of the weight: {val:.12f} "
      "(rational factor cancels; equals a pure Gamma moment: 2(k+1)Gamma(k+1) = 4)")

print("\n== orthogonality of the exceptional family ==")
# Gram-Schmidt runs in the orthonormal basis of the weight's own recurrence:
# the seeds span the kernel of l(p) = p(-k) - p'(-k), so each member is one
# closed-form unit vector in that basis, and no integral is taken.
family = gram_schmidt_family(w, 6)
gram = gram_matrix(family, w)
off = np.abs(gram - np.eye(6)).max()
print(f"Gram matrix of the first 6 members on a 7-point rule: max |G - I| = {off:.2e}")

print("\n== completeness proxy ==")
# 1 = sqrt(mu0) q_0, and members 1..N span the vectors orthogonal to
# (l(q_0), ..., l(q_N)): the error is the component of 1 along that normal
errs = best_approximation_errors(w, 10)
print("L2(weight) best-approximation error of the constant 1 by the first N members:")
for n, e in enumerate(errs, start=1):
    print(f"  N={n:2d}: {e:.6f}")
print("strictly decreasing:", all(b < a for a, b in zip(errs, errs[1:])))
