"""Build exceptional Laguerre and Jacobi families by three independent routes.

The exceptional families start at degree 1 (no constant member) and satisfy a
second-order equation with rational coefficients.  This script constructs the
first few members three ways -- ladder operator, exact nullspace of the
cleared equation, Gram-Schmidt under the rational weight -- and shows that
the routes agree and that the defining equation holds *exactly*, in rational
arithmetic, not just to roundoff.
"""

from fractions import Fraction as F

from exopoly import XFamilySpec, gram_schmidt_family
from exopoly.xop import (
    coefficient_rel_diff,
    emit_family_csv,
    family_by_route,
    x1_laguerre_ode_residual,
    x1_laguerre_op_route,
)

k = F(1)
spec = XFamilySpec(family="laguerre", k=k)

print(f"== exceptional Laguerre family, k = {k} ==")
print("ladder-operator route (exact rational coefficients):")
for n in range(1, 5):
    member = x1_laguerre_op_route(n - 1, k)
    residual = x1_laguerre_ode_residual(member, k, n)
    print(f"  n={n}: {member}   cleared-equation residual: {residual}")

print("\nthe lowest member is proportional to the seed x + k + 1:")
print(" ", x1_laguerre_op_route(0, k).monic())

print("\nnullspace route agrees exactly (after monic normalization):")
for n in range(1, 5):
    op = family_by_route(spec, n, "operator").monic()
    ns = family_by_route(spec, n, "nullspace")
    print(f"  n={n}: identical = {op == ns}")

print("\nGram-Schmidt route (floating point, in the basis orthonormal for the weight):")
gs = gram_schmidt_family(spec.weight(), 4)
for n in range(1, 5):
    dev = coefficient_rel_diff(gs[n - 1], family_by_route(spec, n, "operator"))
    print(f"  n={n}: coefficientwise relative difference vs exact route: {dev:.2e}")

print("\nCSV emission (exact coefficients, ascending powers):")
members = [family_by_route(spec, n, "operator") for n in range(1, 4)]
print(emit_family_csv(members, "operator", f"k={k}"))

print("== exceptional Jacobi family, (alpha, beta) = (1, 3) ==")
spec_j = XFamilySpec(family="jacobi", alpha=F(1), beta=F(3))
for n in range(1, 4):
    print(f"  n={n}: {family_by_route(spec_j, n, 'operator')}")
print("derived constants: a = (beta-alpha)/2, b = (beta+alpha)/(beta-alpha), c = b + 1/a")
