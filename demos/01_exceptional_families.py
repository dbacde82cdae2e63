"""Build exceptional Laguerre and Jacobi families by three independent routes.

The exceptional families start at degree 1 (no constant member) and satisfy a
second-order equation with rational coefficients.  This script constructs the
first few members three ways -- ladder operator, exact nullspace of the
cleared equation, Gram-Schmidt under the rational weight -- and shows that
the routes agree and that the defining equation holds *exactly*, in rational
arithmetic, not just to roundoff.
"""

from fractions import Fraction as F

from exopoly import XFamilySpec
from exopoly.xop import (
    coefficient_rel_diff,
    emit_family_csv,
    family_by_route,
    x1_laguerre_ode_residual,
)

k = F(1)
spec = XFamilySpec(family="laguerre", k=k)
# members 1..4 by each route, one family per call
ops = family_by_route(spec, 4, "operator")
nss = family_by_route(spec, 4, "nullspace")
gs = family_by_route(spec, 4, "gram-schmidt")

print(f"== exceptional Laguerre family, k = {k} ==")
print("ladder-operator route (exact rational coefficients):")
for n, member in enumerate(ops, 1):
    residual = x1_laguerre_ode_residual(member, k, n)
    print(f"  n={n}: {member}   cleared-equation residual: {residual}")

print("\nthe lowest member is proportional to the seed x + k + 1:")
print(" ", ops[0].monic())

print("\nnullspace route agrees exactly (after monic normalization):")
for n, (op, ns) in enumerate(zip(ops, nss), 1):
    print(f"  n={n}: identical = {op.monic() == ns}")

print("\nGram-Schmidt route (floating point, in the basis orthonormal for the weight):")
for n, (member, op) in enumerate(zip(gs, ops), 1):
    dev = coefficient_rel_diff(member, op)
    print(f"  n={n}: coefficientwise relative difference vs exact route: {dev:.2e}")

print("\nCSV emission (exact coefficients, ascending powers):")
print(emit_family_csv(ops[:3], "operator", f"k={k}"))

print("== exceptional Jacobi family, (alpha, beta) = (1, 3) ==")
spec_j = XFamilySpec(family="jacobi", alpha=F(1), beta=F(3))
for n, member in enumerate(family_by_route(spec_j, 3, "operator"), 1):
    print(f"  n={n}: {member}")
print("derived constants: a = (beta-alpha)/2, b = (beta+alpha)/(beta-alpha), c = b + 1/a")
