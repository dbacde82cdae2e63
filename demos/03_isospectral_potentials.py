"""Rationally extended potentials share their spectra with the classical ones.

Adding the derived rational term to the radial oscillator (or Scarf) potential
produces a different-looking Hamiltonian whose bound states are the classical
prefactors divided by (u + k) (or (z - b)) times exceptional polynomials --
at exactly the classical energies.  The grid eigensolver referees the claim,
and the level mapping shows whether any state goes missing (none does).
"""

import numpy as np

from exopoly import Grid, solve_spectrum, spectrum_compare
from exopoly.potentials import Oscillator3D, ScarfTrig, state_rayleigh

print("== radial oscillator, l = 0 ==")
osc = Oscillator3D(l=0)
grid = Grid(*osc.default_domain(), 8000)

classical = solve_spectrum(osc.potential, grid, 4)
extended = solve_spectrum(osc.extended_potential, grid, 4)
print("classical levels :", np.round(classical.eigenvalues, 6))
print("extended levels  :", np.round(extended.eigenvalues, 6))
print("exact values     : [1.5, 3.5, 5.5, 7.5]")

mapping = spectrum_compare(classical.eigenvalues, extended.eigenvalues, tol=1e-2)
print("level mapping  :", [(p["a"], p["b"]) for p in mapping["pairs"]])
print("unmatched      :", mapping["unmatched_a"], mapping["unmatched_b"],
      " (strictly isospectral: nothing is missing)")

print("\nclosed-form exceptional states under the extended potential:")
fine = Grid(*osc.default_domain(), 16000)
states = [osc.exceptional_state(n) for n in (1, 2, 3)]
quotients = state_rayleigh(states, osc.extended_potential, fine)
for n, state, rq in zip((1, 2, 3), states, quotients):
    print(f"  n={n}: Rayleigh quotient {rq:.8f} vs classical level "
          f"{osc.exceptional_energy(n)} (polynomial degree {state.polynomial.degree})")

print("\n== trigonometric Scarf potential, A=3, B=1 ==")
sc = ScarfTrig(A=3, B=1)
sgrid = Grid(*sc.default_domain(), 8000)
classical = solve_spectrum(sc.potential, sgrid, 4)
extended = solve_spectrum(sc.extended_potential, sgrid, 4)
print("classical levels :", np.round(classical.eigenvalues, 6))
print("extended levels  :", np.round(extended.eigenvalues, 6))
print("exact values     : [0, 7, 16, 27]")

print("\nspectrum report serializes to JSON:")
print(solve_spectrum(sc.potential, Grid(*sc.default_domain(), 2000), 2).to_json(indent=2))
