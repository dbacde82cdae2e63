"""exopoly: exceptional Laguerre/Jacobi polynomials, the isospectral rational
extensions they generate, and a verification engine for every identity in
that construction.

Layers, bottom up:

* :mod:`exopoly.polycore` -- exact rational polynomial arithmetic, exact
  differential operators with polynomial coefficients (``DiffOp``), and the
  classical Laguerre/Jacobi families.
* :mod:`exopoly.xop` -- the exceptional families by three independent routes
  (ladder operator, exact ODE nullspace, Gram-Schmidt under the rational
  weight), with the defining equations checked as exact identities.
* :mod:`exopoly.quad` -- Gauss rules (Golub-Welsch) for the classical weights
  and for the rational weights themselves, and the one inner product of
  polynomials under each weight, exact by degree.
* :mod:`exopoly.solver` -- finite-difference Schrödinger eigensolver, the
  numerical referee for isospectrality claims.
* :mod:`exopoly.potentials` -- oscillator/Coulomb/Morse/Scarf presets, their
  rational extensions, and closed-form eigenstates of both kinds.
* :mod:`exopoly.susy` -- superpotentials, partner potentials, intertwining
  operators, and the audit of the printed supersymmetry identities.
* :mod:`exopoly.verify` / :mod:`exopoly.cli` -- verification campaigns and the
  command-line front end.

The names below are imported on first use (PEP 562), so ``import
exopoly.polycore`` loads no numpy.
"""

import importlib
import os

# OpenBLAS starts a worker thread as it loads, which busy-waits for about
# 50 ms of CPU (2-vCPU VM) and competes with the first solve; exopoly runs no
# threaded BLAS kernel, so one thread is enough.  The pin covers the one
# OpenBLAS a process loads: numpy's, whose LAPACK the solver binds too, or,
# where numpy ships none, scipy's.  This runs before any submodule loads
# numpy; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

_EXPORTS = {
    "polycore": ("DiffOp", "JacobiConstants", "Poly", "as_rational", "jacobi_classical",
                 "laguerre_classical", "rational_str"),
    "quad": ("QuadratureRule", "WeightSpec", "golub_welsch", "gram_matrix", "integrate"),
    "solver": ("Grid", "GridFunction", "SpectrumReport", "discretize", "lowest_levels",
               "rayleigh_quotient", "solve_spectrum", "spectrum_compare"),
    "xop": ("XFamilySpec", "gram_schmidt_family", "x1_jacobi_ode_residual",
            "x1_jacobi_op_route", "x1_laguerre_ode_residual", "x1_laguerre_op_route",
            "xj_laguerre_ode_residual", "xj_polynomial_solve"),
    "potentials": ("EigenstateClosedForm", "Morse", "Oscillator3D", "CoulombRadial",
                   "ScarfTrig", "make_preset", "quotient_identity_check", "ve_laguerre"),
    "susy": ("Superpotential", "apply_A", "intertwine_check", "oscillator_intertwiner",
             "partner_potentials", "superpotential_from_ground_state", "verify_claims"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule the eager imports used to bind
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
