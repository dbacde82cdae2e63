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
  and for the rational weights themselves, and convergence-controlled
  integration of arbitrary integrands.
* :mod:`exopoly.solver` -- finite-difference Schrödinger eigensolver, the
  numerical referee for isospectrality claims.
* :mod:`exopoly.potentials` -- oscillator/Coulomb/Morse/Scarf presets, their
  rational extensions, and closed-form eigenstates of both kinds.
* :mod:`exopoly.susy` -- superpotentials, partner potentials, intertwining
  operators, and the audit of the printed supersymmetry identities.
* :mod:`exopoly.verify` / :mod:`exopoly.cli` -- verification campaigns and the
  command-line front end.
"""

__version__ = "0.1.0"

from .polycore import (  # noqa: F401
    DiffOp,
    JacobiConstants,
    Poly,
    as_rational,
    classical_ode_residual,
    jacobi_classical,
    laguerre_classical,
    rational_str,
)
from .quad import QuadratureRule, WeightSpec, golub_welsch, gram_matrix, integrate  # noqa: F401
from .solver import (  # noqa: F401
    Grid,
    GridFunction,
    SpectrumReport,
    discretize,
    lowest_levels,
    rayleigh_quotient,
    solve_spectrum,
    spectrum_compare,
)
from .xop import (  # noqa: F401
    XFamilySpec,
    gram_schmidt_family,
    x1_jacobi_ode_residual,
    x1_jacobi_op_route,
    x1_laguerre_ode_residual,
    x1_laguerre_op_route,
    xj_laguerre_ode_residual,
    xj_polynomial_solve,
)
from .potentials import (  # noqa: F401
    EigenstateClosedForm,
    Morse,
    Oscillator3D,
    CoulombRadial,
    ScarfTrig,
    make_preset,
    quotient_identity_check,
    ve_jacobi,
    ve_laguerre,
)
from .susy import (  # noqa: F401
    Superpotential,
    apply_A,
    intertwine_check,
    oscillator_intertwiner,
    partner_potentials,
    superpotential_from_ground_state,
    verify_claims,
)
