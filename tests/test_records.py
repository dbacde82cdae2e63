"""The records' contract: every record constructor's parameters, the value
semantics of the value records, and the presets' parameter table."""

import importlib
import inspect
import pkgutil
from fractions import Fraction as F

import numpy as np
import pytest

import exopoly
from exopoly import polycore, potentials, quad, solver, susy, verify, xop
from exopoly.potentials import PotentialError, make_preset

REQUIRED = inspect.Parameter.empty

# each record's constructor parameters in order, with their defaults
SIGNATURES = [
    (polycore.JacobiConstants, [("a", REQUIRED), ("b", REQUIRED), ("c", REQUIRED)]),
    (quad.WeightSpec, [("kind", REQUIRED), ("k", None), ("alpha", None), ("beta", None)]),
    (quad.Recurrence, [("a", REQUIRED), ("b", REQUIRED), ("mu0", REQUIRED)]),
    (quad.QuadratureRule, [("nodes", REQUIRED), ("weights", REQUIRED),
                           ("exact_degree", REQUIRED)]),
    (solver.Grid, [("a", REQUIRED), ("b", REQUIRED), ("n", REQUIRED)]),
    (solver.GridFunction, [("grid", REQUIRED), ("values", REQUIRED)]),
    (solver.Tridiagonal, [("diag", REQUIRED), ("off", REQUIRED)]),
    (solver.SpectrumReport, [("preset", REQUIRED), ("params", REQUIRED), ("grid", REQUIRED),
                             ("eigenvalues", REQUIRED), ("residuals", REQUIRED),
                             ("mapping", None)]),
    (xop.XFamilySpec, [("family", REQUIRED), ("k", None), ("alpha", None), ("beta", None)]),
    (potentials.EigenstateClosedForm, [("energy", REQUIRED), ("polynomial", REQUIRED),
                                       ("variable", REQUIRED), ("prefactor", REQUIRED),
                                       ("pole", None)]),
    (potentials.Oscillator3D, [("l", 0), ("energy_shift", 0.0)]),
    (potentials.CoulombRadial, [("l", 0), ("energy_shift", 0.0)]),
    (potentials.Morse, [("A", REQUIRED), ("B", REQUIRED), ("alpha", F(1)),
                        ("energy_shift", 0.0)]),
    (potentials.ScarfTrig, [("A", REQUIRED), ("B", REQUIRED), ("alpha", F(1)),
                            ("energy_shift", 0.0)]),
    (susy.Superpotential, [("w", REQUIRED), ("w_prime", REQUIRED)]),
    (susy.PartnerPair, [("v_plus", REQUIRED), ("v_minus", REQUIRED)]),
    (verify.VerificationConfig, [("suites", REQUIRED), ("laguerre_k", REQUIRED),
                                 ("jacobi_alpha_beta", REQUIRED), ("n_max", REQUIRED),
                                 ("n_eigen_max", REQUIRED), ("grid", REQUIRED),
                                 ("negative_control", REQUIRED)]),
    (verify.VerificationReport, [("config", REQUIRED), ("checks", REQUIRED)]),
]


@pytest.mark.parametrize("cls,params", SIGNATURES, ids=lambda v: getattr(v, "__name__", ""))
def test_constructor_parameters_names_order_and_defaults(cls, params):
    signature = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in signature] == params
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in signature)


# two equal records built from different spellings, and one that differs
VALUES = [
    (lambda: polycore.JacobiConstants.from_parameters(1, 3),
     lambda: polycore.JacobiConstants(F(1), F(2), F(3)),
     lambda: polycore.JacobiConstants.from_parameters(2, 5)),
    (lambda: quad.WeightSpec.x1_jacobi("1", 3), lambda: quad.WeightSpec.x1_jacobi(1.0, F(3)),
     lambda: quad.WeightSpec.jacobi(1, 3)),
    (lambda: solver.Grid(0, 14, 100), lambda: solver.Grid(0.0, 14.0, 100),
     lambda: solver.Grid(0.0, 14.0, 101)),
    (lambda: xop.XFamilySpec("laguerre", k=F(1, 2)),
     lambda: xop.XFamilySpec(family="laguerre", k=F(1, 2)),
     lambda: xop.XFamilySpec("laguerre", k=F(3, 2))),
    (lambda: potentials.Oscillator3D(l=1), lambda: potentials.Oscillator3D(1, 0),
     lambda: potentials.CoulombRadial(l=1)),
    (lambda: potentials.Morse(A="3/2", B=2), lambda: potentials.Morse(1.5, 2, 1, 0.0),
     lambda: potentials.Morse(A="3/2", B=2, energy_shift=1)),
    (lambda: potentials.ScarfTrig(A=3, B=1), lambda: make_preset("scarf", {"A": "3", "B": 1.0}),
     lambda: potentials.ScarfTrig(A=3, B=-1)),
]


def _field_names(record) -> list[str]:
    return list(inspect.signature(type(record)).parameters)


@pytest.mark.parametrize("make,same,other", VALUES)
def test_value_records_compare_and_hash_by_value(make, same, other):
    a, b, c = make(), same(), other()
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and c != a
    assert {a: "first", c: "other"}[b] == "first"
    assert a != tuple(getattr(a, name) for name in _field_names(a))


@pytest.mark.parametrize("make", [row[0] for row in VALUES])
def test_value_records_refuse_assignment(make):
    record = make()
    name = _field_names(record)[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == before and not hasattr(record, "extra")


def test_value_records_repr_their_fields():
    assert repr(solver.Grid(0.0, 14.0, 100)) == "Grid(a=0.0, b=14.0, n=100)"
    assert repr(xop.XFamilySpec("jacobi", alpha=F(1), beta=F(3))) == (
        "XFamilySpec(family='jacobi', k=None, alpha=Fraction(1, 1), beta=Fraction(3, 1))")
    assert repr(potentials.Morse(A=4, B=2)) == (
        "Morse(A=Fraction(4, 1), B=Fraction(2, 1), alpha=Fraction(1, 1), energy_shift=0.0)")


@pytest.mark.parametrize("cls", [potentials.Oscillator3D, potentials.CoulombRadial,
                                 potentials.Morse, potentials.ScarfTrig])
def test_preset_table_matches_the_constructor(cls):
    table = [(name, REQUIRED if default is potentials._REQUIRED else default)
             for name, _, default in cls._params]
    signature = inspect.signature(cls).parameters.values()
    assert table == [(p.name, p.default) for p in signature]
    assert cls._fields == tuple(name for name, _ in table)


@pytest.mark.parametrize("value,exact", [("3/2", F(3, 2)), (1.5, F(3, 2)), (2, F(2)),
                                         ("0.25", F(1, 4)), (F(7, 3), F(7, 3))])
def test_presets_coerce_numbers_exactly(value, exact):
    morse = potentials.Morse(A=value, B=value, alpha=value, energy_shift=value)
    for field in (morse.A, morse.B, morse.alpha):
        assert type(field) is F and field == exact
    assert type(morse.energy_shift) is float and morse.energy_shift == float(exact)
    scarf = make_preset("scarf", {"A": 4, "B": value, "energy_shift": value})
    assert type(scarf.B) is F and scarf.B == exact and scarf.energy_shift == float(exact)
    radial = potentials.CoulombRadial(l=2, energy_shift=value)
    assert radial.l == 2 and type(radial.energy_shift) is float
    assert radial.energy_shift == float(exact)


@pytest.mark.parametrize("name,params,message", [
    ("hydrogen", {}, "unknown preset 'hydrogen'; known: ['coulomb', 'morse', 'oscillator3d', "
                     "'scarf']"),
    ("morse", {"A": 4, "B": 2, "zeta": 1, "eta": 2},
     "preset morse has no parameter zeta, eta; it accepts A, B, alpha, energy_shift"),
    ("scarf", {"A": 3}, "preset scarf needs parameters B in --params"),
    ("morse", {}, "preset morse needs parameters A, B in --params"),
    ("morse", {"A": "x", "B": 2}, "bad parameters for preset morse: A: 'x' is not a number"),
    ("oscillator3d", {"energy_shift": None},
     "bad parameters for preset oscillator3d: energy_shift: None is not a number"),
    ("oscillator3d", {"energy_shift": "1e400"},
     "bad parameters for preset oscillator3d: energy_shift: '1e400' does not fit a float"),
    ("scarf", {"A": "1e200", "B": 1},
     "bad parameters for preset scarf: A: '1e200' squared does not fit a float"),
    ("morse", {"A": 4, "B": "1e-400"},
     "bad parameters for preset morse: B: '1e-400' does not fit a float"),
    ("scarf", {"A": 3, "B": "1/0"}, "bad parameters for preset scarf: B: '1/0' is not a number"),
    ("oscillator3d", {"l": 1.5}, "angular momentum l must be an int >= 0, not 1.5"),
    ("coulomb", {"l": True}, "angular momentum l must be an int >= 0, not True"),
    ("coulomb", {"l": "1"}, "angular momentum l must be an int >= 0, not '1'"),
    # the float field is coerced before the int field is checked
    ("oscillator3d", {"l": -1, "energy_shift": "x"},
     "bad parameters for preset oscillator3d: energy_shift: 'x' is not a number"),
    ("scarf", {"A": 1, "B": 1}, "scarf requires A > |B| + alpha/2"),
    ("morse", {"A": 4, "B": 2, "alpha": 0}, "morse requires A, B, alpha > 0"),
])
def test_make_preset_refusals_keep_their_text(name, params, message):
    with pytest.raises(PotentialError) as info:
        make_preset(name, params)
    assert str(info.value) == message


def test_records_without_value_semantics_compare_by_identity():
    grid = solver.Grid(0.0, 1.0, 16)
    values = np.ones(16)
    first, second = solver.GridFunction(grid, values), solver.GridFunction(grid, values)
    assert first == first and first != second
    assert len({first, second}) == 2


def test_no_class_of_the_package_subclasses_tuple():
    # a NamedTuple compiles a generated __new__ from a string at import; the
    # package's records are classes with written-out methods
    found = []
    for info in pkgutil.iter_modules(exopoly.__path__):
        module = importlib.import_module(f"exopoly.{info.name}")
        found += [f"{module.__name__}.{value.__qualname__}" for value in vars(module).values()
                  if isinstance(value, type) and value.__module__ == module.__name__
                  and issubclass(value, tuple)]
    assert found == []
