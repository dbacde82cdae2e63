"""Preset potentials, their rational extensions, and closed-form eigenstates.

Conventions: natural units with Hamiltonian H = -d^2/dx^2 + V(x) throughout
(matching the grid discretizer).  Each preset knows its classical potential
and energies, the derived rational extension that makes the exceptional
closed forms exact eigenstates, the extension formula in its printed
textbook variable (kept verbatim for auditing, even where it disagrees with
the derived one), and the frame of each classical level: the variable z(x),
the prefactor, and the X1 family whose classical parameters the level
carries.  The eigenstates of both kinds are built once from the frame
(:class:`_Preset`): the exceptional partner of a level is its prefactor over
(z - pole) of the X1 weight, times the X1 member, at that level's energy.

The extension enters the physical potential with a preset-specific energy
scale (e.g. a factor 2 for the oscillator from the d/dx -> d/dxi chain rule);
for the Coulomb and Morse presets the exact extension is unavoidably
level-dependent, which is flagged rather than hidden.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .polycore import JacobiConstants, Poly, RationalLike, _Value, as_rational
from .solver import Grid, GridFunction, discretize, rayleigh_quotient
from .xop import XFamilySpec, operator_family, xj_quotient_residual


class PotentialError(ValueError):
    """Inadmissible parameters, quantum numbers, or a pole inside the domain."""


_FLOAT_MAX = Fraction(sys.float_info.max)


# ---------------------------------------------------------------------------
# the extension terms, exactly as functions
# ---------------------------------------------------------------------------

def ve_laguerre(x, k):
    """Rational Laguerre X1 extension 1/(x+k) - 2k/(x+k)^2 (pole at -k)."""
    kf = float(as_rational(k))
    x = np.asarray(x, dtype=float)
    return 1 / (x + kf) - 2 * kf / (x + kf) ** 2


def _in_place(ufunc, a):
    """``ufunc(a)``, written over ``a`` when it is an array; a scalar (the
    value at a 0-d point) gets a new scalar."""
    return ufunc(a, out=a) if isinstance(a, np.ndarray) else ufunc(a)


# ---------------------------------------------------------------------------
# closed-form eigenstates
# ---------------------------------------------------------------------------

class EigenstateClosedForm:
    """A bound state prefactor(x, z) / (z - pole) * polynomial(z), z = variable(x).

    Classical states have no pole; an exceptional state's pole is that of its
    X1 weight, -k (Laguerre) or b (Jacobi), so __call__ gives the full
    wavefunction of either kind.
    """

    def __init__(self, energy: float, polynomial: Poly,
                 variable: Callable[[np.ndarray], np.ndarray],
                 prefactor: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 pole: Optional[float] = None):
        self.energy = energy
        self.polynomial = polynomial
        self.variable = variable
        self.prefactor = prefactor
        self.pole = pole

    def __call__(self, x):
        """The wavefunction at x: (prefactor / (z - pole)) * polynomial(z).

        The division and the product run in place, on the arrays this call
        made (z - pole, and the polynomial's values), never on the
        prefactor's.  With the preset frames, which evaluate z and the
        prefactor in place, at most four grid arrays are alive at once,
        the result among them: x, z and two of the prefactor, its
        temporary, z - pole and the polynomial's values.
        """
        x = np.asarray(x, dtype=float)
        z = self.variable(x)
        pref = self.prefactor(x, z)
        if self.pole is not None:
            den = z - self.pole
            pref = np.divide(pref, den, out=den if np.ndim(den) else None)
        out = self.polynomial(z)
        out *= pref
        return out

    def on_grid(self, grid: Grid, normalize: bool = True) -> GridFunction:
        gf = GridFunction(grid, self(grid.points()))
        return gf.normalized() if normalize else gf


def state_rayleigh(states: Sequence[EigenstateClosedForm], potential,
                   grid: Grid) -> list[float]:
    """Rayleigh quotient of each closed-form state under one (possibly
    extended) potential, in order; the potential is discretized once."""
    op = discretize(potential, grid)
    return [rayleigh_quotient(op, state.on_grid(grid, normalize=False)) for state in states]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

class _Frame(_Value):
    """Classical level nu: psi = prefactor(x, z) * P_nu(z) with z = variable(x).

    ``family`` is the X1 family of the level: P_nu is its
    :meth:`XFamilySpec.classical` member, L^(k) or P^(alpha, beta).
    """

    _fields = ("variable", "prefactor", "family")

    def __init__(self, variable: Callable[[np.ndarray], np.ndarray],
                 prefactor: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 family: XFamilySpec):
        self.__dict__.update(variable=variable, prefactor=prefactor, family=family)


# the default of a preset parameter that has none
_REQUIRED = object()


class _Preset(_Value):
    """The closed-form eigenstates of a preset, built once from its ``_frame``.

    Classical level nu is the frame's prefactor times ``family.classical(nu)``.
    Its exceptional partner keeps the frame of level nu, divides the prefactor
    by (z - pole), the pole of ``family.weight()``, and carries the family's
    operator-route member of degree nu + 1, at the classical energy of level
    nu.  Exceptional state n is the partner of level n - 1, except where a
    preset overrides ``_partner``.

    ``_params`` is the preset's parameter table: each parameter of its
    constructor, in order, as (name, kind, default), with ``_REQUIRED`` for a
    parameter without default.  It names what :func:`make_preset` accepts and
    asks for and what :meth:`params` returns, and its kind (Fraction, float,
    or int) says how :meth:`_store` takes the value.
    """

    _params: tuple[tuple[str, type, object], ...] = ()

    def _store(self, *values) -> None:
        """Store ``values`` as the fields of ``_params``, in its order.

        Fraction and float fields take ints, decimals and "num/den" strings:
        a Fraction field keeps the exact value, a float field a float; every
        value must fit a float, as the grid functions use it as one, and so
        must the square of each Fraction field (A^2, B^2, alpha^2).  An int
        field is stored as given, for the preset to check.
        """
        for (name, kind, _), value in zip(self._params, values):
            if kind is not int:
                try:
                    q = as_rational(value)
                except (TypeError, ValueError, ZeroDivisionError):
                    raise ValueError(f"{name}: {value!r} is not a number") from None
                try:
                    qf = float(q)
                except OverflowError:
                    qf = 0.0
                if q and not qf:  # overflowed, or underflowed to 0
                    raise ValueError(f"{name}: {value!r} does not fit a float")
                if kind is Fraction and q * q > _FLOAT_MAX:
                    raise ValueError(f"{name}: {value!r} squared does not fit a float")
                value = qf if kind is float else q
            self.__dict__[name] = value

    def _frame(self, nu: int) -> _Frame:
        raise NotImplementedError

    def _check_level(self, n) -> None:
        if n < 0:
            raise PotentialError("quantum number must be >= 0")

    def _partner(self, n: int) -> int:
        """The classical level whose frame and energy exceptional state n shares."""
        if n < 1:
            raise PotentialError("exceptional family has no degree-0 member")
        return n - 1

    def params(self) -> dict:
        values = {name: getattr(self, name) for name in self._fields}
        return {k: str(v) if isinstance(v, Fraction) else v for k, v in values.items()}

    def extended_potential(self, x, n: Optional[int] = None):
        return self.potential(x) + self.extension(x, n)

    def exceptional_energy(self, n: int) -> float:
        return self.classical_energy(self._partner(n))

    def classical_state(self, n: int) -> EigenstateClosedForm:
        self._check_level(n)
        frame = self._frame(n)
        return EigenstateClosedForm(self.classical_energy(n), frame.family.classical(n),
                                    frame.variable, frame.prefactor)

    def exceptional_state(self, n: int) -> EigenstateClosedForm:
        return self.exceptional_states([n])[0]

    def exceptional_states(self, levels: Sequence[int]) -> list[EigenstateClosedForm]:
        """:meth:`exceptional_state` of each n in ``levels``, in order; each
        distinct X1 family is built once, to the longest member asked of it."""
        frames = []
        for n in levels:
            nu = self._partner(n)
            self._check_level(nu)
            frames.append((nu, self._frame(nu)))
        lengths: dict[XFamilySpec, int] = {}
        for nu, frame in frames:
            lengths[frame.family] = max(lengths.get(frame.family, 0), nu + 1)
        members = {family: operator_family(family, n) for family, n in lengths.items()}
        return [EigenstateClosedForm(self.classical_energy(nu), members[frame.family][nu],
                                     frame.variable, frame.prefactor,
                                     float(frame.family.weight().pole))
                for nu, frame in frames]


class _Radial(_Preset):
    """A radial channel: V = core(x) + energy_shift + l(l+1)/x^2, with the
    Laguerre parameter k fixed by the angular momentum l."""

    _params = (("l", int, 0), ("energy_shift", float, 0.0))
    _fields = tuple(name for name, _, _ in _params)

    def __init__(self, l: int = 0, energy_shift: float = 0.0):
        self._store(l, energy_shift)
        if not isinstance(self.l, int) or isinstance(self.l, bool) or self.l < 0:
            raise PotentialError(f"angular momentum l must be an int >= 0, not {self.l!r}")

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        v = self._core(x) + self.energy_shift
        if self.l:
            v += self.l * (self.l + 1) / x**2
        return v

    def ve_printed(self, r, n: Optional[int] = None):
        """The printed extension ve_laguerre(r, k) in the preset's Laguerre
        variable r (u = x^2/2 for the oscillator, r itself for Coulomb)."""
        return ve_laguerre(r, self.k)


class Oscillator3D(_Radial):
    """Radial isotropic oscillator: V = x^2/4 + l(l+1)/x^2, E_n = 2n + l + 3/2.

    Laguerre variable u = x^2/2 with parameter k = l + 1/2.  The rational
    extension enters the physical potential as +2 * ve_laguerre(u, k); the
    factor 2 is the chain-rule energy scale between the u-equation and x.
    """

    @property
    def k(self) -> Fraction:
        return Fraction(2 * self.l + 1, 2)

    def default_domain(self) -> tuple[float, float]:
        return (0.0, 14.0)

    def variable(self, x):
        u = np.asarray(x, dtype=float) ** 2
        u /= 2
        return u

    def _core(self, x):
        return x**2 / 4

    def extension(self, x, n: Optional[int] = None):
        return 2.0 * ve_laguerre(self.variable(x), self.k)

    def classical_energy(self, n: int) -> float:
        return 2 * n + self.l + 1.5 + self.energy_shift

    def _frame(self, nu: int) -> _Frame:
        lp1 = self.l + 1

        def pref(x, u):  # x^(l+1) exp(-(x^2)/4)
            out, g = x**lp1, _in_place(np.negative, x**2)
            g /= 4
            out *= _in_place(np.exp, g)
            return out

        return _Frame(self.variable, pref, XFamilySpec("laguerre", k=self.k))


class CoulombRadial(_Radial):
    """Radial Coulomb problem: V = -1/x + l(l+1)/x^2, E_N = -1/(4 N^2).

    The Laguerre variable of the level-N state is t = x/N, so the exact
    rational extension is level-dependent in the physical coordinate --
    flagged, and reported rather than asserted anywhere.
    """

    @property
    def k(self) -> Fraction:
        return Fraction(2 * self.l + 1)

    def default_domain(self) -> tuple[float, float]:
        return (0.0, 180.0)  # 60 per principal quantum number, up to N = 3

    def _core(self, x):
        return -1.0 / x

    def extension(self, x, n: int):
        """Exact extension for the level-n exceptional state (level-dependent)."""
        if n is None or n < 1:
            raise PotentialError("coulomb extension needs the exceptional index n >= 1")
        big_n = n + self.l
        x = np.asarray(x, dtype=float)
        return ve_laguerre(x / big_n, self.k) / (big_n * x)

    def classical_energy(self, n: int) -> float:
        big_n = n + self.l + 1
        return -1.0 / (4 * big_n**2) + self.energy_shift

    def _frame(self, nu: int) -> _Frame:
        big_n = nu + self.l + 1
        lp1 = self.l + 1

        def var(x):
            return np.asarray(x, dtype=float) / big_n

        def pref(x, t):  # t^(l+1) exp(-t/2)
            out, g = t**lp1, -t
            g /= 2
            out *= _in_place(np.exp, g)
            return out

        return _Frame(var, pref, XFamilySpec("laguerre", k=self.k))


class Morse(_Preset):
    """Morse potential A^2 + B^2 e^(-2 a x) - 2B(A + a/2) e^(-a x) on the line.

    Laguerre variable y = (2B/a) e^(-a x), s = A/a; level n (with n < s) has
    parameter 2(s-n) and energy A^2 - (A - n a)^2.  The printed extension
    carries the denominator (y + s - n): kept verbatim for auditing, while the
    derived extension uses the consistent parameter 2(s-n) and is
    level-dependent (both oddities are flagged in reports).  Exceptional
    state n is the partner of level n (same energy, degree n+1).
    """

    _params = (("A", Fraction, _REQUIRED), ("B", Fraction, _REQUIRED),
               ("alpha", Fraction, Fraction(1)), ("energy_shift", float, 0.0))
    _fields = tuple(name for name, _, _ in _params)

    def __init__(self, A: Fraction, B: Fraction, alpha: Fraction = Fraction(1),
                 energy_shift: float = 0.0):
        self._store(A, B, alpha, energy_shift)
        if self.A <= 0 or self.B <= 0 or self.alpha <= 0:
            raise PotentialError("morse requires A, B, alpha > 0")
        if 2 * self.s > _FLOAT_MAX:  # the level-0 Laguerre parameter, as a float
            raise ValueError(f"alpha: {float(self.alpha)!r} makes 2A/alpha too large "
                             "for a float")

    @property
    def s(self) -> Fraction:
        return self.A / self.alpha

    def variable(self, x):
        af, bf = float(self.alpha), float(self.B)
        y = _in_place(np.exp, -af * np.asarray(x, dtype=float))
        y *= 2 * bf / af
        return y

    def default_domain(self) -> tuple[float, float]:
        """Between the y where the levels' shared envelope y^s e^(-y/2) falls
        to 1e-8 of its peak (never inside y = 80), and where the top bound
        level's y^(s - n) falls to 1e-8.

        Level n is y^(s-n) e^(-y/2) times a polynomial of degree n, so the
        envelope y^s e^(-y/2), peaked at y = 2s, bounds every level's left
        tail; a deep well (large s) puts that tail beyond y = 80.  Level n
        decays as y^(s - n) towards the right end, so the top bound level n
        (the largest n < s) decays slowest and sets that end.  The Dirichlet
        cut moves a level by about the square of what it leaves, 1e-16.  The
        right end may reach y = 1e-100 at most, which needs s - n >= 0.08.
        """
        af, bf = float(self.alpha), float(self.B)
        n_top = math.ceil(self.s) - 1
        gap = self.s - n_top
        if gap < Fraction(8, 100):
            raise ValueError(f"the top bound level n = {n_top} decays only as "
                             f"y^(s - n) = y^{float(gap):.3g}: the default domain would "
                             "pass its limit y = 1e-100 (it needs s - n >= 0.08); give --domain")
        y_right = 10.0 ** (-8.0 / float(gap))
        ends = []
        for y in (max(80.0, self._envelope_end()), y_right):
            # y(x) = y at x = -log(alpha * y / 2B) / alpha
            ratio = af * y / (2 * bf)
            if ratio == 0.0:
                raise ValueError(f"alpha: {af!r} is too small against B: {bf!r}: "
                                 "alpha/B underflows a float, so the default domain has "
                                 "no end; give --domain")
            ends.append(-math.log(ratio) / af)
        if not all(map(math.isfinite, ends)):
            raise ValueError(f"alpha: {af!r} is too small: the default domain ends "
                             "overflow a float; give --domain")
        return (ends[0], ends[1])

    def _envelope_end(self) -> float:
        """The y > 2s where y^s e^(-y/2) is 1e-8 of its peak: with y = 2s(1+v),
        the root of v - log(1+v) = 8 log(10)/s, by Newton steps from above
        (the left side is convex and increasing in v, so they fall monotonically)."""
        s = float(self.s)
        r = 8 * math.log(10) / s
        v = r + math.sqrt(2 * r)  # above the root, as e^z > 1 + z + z^2/2
        for _ in range(100):
            step = (v - math.log1p(v) - r) * (1 + v) / v
            if not step > 0:
                break
            v -= step
        return 2 * s * (1 + v)

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        af, bf, a_ = float(self.alpha), float(self.B), float(self.A)
        return (a_**2 + bf**2 * np.exp(-2 * af * x)
                - 2 * bf * (a_ + af / 2) * np.exp(-af * x) + self.energy_shift)

    def extension(self, x, n: int):
        """Derived level-n extension: alpha^2 * y * ve_laguerre(y, 2(s-n))."""
        self._check_level(n)
        y = self.variable(x)
        m = 2 * (self.s - n)
        return float(self.alpha) ** 2 * y * ve_laguerre(y, m)

    def ve_printed(self, y, n: Optional[int] = None):
        """Printed form 1/(y+s-n) - 2(s-n)/(y+s-n)^2, verbatim (pole checked).

        The form is level-dependent: n = None raises like any level outside
        the bound spectrum.
        """
        self._check_level(n)
        smn = float(self.s) - n
        if smn <= 0:
            raise PotentialError(f"printed extension has a pole at y={-smn} inside (0,inf)")
        return ve_laguerre(y, Fraction(self.s - n))

    def _check_level(self, n) -> None:
        if n is None or n < 0 or n >= float(self.s):
            raise PotentialError(f"morse bound level needs 0 <= n < s = {self.s}")

    def _partner(self, n: int) -> int:
        return n

    def classical_energy(self, n: int) -> float:
        a_, af = float(self.A), float(self.alpha)
        return a_**2 - (a_ - n * af) ** 2 + self.energy_shift

    def _frame(self, nu: int) -> _Frame:
        exponent = float(self.s) - nu

        def pref(x, y):  # y^(s - nu) exp(-y/2)
            out, g = y**exponent, -y
            g /= 2
            out *= _in_place(np.exp, g)
            return out

        return _Frame(self.variable, pref, XFamilySpec("laguerre", k=2 * (self.s - nu)))


class ScarfTrig(_Preset):
    """Trigonometric Scarf potential on (-pi/2a, pi/2a).

    V = -A^2 + (A^2 + B^2 - A a) sec^2(a x) - B(2A - a) tan(a x) sec(a x),
    E_n = (A + n a)^2 - A^2, with Jacobi variable z = sin(a x) and parameters
    (s - L - 1/2, s + L - 1/2), s = A/a, L = B/a.  Admissibility A > |B| + a/2
    keeps the states normalizable and the extension pole |b| > 1.
    """

    _params = (("A", Fraction, _REQUIRED), ("B", Fraction, _REQUIRED),
               ("alpha", Fraction, Fraction(1)), ("energy_shift", float, 0.0))
    _fields = tuple(name for name, _, _ in _params)

    def __init__(self, A: Fraction, B: Fraction, alpha: Fraction = Fraction(1),
                 energy_shift: float = 0.0):
        self._store(A, B, alpha, energy_shift)
        if self.alpha <= 0:
            raise PotentialError("scarf requires alpha > 0")
        if self.B == 0:
            raise PotentialError("scarf exceptional extension needs B != 0")
        if not self.A > abs(self.B) + self.alpha / 2:
            raise PotentialError("scarf requires A > |B| + alpha/2")
        b = JacobiConstants.from_parameters(self.jacobi_alpha, self.jacobi_beta).b
        if b * b > _FLOAT_MAX:
            raise ValueError(f"B: {float(self.B)!r} puts the extension pole "
                             "b = (2A - alpha)/(2B) out of range: b squared does not "
                             "fit a float")

    @property
    def s(self) -> Fraction:
        return self.A / self.alpha

    @property
    def lam(self) -> Fraction:
        return self.B / self.alpha

    @property
    def jacobi_alpha(self) -> Fraction:
        return self.s - self.lam - Fraction(1, 2)

    @property
    def jacobi_beta(self) -> Fraction:
        return self.s + self.lam - Fraction(1, 2)

    def default_domain(self) -> tuple[float, float]:
        """Box between the sec^2 singularities, ends pulled inward by 1e-8."""
        # the margin must stay far below h^2: the true states vanish only at
        # the singularities themselves, so a larger shift plants an
        # O(psi(b)/h^2) boundary residual that grows under refinement
        half = math.pi / (2 * float(self.alpha))
        return (-half + 1e-8, half - 1e-8)

    def variable(self, x):
        return _in_place(np.sin, float(self.alpha) * np.asarray(x, dtype=float))

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        a_, bf, af = float(self.A), float(self.B), float(self.alpha)
        sec = 1.0 / np.cos(af * x)
        return (-(a_**2) + (a_**2 + bf**2 - a_ * af) * sec**2
                - bf * (2 * a_ - af) * np.tan(af * x) * sec + self.energy_shift)

    def extension(self, x, n: Optional[int] = None):
        """Derived extension -2 a^2 [ b/(z-b) + (b^2-1)/(z-b)^2 ]."""
        bq = float(JacobiConstants.from_parameters(self.jacobi_alpha, self.jacobi_beta).b)
        af = float(self.alpha)
        z = self.variable(x)
        return -2 * af**2 * (bq / (z - bq) + (bq**2 - 1) / (z - bq) ** 2)

    def ve_printed(self, z, n: Optional[int] = None):
        """Printed extension A(2A-1)/(2A-1-2Bz) - (A(2A-1)^2-4B^2)/(2A-1-2Bz)^2.

        Kept verbatim for auditing; its pole (2A-1)/(2B) is rejected if it
        falls inside [-1, 1].
        """
        a_, bf = float(self.A), float(self.B)
        pole = (2 * a_ - 1) / (2 * bf)
        if abs(pole) <= 1:
            raise PotentialError(f"printed extension has a pole at z={pole} inside [-1,1]")
        z = np.asarray(z, dtype=float)
        den = 2 * a_ - 1 - 2 * bf * z
        return a_ * (2 * a_ - 1) / den - (a_ * (2 * a_ - 1) ** 2 - 4 * bf**2) / den**2

    def classical_energy(self, n: int) -> float:
        a_, af = float(self.A), float(self.alpha)
        return (a_ + n * af) ** 2 - a_**2 + self.energy_shift

    def _frame(self, nu: int) -> _Frame:
        p = float(self.s - self.lam) / 2
        q = float(self.s + self.lam) / 2

        def pref(x, z):  # (1 - z)^p (1 + z)^q
            out, g = 1 - z, 1 + z
            out **= p
            g **= q
            out *= g
            return out

        return _Frame(self.variable, pref, XFamilySpec("jacobi", alpha=self.jacobi_alpha,
                                                       beta=self.jacobi_beta))


PRESETS = {
    "oscillator3d": Oscillator3D,
    "coulomb": CoulombRadial,
    "morse": Morse,
    "scarf": ScarfTrig,
}


def make_preset(name: str, params: dict):
    """Build a preset from its registry id and a parameter dict.

    Numeric parameters may be given as ints, decimals, or exact "num/den"
    strings.  An unknown key, a missing one, or a value that is not a number
    raises :class:`PotentialError`; a bad value is named with its parameter
    (``bad parameters for preset morse: A: 'x' is not a number``).
    """
    cls = PRESETS.get(name)
    if cls is None:
        raise PotentialError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    accepted = [key for key, _, _ in cls._params]
    unknown = [key for key in params if key not in accepted]
    if unknown:
        raise PotentialError(f"preset {name} has no parameter {', '.join(unknown)}; "
                             f"it accepts {', '.join(accepted)}")
    missing = [key for key, _, default in cls._params
               if default is _REQUIRED and key not in params]
    if missing:
        raise PotentialError(f"preset {name} needs parameters {', '.join(missing)} "
                             "in --params")
    try:
        return cls(**params)
    except PotentialError:
        raise
    except (TypeError, ValueError) as exc:
        raise PotentialError(f"bad parameters for preset {name}: {exc}") from exc


# ---------------------------------------------------------------------------
# the quotient identity
# ---------------------------------------------------------------------------

def quotient_identity_check(f: Poly, k: RationalLike, grid: Grid) -> float:
    """Max grid residual of the quotient form of the X1 Laguerre equation.

    Evaluates  x g'' + (k+1-x) g' + (c - A/(x+k) - B/(x+k)^2) g  with
    g = f/(x+k), c = deg(f) - 1, the exceptional-family value A = 1 and
    B = -2k (the only B an f with f(-k) != 0 admits), that is the
    codimension j = 1 identity, as the exact cleared polynomial of
    :func:`exopoly.xop.xj_quotient_residual` divided by (x+k)^3 on the grid.
    A small residual confirms the identity for the exact polynomial f; a
    wrong polynomial fails loudly.  The cleared polynomial is exact, so an f
    that satisfies the identity reads exactly 0 for every k.  The Xj
    instances of :func:`exopoly.xop.xj_quotient_solve` carry their exact
    cleared residual, which :func:`quotient_grid_residual` reads on a grid.
    """
    if not isinstance(f, Poly):
        raise TypeError(f"quotient_identity_check takes an exact Poly, not {type(f).__name__}")
    return quotient_grid_residual(xj_quotient_residual(f, k, 1, 1), k, 1, grid)


def quotient_grid_residual(residual: Poly, k: RationalLike, j: int, grid: Grid) -> float:
    """Max over the grid of |residual(x)| / (x+k)^(j+2), for the exact cleared
    polynomial of :func:`exopoly.xop.xj_quotient_residual` (which
    :func:`exopoly.xop.xj_quotient_solve` returns with each solution).  A
    residual sum_i r_i x^i left by an f or A that satisfies the identity only
    to rounding is measured by its grid values, whose float evaluation adds
    about 1e-16 * max_i |r_i x^i| / (x+k)^(j+2)."""
    kf = float(as_rational(k))
    x = grid.points()
    res = residual(x) / (x + kf) ** (j + 2)
    return float(np.max(np.abs(res)))
