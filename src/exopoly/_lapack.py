"""The four LAPACK routines of the grid eigensolver, as plain functions.

Each works on 1-D float64 arrays that the caller owns, writable,
C-contiguous and of the sizes LAPACK names (n >= 1 diagonal entries, n - 1 off-diagonal ones),
and overwrites them as LAPACK does; each returns LAPACK's ``info``:

* ``dstevd(d, e)``: all eigenvalues of the symmetric tridiagonal (d, e),
  ascending, into ``d``; ``e`` is destroyed.  Values only.
* ``dstebz(d, e, count)`` -> ``(m, w, info)``: bisection for the lowest
  ``count`` eigenvalues, by index 1..count, ordered by value, with LAPACK's
  default absolute tolerance (abstol 0); the ``m`` values are ``w[:m]``.
  ``d`` and ``e`` are only read.
* ``dgtsv(dl, d, du, b)``: the solution of the tridiagonal system into
  ``b``; ``dl``, ``d`` and ``du`` are overwritten.
* ``dpttrf(d, e)``: the L D L^T factorization of (d, e) in place, up to
  the first pivot <= 0, whose row ``info`` names.

There are no hidden copies and no work arrays that outlive a call.  The
arrays are checked on every call; an unfit one raises ``ValueError`` before
any pointer is handed over.  The callers never learn which library backs
the routines.

Where numpy's wheel ships its own OpenBLAS (numpy >= 2:
``numpy.libs/libscipy_openblas64_*`` on Linux, ``numpy/.dylibs`` on
macOS), the routines are bound by ctypes from that library, which
``import numpy`` has already mapped: symbols ``scipy_<name>_64_``, 64-bit
integers (the library's config string must say ``USE64BITINT``) and a
trailing ``size_t`` length for each character argument.  The file is
opened with ``RTLD_NOLOAD`` where the platform has it, so a library that
numpy has not mapped is never loaded next to it.  Anywhere else
(Accelerate, distro or conda builds of numpy) the same four functions wrap
scipy's compiled ``_flapack`` extension, loaded from its file under the
package directory that ``importlib.util.find_spec("scipy")`` names, so
that neither scipy's package ``__init__`` nor ``scipy.linalg`` runs;
``scipy.linalg.lapack`` serves where the file is not found.  The platform
picks the library; nothing else does.

The ctypes calls pass raw data pointers (``c_double.from_buffer``) and
prebuilt integer arguments: an 8-row ``dgtsv`` takes 3.7 us this way,
12.8 us with ``numpy.ctypeslib.ndpointer`` argument types and about 1 us
through f2py (best of 7 x 20000 calls, 2-vCPU VM), so the 180 calls of a
campaign on ``{}`` cost about 0.5 ms more than through f2py.
"""

from __future__ import annotations

import ctypes
import os
from importlib import machinery, util
from typing import Optional

import numpy as np

__all__ = ["dstevd", "dstebz", "dgtsv", "dpttrf"]

_F8 = np.dtype(np.float64)
_Double = ctypes.c_double
_Int = ctypes.c_int64
_ONE = _Int(1)  # read-only by LAPACK, so one object serves every thread


def _size(d: np.ndarray) -> int:
    """The order n of the matrix whose diagonal is ``d``."""
    if not isinstance(d, np.ndarray) or d.ndim != 1 or d.size == 0:
        raise ValueError("d must be a non-empty 1-D array")
    return d.size


# ---------------------------------------------------------------------------
# numpy's own OpenBLAS, through ctypes
# ---------------------------------------------------------------------------

def _numpy_openblas() -> Optional[ctypes.CDLL]:
    """The ILP64 OpenBLAS that numpy's wheel ships and has mapped, or None."""
    root = os.path.dirname(np.__file__)
    found = []
    for folder in (os.path.join(os.path.dirname(root), "numpy.libs"),
                   os.path.join(root, ".dylibs")):
        try:
            names = os.listdir(folder)
        except OSError:
            continue
        found += [os.path.join(folder, name) for name in names
                  if name.startswith("libscipy_openblas64_")]
    if len(found) != 1:
        return None
    try:
        lib = ctypes.CDLL(found[0], mode=getattr(os, "RTLD_NOLOAD", 0))
        config = lib.scipy_openblas_get_config64_
    except (OSError, AttributeError):
        return None
    config.argtypes, config.restype = (), ctypes.c_char_p
    return lib if b"USE64BITINT" in (config() or b"") else None


def _pointer(a: np.ndarray, size: int, name: str) -> ctypes.c_double:
    """A c_double over the first entry of ``a``, after checking that LAPACK
    may take ``a`` as a writable C-contiguous float64 array of ``size``
    entries; the POINTER(c_double) argument types pass its address."""
    if not (isinstance(a, np.ndarray) and a.dtype == _F8 and a.shape == (size,)
            and a.flags.carray):
        got = type(a).__name__
        if isinstance(a, np.ndarray):
            got = (f"{a.dtype} of shape {a.shape}"
                   + ("" if a.flags.c_contiguous else ", strided")
                   + ("" if a.flags.writeable else ", read-only"))
        raise ValueError(f"{name} must be a writable C-contiguous float64 array of {size} "
                         f"entries, got {got}")
    # an empty off-diagonal is never read: a 1 x 1 matrix has none
    return _Double.from_buffer(a) if size else _Double()


def _bound(lib: ctypes.CDLL):
    """dstevd, dstebz, dgtsv and dpttrf bound from numpy's OpenBLAS ``lib``."""
    char, size_t = ctypes.c_char_p, ctypes.c_size_t
    dbl, int_ = ctypes.POINTER(_Double), ctypes.POINTER(_Int)

    def routine(name, *argtypes):
        f = getattr(lib, f"scipy_{name}_64_")
        f.argtypes, f.restype = argtypes, None
        return f

    stevd = routine("dstevd", char, int_, dbl, dbl, dbl, int_, dbl, int_, int_, int_, int_,
                    size_t)
    stebz = routine("dstebz", char, char, int_, dbl, dbl, int_, int_, dbl, dbl, dbl, int_,
                    int_, dbl, int_, int_, dbl, int_, int_, size_t, size_t)
    gtsv = routine("dgtsv", int_, int_, dbl, dbl, dbl, dbl, int_, int_)
    pttrf = routine("dpttrf", int_, dbl, dbl, int_)

    def dstevd(d, e):
        n = _size(d)
        info = _Int()
        # values only: z is not referenced, and one word each of work and
        # iwork is what LAPACK asks for
        stevd(b"N", _Int(n), _pointer(d, n, "d"), _pointer(e, n - 1, "e"), _Double(), _ONE,
              _Double(), _ONE, _Int(), _ONE, info, 1)
        return info.value

    def dstebz(d, e, count):
        n = _size(d)
        # w, work (4n), and iblock, isplit, iwork (n, n, 3n) in one array
        w, work, ints = np.empty(n), np.empty(4 * n), np.empty(5 * n, np.int64)
        m, nsplit, info = _Int(), _Int(), _Int()
        # by index 1..count, so vl and vu are not referenced
        stebz(b"I", b"E", _Int(n), _Double(), _Double(), _ONE, _Int(count),
              _Double(), _pointer(d, n, "d"), _pointer(e, n - 1, "e"), m, nsplit,
              _Double.from_buffer(w), _Int.from_buffer(ints), _Int.from_buffer(ints, 8 * n),
              _Double.from_buffer(work), _Int.from_buffer(ints, 16 * n), info, 1, 1)
        return m.value, w, info.value

    def dgtsv(dl, d, du, b):
        n = _size(d)
        size, info = _Int(n), _Int()
        gtsv(size, _ONE, _pointer(dl, n - 1, "dl"), _pointer(d, n, "d"),
             _pointer(du, n - 1, "du"), _pointer(b, n, "b"), size, info)
        return info.value

    def dpttrf(d, e):
        n = _size(d)
        info = _Int()
        pttrf(_Int(n), _pointer(d, n, "d"), _pointer(e, n - 1, "e"), info)
        return info.value

    return dstevd, dstebz, dgtsv, dpttrf


# ---------------------------------------------------------------------------
# scipy's _flapack, where numpy ships no LAPACK of its own
# ---------------------------------------------------------------------------

def _flapack_file() -> Optional[str]:
    """Path of scipy's compiled LAPACK extension, or None where it is not found.

    The package is located by ``find_spec``, which does not run scipy's
    ``__init__``."""
    spec = util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_flapack():
    """scipy's ``_flapack`` extension loaded from its file, without importing
    ``scipy.linalg``; ``scipy.linalg.lapack`` where the file is not found.
    Either way the routines are the same objects."""
    path = _flapack_file()
    if path is None:
        from scipy.linalg import lapack
        return lapack
    name = "scipy.linalg._flapack"
    spec = util.spec_from_file_location(name, path,
                                        loader=machinery.ExtensionFileLoader(name, path))
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _padded(e: np.ndarray) -> np.ndarray:
    """``e``, or one unused entry for an empty ``e``: scipy's wrappers size
    an empty dimension as 1."""
    return e if e.size else np.zeros(1)


def _wrapped(flapack):
    """The same four functions over scipy's f2py routines.  With the arrays
    checked as the ctypes binding checks them (``_pointer``), every
    ``overwrite_*`` flag works in place, so nothing is copied back."""

    def checked(d, e):
        n = _size(d)
        _pointer(d, n, "d")
        _pointer(e, n - 1, "e")

    def dstevd(d, e):
        checked(d, e)
        return flapack.dstevd(d, _padded(e), compute_v=0, overwrite_d=1, overwrite_e=1)[2]

    def dstebz(d, e, count):
        checked(d, e)
        # range 2 is by index in scipy's numbering, so vl and vu are not read
        m, w, _, _, info = flapack.dstebz(d, _padded(e), 2, 0.0, 1.0, 1, count, 0.0, b"E")
        return m, w, info

    def dgtsv(dl, d, du, b):
        n = _size(d)
        for a, size, name in ((dl, n - 1, "dl"), (d, n, "d"), (du, n - 1, "du"), (b, n, "b")):
            _pointer(a, size, name)
        return flapack.dgtsv(_padded(dl), d, _padded(du), b, overwrite_dl=1, overwrite_d=1,
                             overwrite_du=1, overwrite_b=1)[4]

    def dpttrf(d, e):
        checked(d, e)
        return flapack.dpttrf(d, _padded(e), overwrite_d=1, overwrite_e=1)[2]

    return dstevd, dstebz, dgtsv, dpttrf


def _routines():
    """dstevd, dstebz, dgtsv, dpttrf from numpy's OpenBLAS where numpy ships
    one, else from scipy's ``_flapack``."""
    lib = _numpy_openblas()
    return _bound(lib) if lib is not None else _wrapped(_load_flapack())


dstevd, dstebz, dgtsv, dpttrf = _routines()
