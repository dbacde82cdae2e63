"""The solver's four LAPACK routines, bit for bit against scipy's wrappers.

Each routine runs on both backends the platform may pick: the ctypes
binding of numpy's own OpenBLAS (where numpy ships one) and the wrappers
of scipy's ``_flapack``.  scipy's public ``scipy.linalg.lapack`` is the
reference."""


import numpy as np
import pytest
from scipy.linalg import lapack as scipy_lapack

from exopoly import _lapack

NAMES = _lapack.__all__
SIZES = [1, 2, 17, 300]


def _backends():
    fallback = dict(zip(NAMES, _lapack._wrapped(_lapack._load_flapack())))
    lib = _lapack._numpy_openblas()
    numpy_openblas = pytest.param(
        dict(zip(NAMES, _lapack._bound(lib))) if lib is not None else None,
        id="numpy-openblas",
        marks=pytest.mark.skipif(lib is None, reason="numpy ships no OpenBLAS of its own"))
    return [numpy_openblas, pytest.param(fallback, id="scipy-flapack")]


@pytest.fixture(params=_backends())
def lapack(request):
    return request.param


def _padded(e):
    # scipy's wrappers size an empty off-diagonal as 1
    return e if e.size else np.zeros(1)


def _matrix(n):
    rng = np.random.default_rng(n)
    return rng.standard_normal(n), rng.standard_normal(n - 1)


def _same(a, b):
    """Bit-identical float arrays (NaN and the sign of zero included)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_the_module_routines_come_from_numpy_where_numpy_ships_openblas():
    lib = _lapack._numpy_openblas()
    if lib is None:
        pytest.skip("numpy ships no OpenBLAS of its own")
    assert _lapack.dstebz.__qualname__.startswith("_bound.")


@pytest.mark.parametrize("n", SIZES)
def test_dstevd_bit_equal_to_scipy(lapack, n):
    d, e = _matrix(n)
    w, work = d.copy(), e.copy()
    assert lapack["dstevd"](w, work) == 0
    assert _same(w, scipy_lapack.dstevd(d, _padded(e), compute_v=0)[0])


@pytest.mark.parametrize("n", SIZES)
def test_dstebz_bit_equal_to_scipy(lapack, n):
    # the lowest count values by index 1..count, ordered by value, abstol 0
    d, e = _matrix(n)
    for count in sorted({1, (n + 1) // 2, n}):
        m, w, info = lapack["dstebz"](d, e, count)
        ref_m, ref_w, _, _, ref_info = scipy_lapack.dstebz(d, _padded(e), 2, 0.0, 1.0, 1,
                                                           count, 0.0, b"E")
        assert (m, info) == (ref_m, ref_info) == (count, 0), count
        assert _same(w[:m], ref_w[:ref_m]), count


@pytest.mark.parametrize("n", SIZES)
def test_dgtsv_bit_equal_to_scipy(lapack, n):
    d, e = _matrix(n)
    upper = np.cos(np.arange(n - 1.0))  # not symmetric: dl and du must not swap
    rhs = np.arange(1.0, n + 1)
    for shift in (0.5, -3.0):
        out = [e.copy(), d - shift, upper.copy(), rhs.copy()]
        info = lapack["dgtsv"](*out)
        ref = scipy_lapack.dgtsv(_padded(e), d - shift, _padded(upper), rhs)
        assert info == ref[4]
        assert _same(out[3], ref[3].ravel())
        for got, want in zip(out[:3], ref[:3]):
            assert _same(got, want[:got.size])


def test_dgtsv_reports_a_singular_system(lapack):
    d = np.array([1.0, 0.0, 1.0, 1.0])  # a zero pivot in row 2
    info = lapack["dgtsv"](np.zeros(3), d.copy(), np.zeros(3), np.ones(4))
    assert info == scipy_lapack.dgtsv(np.zeros(3), d, np.zeros(3), np.ones(4))[4] == 2


def _pttrf_cases():
    """The Sturm sweep's inputs: T - upper for exact zero pivots, one and two
    rows, and off-diagonals whose squares overflow."""
    cases = []
    for n in (3, 4, 6, 7, 9, 10, 99):  # tridiag(1, 1, 1): every third minor is 0
        cases.append((f"zero-pivots-{n}", np.ones(n), np.ones(n - 1)))
    cases += [("one-row-positive", np.array([2.0]), np.empty(0)),
              ("one-row-zero", np.array([-0.0]), np.empty(0)),
              ("one-row-negative", np.array([-1.0]), np.empty(0)),
              ("two-rows", np.array([1.0, 0.25]), np.array([0.5])),
              ("two-rows-indefinite", np.array([1.0, 0.2]), np.array([0.5]))]
    rng = np.random.default_rng(7)
    for p in (520, 800, 990):
        d, e = rng.uniform(-4.0, 4.0, 8), rng.uniform(0.5, 4.0, 7)
        cases.append((f"scaled-2^{p}", np.abs(d) * 2.0**p, e * 2.0**p))
        cases.append((f"scaled-2^{p}-indefinite", d * 2.0**p, e * 2.0**p))
    cases += [(f"random-{n}", np.abs(_matrix(n)[0]) + 1.0, _matrix(n)[1]) for n in SIZES]
    return cases


@pytest.mark.parametrize("name,d,e", _pttrf_cases(), ids=[c[0] for c in _pttrf_cases()])
def test_dpttrf_bit_equal_to_scipy(lapack, name, d, e):
    got_d, got_e = d.copy(), e.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        info = lapack["dpttrf"](got_d, got_e)
        ref_d, ref_e, ref_info = scipy_lapack.dpttrf(d, _padded(e))
    assert info == ref_info
    assert _same(got_d, ref_d) and _same(got_e, ref_e[:e.size])


@pytest.mark.parametrize("bad", [
    "int64", "short", "long", "strided", "read-only", "two-dimensional", "list"])
def test_unfit_arrays_are_refused_before_lapack_runs(lapack, bad):
    d, e = np.ones(6), np.full(5, 0.5)
    arg = {"int64": np.ones(5, dtype=np.int64), "short": np.full(4, 0.5),
           "long": np.full(6, 0.5), "strided": np.full(10, 0.5)[::2],
           "read-only": np.full(5, 0.5), "two-dimensional": np.full((5, 1), 0.5),
           "list": [0.5] * 5}[bad]
    if bad == "read-only":
        arg.flags.writeable = False
    with pytest.raises(ValueError, match="e must be a writable C-contiguous float64 array of 5"):
        lapack["dpttrf"](d, arg)
    with pytest.raises(ValueError, match="du must be"):
        lapack["dgtsv"](e.copy(), d.copy(), arg, d.copy())
    assert np.array_equal(d, np.ones(6))  # nothing ran


def test_an_empty_diagonal_is_refused(lapack):
    with pytest.raises(ValueError, match="non-empty"):
        lapack["dpttrf"](np.empty(0), np.empty(0))
