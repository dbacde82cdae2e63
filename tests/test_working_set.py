"""The grid layer's working set: how many grid arrays are alive at once.

Each budget counts N-point float arrays (8N bytes) at the traced heap's
high-water during one call, above what was allocated before it; numpy
reports its array buffers to tracemalloc.  A sixteenth of an array on top
covers the Python objects and coarse-grid arrays a call makes.  Grid
evaluations run a block of ``solver._BLOCK`` points at a time, so their
temporaries are counted in blocks: ``BLOCK`` is one block-sized array, in
grid arrays.
"""

import tracemalloc

import pytest

from exopoly import solver, susy
from exopoly.potentials import CoulombRadial, Morse, Oscillator3D, ScarfTrig
from exopoly.solver import Grid

N = 64000
SLACK = 1 / 16
BLOCK = solver._BLOCK / N


def arrays_at_peak(call, n=N) -> float:
    """The traced heap's high-water during ``call()``, in n-point arrays."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (8 * n)


SCARF = ScarfTrig(A=3, B=1, energy_shift=9.0)
SCARF_GRID = Grid(*SCARF.default_domain(), N)


def test_points_is_one_array():
    assert arrays_at_peak(SCARF_GRID.points) <= 1 + SLACK


@pytest.mark.parametrize("potential", [SCARF.potential, SCARF.extended_potential],
                         ids=["classical", "extended"])
def test_lowest_levels_holds_count_plus_four_arrays(potential):
    # at the last level's dgtsv: the 4 level vectors, the 3 work rows of the
    # refinement and the diagonal; the off-diagonal is a broadcast view
    count = 4
    solver.lowest_levels(potential, SCARF_GRID, count)  # a first call, untraced
    assert arrays_at_peak(lambda: solver.lowest_levels(potential, SCARF_GRID, count)) \
        <= count + 4 + SLACK


def test_discretize_makes_no_off_diagonal_array():
    op = solver.discretize(SCARF.potential, SCARF_GRID)
    assert op.off.strides == (0,) and not op.off.flags.writeable
    assert op.off.shape == (N - 1,)


@pytest.mark.parametrize("potential", [SCARF.potential, SCARF.extended_potential],
                         ids=["classical", "extended"])
def test_discretize_holds_the_diagonal_and_one_block(potential):
    # the diagonal, and the temporaries of one block of V: the points, the
    # sines and secants of the classical part and the poles of the extension
    # (were 5 and 6 grid arrays when V ran on the whole grid at once)
    assert arrays_at_peak(lambda: solver.discretize(potential, SCARF_GRID)) \
        <= 1 + 6 * BLOCK + SLACK


@pytest.mark.parametrize("preset,state", [
    (Oscillator3D(l=1), lambda p: p.exceptional_state(3)),
    (Oscillator3D(l=0), lambda p: p.classical_state(2)),
    (CoulombRadial(l=1), lambda p: p.exceptional_state(2)),
    (Morse(A=4, B=2), lambda p: p.exceptional_state(1)),
    (SCARF, lambda p: p.exceptional_state(2)),
], ids=["oscillator-exceptional", "oscillator-classical", "coulomb", "morse", "scarf"])
def test_closed_form_state_holds_four_arrays(preset, state):
    # at most four once, when the state ran on the whole grid; now the
    # result, normalized in place, and one block's x, z, prefactor, its
    # exponential and the polynomial's values
    grid = Grid(*preset.default_domain(), N)
    closed_form = state(preset)
    assert arrays_at_peak(lambda: closed_form.on_grid(grid)) <= 1 + 5 * BLOCK + SLACK


def _pairings(grid):
    """The pairing check of the susy suite: 4 classical sources against 5
    exceptional targets, each made only when it is read."""
    return susy.intertwine_check(
        susy.oscillator_intertwiner(1), grid,
        (Oscillator3D(l=0).classical_state(nu).on_grid(grid) for nu in range(4)),
        (state.on_grid(grid) for state in Oscillator3D(l=1).exceptional_states(range(1, 6))))


def test_pairings_stay_within_the_solver_budget():
    # the 4 A psi, one target and the residual buffer; while the sources are
    # read, 3 A psi, W's values, the source, its A psi and one block of
    # W psi; never the A psi and the 5 targets together
    grid = Grid(0.0, 14.0, N)
    assert arrays_at_peak(lambda: _pairings(grid)) <= 4 + 2 + BLOCK + SLACK


def test_operator_identity_holds_six_arrays():
    # H+ and H- (their diagonals), W's values and the three work rows every
    # test function reuses; the discretizations' block temporaries stay
    # below a seventh array (the 5 test functions were made before the call)
    n = 12000
    grid = Grid(0.8, 12.0, n)
    w = susy.oscillator_intertwiner(1)
    psis = susy.random_smooth_functions(grid, 5, seed=7)
    assert arrays_at_peak(lambda: susy.intertwining_operator_residual(w, grid, psis), n) \
        <= 7 + SLACK
