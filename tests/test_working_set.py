"""The grid layer's working set: how many grid arrays are alive at once.

Each budget counts N-point float arrays (8N bytes) at the traced heap's
high-water during one call, above what was allocated before it; numpy
reports its array buffers to tracemalloc.  A sixteenth of an array on top
covers the Python objects and coarse-grid arrays a call makes.
"""

import tracemalloc

import pytest

from exopoly import solver, susy
from exopoly.potentials import CoulombRadial, Morse, Oscillator3D, ScarfTrig
from exopoly.solver import Grid

N = 64000
SLACK = 1 / 16


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


@pytest.mark.parametrize("preset,state", [
    (Oscillator3D(l=1), lambda p: p.exceptional_state(3)),
    (Oscillator3D(l=0), lambda p: p.classical_state(2)),
    (CoulombRadial(l=1), lambda p: p.exceptional_state(2)),
    (Morse(A=4, B=2), lambda p: p.exceptional_state(1)),
    (SCARF, lambda p: p.exceptional_state(2)),
], ids=["oscillator-exceptional", "oscillator-classical", "coulomb", "morse", "scarf"])
def test_closed_form_state_holds_four_arrays(preset, state):
    # x, z and two of: the prefactor, its temporary, z - pole and the
    # polynomial's values; the normalized result is one of the four
    grid = Grid(*preset.default_domain(), N)
    closed_form = state(preset)
    assert arrays_at_peak(lambda: closed_form.on_grid(grid)) <= 4 + SLACK


def _pairings(grid):
    """The pairing check of the susy suite: 4 classical sources against 5
    exceptional targets, each made only when it is read."""
    return susy.intertwine_check(
        susy.oscillator_intertwiner(1), grid,
        (Oscillator3D(l=0).classical_state(nu).on_grid(grid) for nu in range(4)),
        (state.on_grid(grid) for state in Oscillator3D(l=1).exceptional_states(range(1, 6))))


def test_pairings_stay_within_the_solver_budget():
    # the 4 A psi and one target being made (4 arrays at most); never the
    # A psi and the 5 targets together
    grid = Grid(0.0, 14.0, N)
    assert arrays_at_peak(lambda: _pairings(grid)) <= 4 + 4 + SLACK
