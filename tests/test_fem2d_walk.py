"""The flow-cell tracker's two paths give the same times and errors bit for bit.

`trace_particle` walks a small batch one particle at a time and runs a larger
one in lockstep.  Random per-triangle fields, which need not be
divergence-free, trap, stall and turn particles on faces and diagonals far
more often than a flow-cell solution does.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareevent import fem2d
from rareevent.fem2d import StreamFunctionBatch, build_mesh, trace_particle


def outcome(field, start, h, max_steps):
    """The times as float.hex strings, or the error's type and message."""
    try:
        return [float(t).hex() for t in trace_particle(field, start, h, max_steps)]
    except Exception as exc:
        return type(exc), str(exc)


def forced(path, *args):
    """`outcome` with every batch sent down one path."""
    rows = 10**9 if path == "walk" else 0
    with mock.patch.object(fem2d, "_WALK_MAX_ROWS", rows), \
            mock.patch.object(fem2d, "_WALK_MAX_CELLS", 10**9):
        return outcome(*args)


@pytest.mark.parametrize("m, walked", [(4, 16), (8, 16), (16, 16), (32, 16), (64, 8), (128, 4)])
def test_small_batches_walk_and_larger_ones_run_in_lockstep(m, walked):
    paths = []
    with mock.patch.object(fem2d, "_walk", lambda *a: paths.append("walk")), \
            mock.patch.object(fem2d, "_lockstep", lambda *a: paths.append("lockstep")):
        for rows in (1, walked, walked + 1):
            trace_particle(StreamFunctionBatch(np.zeros((rows, m + 1, m + 1))), (0, 0.5), 1 / m)
    assert paths == ["walk", "walk", "lockstep"]


coordinate = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=st.sampled_from([4, 8, 16]), rows=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
       drift=st.sampled_from([0.0, 3.0]), zero=st.sampled_from([0.0, 0.001, 0.05]),
       axis=st.sampled_from([0.0, 0.3]),
       integral=st.booleans(), nonfinite=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       x=coordinate, y=coordinate, steps_per_side=st.integers(1, 8))
def test_a_batch_tracks_as_its_rows(m, rows, seed, drift, zero, axis, integral, nonfinite, x, y,
                                    steps_per_side):
    # fields of zero, axis-aligned and general velocities, some drifting east
    # so that most particles leave; integral ones put steps on faces and
    # diagonals exactly
    rng = np.random.default_rng(seed)
    n_tri = build_mesh(m).n_tri
    u = (rng.choice([-2.0, -1.0, 1.0, 2.0], (rows, n_tri, 2)) if integral
         else rng.standard_normal((rows, n_tri, 2)))
    u[..., 0] += drift
    u[rng.random(u.shape) < axis] = 0.0
    u[rng.random(u.shape[:2]) < zero] = 0.0
    if nonfinite is not None:
        u[rng.integers(rows), rng.integers(n_tri, size=m), rng.integers(2)] = nonfinite
    args = ((x, y), 1.0 / m, steps_per_side * m)
    batch = outcome(u, *args)
    assert batch == forced("walk", u, *args) == forced("lockstep", u, *args)
    single = [outcome(u[r:r + 1], *args) for r in range(rows)]
    if all(isinstance(s, list) for s in single):
        assert batch == sum(single, [])
    else:
        assert batch in single
