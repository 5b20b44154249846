"""Property-based tests (hypothesis) for the geometric substrate."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import (
    AngularSweep,
    crossing_angle_2d,
    enumerate_ksets_2d,
    skyline_bnl,
    skyline_sfs,
)
from repro.ranking import ranking, sample_functions, top_k_set

# Coordinates on a 1e-3 grid: coarse enough that score arithmetic can
# never tie at the float-ulp level (where scored comparisons and the
# exact sweep legitimately disagree), fine enough to exercise ties and
# collinearity heavily.
_points_2d = arrays(
    np.float64,
    st.tuples(st.integers(3, 25), st.just(2)),
    elements=st.floats(0.0, 1.0, allow_nan=False).map(lambda v: round(v, 3)),
)

_points_md = arrays(
    np.float64,
    st.tuples(st.integers(3, 25), st.integers(2, 4)),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)


@given(_points_2d)
@settings(max_examples=50, deadline=None)
def test_sweep_terminal_order_matches_brute_force(values):
    sweep = AngularSweep(values)
    events = sweep.run()
    # Probe strictly after the last exchange: the maintained order is the
    # ranking for every angle in (last event, π/2).
    last = events[-1].theta if events else 0.0
    probe = (last + np.pi / 2) / 2.0
    w = np.array([np.cos(probe), np.sin(probe)])
    expected = list(ranking(values, w))
    got = list(sweep.order)
    # Ties at the probe angle may order differently; compare scores.
    scores = values @ w
    assert [scores[i] for i in got] == [scores[i] for i in expected]


@given(_points_2d)
@settings(max_examples=50, deadline=None)
def test_sweep_event_count_bounded_by_pairs(values):
    n = values.shape[0]
    events = AngularSweep(values).run()
    assert len(events) <= n * (n - 1) // 2


@given(_points_2d, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_ksets_2d_cover_random_functions(values, k):
    n = values.shape[0]
    k = min(k, n)
    collection = set(enumerate_ksets_2d(values, k))
    for w in sample_functions(2, 25, rng=0):
        assert top_k_set(values, w, k) in collection


@given(_points_2d, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_ksets_2d_chain_structure(values, k):
    """Consecutive k-sets along the sweep differ in exactly one element."""
    n = values.shape[0]
    k = min(k, n)
    ksets = enumerate_ksets_2d(values, k)
    assert all(len(s) == k for s in ksets)
    for a, b in zip(ksets, ksets[1:]):
        assert len(a & b) == k - 1


@given(_points_md)
@settings(max_examples=50, deadline=None)
# Rows 0 and 3 tie on the rounded sum (1 + 1.46e-58 == 1), and row 3
# dominates row 0: SFS must not accept row 0 first.
@example(np.array([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1.4617977e-58, 0, 1, 0]]))
def test_skyline_algorithms_agree(values):
    assert np.array_equal(skyline_bnl(values), skyline_sfs(values))


@given(_points_md)
@settings(max_examples=50, deadline=None)
def test_skyline_members_are_undominated(values):
    sky = skyline_bnl(values)
    members = set(int(i) for i in sky)
    for i in members:
        for j in range(values.shape[0]):
            if j == i:
                continue
            strictly = np.all(values[j] >= values[i]) and np.any(
                values[j] > values[i]
            )
            assert not strictly


@given(
    st.tuples(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    ),
    st.tuples(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    ),
)
@settings(max_examples=200, deadline=None)
def test_crossing_angle_ties_scores(a, b):
    theta = crossing_angle_2d(a, b)
    if theta is None:
        return
    w = np.array([np.cos(theta), np.sin(theta)])
    assert abs(float(np.asarray(a) @ w) - float(np.asarray(b) @ w)) < 1e-9
