"""Property tests: cbal and purity agree bit for bit with plain references.

`reference_cbal` is the list-and-dict loop (a Python generator counts each
frontier node's unqueried members every round) and `reference_purity` counts
the contingency table with two np.unique calls and np.add.at.  The library
versions work on arrays and one sort, and must return the same values,
query trails and dtypes.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffal as da
from diffal.land import ActiveResult
from diffal.metrics import _evaluable

from test_linkage_properties import grid_points

SETTINGS = settings(max_examples=80, deadline=None)


def reference_members(dend):
    members = {i: [i] for i in range(dend.n_leaves)}
    for s in range(dend.n_merges):
        a, b = int(dend.children_a[s]), int(dend.children_b[s])
        members[dend.n_leaves + s] = sorted(members[a] + members[b])
    return members


def reference_majority(labels):
    values, counts = np.unique(np.asarray(labels, dtype=np.int64), return_counts=True)
    best = int(np.lexsort((values, -counts))[0])
    return int(values[best]), float(counts[best]) / len(labels)


def reference_cbal(dend, budget, oracle, purity_threshold, sample_size, seed):
    n = dend.n_leaves
    members = reference_members(dend)
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    frontier = [dend.root_id]
    queried = {}
    while frontier and len(queried) < budget:
        node = max(frontier, key=lambda nd: (sum(1 for m in members[nd] if m not in queried), -nd))
        unqueried = [m for m in members[node] if m not in queried]
        if unqueried:
            to_ask = min(sample_size, len(unqueried), budget - len(queried))
            for k in rng.choice(len(unqueried), size=to_ask, replace=False):
                point = unqueried[int(k)]
                queried[point] = int(oracle.query(point))
        frontier.remove(node)
        label, fraction = reference_majority([queried[m] for m in members[node] if m in queried])
        if fraction >= purity_threshold or node < n:
            labels[members[node]] = label
        else:
            frontier.extend((int(dend.children_a[node - n]), int(dend.children_b[node - n])))
    global_label = reference_majority(list(queried.values()))[0]
    for node in frontier:
        node_answers = [queried[m] for m in members[node] if m in queried]
        labels[members[node]] = reference_majority(node_answers)[0] if node_answers else global_label
    return ActiveResult(
        labels=labels,
        queried_indices=np.array(list(queried), dtype=np.int64),
        queries_used=len(queried),
        queried_labels=np.array(list(queried.values()), dtype=np.int64),
    )


def reference_purity(clustering, truth):
    c, t = _evaluable(clustering, truth)
    _, c_inv = np.unique(c, return_inverse=True)
    _, t_inv = np.unique(t, return_inverse=True)
    counts = np.zeros((c_inv.max() + 1, t_inv.max() + 1), dtype=np.int64)
    np.add.at(counts, (c_inv, t_inv), 1)
    return int(counts.max(axis=1).sum()) / c.shape[0]


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def cbal_cases(draw):
    points = draw(grid_points())
    n = points.shape[0]
    truth = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=np.int64)
    return (
        points,
        truth,
        draw(st.sampled_from(["average", "single"])),
        draw(st.integers(1, n + 2)),
        draw(st.sampled_from([0.5, 0.9, 1.0])),
        draw(st.sampled_from([1, 2, 3, 5])),
        draw(st.integers(0, 2**32 - 1)),
    )


@SETTINGS
@given(cbal_cases())
def test_cbal_equals_reference(case):
    points, truth, method, budget, threshold, sample_size, seed = case
    dend = da.linkage(da.PointCloud(points), method)
    got = da.cbal(dend, budget, da.GroundTruthOracle(truth, budget),
                  purity_threshold=threshold, sample_size=sample_size, seed=seed)
    want = reference_cbal(dend, budget, da.GroundTruthOracle(truth, budget),
                          threshold, sample_size, seed)
    assert_same_array(got.labels, want.labels)
    assert_same_array(got.queried_indices, want.queried_indices)
    assert_same_array(got.queried_labels, want.queried_labels)
    assert type(got.queries_used) is int and got.queries_used == want.queries_used


def test_members_are_sorted_int64_arrays():
    points = np.random.default_rng(2).integers(0, 4, size=(40, 2)).astype(float)
    dend = da.linkage(da.PointCloud(points), "average")
    want = reference_members(dend)
    got = dend._members
    assert len(got) == 2 * dend.n_leaves - 1
    for node, members in want.items():
        assert_same_array(got[node], np.array(members, dtype=np.int64))


# small ids and ids near 2**62 and the int64 limit, where a combined
# (cluster, class) key would overflow and merge unrelated cells
LABEL_IDS = st.one_of(
    st.integers(0, 4),
    st.integers(2**62 - 3, 2**62 + 3),
    st.integers(2**63 - 4, 2**63 - 1),
)


@st.composite
def labelings(draw):
    n = draw(st.integers(1, 40))
    clustering = draw(st.lists(LABEL_IDS, min_size=n, max_size=n))
    truth = draw(st.lists(LABEL_IDS, min_size=n, max_size=n))
    if not any(truth):
        truth[draw(st.integers(0, n - 1))] = draw(st.integers(1, 4))
    return np.array(clustering, dtype=np.int64), np.array(truth, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(labelings())
# one cluster, with unlabeled points
@example((np.full(5, 7, dtype=np.int64), np.array([0, 1, 2, 2, 0], dtype=np.int64)))
# clusters 1 and 2**62 + 1 agree modulo 2**62: with 4 classes, c * 4 + t
# wraps both clusters onto the same keys
@example((np.array([1, 1, 2**62 + 1, 2**62 + 1, 2**62 + 1], dtype=np.int64),
          np.array([1, 2, 1, 3, 3], dtype=np.int64)))
@example((np.array([1, 2**62 + 1, 2**62 + 1, 1, 2**62 + 1, 1, 1], dtype=np.int64),
          np.array([1, 1, 1, 2, 2, 3, 3], dtype=np.int64)))
# class ids near the limit, and the largest cluster id
@example((np.array([2**63 - 1, 2**63 - 1, 2**63 - 1, 5], dtype=np.int64),
          np.array([2**63 - 1, 2**63 - 2, 2**63 - 2, 2**62], dtype=np.int64)))
def test_purity_equals_reference(case):
    clustering, truth = case
    assert da.purity(clustering, truth) == reference_purity(clustering, truth)
