"""Bulk random draws ≡ the per-call draws they replace (DESIGN §17).

A forest draws every tree's bootstrap sample and seed in one
``integers`` call (:func:`repro.ml.forest.tree_draws`), and the lockstep
grower replays each tree's ``choice(d, k, replace=False)`` calls from
one ``integers`` call per chunk of nodes (:func:`repro.ml.tree.replay_choice`).
Both rest on one fact: ``integers`` with an array of bounds takes each
element with the bounded-draw routine ``choice`` and the scalar calls
use, from the same 32-bit stream, so successive calls continue it.

The oracles are NumPy's own calls.  Every replayed row must equal the
row ``choice`` returns, call after call, across the chunk boundaries of
the grower's draw buffer, for Floyd's method (``d <= 10000`` or
``k <= d // 50``) and for the tail shuffle; the forest's draws must
equal the per-tree loop, and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import HYPOTHESIS_SCALE

from repro.ml.forest import tree_draws
from repro.ml.tree import _DRAW_CHUNK, _FeatureDraws, choice_plan, replay_choice


def _choices(rng, d: int, k: int, m: int) -> list[np.ndarray]:
    """``m`` successive ``choice(d, k, replace=False)`` calls on ``rng``."""
    return [rng.choice(d, k, replace=False) for _ in range(m)]


def _assert_rows_equal(got, want) -> None:
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype, i
        assert g.tolist() == w.tolist(), f"call {i}: {g} != {w}"


#: Node counts past the first two chunk boundaries of a tree's buffer
#: (chunks of 8, 16, 32, ... nodes).
MAX_NODES = _DRAW_CHUNK * 3 + 4


@settings(max_examples=200 * HYPOTHESIS_SCALE, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 64),
    data=st.data(),
)
def test_grower_draws_equal_successive_choice_calls(seed, d, data):
    k = data.draw(st.integers(1, d - 1), label="k")
    m = data.draw(st.integers(1, MAX_NODES), label="nodes")
    draws = _FeatureDraws([seed], d, k)
    _assert_rows_equal(
        [draws.take([0])[0] for _ in range(m)],
        _choices(np.random.default_rng(seed), d, k, m),
    )


@settings(max_examples=40 * HYPOTHESIS_SCALE, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
    d=st.integers(2, 30),
    data=st.data(),
)
def test_interleaved_trees_each_keep_their_own_stream(seeds, d, data):
    """Trees take rows in any interleaving, several per call: each tree's
    rows are still its own generator's ``choice`` calls, in order."""
    k = data.draw(st.integers(1, d - 1), label="k")
    steps = data.draw(
        st.lists(
            st.lists(st.integers(0, len(seeds) - 1), min_size=1, unique=True),
            max_size=2 * MAX_NODES,
        ),
        label="steps",
    )
    draws = _FeatureDraws(seeds, d, k)
    got: list[list[np.ndarray]] = [[] for _ in seeds]
    for trees in steps:
        trees = sorted(trees)
        for t, row in zip(trees, draws.take(trees)):
            got[t].append(row)
    for t, seed in enumerate(seeds):
        oracle = np.random.default_rng(seed)
        _assert_rows_equal(got[t], _choices(oracle, d, k, len(got[t])))


@pytest.mark.parametrize(
    "d, k, floyd",
    [
        (10000, 300, True),  # d <= 10000
        (10001, 200, True),  # k <= d // 50
        (10001, 201, False),
        (20000, 500, False),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
def test_both_choice_branches_replay(d, k, floyd, seed):
    plan = choice_plan(d, k)
    # Floyd's method draws k values and shuffles them (k - 1 draws); the
    # tail shuffle draws once per position it fills.
    assert plan.shape[0] == (2 * k - 1 if floyd else k)
    m = 3
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, np.tile(plan, m), endpoint=True).reshape(m, -1)
    oracle = np.random.default_rng(seed)
    _assert_rows_equal(list(replay_choice(draws, d, k)), _choices(oracle, d, k, m))
    assert rng.bit_generator.state == oracle.bit_generator.state


@settings(max_examples=100 * HYPOTHESIS_SCALE, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 64),
    data=st.data(),
)
def test_replay_leaves_the_generator_where_choice_does(seed, d, data):
    k = data.draw(st.integers(1, d - 1), label="k")
    m = data.draw(st.integers(1, 12), label="calls")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, np.tile(choice_plan(d, k), m), endpoint=True)
    replayed = replay_choice(draws.reshape(m, -1), d, k)
    oracle = np.random.default_rng(seed)
    _assert_rows_equal(list(replayed), _choices(oracle, d, k, m))
    assert rng.bit_generator.state == oracle.bit_generator.state


def _per_tree_draws(rng, n: int, n_trees: int, bootstrap: bool):
    """The forest's draws as it made them, one tree at a time."""
    samples = np.empty((n_trees, n), dtype=np.intp)
    seeds = []
    for t in range(n_trees):
        samples[t] = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        seeds.append(int(rng.integers(0, 2**31 - 1)))
    return samples, seeds


@settings(max_examples=150 * HYPOTHESIS_SCALE, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    n_trees=st.integers(1, 13),
    bootstrap=st.booleans(),
)
def test_forest_draws_equal_the_per_tree_loop(seed, n, n_trees, bootstrap):
    rng = np.random.default_rng(seed)
    samples, seeds = tree_draws(rng, n, n_trees, bootstrap)
    oracle = np.random.default_rng(seed)
    want_samples, want_seeds = _per_tree_draws(oracle, n, n_trees, bootstrap)
    assert samples.shape == want_samples.shape
    assert samples.tolist() == want_samples.tolist()
    assert seeds == want_seeds
    assert all(type(s) is int for s in seeds)
    assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("bootstrap", [True, False])
def test_paper_sized_forest_draws(bootstrap):
    """The paper's 100 trees on a fold-sized sample, and one row."""
    for n in (1, 91):
        rng = np.random.default_rng(7)
        samples, seeds = tree_draws(rng, n, 100, bootstrap)
        oracle = np.random.default_rng(7)
        want_samples, want_seeds = _per_tree_draws(oracle, n, 100, bootstrap)
        assert samples.tolist() == want_samples.tolist()
        assert seeds == want_seeds
        assert rng.bit_generator.state == oracle.bit_generator.state
