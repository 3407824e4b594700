import numpy as np

from dialectid.rng import Stream, derive_seed, draw_subsets, states_of, stream


def test_scalar_vector_equivalence():
    a = stream(123, 1, 2)
    b = stream(123, 1, 2)
    scalars = [a.uniform() for _ in range(40)]
    assert np.array_equal(np.array(scalars), b.uniforms(40))


def test_normals_match_scalar_path():
    a = stream(5)
    b = stream(5)
    got = [a.normal() for _ in range(10)]
    assert np.array_equal(np.array(got), b.normals(10))


def test_integers_match_below():
    a = stream(9)
    b = stream(9)
    xs = [a.below(17) for _ in range(100)]
    assert np.array_equal(np.array(xs), b.integers(100, 17))
    assert all(0 <= x < 17 for x in xs)


def test_streams_differ_by_key():
    assert stream(1, 2).next_u64() != stream(1, 3).next_u64()
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1, 2) == derive_seed(1, 2)


def test_subset_is_sorted_distinct():
    states = states_of([stream(7)])
    for _ in range(50):     # each draw advances the state in place
        got = draw_subsets(states, 12, 5)[0].tolist()
        assert got == sorted(got)
        assert len(set(got)) == 5
        assert all(0 <= v < 12 for v in got)
    assert draw_subsets(states_of([stream(3)]), 4, 10)[0].tolist() == [0, 1, 2, 3]


def test_shuffle_deterministic_permutation():
    items = list(range(20))
    stream(41).shuffle(items)
    again = list(range(20))
    stream(41).shuffle(again)
    assert items == again
    assert sorted(items) == list(range(20))


def test_weighted_choice_respects_zero_weights():
    rng = stream(8)
    draws = {rng.weighted_choice([0.0, 1.0, 0.0]) for _ in range(50)}
    assert draws == {1}


def test_uniform_range():
    rng = Stream(0)
    xs = rng.uniforms(1000)
    assert np.all((xs >= 0.0) & (xs < 1.0))
