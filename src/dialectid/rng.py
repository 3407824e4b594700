"""Deterministic 64-bit random streams (SplitMix64).

Every stochastic component of the pipeline draws from a Stream so that
results are bit-reproducible across runs, platforms and worker counts.
A stream is defined by the SplitMix64 sequence

    state_{n+1} = state_n + 0x9E3779B97F4A7C15   (mod 2^64)
    output_n    = mix64(state_{n+1})

where mix64 is the SplitMix64 finalizer.  Independent sub-streams are
derived by folding integer keys into the state with the same mixer, so
stream(seed, a, b) is stable no matter which order streams are created in.

Scalar and vector draws consume the identical underlying u64 sequence:
``uniforms(3)`` leaves the stream in the same state as three ``uniform()``
calls and returns the same values.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64_GAMMA = np.uint64(_GAMMA)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)


def _mix64(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _mix64_vec(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _U64_MIX1
    x = (x ^ (x >> np.uint64(27))) * _U64_MIX2
    return x ^ (x >> np.uint64(31))


class Stream:
    """One deterministic SplitMix64 draw sequence."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1): top 53 bits of the next output."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """Vector form of uniform(); consumes exactly n draws."""
        state = states_of([self])
        out = _uniforms(state, n)[0]
        set_states([self], state)
        return out

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound).

        Defined as min(floor(u * bound), bound - 1); the min() guards the
        rare case where u*bound rounds up to bound.  The bias of this map
        is below 2^-53 * bound, negligible for every bound used here.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        return min(int(self.uniform() * bound), bound - 1)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """Vector form of below(); consumes exactly n draws."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        u = self.uniforms(n)
        return np.minimum((u * bound).astype(np.int64), bound - 1)

    def normal(self) -> float:
        return float(self.normals(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """Standard normals by Box-Muller; consumes exactly 2n draws.

        A zero first uniform is replaced by 2^-53 (never redrawn) so the
        stream consumption is input-independent.  Normal k consumes draws
        2k and 2k+1, making n scalar calls identical to one normals(n).
        """
        u = self.uniforms(2 * n)
        u1 = np.where(u[0::2] == 0.0, 2.0**-53, u[0::2])
        u2 = u[1::2]
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using below(); consumes len(items)-1 draws."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def weighted_choice(self, weights) -> int:
        """Index drawn proportionally to nonnegative weights."""
        total = float(sum(weights))
        x = self.uniform() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += float(w)
            if x < acc:
                return i
        return len(weights) - 1


def states_of(streams: list[Stream]) -> np.ndarray:
    """The streams' states as one uint64 array, for draws from many at once."""
    return np.array([s._state for s in streams], dtype=np.uint64)


def set_states(streams: list[Stream], states: np.ndarray) -> None:
    """Hand each stream its state back from `states`, in order."""
    for s, state in zip(streams, states.tolist()):
        s._state = state


def _uniforms(states: np.ndarray, n: int) -> np.ndarray:
    """The next n uniforms of each stream state, one row per state; every
    state advances by n draws in place."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * _U64_GAMMA
    with np.errstate(over="ignore"):
        out = _mix64_vec(states[:, None] + steps)
        states += np.uint64(_GAMMA * int(n) & _MASK)
    return (out >> np.uint64(11)).astype(np.float64) * 2.0**-53


def draw_subsets(states: np.ndarray, n: int, k: int) -> np.ndarray:
    """k distinct indices from range(n) for each stream state, as the rows
    of an int array; every state advances in place.

    Each state takes min(k, n) uniforms; a partial Fisher-Yates pass swaps
    index i with i + min(floor(u_i * (n - i)), n - i - 1), all states at
    once, and the first min(k, n) indices are returned sorted.
    """
    k = min(k, n)
    u = _uniforms(states, k).T
    left = n - np.arange(k)[:, None]
    # draw i of every state as flat indices into the states' pools, side by side
    here = np.arange(k)[:, None] + np.arange(len(states)) * n
    swap = here + np.minimum((u * left).astype(np.int64), left - 1)
    pool = np.tile(np.arange(n), len(states))
    for i, j in zip(here, swap):
        pool[i], pool[j] = pool[j], pool[i]
    return np.sort(pool.reshape(len(states), n)[:, :k], axis=1)


def derive_seed(seed: int, *keys: int) -> int:
    """A fresh 64-bit seed mixed from a base seed and integer keys."""
    state = _mix64(seed & _MASK)
    for k in keys:
        state = _mix64(state ^ ((k & _MASK) * _GAMMA & _MASK))
    return state


def stream(seed: int, *keys: int) -> Stream:
    """Derive an independent stream from a seed and integer keys."""
    return Stream(derive_seed(seed, *keys))
