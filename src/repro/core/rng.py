"""Seeded random-number handling.

Reproducibility matters for the study: the synthetic two-year trace, the
calibration drift, and the stochastic transpiler passes must all be exactly
repeatable from a single seed.  :class:`RandomSource` wraps
``numpy.random.Generator`` and supports deterministic child-stream derivation
so independent subsystems do not perturb each other's streams.  Where a hot
path needs many streams, :func:`seed_words` seeds them all in one
vectorised pass, and :meth:`RandomSource.spawn_many` builds a batch of
spawned streams that way.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

SeedLike = Union[int, None, "RandomSource", np.random.Generator]


def derive_seed(base_seed: int, *names: object) -> int:
    """Derive a new deterministic seed from a base seed and a name path.

    The derivation hashes the textual path so that adding a new consumer of
    randomness does not shift the streams of existing consumers.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode("utf-8"))
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "little")


def derive_seeds(base_seed: int, names: Sequence[object],
                 keys: Iterable[object]) -> List[int]:
    """``[derive_seed(base_seed, *names, key) for key in keys]``.

    The path shared by every key is hashed once; each key then costs one
    copy of that SHA-256 state and one update.
    """
    prefix = hashlib.sha256("/".join(
        [str(int(base_seed)), *map(str, names), ""]).encode("utf-8"))
    seeds = []
    for key in keys:
        digest = prefix.copy()
        digest.update(str(key).encode("utf-8"))
        seeds.append(int.from_bytes(digest.digest()[:8], "little"))
    return seeds


# The constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
#: PCG64 seeds itself from ``generate_state(4, np.uint64)``.
_PCG64_WORDS = 4


def _xorshift16(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> np.uint32(16))


def seed_words(seeds: Sequence[int]) -> np.ndarray:
    """The PCG64 seed words of ``np.random.default_rng(s)`` for many seeds.

    Runs NumPy's ``SeedSequence`` entropy mixing (pool size 4, no spawn
    key) lane-wise over uint32 arrays, so row ``i`` of the ``(n, 4)``
    uint64 result equals
    ``np.random.SeedSequence(seeds[i]).generate_state(4, np.uint64)``.
    Seeds must lie in ``[0, 2**64)``.  Such a seed is one or two 32-bit
    entropy words, and a pool slot past the entropy hashes a zero word,
    so a seed below ``2**32`` mixes exactly like one with a zero high word.
    """
    lanes = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        return _xorshift16(value * np.uint32(hash_const))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _xorshift16(np.uint32(_MIX_MULT_L) * x
                           - np.uint32(_MIX_MULT_R) * y)

    low = (lanes & np.uint64(_MASK32)).astype(np.uint32)
    high = (lanes >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))

    # generate_state(4, np.uint64): eight uint32 words cycling over the
    # pool, paired little-endian into four uint64 words.
    state = np.empty((lanes.shape[0], 2 * _PCG64_WORDS), dtype="<u4")
    hash_const = _INIT_B
    for word in range(2 * _PCG64_WORDS):
        value = pool[word % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        state[:, word] = _xorshift16(value * np.uint32(hash_const))
    return state.view("<u8").astype(np.uint64)


class SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed :func:`seed_words` row.

    ``np.random.Generator(np.random.PCG64(SeedWords(seed_words([s])[0])))``
    draws exactly what ``np.random.default_rng(s)`` draws: PCG64 seeds
    itself from the same four words, and NumPy's samplers make every draw.
    """

    def __init__(self, words: np.ndarray):
        self._words = np.ascontiguousarray(words, dtype=np.uint64)
        if self._words.shape != (_PCG64_WORDS,):
            raise ValueError("SeedWords holds exactly 4 uint64 words")

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _PCG64_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError(
                "SeedWords only serves PCG64's request for 4 uint64 words, "
                f"not {n_words} of {np.dtype(dtype)}")
        return self._words


def generator_from_words(words: np.ndarray) -> np.random.Generator:
    """The NumPy generator ``default_rng`` builds for a :func:`seed_words` row."""
    return np.random.Generator(np.random.PCG64(SeedWords(words)))


#: ``Generator.choice``'s tolerance on the sum of float64 weights.
_WEIGHT_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

#: Distinct weight vectors whose CDF :func:`_weight_cdf` keeps.
WEIGHT_CDF_MEMO = 512


def _kahan_sum(values: Sequence[float]) -> float:
    """The compensated sum ``Generator.choice`` checks weights with."""
    total = values[0]
    carry = 0.0
    for value in values[1:]:
        term = value - carry
        partial = total + term
        carry = (partial - total) - term
        total = partial
    return total


@functools.lru_cache(maxsize=WEIGHT_CDF_MEMO)
def _weight_cdf(weights: Tuple[float, ...]) -> Tuple[float, ...]:
    """The CDF ``Generator.choice(len(p), p=p)`` searches, checked as it
    checks ``p``.

    NumPy rejects weights that are not one-dimensional, whose Kahan sum is
    NaN, that hold a negative entry, or whose Kahan sum is off 1 by more
    than ``sqrt(eps)``, with these ``ValueError`` messages, and then
    searches ``cumsum(p) / cumsum(p)[-1]``.  The CDF is returned as a
    tuple, so a memoised one cannot be changed; weights that fail a check
    raise on every call.
    """
    p = np.array(weights, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    total = _kahan_sum(p.tolist())
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _WEIGHT_SUM_ATOL:
        raise ValueError("Probabilities do not sum to 1. See Notes section "
                         "of docstring for more information.")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


class RandomSource:
    """A named, seedable random stream with deterministic child streams."""

    def __init__(self, seed: SeedLike = 0, name: str = "root"):
        if isinstance(seed, RandomSource):
            self._seed = seed._seed
            self.name = seed.name
            self._generator = seed._generator
            return
        if isinstance(seed, np.random.Generator):
            self._seed = None
            self.name = name
            self._generator = seed
            return
        self._seed = 0 if seed is None else int(seed)
        self.name = name
        self._generator = np.random.default_rng(self._seed)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._generator

    @property
    def seed(self) -> Optional[int]:
        """The integer seed, if the source was seed-constructed."""
        return self._seed

    def child_seed(self, *names: object) -> int:
        """Derive the integer seed of the child stream keyed by ``names``."""
        base = self._seed if self._seed is not None else 0
        return derive_seed(base, self.name, *names)

    def child(self, *names: object) -> "RandomSource":
        """Create an independent child stream keyed by ``names``."""
        label = self.name + "/" + "/".join(str(n) for n in names)
        return RandomSource(self.child_seed(*names), name=label)

    def spawn_seed(self, key: object) -> int:
        """Derive the integer seed of the spawned stream for ``key``.

        Spawned seeds live in their own namespace, separate from
        :meth:`child`, so a shard runner that spawns per-shard streams can
        never collide with subsystem child streams of the same name.
        """
        base = self._seed if self._seed is not None else 0
        return derive_seed(base, self.name, "#spawn", key)

    def spawn(self, key: object) -> "RandomSource":
        """Create an independently seeded stream for a shard or worker.

        Unlike :meth:`child`, which is meant for named subsystems hanging off
        one generator tree, ``spawn`` is the entry point for *horizontal*
        parallelism: every shard/worker/job index gets a stream that is fully
        determined by ``(root seed, root name, key)`` and therefore identical
        no matter which process, worker count, or shard layout produced it.
        """
        return RandomSource(self.spawn_seed(key), name=f"{self.name}#{key}")

    def spawn_many(self, keys: Sequence[object], lane: object, lanes: int
                   ) -> Tuple[List["RandomSource"], np.ndarray]:
        """``[self.spawn(key) for key in keys]``, plus the seed words of the
        first ``lanes`` children ``child(lane, i)`` of each of those streams.

        Every seed comes from its shared SHA-256 prefix (:func:`derive_seeds`)
        and all of them are mixed in one :func:`seed_words` pass; each
        stream's generator is built from its row, so no ``SeedSequence``
        is made.  The streams draw exactly what ``spawn`` streams draw.
        Returns the streams and a ``(len(keys), lanes, 4)`` array whose row
        ``[j, i]`` seeds ``self.spawn(keys[j]).child(lane, i)``.
        """
        keys = list(keys)
        base = self._seed if self._seed is not None else 0
        seeds = derive_seeds(base, (self.name, "#spawn"), keys)
        names = [f"{self.name}#{key}" for key in keys]
        lane_seeds = [seed for spawned, name in zip(seeds, names)
                      for seed in derive_seeds(spawned, (name, lane),
                                               range(lanes))]
        words = seed_words(seeds + lane_seeds)
        streams = [RandomSource._from_words(seed, name, row)
                   for seed, name, row in zip(seeds, names, words)]
        return streams, words[len(keys):].reshape(
            len(keys), lanes, _PCG64_WORDS)

    @classmethod
    def _from_words(cls, seed: int, name: str,
                    words: np.ndarray) -> "RandomSource":
        """``RandomSource(seed, name)``, given the :func:`seed_words` row
        of ``seed``."""
        source = cls.__new__(cls)
        source._seed = seed
        source.name = name
        source._generator = generator_from_words(words)
        return source

    # -- thin convenience wrappers -------------------------------------------------

    def random(self) -> float:
        return float(self._generator.random())

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._generator.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._generator.integers(low, high))

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        return float(self._generator.normal(loc, scale))

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        return float(self._generator.lognormal(mean, sigma))

    def exponential(self, scale: float = 1.0) -> float:
        return float(self._generator.exponential(scale))

    def choice(self, options: Sequence, p: Optional[Sequence[float]] = None):
        """Choose one element of ``options`` (optionally weighted).

        The pick, and every later draw of the stream, equals
        ``Generator.choice(len(options), p=p)``'s, without NumPy's per-call
        argument handling: an unweighted pick is ``integers(0, n)``, and a
        weighted one is a ``random()`` draw searched, ``side="right"``, in
        the CDF :func:`_weight_cdf` checks and builds once per distinct
        weight vector.  It raises NumPy's ``ValueError`` for empty
        ``options`` and for weights of the wrong length or that fail
        NumPy's checks.  A NumPy array of weights, whose dtype sets NumPy's
        tolerance, is handed to ``Generator.choice`` itself.
        """
        size = len(options)
        if not size:
            raise ValueError("a must be a positive integer unless no "
                             "samples are taken")
        if p is None:
            return options[int(self._generator.integers(0, size))]
        if isinstance(p, np.ndarray):
            return options[int(self._generator.choice(size, p=p))]
        if len(p) != size:
            raise ValueError("a and p must have same size")
        cdf = _weight_cdf(tuple(p))
        return options[bisect.bisect_right(cdf, self._generator.random())]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._generator.shuffle(items)

    def __repr__(self) -> str:
        return f"RandomSource(name={self.name!r}, seed={self._seed!r})"

