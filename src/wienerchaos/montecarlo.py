"""Reproducible Gaussian sampling in independently seeded blocks.

Sampling is counter based: block b of a batch draws from its own
Philox-4x64 stream keyed by (seed, b), so any block can be regenerated
without the others and parallel evaluation cannot change the draws, even
though NumPy's ziggurat, which turns the stream into normals, takes a
varying number of random words.  Every serialized output carries
GENERATOR_TAG so results are only ever compared within one generator version.

SampleBatch.map_blocks computes a per-block function on a small thread
pool and yields the results in block order.  Each block's work is the same
whatever thread runs it, and callers reduce the results in block order, so
no output depends on the number of workers; there is no setting for it.
"""

from __future__ import annotations

import collections
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from .exceptions import ValidationError

GENERATOR_TAG = "philox4x64-ziggurat/2"

# Default number of blocks a batch is split into; block means feed stderr.
DEFAULT_BLOCKS = 64

_T = TypeVar("_T")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity sets on this platform
        return os.cpu_count() or 1


# Threads behind map_blocks: the CPUs this process may run on, at most 4.
# The cap bounds memory: a block's normals dominate what a worker holds
# (6.4 MB at N = 257 in blocks of 3,125; 64 MB at N = 513 in blocks of
# 15,625, the 10^6-sample case), and workers + 1 blocks are in flight.
# Speed has been measured on 1 and 2 CPUs only, never with the cap applied.
_WORKERS = min(_usable_cpus(), 4)


def _block_normals(seed: int, block: int, size: int, dimension: int) -> np.ndarray:
    bitgen = np.random.Philox(key=np.array([seed, block], dtype=np.uint64))
    return np.random.Generator(bitgen).standard_normal(size=(size, dimension))


@dataclass(frozen=True)
class SampleBatch:
    """Lazy matrix of standard-normal draws, drawn block by block.

    Fields identify the draws completely: equal (seed, dimension, count,
    block_size) reproduce every entry bitwise under the same GENERATOR_TAG
    and NumPy version; NEP 19 does not fix Generator streams across versions.
    """

    seed: int
    dimension: int
    count: int
    block_size: int

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not isinstance(self.dimension, int) or isinstance(self.dimension, bool) or self.dimension < 1:
            raise ValidationError(f"dimension must be a positive integer, got {self.dimension!r}")
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 1:
            raise ValidationError(f"count must be a positive integer, got {self.count!r}")
        if not isinstance(self.block_size, int) or isinstance(self.block_size, bool) or self.block_size < 1:
            raise ValidationError(f"block_size must be a positive integer, got {self.block_size!r}")

    @property
    def n_blocks(self) -> int:
        return -(-self.count // self.block_size)

    @property
    def n_full_blocks(self) -> int:
        return self.count // self.block_size

    def block(self, index: int) -> np.ndarray:
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < self.n_blocks:
            raise ValidationError(f"block index must be an integer in 0..{self.n_blocks - 1}, got {index!r}")
        size = min(self.block_size, self.count - index * self.block_size)
        return _block_normals(self.seed, index, size, self.dimension)

    def map_blocks(self, fn: Callable[[np.ndarray], _T], stop: int | None = None) -> Iterator[_T]:
        """Yield fn(self.block(i)) for i in range(stop), strictly in block order.

        stop defaults to n_blocks.  Blocks are drawn and mapped on a small
        thread pool with at most workers + 1 blocks in flight, so fn is
        called concurrently from worker threads and must be thread-safe.
        An exception from fn at block k is raised after blocks 0..k-1 have
        been yielded, and closing the iterator early stops the pool.
        """
        stop = self.n_blocks if stop is None else stop
        if not isinstance(stop, int) or isinstance(stop, bool) or not 0 <= stop <= self.n_blocks:
            raise ValidationError(f"stop must be an integer in 0..{self.n_blocks}, got {stop!r}")
        workers = max(1, min(_WORKERS, stop))
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            pending = collections.deque()
            for index in range(stop):
                pending.append(pool.submit(lambda i: fn(self.block(i)), index))
                if len(pending) > workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)


def sample(seed: int, dimension: int, count: int, block_size: int | None = None) -> SampleBatch:
    """Build a SampleBatch; block_size defaults to about DEFAULT_BLOCKS blocks."""
    if block_size is None:
        if not isinstance(count, int) or count < 1:
            raise ValidationError(f"count must be a positive integer, got {count!r}")
        block_size = max(1, count // DEFAULT_BLOCKS)
    return SampleBatch(seed=seed, dimension=dimension, count=count, block_size=block_size)
