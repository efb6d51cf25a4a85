"""Reproducible Gaussian sampling in independently seeded blocks.

Sampling is counter based: block b of a batch draws from its own
Philox-4x64 stream keyed by (seed, b), so any block can be regenerated
without the others and parallel evaluation cannot change the draws, even
though NumPy's ziggurat, which turns the stream into normals, takes a
varying number of random words.  Every serialized output carries
GENERATOR_TAG so results are only ever compared within one generator version.

SampleBatch.map_blocks computes a function of the block index on a small
thread pool and yields the results in block order.  Each block's work is the
same whatever thread runs it, and callers reduce the results in block order,
so no output depends on the number of workers; there is no setting for it.
SampleBatch.pieces reads a block 1 MiB at a time, with the same bits.
"""

from __future__ import annotations

import collections
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from .exceptions import ResourceLimitError, _integer

GENERATOR_TAG = "philox4x64-ziggurat/2"

# Default number of blocks a batch is split into; block means feed stderr.
DEFAULT_BLOCKS = 64

# Largest block one draw may allocate, in doubles (256 MiB); the largest
# block the tests and benchmarks draw is 15,625 x 513, about 8.0 M doubles.
_MAX_BLOCK = 1 << 25

# Largest piece SampleBatch.pieces draws at once, in doubles (1 MiB).
_PIECE = 1 << 17

_T = TypeVar("_T")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity sets on this platform
        return os.cpu_count() or 1


# Threads behind map_blocks: the CPUs this process may run on, at most 4.
# The cap bounds memory: a worker that reads its block in pieces holds one
# 1 MiB piece of normals and its evaluation, plus the block's values (one
# double per sample and element), and workers + 1 blocks are in flight.
# Speed has been measured on 1 and 2 CPUs only, never with the cap applied.
_WORKERS = min(_usable_cpus(), 4)


def _block_stream(seed: int, block: int) -> np.random.Generator:
    """The one normal stream of a block; called only after the block passed the _MAX_BLOCK check."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


@dataclass(frozen=True)
class SampleBatch:
    """Lazy matrix of standard-normal draws, drawn block by block or in pieces of a block.

    Fields identify the draws completely: equal (seed, dimension, count,
    block_size) reproduce every entry bitwise under the same GENERATOR_TAG
    and NumPy version; NEP 19 does not fix Generator streams across versions.
    """

    seed: int
    dimension: int
    count: int
    block_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, 2**64 - 1))
        for name in ("dimension", "count", "block_size"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))

    @property
    def n_blocks(self) -> int:
        return -(-self.count // self.block_size)

    @property
    def n_full_blocks(self) -> int:
        return self.count // self.block_size

    def block(self, index: int) -> np.ndarray:
        """Block `index` of the draws; ResourceLimitError before allocating more than _MAX_BLOCK doubles."""
        return next(self._draw(index, self.block_size))

    def pieces(self, index: int) -> Iterator[np.ndarray]:
        """Block `index` in row pieces of at most _PIECE doubles (or one row), in turn from its one stream."""
        return self._draw(index, max(1, _PIECE // self.dimension))

    def _draw(self, index: int, rows: int) -> Iterator[np.ndarray]:
        index = _integer(index, "block index", 0, self.n_blocks - 1)
        size = min(self.block_size, self.count - index * self.block_size)
        if size * self.dimension > _MAX_BLOCK:
            raise ResourceLimitError(f"a block of {size} x {self.dimension} normals exceeds {_MAX_BLOCK} doubles")
        stream, starts = _block_stream(self.seed, index), range(0, size, rows)
        return (stream.standard_normal(size=(min(rows, size - start), self.dimension)) for start in starts)

    def map_blocks(self, fn: Callable[[int], _T], stop: int | None = None) -> Iterator[_T]:
        """Yield fn(i) for i in range(stop), strictly in block order; fn reads block(i) or pieces(i).

        stop defaults to n_blocks.  Blocks are mapped on a small thread pool
        with at most workers + 1 blocks in flight, so fn is called
        concurrently from worker threads and must be thread-safe.  An
        exception from fn at block k is raised after blocks 0..k-1 have
        been yielded, and closing the iterator early stops the pool.
        """
        stop = self.n_blocks if stop is None else _integer(stop, "stop", 0, self.n_blocks)
        workers = max(1, min(_WORKERS, stop))
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            pending = collections.deque()
            for index in range(stop):
                pending.append(pool.submit(fn, index))
                if len(pending) > workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)


def sample(seed: int, dimension: int, count: int, block_size: int | None = None) -> SampleBatch:
    """Build a SampleBatch; block_size defaults to about DEFAULT_BLOCKS blocks."""
    if block_size is None:
        block_size = max(1, _integer(count, "count", 1) // DEFAULT_BLOCKS)
    return SampleBatch(seed=seed, dimension=dimension, count=count, block_size=block_size)
