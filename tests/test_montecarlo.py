"""Counter-based sampling: determinism pins, the law of the draws and block mapping.

The golden values below were produced by this generator version
(philox4x64-ziggurat/2) and must never change; a change means the stream is a
different generator and needs a new tag.
"""

import math
import threading

import numpy as np
import pytest
from scipy import stats

from wienerchaos import montecarlo
from wienerchaos.exceptions import ResourceLimitError, ValidationError
from wienerchaos.montecarlo import GENERATOR_TAG, _block_stream, sample


def all_draws(batch):
    # the whole (count, dimension) matrix, block after block
    return np.concatenate([batch.block(i) for i in range(batch.n_blocks)])


GOLDEN_SEED0_BLOCK0 = [
    ["0x1.463cb3872ecbdp-3", "-0x1.c6313809c831cp+0"],
    ["0x1.5396485e717b0p+0", "0x1.346e5e799d961p+0"],
    ["-0x1.40566d93c8100p-5", "-0x1.09f1537b13e67p-1"],
    ["-0x1.1d00f5f1c2bfdp+0", "-0x1.c4730912b6056p+0"],
]

GOLDEN_SEED123_BLOCK7 = [
    ["-0x1.96fd67e4c8e51p+0"],
    ["0x1.4b90841662ac5p+0"],
    ["0x1.5de5c195e897ep+0"],
]


def test_generator_tag_frozen():
    assert GENERATOR_TAG == "philox4x64-ziggurat/2"


def test_golden_values_bitwise():
    got = _block_stream(0, 0).standard_normal(size=(4, 2))
    expected = np.array([[float.fromhex(h) for h in row] for row in GOLDEN_SEED0_BLOCK0])
    assert np.array_equal(got, expected)
    got = _block_stream(123, 7).standard_normal(size=(3, 1))
    expected = np.array([[float.fromhex(h) for h in row] for row in GOLDEN_SEED123_BLOCK7])
    assert np.array_equal(got, expected)


def test_blocks_reproducible_and_distinct():
    batch = sample(seed=5, dimension=3, count=1000)
    again = sample(seed=5, dimension=3, count=1000)
    for index in (0, 10, batch.n_blocks - 1):
        assert np.array_equal(batch.block(index), again.block(index))
    assert not np.array_equal(batch.block(0), batch.block(1))
    other_seed = sample(seed=6, dimension=3, count=1000)
    assert not np.array_equal(batch.block(0), other_seed.block(0))


def test_block_regeneration_is_order_free():
    # Any block can be produced without touching earlier ones.
    batch = sample(seed=9, dimension=2, count=640)
    direct = batch.block(40)
    assert np.array_equal(direct, _block_stream(9, 40).standard_normal(size=(batch.block_size, 2)))


def test_block_plan_and_shapes():
    batch = sample(seed=0, dimension=2, count=1000)
    assert batch.block_size == 1000 // 64
    assert batch.n_blocks == math.ceil(1000 / batch.block_size)
    assert batch.block(0).shape == (batch.block_size, 2)
    # trailing partial block carries the remainder
    total = sum(block.shape[0] for block in batch.map_blocks(batch.block))
    assert total == 1000
    last = batch.block(batch.n_blocks - 1)
    assert last.shape[0] == 1000 - (batch.n_blocks - 1) * batch.block_size


def test_validation_errors():
    with pytest.raises(ValidationError):
        sample(seed=-1, dimension=2, count=100)
    with pytest.raises(ValidationError):
        sample(seed=0, dimension=0, count=100)
    with pytest.raises(ValidationError):
        sample(seed=0, dimension=2, count=0)
    batch = sample(seed=0, dimension=1, count=100)
    with pytest.raises(ValidationError):
        batch.block(batch.n_blocks)


def test_a_block_beyond_the_cap_raises_before_it_is_drawn(monkeypatch):
    # block() and pieces() both build the block's stream through
    # _block_stream; the stand-in records each stream built and the
    # doubles asked of it
    built, drawn = [], []

    class Stream:
        def standard_normal(self, size):
            drawn.append(size[0] * size[1])

    monkeypatch.setattr(montecarlo, "_block_stream", lambda seed, block: built.append(block) or Stream())
    cap = montecarlo._MAX_BLOCK
    assert cap == 2**25  # 256 MiB of doubles
    sample(0, 2, 2 * cap, block_size=cap // 2).block(0)
    list(sample(0, 2, 2 * cap, block_size=cap // 2).pieces(0))
    for draw in ("block", "pieces"):
        with pytest.raises(ResourceLimitError):
            getattr(sample(0, 2, 2 * cap, block_size=cap // 2 + 1), draw)(0)
        batch = sample(0, 1, 2**40 - 1)  # a plan allocates nothing; its blocks are too large to draw
        with pytest.raises(ResourceLimitError):
            getattr(batch, draw)(0)
    assert built == [0, 0]
    assert drawn == [cap] + [montecarlo._PIECE] * (cap // montecarlo._PIECE)


@pytest.mark.parametrize(
    "seed, dimension, block_size",
    [(0, 257, 3125), (5, 5, 3906), (2, 513, 15_625), (2**64 - 1, 257, 3125), (1, 2**17 + 3, 3)],
)
def test_pieces_concatenate_to_the_block_bit_for_bit(seed, dimension, block_size):
    # the pieces are read in turn from the block's one stream: each holds at
    # most 1 MiB of doubles, or one row when a row is wider, and together
    # they are the block's bytes, on a full and on a partial last block
    batch = sample(seed, dimension, block_size + block_size // 3 + 1, block_size=block_size)
    rows = max(1, 2**17 // dimension)
    assert montecarlo._PIECE == 2**17
    for index in (0, batch.n_blocks - 1):
        block = batch.block(index)
        done = 0
        for piece in batch.pieces(index):
            assert piece.shape == (min(rows, len(block) - done), dimension)
            assert piece.tobytes() == block[done : done + len(piece)].tobytes()
            done += len(piece)
        assert done == len(block)


def test_normals_are_finite_and_standard():
    batch = sample(seed=11, dimension=4, count=200_000)
    full = all_draws(batch)
    assert np.all(np.isfinite(full))
    assert abs(full.mean()) < 0.01
    assert abs(full.std() - 1.0) < 0.01


def test_normals_follow_the_standard_normal_law_into_the_tails():
    # 10**6 draws over 64 blocks: the whole law (KS), the mass beyond 3 and
    # beyond the ziggurat's tail cut r = 3.654..., and the fourth moment, each
    # against its exact value within 5 standard errors
    full = all_draws(sample(seed=2718, dimension=4, count=250_000)).ravel()
    n = full.size
    assert n == 10**6
    assert stats.kstest(full, "norm").pvalue > 1e-3
    for cut in (3.0, 3.6541528853610088):
        p = math.erfc(cut / math.sqrt(2))
        assert abs(np.mean(np.abs(full) > cut) - p) < 5 * math.sqrt(p * (1 - p) / n)
    # E Z^4 = 3 and Var Z^4 = E Z^8 - 9 = 96
    assert abs(np.mean(full**4) - 3.0) < 5 * math.sqrt(96 / n)


def test_map_blocks_yields_in_block_order_with_bounded_flight(monkeypatch):
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    batch = sample(seed=4, dimension=3, count=2000)
    started = []

    def first_entry(index):
        block = batch.block(index)
        started.append(float(block[0, 0]))
        return float(block[0, 0])

    expected = [float(batch.block(i)[0, 0]) for i in range(batch.n_blocks)]
    for k, value in enumerate(batch.map_blocks(first_entry)):
        assert value == expected[k]
        # at most workers + 1 blocks are in flight when block k is handed out
        assert len(started) <= k + 3
    assert sorted(started) == sorted(expected)
    assert list(batch.map_blocks(first_entry, stop=5)) == expected[:5]
    with pytest.raises(ValidationError):
        list(batch.map_blocks(first_entry, stop=batch.n_blocks + 1))


@pytest.mark.parametrize("workers", [1, 2])
def test_map_blocks_reraises_after_earlier_blocks(monkeypatch, workers):
    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    batch = sample(seed=5, dimension=2, count=640, block_size=10)
    baseline = threading.active_count()
    failing = float(batch.block(7)[0, 0])

    def fn(index):
        block = batch.block(index)
        if float(block[0, 0]) == failing:
            raise RuntimeError("block 7")
        return float(block[0, 0])

    got = []
    with pytest.raises(RuntimeError, match="block 7"):
        for value in batch.map_blocks(fn):
            got.append(value)
    assert got == [float(batch.block(i)[0, 0]) for i in range(7)]
    assert threading.active_count() == baseline


def test_closing_map_blocks_early_stops_its_threads(monkeypatch):
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    batch = sample(seed=6, dimension=4, count=64_000)
    baseline = threading.active_count()
    blocks = batch.map_blocks(lambda index: batch.block(index).sum())
    next(blocks)
    next(blocks)
    assert threading.active_count() > baseline
    blocks.close()
    assert threading.active_count() == baseline
