"""The keyed-stream kernel: ``repro.rng.philox4x64`` is numpy's Philox, vectorised.

Strict acquisition draws every answer, and strict movement every move, from
this kernel, so it is pinned to an outside reference twice: the Random123
known-answer vector, and numpy's own ``np.random.Philox`` for random keys
and counters — answers at counter ``(c, 0, 0, 0)``, moves at ``(c, 1, 0,
0)``.  numpy increments the counter before it produces its first block, so
``Philox(counter=c)``'s first block is the kernel's block at ``c + 1`` (a
256-bit increment).
"""

import tracemalloc

import numpy as np
import pytest

from repro import rng
from repro.rng import ANSWERS, MOVEMENT, PLACEMENT, derive_key, keyed_uniforms, philox4x64

MASK64 = (1 << 64) - 1


def words(value, count):
    return [(value >> (64 * i)) & MASK64 for i in range(count)]


def numpy_block(key, counter):
    """numpy's first Philox4x64-10 block after ``counter``."""
    return np.random.Philox(
        key=np.array(key, dtype=np.uint64), counter=np.array(counter, dtype=np.uint64)
    ).random_raw(4)


def test_random123_known_answer():
    # philox4x64_10, counter 0, key 0 (Random123's kat_vectors).  A kernel
    # with the 2x64 variant's multiplier 0xD2B74407B1BE2E4D fails here.
    block = philox4x64((0, 0, 0, 0), (0, 0))
    assert [hex(int(word[0])) for word in block] == [
        "0x16554d9eca36314c",
        "0xdb20fe9d672d0fdc",
        "0xd7e772cee186176b",
        "0x7e68b68aec7ba23b",
    ]


def test_matches_numpy_philox_for_random_keys_and_counters():
    rng = np.random.default_rng(20240607)
    keys = [words(int.from_bytes(rng.bytes(16), "little"), 2) for _ in range(64)]
    counters = [int.from_bytes(rng.bytes(32), "little") for _ in range(64)]
    # The carry chain of numpy's increment: word 0 (and all four) overflow.
    counters[:2] = [MASK64, (1 << 256) - 1]
    expected = np.array(
        [numpy_block(key, words(c, 4)) for key, c in zip(keys, counters)]
    ).T
    successors = [words((c + 1) & ((1 << 256) - 1), 4) for c in counters]
    # One call over all 64 (key, counter) pairs: per-element keys and counters.
    got = philox4x64(
        [np.array(column, dtype=np.uint64) for column in zip(*successors)],
        [np.array(column, dtype=np.uint64) for column in zip(*keys)],
    )
    assert np.array_equal(np.array(got), expected)


def test_movement_counter_word_matches_numpy_philox_including_carries():
    # Block c of a movement stream is at counter (c, 1, 0, 0), the 256-bit
    # integer c + 2**64.  numpy's counter is one less: for c == 0 that is
    # (2**64 - 1, 0, 0, 0), whose increment carries into word 1.
    rng = np.random.default_rng(20261015)
    keys = [words(int.from_bytes(rng.bytes(16), "little"), 2) for _ in range(32)]
    blocks = [0, 1, MASK64, MASK64 - 1] + [
        int.from_bytes(rng.bytes(8), "little") for _ in range(28)
    ]
    expected = np.array(
        [
            numpy_block(key, words(c + (MOVEMENT << 64) - 1, 4))
            for key, c in zip(keys, blocks)
        ]
    ).T
    got = philox4x64(
        (np.array(blocks, dtype=np.uint64), MOVEMENT, 0, 0),
        [np.array(column, dtype=np.uint64) for column in zip(*keys)],
    )
    assert np.array_equal(np.array(got), expected)


def numpy_stream(key, sensor, first, count, purpose):
    """Blocks ``first .. first + count - 1`` of a keyed stream as numpy's ``Generator.random``.

    One ``np.random.Philox`` per stream: it runs through consecutive
    counters itself, so the result is a ``(count, 4)`` array.
    """
    counter = (first + (purpose << 64) - 1) & ((1 << 256) - 1)
    generator = np.random.Generator(
        np.random.Philox(
            key=np.array([key, sensor], dtype=np.uint64),
            counter=np.array(words(counter, 4), dtype=np.uint64),
        )
    )
    return generator.random(4 * count).reshape(count, 4)


def numpy_uniforms(key, sensor, c, purpose):
    """``Generator.random(4)`` of numpy's Philox at block ``(c, purpose, 0, 0)``."""
    return numpy_stream(key, sensor, c, 1, purpose)[0].tolist()


@pytest.mark.parametrize("purpose", [ANSWERS, MOVEMENT])
def test_keyed_uniforms_are_numpys_random_on_the_same_stream(purpose):
    key = derive_key(42)
    ids = np.array([0, 7, 7, 1999])
    counters = np.array([0, 0, 5, 123456789])
    u = keyed_uniforms(key, ids, counters, purpose)
    assert u.shape == (4, 4) and u.dtype == np.float64
    for j, (sensor, c) in enumerate(zip(ids.tolist(), counters.tolist())):
        assert numpy_uniforms(key, sensor, c, purpose) == u[:, j].tolist()
    assert np.all((u >= 0.0) & (u < 1.0))


def test_answer_and_movement_blocks_of_one_counter_differ():
    key = derive_key(42)
    ids = np.arange(64)
    counters = np.arange(64) * 3
    answers = keyed_uniforms(key, ids, counters, ANSWERS)
    moves = keyed_uniforms(key, ids, counters, MOVEMENT)
    assert not np.any(answers == moves)


#: ``keyed_uniforms`` draws this many blocks at a time.
CHUNK = rng._CHUNK
STREAMS = 97  # prime, so no stream lines up with a chunk edge


@pytest.mark.parametrize("purpose", [ANSWERS, MOVEMENT, PLACEMENT])
@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("scalar_counter", [True, False])
def test_keyed_uniforms_around_the_chunk_size_are_numpys(purpose, n, scalar_counter):
    # Element i draws from stream 1000 + i % 97: at counter 5, or at block
    # i // 97 of its stream, so every stream's blocks run consecutively.
    key = derive_key(1234)
    i = np.arange(n)
    ids = 1000 + i % STREAMS
    if scalar_counter:
        counters, first, per_stream = 5, 5, 1
    else:
        counters, first, per_stream = i // STREAMS, 0, -(-n // STREAMS)
    table = np.array(
        [
            numpy_stream(key, 1000 + sensor, first, per_stream, purpose)
            for sensor in range(min(n, STREAMS))
        ]
    )
    u = keyed_uniforms(key, ids, counters, purpose)
    assert u.shape == (4, n) and u.dtype == np.float64
    if n:
        expected = table[i % STREAMS, 0 if scalar_counter else i // STREAMS].T
        assert u.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_a_crowd_sized_call_stays_within_its_chunks():
    # 100 000 blocks: the (4, n) result is 3.05 MiB; one pass over the
    # whole crowd peaked near 13 MiB of temporaries.
    ids = np.arange(100_000)
    tracemalloc.start()
    try:
        keyed_uniforms(derive_key(42), ids, 0, PLACEMENT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_keyed_uniforms_empty_and_scalar_shapes():
    empty = keyed_uniforms(1, np.empty(0, dtype=np.int64), np.empty(0), MOVEMENT)
    assert empty.shape == (4, 0)
    assert np.shape(philox4x64((1, 2, 3, 4), (5, 6))[0]) == (1,)


def test_derive_key_is_a_plain_int_drawn_from_no_generator():
    key = derive_key(42)
    assert type(key) is int and 0 <= key <= MASK64
    assert derive_key(42) == key
    assert derive_key(43) != key

