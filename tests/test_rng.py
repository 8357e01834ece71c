"""The keyed-stream kernel: ``repro.rng.philox4x64`` is numpy's Philox, vectorised.

Strict acquisition draws every answer from this kernel, so it is pinned to
an outside reference twice: the Random123 known-answer vector, and numpy's
own ``np.random.Philox`` for random keys and counters.  numpy increments
the counter before it produces its first block, so ``Philox(counter=c)``'s
first block is the kernel's block at ``c + 1`` (a 256-bit increment).
"""

import numpy as np

from repro.rng import derive_key, keyed_uniforms, philox4x64

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


def test_keyed_uniforms_are_numpys_random_on_the_same_stream():
    key = derive_key(42)
    ids = np.array([0, 7, 7, 1999])
    counters = np.array([0, 0, 5, 123456789])
    u = keyed_uniforms(key, ids, counters)
    assert u.shape == (4, 4) and u.dtype == np.float64
    for j, (sensor, c) in enumerate(zip(ids.tolist(), counters.tolist())):
        generator = np.random.Generator(
            np.random.Philox(
                key=np.array([key, sensor], dtype=np.uint64),
                counter=np.array(words((c - 1) & ((1 << 256) - 1), 4), dtype=np.uint64),
            )
        )
        assert generator.random(4).tolist() == u[:, j].tolist()
    assert np.all((u >= 0.0) & (u < 1.0))


def test_keyed_uniforms_empty_and_scalar_shapes():
    assert keyed_uniforms(1, np.empty(0, dtype=np.int64), np.empty(0)).shape == (4, 0)
    assert np.shape(philox4x64((1, 2, 3, 4), (5, 6))[0]) == (1,)


def test_derive_key_is_a_plain_int_drawn_from_no_generator():
    key = derive_key(42)
    assert type(key) is int and 0 <= key <= MASK64
    assert derive_key(42) == key
    assert derive_key(43) != key

