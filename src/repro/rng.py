"""The one sanctioned entropy entry point, and the keyed acquisition streams.

Seeded byte-identity (the recovery/fault/plan golden-hash suites) holds
because every random draw in the engine flows through an *owned*
``np.random.Generator``: the world stream seeded from ``WorldConfig``,
children spawned from it, operator streams reseeded by the topology,
and the fault injector's private plan-seeded stream.  Library-style
constructors still accept ``rng=None`` for standalone use — and that
fallback is the only place a fresh OS-entropy stream may be created.

Centralising the fallback here keeps it auditable: craqr-lint
(``CRQ103``/``CRQ104``, see ``docs/craqr_lint.md``) forbids unseeded
``np.random.default_rng()`` everywhere else in ``src/repro``, so a
seeded engine can be shown — statically — to never touch OS entropy or
a global stream.

The second kind of stream lives here too: a *counter-based* one.  A
sensor's placement, a strict sensor's answer to its ``c``-th request and its
``c``-th movement draw are pure functions of ``(key, sensor id, c)`` — one
Philox4x64-10 block each (Salmon, Moraes, Dror & Shaw, "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11) at counter ``(c, purpose, 0, 0)``,
where the second word separates the :data:`ANSWERS`, :data:`MOVEMENT` and
:data:`PLACEMENT` streams (placement is block 0 of its stream, under both
RNG contracts) — so they carry no generator state and any set of sensors
draws in one numpy call.  Nor does it matter how a call groups its blocks:
:func:`keyed_uniforms` draws a large call (a whole crowd's placement) in
fixed-size chunks, bit for bit the blocks of one pass.
numpy's own ``np.random.Philox`` holds one key per object; :func:`philox4x64`
is the same bijection written over ``uint64`` arrays, one key and counter
per element, and equals ``np.random.Philox(key=k, counter=c).random_raw(4)``
for the counter *after* ``c`` (numpy increments before its first block).
"""

from __future__ import annotations

from numbers import Integral
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CraqrError

__all__ = [
    "ensure_rng", "check_seed", "derive_key", "philox4x64", "keyed_uniforms", "ANSWERS",
    "MOVEMENT", "PLACEMENT",
]

#: Counter word 1 of a keyed block: what the block is drawn for.
ANSWERS = 0
MOVEMENT = 1
PLACEMENT = 2


def ensure_rng(
    rng: Optional[np.random.Generator] = None,
) -> np.random.Generator:
    """The caller's stream, or a fresh OS-entropy stream if none given.

    Engine-owned code always passes a stream; the fallback exists for
    standalone/interactive use of the library pieces, where
    reproducibility is opted into by passing a seeded generator.
    """
    if rng is not None:
        return rng
    return np.random.default_rng()


def check_seed(seed, owner: str) -> None:
    """Refuse a seed numpy would only refuse later: not ``None`` or an int >= 0."""
    if seed is None:
        return
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise CraqrError(f"{owner} seed must be None or a non-negative integer, got {seed!r}")


#: Spawn-key tag separating the keyed acquisition streams from the world
#: generator seeded from the same integer.
_ACQUISITION_STREAMS = 0x61637175  # "acqu"


def derive_key(seed: Optional[int]) -> int:
    """The 64-bit key word of ``seed``'s keyed streams, as a plain ``int``.

    Derived through ``SeedSequence`` — no generator is drawn from, so the
    world stream seeded from the same ``seed`` is consumed exactly as
    before the key existed.  ``seed=None`` takes OS entropy, like
    ``default_rng(None)``.  The result is a Python ``int`` on purpose: it
    rides in checkpoints, whose loader admits no numpy scalar types.
    """
    sequence = np.random.SeedSequence(seed, spawn_key=(_ACQUISITION_STREAMS,))
    return int(sequence.generate_state(1, np.uint64)[0])


_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
#: Philox4x64 round multipliers and Weyl key increments (Random123), one
#: row per lane: words 0 and 2 are multiplied, key words 0 and 1 bumped.
#: The 4x64 multipliers are not the 2x64 variant's ``0xD2B74407B1BE2E4D``.
_MULTIPLIERS = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_M_LO = _MULTIPLIERS & _LOW32
_M_HI = _MULTIPLIERS >> _SHIFT32
_BUMPS = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_ROUNDS = 10


def philox4x64(counter: Sequence, key: Sequence) -> Tuple[np.ndarray, ...]:
    """Philox4x64-10 over arrays: one output block per element.

    ``counter`` is four words and ``key`` two, each an ``int`` or a
    ``uint64`` array; they broadcast against each other.  Returns the four
    ``uint64`` output words, at least one-dimensional.

    A round multiplies counter words 0 and 2 into 128-bit products, so the
    two multiplications run as one ``(2, n)`` lane array: the high words
    come from 32-bit halves (Hacker's Delight ``mulhu``), the low words
    from wrap-around ``uint64`` multiplication, and the new counter is
    ``(hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)`` — lane-reversed views.
    """
    lanes = np.broadcast_shapes((1,), *(np.shape(word) for word in (*counter, *key)))
    shape = (2,) + lanes
    even = np.empty(shape, dtype=np.uint64)  # counter words 0, 2
    odd = np.empty(shape, dtype=np.uint64)  # counter words 1, 3
    keys = np.empty(shape, dtype=np.uint64)
    even[0], odd[0], even[1], odd[1] = counter
    keys[0], keys[1] = key
    for r in range(_ROUNDS):
        if r:
            keys += _BUMPS
        a_lo = even & _LOW32
        a_hi = even >> _SHIFT32
        t = a_hi * _M_LO
        t += (a_lo * _M_LO) >> _SHIFT32
        a_lo *= _M_HI
        a_lo += t & _LOW32
        high = a_hi * _M_HI
        high += t >> _SHIFT32
        high += a_lo >> _SHIFT32
        low = even * _MULTIPLIERS
        even = high[::-1]
        even ^= odd
        even ^= keys
        odd = low[::-1]
    return even[0], odd[0], even[1], odd[1]


#: ``(bits >> 11) * 2**-53``: numpy's ``Generator.random`` conversion.
_TO_UNIT = 1.0 / 9007199254740992.0
#: :func:`keyed_uniforms` runs the kernel over chunks of this many blocks
#: into one preallocated output, so a whole crowd's temporaries stay
#: cache-sized: 100 000 blocks take about 40% less time than one pass, with
#: a 4.7 MiB tracemalloc peak (3.05 MiB of it the result) against 13 MiB.
_CHUNK = 8192


def keyed_uniforms(
    key: int, ids: np.ndarray, counters: np.ndarray, purpose: int
) -> np.ndarray:
    """The four ``[0, 1)`` uniforms of block ``counters[i]`` of stream ``ids[i]``.

    Stream ``i`` is keyed ``(key, ids[i])`` and drawn at counter
    ``(counters[i], purpose, 0, 0)`` — ``purpose`` is :data:`ANSWERS`,
    :data:`MOVEMENT` or :data:`PLACEMENT`; row ``j`` of the ``(4, n)``
    result is the block's word ``j`` converted as ``Generator.random``
    converts.  A block is a pure function of its element, so the blocks are
    drawn :data:`_CHUNK` at a time, bit for bit those of one pass.
    """
    ids, counters = np.broadcast_arrays(np.atleast_1d(ids), counters)
    out = np.empty((4,) + ids.shape)
    for start in range(0, len(ids), _CHUNK):  # craqr: ignore[CRQ402] - per chunk of 8 192 blocks, not per row
        part = slice(start, start + _CHUNK)
        words = philox4x64(
            (np.asarray(counters[part], dtype=np.uint64), purpose, 0, 0),
            (key, np.asarray(ids[part], dtype=np.uint64)),
        )
        bits = np.stack(words)
        bits >>= np.uint64(11)
        np.multiply(bits, _TO_UNIT, out=out[:, part])
    return out
