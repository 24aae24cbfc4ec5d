"""Seeded random-number streams.

Every sampler takes an explicit numpy Generator.  Generators are derived from
a (seed, stream) pair through the counter-based Philox algorithm, so the same
(seed, stream) always reproduces the same numbers regardless of platform or
of how replicates are distributed across workers.

make_generator is the specification.  generator_block derives the same
generators for a block of replicate indices at once: it computes their Philox
keys with a vectorised port of SeedSequence's hash (pool size 4, after
O'Neill's seed_seq) and re-keys a single Philox per replicate.
"""
from __future__ import annotations

import numpy as np


def make_generator(seed: int, stream: int = 0, *subkeys: int) -> np.random.Generator:
    """Generator for a (seed, stream) pair, optionally refined by subkeys.

    Replicate r of an experiment uses make_generator(seed, stream, r); the
    derivation only depends on the indices, never on worker assignment.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in (stream, *subkeys)))
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's constants (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hash step: (hashed value, next hash constant).  value
    is a Python int below 2**32 or a uint32 array; const is a Python int.
    Mixing entropy into the pool multiplies by _MULT_A, generate_state by
    _MULT_B."""
    nxt = const * mult & _MASK
    value = (value ^ const) * nxt & _MASK
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
    return r ^ r >> 16


def _philox_keys(seed, head, reps):
    """Philox keys, shape (len(reps), 2), of SeedSequence(seed,
    spawn_key=(*head, r)) for each r in reps (a uint32 array).

    seed < 2**128 and every spawn word < 2**32, so the entropy is the seed's
    four 32-bit words (zero-padded, as SeedSequence pads when a spawn key is
    present) followed by one word per spawn key entry.
    """
    const = _INIT_A
    pool = []
    for i in range(4):
        v, const = _hashmix(seed >> 32 * i & _MASK, const)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    pool = [np.full(reps.size, v, dtype=np.uint32) for v in pool]
    for w in (*head, reps):
        for dst in range(4):
            h, const = _hashmix(w, const)
            pool[dst] = _mix(pool[dst], h)
    # generate_state(2, uint64): four hashed pool words, little-endian pairs
    const = _INIT_B
    state = []
    for v in pool:
        v, const = _hashmix(v, const, _MULT_B)
        state.append(v.astype(np.uint64))
    return np.stack((state[0] | state[1] << 32, state[2] | state[3] << 32), axis=1)


def generator_block(seed, stream, prefix, lo, hi):
    """Generators of make_generator(seed, stream, *prefix, r) for
    r = lo, ..., hi - 1, in order.

    The one Generator it yields is re-keyed for each r: use it before asking
    for the next.  Inputs outside the port's domain (a negative value, a
    spawn word of 2**32 or more, a seed of 2**128 or more) go through
    make_generator, which also raises its errors.
    """
    seed, lo, hi = int(seed), int(lo), int(hi)
    head = (int(stream), *(int(k) for k in prefix))
    if (not 0 <= seed < 1 << 128 or lo < 0 or hi > 1 << 32
            or any(not 0 <= w <= _MASK for w in head)):
        for r in range(lo, hi):
            yield make_generator(seed, *head, r)
        return
    keys = _philox_keys(seed, head, np.arange(lo, hi, dtype=np.uint64).astype(np.uint32))
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    inner = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
    state = {"bit_generator": "Philox", "state": inner,
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for key in keys:
        inner["key"] = key
        bitgen.state = state
        yield gen
