"""generator_block against its specification, make_generator, and against
the numpy SeedSequence it ports."""
import numpy as np
import pytest

from icrtlab.rng import generator_block, make_generator

SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 3, 10**12]
RANDOM_REPS = np.random.default_rng(20).integers(0, 2**32, 50).tolist()


def _seed_sequence_key(seed, *spawn_key):
    return np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream,prefix", [
    (0, (1,)), (2**32 - 1, (4,)), (5, ()), (3, (2**32 - 1, 7))])
def test_keys_match_seed_sequence(seed, stream, prefix):
    blocks = [(0, 50)] + [(r, r + 1) for r in RANDOM_REPS]
    for lo, hi in blocks:
        for r, gen in zip(range(lo, hi), generator_block(seed, stream, prefix, lo, hi)):
            key = gen.bit_generator.state["state"]["key"]
            assert np.array_equal(key, _seed_sequence_key(seed, stream, *prefix, r))


@pytest.mark.parametrize("seed,stream,prefix,lo,hi,fallback", [
    (1, 0, (1,), 0, 30, False),
    (10**12, 2**32 - 1, (4, 3), 2**32 - 5, 2**32, False),
    (2**128 - 1, 2, (1,), 7, 12, False),
    (7, 2**32, (1,), 0, 5, True),
    (7, 3, (2**32 + 1,), 0, 5, True),
    (7, 3, (1,), 2**32 - 2, 2**32 + 2, True),
    (2**130 + 5, 0, (1,), 0, 5, True),
])
def test_draws_match_make_generator(seed, stream, prefix, lo, hi, fallback):
    gens = []
    for r, gen in zip(range(lo, hi), generator_block(seed, stream, prefix, lo, hi)):
        ref = make_generator(seed, stream, *prefix, r)
        assert np.array_equal(gen.random(7), ref.random(7))
        assert gen.random() == ref.random()
        gens.append(gen)
    assert len(gens) == hi - lo
    # the port re-keys one generator; the fallback makes one per replicate
    assert (len({id(g) for g in gens}) == len(gens)) is fallback


def test_empty_block():
    assert list(generator_block(1, 0, (1,), 5, 5)) == []


@pytest.mark.parametrize("seed,stream", [(-1, 0), (1, -1)])
def test_negative_input_raises_like_make_generator(seed, stream):
    with pytest.raises(ValueError) as want:
        make_generator(seed, stream, 1, 0)
    with pytest.raises(ValueError) as got:
        next(generator_block(seed, stream, (1,), 0, 3))
    assert str(got.value) == str(want.value)
