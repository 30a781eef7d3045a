import numpy as np
import pytest

from clonebench import substream
from wordstream import WordReader


@pytest.mark.parametrize("k", [1, 2, 3, 15, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32])
def test_below_replays_integers(k):
    # near 2**31 + 1 about half the words are redrawn, which exercises the Lemire rejection
    rng, twin = substream(40, "below", k), substream(40, "below", k)
    with WordReader(rng) as words:
        drawn = [words.below(k) for _ in range(300)]
    assert drawn == [int(twin.integers(0, k)) for _ in range(300)]
    assert rng.bit_generator.state == twin.bit_generator.state


def test_exit_advances_by_words_consumed_not_words_read():
    rng, twin = substream(42, "advance"), substream(42, "advance")
    with WordReader(rng) as words:
        for _ in range(5):
            words.word()
    twin.integers(0, 2**32, size=5, dtype=np.uint32)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.random() == twin.random()


def test_below_rejects_empty_range():
    with WordReader(substream(43, "empty")) as words, pytest.raises(ValueError):
        words.below(0)
