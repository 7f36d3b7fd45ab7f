import numpy as np
import pytest

from percolab.rng import Seed, derive, entropy_seed


def test_same_seed_same_stream():
    a = Seed(12345).generator().random(100)
    b = Seed(12345).generator().random(100)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = Seed(12345, 0).generator().random(10)
    b = Seed(12345, 1).generator().random(10)
    assert not np.array_equal(a, b)


def test_derive_is_pure_and_injective():
    s = Seed(99)
    assert derive(s, 7) == derive(s, 7)
    children = {derive(s, i).stream for i in range(10_000)}
    assert len(children) == 10_000


def test_derive_independent_of_order():
    s = Seed(4)
    late = derive(s, 5000)
    # no need to derive 0..4999 first; direct derivation matches
    assert late == derive(Seed(4), 5000)


def test_derive_rejects_negative_index():
    with pytest.raises(ValueError):
        derive(Seed(1), -1)


def test_seed_rejects_out_of_range():
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(2 ** 64)


def test_entropy_seed_varies():
    assert entropy_seed() != entropy_seed()
