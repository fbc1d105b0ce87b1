"""Dataset caching / augmentation and the Eq. 15 sharding property."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (DiffusivityDataset, LogPermeabilityField,
                        BatchSampler, shard_batch)


@pytest.fixture
def dataset():
    return DiffusivityDataset(LogPermeabilityField(2), 10)


class TestDataset:
    def test_shapes(self, dataset):
        assert dataset.inputs_at(8).shape == (10, 1, 8, 8)
        assert dataset.nu_at(16).shape == (10, 1, 16, 16)

    def test_cache_identity(self, dataset):
        a = dataset.inputs_at(8)
        assert dataset.inputs_at(8) is a

    def test_log_transform_default(self, dataset):
        x = dataset.inputs_at(8)
        nu = dataset.nu_at(8)
        np.testing.assert_allclose(np.exp(x), nu, rtol=1e-4)

    def test_padding_multiple(self, dataset):
        padded = dataset.padded_to_multiple(4)
        assert len(padded) == 12
        np.testing.assert_array_equal(padded.omegas[10], dataset.omegas[0])

    def test_padding_noop_when_divisible(self, dataset):
        assert dataset.padded_to_multiple(5) is dataset

    def test_explicit_omegas(self):
        om = np.zeros((3, 4))
        ds = DiffusivityDataset(LogPermeabilityField(2), 0, omegas=om)
        assert len(ds) == 3

    def test_invalid_omegas_shape(self):
        with pytest.raises(ValueError):
            DiffusivityDataset(LogPermeabilityField(2), 0,
                               omegas=np.zeros((3, 2)))


class TestBatchSampler:
    def test_covers_all_indices(self):
        s = BatchSampler(10, 3)
        seen = np.concatenate(list(s.batches(0)))
        assert sorted(seen) == list(range(10))

    def test_num_batches(self):
        assert BatchSampler(10, 3).num_batches() == 4
        assert BatchSampler(9, 3).num_batches() == 3

    def test_epoch_determinism(self):
        s = BatchSampler(16, 4, seed=7)
        a = list(s.batches(3))
        b = list(s.batches(3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_epochs_differ(self):
        s = BatchSampler(64, 8, seed=7)
        a = np.concatenate(list(s.batches(0)))
        b = np.concatenate(list(s.batches(1)))
        assert not np.array_equal(a, b)

    def test_no_shuffle_is_sequential(self):
        s = BatchSampler(6, 2, shuffle=False)
        batches = list(s.batches(0))
        np.testing.assert_array_equal(np.concatenate(batches), np.arange(6))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            BatchSampler(4, 0)


class TestEq15Sharding:
    def test_union_equals_global(self):
        idx = np.arange(12)
        shards = shard_batch(idx, 4)
        np.testing.assert_array_equal(np.concatenate(shards), idx)

    def test_rank_selection(self):
        idx = np.arange(8)
        np.testing.assert_array_equal(shard_batch(idx, 4, rank=2), [4, 5])

    def test_equal_local_sizes(self):
        shards = shard_batch(np.arange(12), 3)
        assert all(len(s) == 4 for s in shards)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            shard_batch(np.arange(10), 4)

    @given(p=st.sampled_from([1, 2, 4, 8]), nb=st.integers(1, 5),
           seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_eq15_property(self, p, nb, seed):
        """U_i (LMB)_n^i == (GMB)_n for every n, any worker count
        (the exact statement of Eq. 15)."""
        n_samples = p * nb * 2
        bs = 2 * p
        sampler = BatchSampler(n_samples, bs, seed=seed)
        for gmb in sampler.batches(0):
            shards = shard_batch(gmb, p)
            np.testing.assert_array_equal(np.concatenate(shards), gmb)
            assert len({len(s) for s in shards}) == 1  # load balance
