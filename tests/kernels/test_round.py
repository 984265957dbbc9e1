"""Unit tests of :func:`resolve_capped_round`: hand-checkable acceptance cases.

The assertions cover the fields the simulators read — per-key and
per-bucket acceptance and the wait histogram.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import least_loaded, positional_waits, resolve_capped_round, wait_histogram
from repro.kernels.round import _resolve_counting, _resolve_unit_take


def hist(resolved):
    values, counts = resolved.wait_hist
    return dict(zip(values.tolist(), counts.tolist()))


class TestResolveCappedRound:
    def test_empty_round(self):
        free = np.array([1, 1], dtype=np.int64)
        loads = np.zeros(2, dtype=np.int64)
        resolved = resolve_capped_round(
            free, loads, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
        )
        assert resolved.accepted_total == 0
        assert resolved.accepted_per_key.tolist() == [0, 0]
        assert resolved.accepted_per_bucket.size == 0
        assert hist(resolved) == {}

    def test_clips_against_free_slots_oldest_first(self):
        # Bin 0: 3 requests (two from bucket 0, one from bucket 2), 2 free
        # — the two highest-priority ones win, the bucket-2 one is
        # rejected. free.max() > 1 exercises the count-matrix path.
        free = np.array([2, 5], dtype=np.int64)
        loads = np.array([1, 0], dtype=np.int64)
        keys = np.array([0, 0, 1, 0], dtype=np.int64)  # priority-major
        counts = np.array([2, 1, 1], dtype=np.int64)
        ages = np.array([4, 3, 1], dtype=np.int64)
        resolved = resolve_capped_round(free, loads, keys, counts, ages)
        assert resolved.accepted_total == 3
        assert resolved.accepted_per_key.tolist() == [2, 1]
        assert resolved.accepted_per_bucket.tolist() == [2, 1, 0]
        # Bin 0 positions start at load 1 → waits 4+1, 4+2; bin 1 at
        # load 0 → wait 3+0.
        assert hist(resolved) == {3: 1, 5: 1, 6: 1}

    def test_bucket_priority_splits_across_runs(self):
        # One bin, 4 free, requests from two buckets: each bucket's
        # acceptances queue behind the higher-priority ones.
        free = np.array([4], dtype=np.int64)
        loads = np.array([2], dtype=np.int64)
        keys = np.zeros(3, dtype=np.int64)
        counts = np.array([2, 1], dtype=np.int64)
        ages = np.array([7, 2], dtype=np.int64)
        resolved = resolve_capped_round(free, loads, keys, counts, ages)
        assert resolved.accepted_total == 3
        assert resolved.accepted_per_bucket.tolist() == [2, 1]
        # Bucket 0 at positions 2, 3; bucket 1 at position 4.
        assert hist(resolved) == {7 + 2: 1, 7 + 3: 1, 2 + 4: 1}

    def test_unit_take_first_touch(self):
        # free.max() == 1 → the unit-take fast path: each free key accepts
        # exactly its highest-priority requester.
        free = np.array([1, 1, 0], dtype=np.int64)
        loads = np.array([0, 2, 1], dtype=np.int64)
        # bucket 0: keys 0, 2; bucket 1: keys 0, 1.
        keys = np.array([0, 2, 0, 1], dtype=np.int64)
        counts = np.array([2, 2], dtype=np.int64)
        ages = np.array([5, 1], dtype=np.int64)
        resolved = resolve_capped_round(free, loads, keys, counts, ages)
        assert resolved.accepted_total == 2
        assert resolved.accepted_per_key.tolist() == [1, 1, 0]
        assert resolved.accepted_per_bucket.tolist() == [1, 1]
        assert hist(resolved) == {1 + 2: 1, 5 + 0: 1}

    def test_zero_free_accepts_nothing(self):
        free = np.zeros(3, dtype=np.int64)
        loads = np.array([2, 2, 2], dtype=np.int64)
        keys = np.array([0, 1, 2, 1], dtype=np.int64)
        resolved = resolve_capped_round(
            free, loads, keys, np.array([4], np.int64), np.ones(1, np.int64)
        )
        assert resolved.accepted_total == 0
        assert not resolved.accepted_per_key.any()
        assert resolved.accepted_per_bucket.tolist() == [0]
        assert hist(resolved) == {}

    def test_unit_take_path_equals_counting_path(self):
        # The dispatch condition (free <= 1 everywhere) is exactly where
        # both implementations are defined — they must agree field by
        # field on random instances, with and without queued load.
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(2, 40))
            num_buckets = int(rng.integers(1, 6))
            counts = rng.integers(0, 12, size=num_buckets).astype(np.int64)
            keys = rng.integers(0, n, size=int(counts.sum()))
            free = rng.integers(0, 2, size=n).astype(np.int64)
            loads = rng.integers(0, 4, size=n).astype(np.int64)
            if trial % 2:
                loads[:] = 0
            # Ages are distinct by construction for real callers (t − labels
            # with strictly increasing labels).
            ages = np.sort(rng.choice(30, size=num_buckets, replace=False))[::-1]
            ages = ages.astype(np.int64)
            fast = _resolve_unit_take(free, loads, keys, counts, ages)
            general = _resolve_counting(free, loads, keys, counts, ages)
            assert fast.accepted_total == general.accepted_total
            assert np.array_equal(fast.accepted_per_key, general.accepted_per_key)
            assert np.array_equal(fast.accepted_per_bucket, general.accepted_per_bucket)
            assert np.array_equal(fast.wait_hist[0], general.wait_hist[0])
            assert np.array_equal(fast.wait_hist[1], general.wait_hist[1])

    def test_zero_loads_histogram_matches_full_expansion(self):
        # With all-zero loads the unit-take path builds the wait histogram
        # straight from the bucket ages; it must agree exactly with
        # histogramming the per-ball waits (each accepted ball waits its
        # bucket's age) and with the counting path.
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            num_buckets = int(rng.integers(1, 6))
            counts = rng.integers(0, 12, size=num_buckets).astype(np.int64)
            if counts.sum() == 0:
                counts[0] = 1
            keys = rng.integers(0, n, size=int(counts.sum()))
            free = rng.integers(0, 2, size=n).astype(np.int64)
            loads = np.zeros(n, dtype=np.int64)
            ages = np.sort(rng.choice(30, size=num_buckets, replace=False))[::-1]
            ages = ages.astype(np.int64)
            resolved = resolve_capped_round(free, loads, keys, counts, ages)
            general = _resolve_counting(free, loads, keys, counts, ages)
            assert resolved.accepted_total == general.accepted_total
            assert np.array_equal(resolved.accepted_per_key, general.accepted_per_key)
            assert np.array_equal(resolved.accepted_per_bucket, general.accepted_per_bucket)
            waits = np.repeat(ages, resolved.accepted_per_bucket)
            values, tallies = wait_histogram(waits)
            assert np.array_equal(resolved.wait_hist[0], values)
            assert np.array_equal(resolved.wait_hist[1], tallies)
            assert np.array_equal(general.wait_hist[0], values)
            assert np.array_equal(general.wait_hist[1], tallies)

    def test_nonzero_loads_fall_back_to_per_key_gather(self):
        # Nonzero loads rule out the all-zero-loads shortcut (each wait is
        # its bucket's age); the histogram then comes from the per-key
        # gather ``age + load`` and must equal histogramming those waits.
        free = np.array([1, 1, 0], dtype=np.int64)
        loads = np.array([0, 2, 1], dtype=np.int64)
        keys = np.array([0, 2, 0, 1], dtype=np.int64)
        counts = np.array([2, 2], dtype=np.int64)
        ages = np.array([5, 1], dtype=np.int64)
        resolved = resolve_capped_round(free, loads, keys, counts, ages)
        values, tallies = wait_histogram(np.array([5 + 0, 1 + 2], dtype=np.int64))
        assert np.array_equal(resolved.wait_hist[0], values)
        assert np.array_equal(resolved.wait_hist[1], tallies)


def test_positional_waits_run_expansion():
    # The legacy per-bucket sweeps expand waits run by run.
    starts = np.array([5, 2], dtype=np.int64)
    lengths = np.array([3, 1], dtype=np.int64)
    assert positional_waits(starts, lengths).tolist() == [5, 6, 7, 2]
    assert positional_waits(starts[:0], lengths[:0]).size == 0


def test_least_loaded_takes_first_minimum():
    loads = np.array([2, 0, 0, 1], dtype=np.int64)
    probes = np.array([[0, 3], [3, 1], [2, 1], [0, 0]], dtype=np.int64)
    assert least_loaded(probes, loads).tolist() == [3, 1, 2, 0]
    assert least_loaded(probes[:, :1], loads).tolist() == [0, 3, 2, 0]
