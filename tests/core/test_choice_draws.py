"""The choice prefetch buffer draws exactly what ``Generator.integers`` would.

:func:`repro.core.capped.draw_bins` reads power-of-two bin choices
straight from PCG64's 32-bit words. These tests pin it to
``rng.integers(0, n, size)`` value for value, and check that the
generator is left in the same state afterwards (so the stream continues
identically), on the fast path and on every fallback. The resume tests
check that a mid-block checkpoint, including one written by the code
that filled its blocks with ``rng.integers``, still replays the
uninterrupted trajectory bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.capped import CappedProcess, draw_bins

SNAPSHOT = Path(__file__).parent / "data" / "capped_midblock_snapshot.json"


def _assert_same_stream(expected_rng, actual_rng, n, size):
    expected = expected_rng.integers(0, n, size=size)
    actual = draw_bins(actual_rng, n, size)
    assert actual.dtype == expected.dtype == np.int64
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    # The generator is left in the same state, carry slot included...
    np.testing.assert_equal(actual_rng.bit_generator.state, expected_rng.bit_generator.state)
    # ...so the stream continues at the same word: the next draws agree too.
    np.testing.assert_array_equal(actual_rng.integers(0, n, 7), expected_rng.integers(0, n, 7))
    np.testing.assert_equal(actual_rng.bit_generator.state, expected_rng.bit_generator.state)


@pytest.mark.parametrize("n", [1, 2, 2**10, 2**15, 2**20])
@pytest.mark.parametrize("size", [0, 2, 2**14, 2**15 + 2, 2**21])
def test_power_of_two_fill_equals_integers(n, size):
    seed = 1000 * n.bit_length() + size % 997
    _assert_same_stream(np.random.default_rng(seed), np.random.default_rng(seed), n, size)


def test_fill_equals_integers_at_the_full_32_bit_range():
    _assert_same_stream(np.random.default_rng(3), np.random.default_rng(3), 2**32, 2**10)


@pytest.mark.parametrize(
    ("n", "size"),
    [(2**15, 2**14 + 1), (2**15, 1), (1000, 2**14), (3 * 2**10, 2**15 + 2), (2**33, 64)],
    ids=["odd-size", "size-1", "n=1000", "n=3*2^10", "n=2^33"],
)
def test_fallback_shapes_equal_integers(n, size):
    _assert_same_stream(np.random.default_rng(5), np.random.default_rng(5), n, size)


def test_fallback_when_the_uint32_carry_is_set():
    expected_rng, actual_rng = np.random.default_rng(6), np.random.default_rng(6)
    for rng in (expected_rng, actual_rng):
        rng.integers(0, 2**15, size=1)  # an odd draw leaves the high half carried
        assert rng.bit_generator.state["has_uint32"] == 1
    _assert_same_stream(expected_rng, actual_rng, 2**15, 2**14)


def test_fallback_for_other_bit_generators():
    expected_rng = np.random.Generator(np.random.Philox(7))
    actual_rng = np.random.Generator(np.random.Philox(7))
    _assert_same_stream(expected_rng, actual_rng, 2**15, 2**14)


# -- checkpoint resume through the prefetch buffer ---------------------------


def _summary(record):
    return [
        record.pool_size,
        record.accepted,
        record.deleted,
        record.max_load,
        record.wait_values.tolist(),
        record.wait_counts.tolist(),
    ]


def _run_to_mid_block(n, c, lam, seed):
    process = CappedProcess(n=n, capacity=c, lam=lam, rng=seed)
    for _ in range(200):
        process.step()
        state = process.get_state()
        if "choice_block" in state and state["choice_pos"] >= 2**12:
            return process, state
    raise AssertionError("no mid-block snapshot within 200 rounds")


@pytest.mark.parametrize("c", [1, 2])
def test_mid_block_resume_at_paper_n(c):
    n, lam = 2**15, 0.75
    process, state = _run_to_mid_block(n, c, lam, seed=11)
    assert 0 < state["choice_pos"] < state["choice_block"]
    uninterrupted = [_summary(process.step()) for _ in range(12)]

    resumed = CappedProcess(n=n, capacity=c, lam=lam, rng=999)
    resumed.set_state(json.loads(json.dumps(state)))
    assert [_summary(resumed.step()) for _ in range(12)] == uninterrupted


def test_committed_snapshot_resumes_bit_identically():
    """A mid-block snapshot written before the word-wise fill still replays.

    The fixture holds a ``get_state`` dict taken mid-block by the
    ``rng.integers``-filling code, and the 30 rounds that code ran next
    (its continuation crosses into a fresh block).
    """
    fixture = json.loads(SNAPSHOT.read_text())
    n, c, lam = fixture["n"], fixture["c"], fixture["lam"]

    resumed = CappedProcess(n=n, capacity=c, lam=lam)
    resumed.set_state(fixture["state"])
    assert [_summary(resumed.step()) for _ in fixture["following"]] == fixture["following"]

    # Today's code reaches the very same snapshot from the same seed.
    rerun = CappedProcess(n=n, capacity=c, lam=lam, rng=fixture["seed"])
    for _ in range(fixture["rounds"]):
        rerun.step()
    assert json.loads(json.dumps(rerun.get_state())) == fixture["state"]
