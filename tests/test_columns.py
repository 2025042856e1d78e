"""Kernel-parity suite for the columnar hot core.

Every batched kernel in :mod:`repro.sim.columns` must match its
retained scalar reference **bit for bit** — including NaN payloads,
infinities and signed zeros.  Comparisons therefore go through the
packed little-endian byte representation (``struct.pack('<d', x)``),
never ``==``: two NaNs compare unequal but must still carry identical
bits, and ``0.0 == -0.0`` would hide a sign flip.
"""

from __future__ import annotations

import math
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.columns import (
    BACKEND,
    CpuColumns,
    IterationColumns,
    NO_OWNER,
    RunningMean,
)

#: Any finite/NaN/inf/-0.0 double — the full IEEE-754 binary64 space.
any_double = st.floats(allow_nan=True, allow_infinity=True, width=64)


def bits(values) -> bytes:
    """Packed byte image of a float vector — the bit-exact comparator."""
    return struct.pack("<%dd" % len(values), *values)


# ----------------------------------------------------------------------
# burst accounting: batched kernels vs the scalar path
# ----------------------------------------------------------------------
@st.composite
def burst_scripts(draw):
    """A machine size plus rounds of (seize, advance, release) steps."""
    n = draw(st.integers(min_value=1, max_value=72))
    rounds = draw(st.integers(min_value=1, max_value=4))
    script = []
    for _ in range(rounds):
        take = draw(st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=0, max_size=n, unique=True,
        ))
        dt = draw(st.floats(min_value=0.0, max_value=1e6))
        script.append((take, dt))
    return n, script


@settings(deadline=None, max_examples=100)
@given(data=burst_scripts())
def test_seize_release_match_scalar_path(data):
    """The release/flush kernels leave the same columns with or without ``emit``.

    The same script driven with and without a burst sink must leave
    byte-identical columns (busy/since accumulate floats;
    owner/switches are exact ints).
    """
    n, script = data
    fast = CpuColumns(n)
    slow = CpuColumns(n)
    sink = lambda *args: None  # noqa: E731 - a burst sink that drops bursts
    now = 0.0
    job = 1
    for take, dt in script:
        free = [i for i in take if fast.owner[i] == NO_OWNER]
        fast.seize(free, job, f"app{job}", now)
        slow.seize(free, job, f"app{job}", now)
        now += dt
        owned = [i for i in range(n) if fast.owner[i] != NO_OWNER]
        fast.release(owned, now)
        slow.release(owned, now, emit=sink)
        job += 1
    fast.flush_all(now + 1.0)
    slow.flush_all(now + 1.0, emit=sink)
    assert bits(fast.busy) == bits(slow.busy)
    assert bits(fast.since) == bits(slow.since)
    assert list(fast.owner) == list(slow.owner)
    assert list(fast.switches) == list(slow.switches)
    assert fast.app == slow.app


def test_release_zero_length_partition_is_noop():
    cols = CpuColumns(4)
    before = cols.__getstate__()
    cols.seize([], 7, "app7", 1.0)
    cols.release([], 2.0)
    assert cols.__getstate__() == before


def test_cpu_columns_pickle_roundtrip_is_canonical():
    cols = CpuColumns(30)
    cols.seize(list(range(0, 30, 2)), 3, "swim", 1.5)
    cols.release(list(range(0, 30, 4)), 2.25)
    clone = pickle.loads(pickle.dumps(cols))
    assert clone.__getstate__() == cols.__getstate__()
    # the envelope is packed bytes, not object lists
    state = cols.__getstate__()
    assert isinstance(state["busy"], bytes) and len(state["busy"]) == 30 * 8
    assert isinstance(state["owner"], bytes) and len(state["owner"]) == 30 * 8


# ----------------------------------------------------------------------
# SelfAnalyzer running-sum columns
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=200)
@given(samples=st.lists(
    st.tuples(any_double, st.integers(min_value=1, max_value=128)),
    min_size=1, max_size=32,
))
def test_running_mean_matches_list_fold(samples):
    """``total += x`` per sample must equal an explicit left fold.

    The comparator is ``acc = acc + x`` from 0.0, *not* the ``sum``
    builtin: CPython 3.12+ sums floats with Neumaier compensation, and
    NaN-payload propagation differs between the two foldings even on
    older interpreters.  The left fold is the contract — bit-identical
    through NaN/inf/-0.0 payloads.
    """
    fold = RunningMean()
    for value, procs in samples:
        fold.add(value, procs)
    retained = [value for value, _ in samples]
    acc = 0.0
    for value in retained:
        acc = acc + value
    assert bits([fold.total]) == bits([acc])
    assert bits([fold.mean]) == bits([acc / len(retained)])
    assert fold.count == len(retained)
    assert fold.max_procs == max(procs for _, procs in samples)


def test_running_mean_empty_raises_and_clears():
    fold = RunningMean()
    with pytest.raises(ValueError):
        fold.mean
    fold.add(2.0, 4)
    fold.clear()
    assert fold.count == 0 and fold.max_procs == 0
    with pytest.raises(ValueError):
        fold.mean


@settings(deadline=None, max_examples=100)
@given(samples=st.lists(
    st.tuples(any_double, st.integers(min_value=1, max_value=128)),
    min_size=0, max_size=16,
))
def test_running_mean_pickle_preserves_bits(samples):
    fold = RunningMean()
    for value, procs in samples:
        fold.add(value, procs)
    clone = pickle.loads(pickle.dumps(fold))
    assert bits([clone.total]) == bits([fold.total])
    assert (clone.count, clone.max_procs) == (fold.count, fold.max_procs)


# ----------------------------------------------------------------------
# iteration-log columns
# ----------------------------------------------------------------------
finite_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=512),
        st.floats(allow_nan=False, allow_infinity=True, width=64),
    ),
    max_size=32,
)


@settings(deadline=None, max_examples=100)
@given(rows=finite_rows)
def test_iteration_columns_behave_like_list_of_tuples(rows):
    log = IterationColumns()
    for row in rows:
        log.append(row)
    assert log == rows
    assert list(log) == rows
    assert len(log) == len(rows)
    assert log[:] == rows
    if rows:
        assert log[0] == rows[0]
        assert log[-1] == rows[-1]
        assert log[1:-1] == rows[1:-1]


@settings(deadline=None, max_examples=100)
@given(rows=st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=512),
        any_double,
    ),
    max_size=32,
))
def test_iteration_columns_pickle_preserves_bits(rows):
    log = IterationColumns()
    for row in rows:
        log.append(row)
    clone = pickle.loads(pickle.dumps(log))
    # == cannot see through NaN durations (NaN != NaN); the bit-exact
    # column comparison below is the real check
    if not any(math.isnan(d) for d in log.durations):
        assert clone == log
    assert bits(clone.durations) == bits(log.durations)
    assert list(clone.iterations) == list(log.iterations)
    assert list(clone.procs) == list(log.procs)
    state = log.__getstate__()
    assert all(isinstance(blob, bytes) for blob in state.values())


def test_iteration_columns_inequality():
    log = IterationColumns()
    log.append((0, 4, 1.25))
    assert log != [(0, 4, 1.5)]
    assert log != [(0, 4, 1.25), (1, 4, 1.0)]
    assert (log == object()) is NotImplemented or log != object()


def test_backend_constant_is_consistent():
    # perfbench stamps the backend into every result row
    assert BACKEND == "python"
