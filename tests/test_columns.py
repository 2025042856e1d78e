"""Bit-exactness suite for :mod:`repro.sim.columns`.

:class:`~repro.sim.columns.RunningMean` must match an explicit left
fold **bit for bit** — including NaN payloads, infinities and signed
zeros — and keep those bits through pickling.  Comparisons therefore
go through the packed little-endian byte representation
(``struct.pack('<d', x)``), never ``==``: two NaNs compare unequal but
must still carry identical bits, and ``0.0 == -0.0`` would hide a sign
flip.
"""

from __future__ import annotations

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.columns import BACKEND, RunningMean

#: Any finite/NaN/inf/-0.0 double — the full IEEE-754 binary64 space.
any_double = st.floats(allow_nan=True, allow_infinity=True, width=64)


def bits(values) -> bytes:
    """Packed byte image of a float vector — the bit-exact comparator."""
    return struct.pack("<%dd" % len(values), *values)


# ----------------------------------------------------------------------
# SelfAnalyzer running sums
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


def test_backend_constant_is_consistent():
    # perfbench stamps the backend into every result row
    assert BACKEND == "python"
