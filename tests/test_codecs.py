"""Reference parity of the three codecs a restore decodes through.

Each codec was rewritten for speed — the canonical encoder caches
dataclass layouts, the Mersenne Twister state travels as one packed
column, the record journal scans each line once with the C JSON
scanner — and each must stay byte-for-byte the code it replaced.  The
replaced implementations are kept here as the references:

* :func:`reference_canonical` — the per-node ``dataclasses.fields()``
  walk that formatted a ``$.path`` at every node;
* :func:`reference_streams_state` — ``RandomStreams``'s inline packing;
* :func:`reference_load` — the per-line ``json.loads`` loader.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import hashlib
import json
import math
import pickle
import random
import struct
from typing import Any, Callable, ClassVar, Dict, List, NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.canonical import UnserialisableValue, canonical, canonical_dumps
from repro.fuzz.profiles import tier_settings
from repro.metrics.streaming import Reservoir
from repro.parallel.journal import JournalEntry as CellEntry, SweepJournal
from repro.serve.journal import ArrivalJournal, JournalEntry
from repro.sim.rng import RandomStreams, pack_state, unpack_state


# ----------------------------------------------------------------------
# canonical(): the layout-cached encoder against the per-node walk
# ----------------------------------------------------------------------
def reference_canonical(value: Any, strict: bool = False, _path: str = "$") -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: reference_canonical(getattr(value, f.name), strict, f"{_path}.{f.name}")
            for f in dataclasses.fields(value)
        }
        cls = type(value)
        body["__type__"] = f"{cls.__module__}.{cls.__qualname__}"
        return body
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__name__}.{value.name}"}
    if isinstance(value, dict):
        return {
            str(k): reference_canonical(v, strict, f"{_path}.{k}") for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [
            reference_canonical(v, strict, f"{_path}[{i}]") for i, v in enumerate(value)
        ]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if strict:
        raise UnserialisableValue(_path, value)
    return {"__repr__": repr(value)}


class Color(enum.Enum):
    RED = 1
    GREEN = "g"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"


@dataclasses.dataclass(frozen=True)
class Frozen:
    x: Any
    y: Any = None
    kind: ClassVar[str] = "not a field"


@dataclasses.dataclass(slots=True)
class Slotted:
    a: Any
    b: Any = 0


@dataclasses.dataclass(frozen=True, slots=True)
class FrozenSlotted:
    only: Any


@dataclasses.dataclass(frozen=True)
class Child(Frozen):
    z: Any = None


class Outer:
    @dataclasses.dataclass
    class Inner:
        """Its tag carries the ``Outer.Inner`` qualified name."""

        v: Any
        w: Any = dataclasses.field(default=0, init=False)


class Pair(NamedTuple):
    left: Any
    right: Any


class Opaque:
    """Only ``repr`` encodes it."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __repr__(self) -> str:
        return f"Opaque({self.n})"


class Shown:
    """A key whose ``str`` and ``format`` differ, as a mixin enum's do on 3.10."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __str__(self) -> str:
        return f"str{self.n}"

    def __format__(self, spec: str) -> str:
        return f"fmt{self.n}"


class Name(str):
    pass


class Count(int):
    pass


floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, st.text(max_size=8),
    st.sampled_from(list(Color) + list(Level) + list(Mode)),
    st.builds(Opaque, st.integers(0, 9)),
    st.sampled_from([1j, b"raw", range(3), frozenset({1, 2}), Frozen, Color, Name("n"),
                     Count(7)]),
)
keys = st.one_of(
    st.integers(-3, 3), st.text(max_size=4),
    st.sampled_from(list(Color) + list(Level) + list(Mode)), st.builds(Shown, st.integers(0, 3)),
)


def _nodes(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=3).map(collections.OrderedDict),
        st.builds(Pair, children, children),
        st.builds(Frozen, children, children),
        st.builds(Slotted, children, children),
        st.builds(FrozenSlotted, children),
        st.builds(Child, children, children, children),
        st.builds(Outer.Inner, children),
    )


values = st.recursive(leaves, _nodes, max_leaves=24)


def same(a: Any, b: Any) -> bool:
    """Structural equality that also compares types, NaN and -0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))
    return a is b or a == b


def _outcome(fn: Callable[[], Any]) -> Tuple[str, Any]:
    try:
        return "ok", fn()
    except UnserialisableValue as exc:
        return "raised", (str(exc), exc.path)


class TestCanonicalParity:
    @tier_settings("determinism")
    @given(values, st.booleans())
    def test_equals_the_reference(self, value, strict):
        got = _outcome(lambda: canonical(value, strict=strict))
        want = _outcome(lambda: reference_canonical(value, strict=strict))
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] == want[1]
        else:
            assert same(got[1], want[1])

    @tier_settings("determinism")
    @given(values)
    def test_dumps_equal_the_reference(self, value):
        want = json.dumps(reference_canonical(value), sort_keys=True, separators=(",", ":"))
        assert canonical_dumps(value) == want

    @pytest.mark.parametrize("value, path", [
        ({"a": [1, Opaque(1)]}, "$.a[1]"),
        ([Frozen(x={Level.LOW: b"x"})], "$[0].x.1"),
        (Outer.Inner(v=(0, 1, {Color.RED: {2j}})), "$.v[2].Color.RED"),
        (Pair(left=None, right=Slotted(a=1, b=object)), "$[1].b"),
        ({Shown(1): [Opaque(1)]}, "$.fmt1[0]"),
    ])
    def test_strict_error_names_the_path(self, value, path):
        with pytest.raises(UnserialisableValue) as got:
            canonical(value, strict=True)
        with pytest.raises(UnserialisableValue) as want:
            reference_canonical(value, strict=True)
        assert (str(got.value), got.value.path) == (str(want.value), want.value.path)
        assert got.value.path == path

    def test_first_unserialisable_value_wins(self):
        value = {"a": 1, "b": [Opaque(1), Opaque(2)], "c": Opaque(3)}
        with pytest.raises(UnserialisableValue) as got:
            canonical(value, strict=True)
        assert got.value.path == "$.b[0]" and got.value.value.n == 1


# ----------------------------------------------------------------------
# the Mersenne Twister state codec
# ----------------------------------------------------------------------
def reference_streams_state(streams: RandomStreams) -> Dict[str, Any]:
    """``RandomStreams.__getstate__`` as it was before the shared codec."""
    out: List[Tuple[str, int, bytes, Optional[float]]] = []
    for name in sorted(streams._streams):
        version, words, gauss_next = streams._streams[name].getstate()
        out.append((name, version, struct.pack("<%dI" % len(words), *words), gauss_next))
    return {"master_seed": streams.master_seed, "streams": out}


def _draws(rng: random.Random, n: int) -> List[Any]:
    """*n* mixed draws: uniform, bits, a Gaussian pair's cache, a range."""
    out: List[Any] = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            out.append(rng.random())
        elif kind == 1:
            out.append(rng.getrandbits(45))
        elif kind == 2:
            out.append(rng.gauss(0.0, 1.0))
        else:
            out.append(rng.randrange(1000))
    return out


#: sha256 of the pickled streams of :func:`_used_streams`, as the
#: inline packing wrote them (the same on CPython 3.10-3.13)
STREAMS_PICKLE_SHA256 = "a0ed78f7135d81f60ff122e6fdd7ae48677218152779540b68764be71b845134"


def _used_streams() -> RandomStreams:
    streams = RandomStreams(2024)
    streams.stream("zeta").random()
    streams.stream("alpha").gauss(0.0, 1.0)
    streams.lognormal_factor("iter-noise:3", 0.1)
    streams.exponential("arrivals", 4.0)
    return streams


class TestStateCodec:
    @pytest.mark.parametrize("seed, warmup", [(0, 0), (1, 1), (2**40 + 3, 625), (7, 1248)])
    @pytest.mark.parametrize("cached_gauss", [False, True])
    def test_unpack_continues_the_stream(self, seed, warmup, cached_gauss):
        rng = random.Random(seed)
        for _ in range(warmup):
            rng.random()
        if cached_gauss:
            rng.gauss(0.0, 1.0)  # leaves the pair's second value cached
        assert (rng.getstate()[2] is not None) == cached_gauss
        clone = unpack_state(*pack_state(rng))
        assert type(clone) is random.Random
        assert clone.getstate() == rng.getstate()
        assert _draws(clone, 10_000) == _draws(rng, 10_000)
        assert clone.getstate() == rng.getstate()

    def test_words_are_one_little_endian_column(self):
        rng = random.Random(5)
        version, words, gauss_next = pack_state(rng)
        assert (version, gauss_next) == rng.getstate()[::2]
        assert words == struct.pack("<625I", *rng.getstate()[1])

    def test_streams_pickle_the_same_bytes(self):
        streams = _used_streams()
        assert streams.__getstate__() == reference_streams_state(streams)
        payload = pickle.dumps(streams, protocol=4)
        assert hashlib.sha256(payload).hexdigest() == STREAMS_PICKLE_SHA256
        clone = pickle.loads(payload)
        for name in ("zeta", "alpha", "iter-noise:3", "arrivals"):
            assert _draws(clone.stream(name), 500) == _draws(streams.stream(name), 500)

    def test_reservoir_pickles_the_packed_state(self):
        res = Reservoir(capacity=4, seed=9)
        for i in range(50):
            res.add(float(i))
        state = res.__getstate__()
        assert state["rng_state"] == pack_state(res._rng)
        clone = pickle.loads(pickle.dumps(res, protocol=4))
        for i in range(200):
            res.add(float(i))
            clone.add(float(i))
        assert clone.items == res.items
        assert clone._rng.getstate() == res._rng.getstate()


# ----------------------------------------------------------------------
# the record journal loader against the per-line decoder
# ----------------------------------------------------------------------
def _old_arrival(line: str) -> JournalEntry:
    obj = json.loads(line)
    if obj.get("v") != 1:
        raise ValueError(f"unknown journal record version {obj.get('v')!r}")
    return JournalEntry(
        seq=int(obj["seq"]), job_id=int(obj["job"]), app=str(obj["app"]),
        submit=float(obj["submit"]), request=int(obj["request"]),
    )


def _old_cell(line: str) -> CellEntry:
    obj = json.loads(line)
    if obj.get("v") != 1:
        raise ValueError(f"unknown journal record version {obj.get('v')!r}")
    return CellEntry(
        key=obj["key"], digest=obj["sha256"],
        length=int(obj["bytes"]), label=obj.get("label", ""),
    )


def reference_load(raw: bytes, from_json: Callable[[str], Any]) -> Tuple[Dict[Any, Any], bool, int, bool]:
    """The per-line loader: entries, torn tail, duplicates, ragged end."""
    entries: Dict[Any, Any] = {}
    torn = False
    duplicates = 0
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            entry = from_json(line.decode("utf-8"))
            duplicate = entry.key in entries
        except (ValueError, LookupError, TypeError, AttributeError):
            torn = True
            break
        if duplicate:
            duplicates += 1
        entries[entry.key] = entry
    return entries, torn, duplicates, bool(raw) and not raw.endswith(b"\n")


def _fields(entry: Any) -> Tuple[Any, ...]:
    """An entry's slots with their types; NaN compared by its bits."""
    out = []
    for name in type(entry).__slots__:
        value = getattr(entry, name)
        if isinstance(value, float):
            value = struct.pack("<d", value)
        out.append((name, type(value), value))
    return tuple(out)


def assert_loads_like_the_reference(tmp_path, journal_type, from_json, raw: bytes) -> None:
    path = tmp_path / "j.jsonl"
    path.write_bytes(raw)
    entries, torn, duplicates, ragged = reference_load(raw, from_json)
    journal = journal_type(path, resume=True)
    journal.close()
    assert list(journal.entries) == list(entries)
    assert [_fields(e) for e in journal.entries.values()] == [_fields(e) for e in entries.values()]
    assert (journal.torn_tail, journal.duplicates) == (torn, duplicates)
    compacted = b"".join(e.to_json().encode("utf-8") + b"\n" for e in entries.values())
    assert path.read_bytes() == (compacted if torn or ragged else raw)


def _arrival(seq: int, app: str = "bt.A", submit: Any = 1.5, request: Any = 4, **extra: Any) -> bytes:
    record = {"v": 1, "seq": seq, "job": seq, "app": app, "submit": submit, "request": request}
    record.update(extra)
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


GOOD = [_arrival(1), _arrival(2, app="swim"), _arrival(3, submit=7)]

#: one journal per rule the loader keeps, as the file a crash leaves
CASES = {
    "clean": b"\n".join(GOOD) + b"\n",
    "empty": b"",
    "blank lines": b"\n \n" + GOOD[0] + b"\n\t\x0b\x0c\r\n" + GOOD[1] + b"\n\n",
    "torn tail": b"\n".join(GOOD) + b"\n" + GOOD[0][:17],
    "ragged end": b"\n".join(GOOD),
    "torn mid-file": GOOD[0] + b"\n" + GOOD[1][:-3] + b"\n" + GOOD[2] + b"\n",
    "wrong shape": GOOD[0] + b"\n[1,2]\n" + GOOD[1] + b"\n",
    "wrong version": GOOD[0] + b"\n" + _arrival(2, v=2) + b"\n",
    "missing key": GOOD[0] + b'\n{"v":1,"seq":2}\n',
    "unconvertible": GOOD[0] + b"\n" + _arrival(2, request="four") + b"\n",
    "lenient numbers": _arrival(1, request="4", submit="2.5") + b"\n" + _arrival(2, request=3.9) + b"\n",
    "trailing garbage": GOOD[0] + b"\n" + GOOD[1] + b"x\n" + GOOD[2] + b"\n",
    "two values on a line": GOOD[0] + b"\n" + GOOD[1] + b" " + GOOD[2] + b"\n",
    "json padding": b" \t" + GOOD[0] + b"\r\n" + GOOD[1] + b" \t \n",
    "non-json padding": GOOD[0] + b"\n\x0b" + GOOD[1] + b"\n",
    "unicode space line": GOOD[0] + b"\n\xc2\xa0\n" + GOOD[1] + b"\n",
    "value split over lines": GOOD[0] + b'\n{"v":1,\n"seq":2}\n',
    "invalid utf-8 mid-file": GOOD[0] + b"\n" + GOOD[1][:9] + b"\xff" + GOOD[1][9:] + b"\n" + GOOD[2] + b"\n",
    "truncated utf-8 at a line end": GOOD[0] + b"\n" + _arrival(2, app="€")[:-1][:33] + b"\n",
    "non-ascii records": _arrival(1, app="café \x85") + b"\n" + _arrival(2, app="\U0001f600") + b"\n",
    "byte order mark": b"\xef\xbb\xbf" + GOOD[0] + b"\n",
    "nan and infinity": _arrival(1, submit=math.nan) + b"\n" + _arrival(2, submit=math.inf) + b"\n",
    "duplicates": GOOD[0] + b"\n" + GOOD[1] + b"\n" + _arrival(1, request=9) + b"\n",
    "duplicate then torn": GOOD[0] + b"\n" + _arrival(1, request=9) + b"\n" + GOOD[1][:5],
    "nul-filled tail": b"\n".join(GOOD) + b"\n\x00\x00\x00\x00",
    "version true": _arrival(1, v=True) + b"\n",
}


CELL_CASES = {
    "clean": b'{"v":1,"key":"a","sha256":"d","bytes":3}\n{"v":1,"key":"b","sha256":"e","bytes":4,"label":"x"}\n',
    "unhashable key": b'{"v":1,"key":"a","sha256":"d","bytes":3}\n{"v":1,"key":["b"],"sha256":"e","bytes":4}\n',
    "duplicate": b'{"v":1,"key":"a","sha256":"d","bytes":3}\n{"v":1,"key":"a","sha256":"f","bytes":5}\n',
    "torn": b'{"v":1,"key":"a","sha256":"d","bytes":3}\n{"v":1,"key":"b","sha',
}


class TestJournalLoaderParity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_arrival_journal_cases(self, tmp_path, name):
        assert_loads_like_the_reference(tmp_path, ArrivalJournal, _old_arrival, CASES[name])

    @pytest.mark.parametrize("name", sorted(CELL_CASES))
    def test_sweep_journal_cases(self, tmp_path, name):
        assert_loads_like_the_reference(tmp_path, SweepJournal, _old_cell, CELL_CASES[name])

    def test_cases_cover_every_rule(self):
        seen = set()
        for raw in CASES.values():
            entries, torn, duplicates, ragged = reference_load(raw, _old_arrival)
            seen.update({("torn", torn), ("duplicates", duplicates > 0), ("ragged", ragged)})
        assert seen == {(rule, flag) for rule in ("torn", "duplicates", "ragged")
                        for flag in (False, True)}

    @tier_settings("determinism")
    @given(
        st.lists(
            st.one_of(
                st.builds(
                    _arrival, st.integers(1, 6),
                    st.text(max_size=5),
                    st.one_of(st.floats(), st.integers(-5, 5)),
                    st.integers(0, 64),
                ),
                st.sampled_from(sorted(set(line for raw in CASES.values()
                                           for line in raw.split(b"\n")))),
                st.binary(max_size=6),
            ),
            max_size=8,
        ),
        st.booleans(),
        st.integers(0, 40),
    )
    def test_any_journal_loads_like_the_reference(self, tmp_path_factory, lines, newline, trim):
        raw = b"\n".join(lines) + (b"\n" if newline and lines else b"")
        raw = raw[: max(0, len(raw) - trim)]  # a crash cuts the tail anywhere
        assert_loads_like_the_reference(
            tmp_path_factory.mktemp("j"), ArrivalJournal, _old_arrival, raw
        )
