"""Pickle state for classes with a fixed attribute layout.

Every object a session snapshot pickles declares ``__slots__`` (see
``docs/performance.md`` §6).  Since 3.11, CPython keeps an ordinary
instance's attributes inline until something asks for its ``__dict__``;
pickling does, and from then on attribute access on that object misses
its specialised fast path.  A slotted object has no dict to
materialise, so a snapshot leaves the live simulation as fast as it
found it, and a restored one starts out fast.

Classes whose ``__getstate__`` reshapes their state (canonical sorted
sets, dropped host-side or derived attributes, packed RNG words) read
it with :func:`slot_state` and write it back with
:func:`set_slot_state`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Mapping, Tuple

_UNSET = object()


@lru_cache(maxsize=None)
def slot_names(cls: type) -> Tuple[str, ...]:
    """Every slot *cls* and its bases declare, base classes first."""
    names: List[str] = []
    for klass in reversed(cls.__mro__):
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(s for s in slots if s not in ("__dict__", "__weakref__"))
    return tuple(names)


def slot_state(obj: Any) -> Dict[str, Any]:
    """The assigned slots of *obj* by name, as a mutable pickle state.

    Unassigned slots are left out.  A subclass must declare
    ``__slots__`` too: attributes kept in an instance ``__dict__`` are
    not part of this state.
    """
    state: Dict[str, Any] = {}
    for name in slot_names(type(obj)):
        value = getattr(obj, name, _UNSET)
        if value is not _UNSET:
            state[name] = value
    return state


def set_slot_state(obj: Any, state: Mapping[str, Any]) -> None:
    """Assign every entry of *state* to *obj* (the inverse of :func:`slot_state`)."""
    for name, value in state.items():
        object.__setattr__(obj, name, value)
