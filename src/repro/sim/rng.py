"""Named, reproducible random-number streams.

Every stochastic element of the simulation (arrival process,
measurement noise, execution-time jitter, IRIX placement decisions)
draws from its own named stream derived from a single master seed.
This keeps experiments reproducible *and* comparable: changing the
scheduling policy does not perturb the arrival sequence, which mirrors
the paper's use of fixed workload trace files so that "the same set of
applications was executed in all the scheduling policies evaluated".
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from typing import Any, Dict, List, Optional, Tuple

#: ``random.NV_MAGICCONST``, computed the same way
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)

#: a Mersenne Twister state's 625 words (624 plus the index) as one
#: little-endian uint32 column
_MT_WORDS = struct.Struct("<625I")


def pack_state(rng: random.Random) -> Tuple[int, bytes, Optional[float]]:
    """*rng*'s state as ``(version, words, gauss_next)``, words packed.

    ``getstate()`` is a tuple of 625 Python ints, which pickle stores
    one boxed int at a time (~3.7 KB); the packed column is 2,500
    bytes and unpacks in one C call.  :func:`unpack_state` inverts it.
    """
    version, words, gauss_next = rng.getstate()
    return version, _MT_WORDS.pack(*words), gauss_next


def unpack_state(version: int, words: bytes,
                 gauss_next: Optional[float]) -> random.Random:
    """A generator continuing the stream :func:`pack_state` captured.

    ``Random.__new__`` with a seed argument skips ``Random.__init__``,
    whose full seeding ``setstate`` would overwrite at once; the
    argument matters on 3.10, where a bare ``__new__`` seeds from
    ``os.urandom`` (3.11 and later ignore it).
    """
    rng = random.Random.__new__(random.Random, 0)  # type: ignore[call-arg]
    rng.setstate((version, _MT_WORDS.unpack(words), gauss_next))
    return rng


def lognormal_noise(rng: random.Random, sigma: float) -> float:
    """``rng.lognormvariate(0.0, sigma)`` for a *sigma* above 0.

    The Kinderman-Monahan loop of ``random.normalvariate`` (the same on
    CPython 3.10-3.13), with its draws and float operations in the same
    order.  Its ``mu + z * sigma`` is dropped with mu = 0.0, which
    changes no bit of the result: exp(-0.0) == exp(0.0).
    :meth:`RandomStreams.lognormal_factor` draws through it, and so
    does a runtime that holds its job's generator
    (:meth:`repro.runtime.nthlib.NthLibRuntime.absorb`).
    """
    draw = rng.random
    log = math.log
    while True:
        u1 = draw()
        u2 = 1.0 - draw()
        z = _NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -log(u2):
            return math.exp(z * sigma)


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from a master seed and a name.

    The derivation uses SHA-256 so that child streams are statistically
    independent and insensitive to the order in which they are created.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named :class:`random.Random` substreams.

    Example
    -------
    >>> streams = RandomStreams(42)
    >>> a = streams.stream("arrivals")
    >>> b = streams.stream("noise")
    >>> a is streams.stream("arrivals")
    True
    >>> a is b
    False
    """

    __slots__ = ("_master_seed", "_streams")

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        """The master seed all substreams derive from."""
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self._master_seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Create an independent child factory (e.g. one per job)."""
        return RandomStreams(derive_seed(self._master_seed, f"spawn:{name}"))

    def discard(self, name: str) -> bool:
        """Forget one stream (True if it existed).

        Per-job streams (``iter-noise:<id>``) would otherwise pin one
        Mersenne Twister state per job ever processed — an unbounded
        leak for the streaming service.  Discarding is safe only for
        streams that will never be drawn again: recreating the name
        restarts it from its derived seed, not where it left off.
        """
        return self._streams.pop(name, None) is not None

    def reset(self) -> None:
        """Forget all streams; they are rebuilt deterministically."""
        self._streams.clear()

    # ------------------------------------------------------------------
    # pickling: one packed state per stream, names sorted
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # With names sorted the bytes are canonical regardless of
        # stream-creation order.
        streams: List[Tuple[str, int, bytes, Optional[float]]] = []
        for name in sorted(self._streams):
            version, words, gauss_next = pack_state(self._streams[name])
            streams.append((name, version, words, gauss_next))
        return {"master_seed": self._master_seed, "streams": streams}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._master_seed = state["master_seed"]
        self._streams = {
            name: unpack_state(version, words, gauss_next)
            for name, version, words, gauss_next in state["streams"]
        }

    def lognormal_factor(self, name: str, sigma: float) -> float:
        """Draw a multiplicative noise factor with median 1.0.

        A log-normal factor is the standard model for timing jitter:
        strictly positive and symmetric on a log scale.  ``sigma`` of 0
        always returns exactly 1.0, making noise easy to disable.
        """
        if sigma <= 0.0:
            return 1.0
        try:
            rng = self._streams[name]
        except KeyError:
            rng = self.stream(name)
        return lognormal_noise(rng, sigma)

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential variate with the given mean (>0)."""
        if mean <= 0.0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self.stream(name).expovariate(1.0 / mean)
