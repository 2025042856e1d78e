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
    # pickling: pack the Mersenne Twister state words as one column
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # Each stream's MT state is a tuple of 625 Python ints, which
        # pickle stores one boxed int at a time (~3.3 KB per stream).
        # Packing the words into a little-endian uint32 column cuts
        # that to 2.5 KB and, with names sorted, makes the bytes
        # canonical regardless of stream-creation order.
        streams: List[Tuple[str, int, bytes, Optional[float]]] = []
        for name in sorted(self._streams):
            version, words, gauss_next = self._streams[name].getstate()
            streams.append(
                (name, version, struct.pack("<%dI" % len(words), *words), gauss_next)
            )
        return {"master_seed": self._master_seed, "streams": streams}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._master_seed = state["master_seed"]
        self._streams = {}
        for name, version, blob, gauss_next in state["streams"]:
            words = struct.unpack("<%dI" % (len(blob) // 4), blob)
            rng = random.Random(0)  # repro: allow(DET103): state is overwritten by setstate() on the next line
            rng.setstate((version, words, gauss_next))
            self._streams[name] = rng

    def lognormal_factor(self, name: str, sigma: float) -> float:
        """Draw a multiplicative noise factor with median 1.0.

        A log-normal factor is the standard model for timing jitter:
        strictly positive and symmetric on a log scale.  ``sigma`` of 0
        always returns exactly 1.0, making noise easy to disable.
        """
        if sigma <= 0.0:
            return 1.0
        rng = self._streams.get(name)
        if rng is None:
            rng = self.stream(name)
        # rng.lognormvariate(0.0, sigma) inline: the Kinderman-Monahan
        # loop of random.normalvariate (the same on CPython 3.10-3.13),
        # with its draws and float operations in the same order.  Its
        # ``mu + z * sigma`` is dropped with mu = 0.0, which changes no
        # bit of the result: exp(-0.0) == exp(0.0).
        draw = rng.random
        log = math.log
        while True:
            u1 = draw()
            u2 = 1.0 - draw()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                return math.exp(z * sigma)

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential variate with the given mean (>0)."""
        if mean <= 0.0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self.stream(name).expovariate(1.0 / mean)
