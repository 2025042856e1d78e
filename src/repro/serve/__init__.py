"""Open-system streaming scheduler service (ROADMAP item 2).

``repro serve`` runs the QS/RM/Simulator stack as a long-lived
process: jobs arrive continuously from a seeded generator or an SWF
stream, admission control sheds load deterministically when the
bounded ingress queue fills, metrics fold incrementally into
:class:`~repro.metrics.streaming.StreamingStats` (memory is
independent of jobs processed), periodic checkpoint envelopes plus an
fsync'd arrival journal make a SIGKILL recoverable with byte-identical
aggregates, and a heartbeat/watchdog pair keeps the process honest
about liveness.

Modules
-------
* :mod:`repro.serve.source` — arrival sources (synthetic Poisson
  stream, SWF file/FIFO stream).
* :mod:`repro.serve.journal` — the fsync'd arrival journal.
* :mod:`repro.serve.session` — :class:`ServeSession` (saveable
  open-system session) and the arrival pump.
* :mod:`repro.serve.service` — the long-lived process: run loop,
  signal handling, heartbeat, watchdog.
"""

from repro.serve.journal import ArrivalJournal, JournalEntry, JournalWriteError
from repro.serve.session import (
    ArrivalPump,
    ServeConfig,
    ServeSession,
    StreamDivergenceError,
    build_serve_session,
)
from repro.serve.source import ArrivalSource, SwfSource, SyntheticSource
from repro.serve.service import (
    EXIT_DEADLOCK,
    EXIT_STORAGE,
    EXIT_WEDGED,
    ServeService,
    read_status,
    write_status_payload,
)

__all__ = [
    "ArrivalJournal",
    "JournalEntry",
    "JournalWriteError",
    "ArrivalPump",
    "ServeConfig",
    "ServeSession",
    "StreamDivergenceError",
    "build_serve_session",
    "ArrivalSource",
    "SwfSource",
    "SyntheticSource",
    "ServeService",
    "read_status",
    "write_status_payload",
    "EXIT_WEDGED",
    "EXIT_DEADLOCK",
    "EXIT_STORAGE",
]
