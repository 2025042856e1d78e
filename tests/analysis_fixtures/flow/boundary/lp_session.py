"""Session-state picklability (CONC303).

``SessionRoot`` is the session root the test passes in place of the
default: everything reachable from it via attribute types must survive
pickling.  ``Recorder`` is reachable (``self.recorder = Recorder(...)``)
and stores an open file handle and a thread lock; the root itself
stores a lambda.  ``Canonical`` also holds a handle but defines
``__getstate__``, so it is trusted to canonicalise itself.
"""

import threading


class Recorder:
    def __init__(self, path):
        self.sink = open(path, "a")  # EXPECT: CONC303
        self.lock = threading.Lock()  # EXPECT: CONC303


class Canonical:
    """Defines __getstate__ — exempt from the raw-attribute scan."""

    def __init__(self):
        self.handle = open("/dev/null")

    def __getstate__(self):
        return {}


class SessionRoot:
    def __init__(self):
        self.recorder = Recorder("log.txt")
        self.canonical = Canonical()
        self.on_done = lambda: None  # EXPECT: CONC303
