"""Malformed suppressions: each one is itself a DET100 finding."""
import time


def measure():
    t0 = time.monotonic()  # repro: allow(DET102)
    t1 = time.monotonic()  # repro: allow(DET999): no such rule
    t2 = time.monotonic()  # repro: allow me this one
    t3 = time.monotonic()  # repro: allow(DET204): a rule that no longer exists
    return t0, t1, t2, t3
