"""Stateful protocol fuzzing for the RM/QS/runtime coordination protocol.

ROADMAP item 5: before the engine is partitioned or vectorised, the
protocol the paper defines — QS↔RM coordinated admission, NthLib
malleability at iteration boundaries, SelfAnalyzer-driven reallocation,
fault recovery — needs an adversarial harness.  This package provides:

* :mod:`repro.fuzz.oracle` — the *incremental* oracle callable on
  live state between any two events: :mod:`repro.validate`'s own
  run checker and stream audit, plus the checks that need the live
  object graph (CPU conservation, job conservation, allocation bounds,
  MPL respect, policy sync, no wedge).
* :mod:`repro.fuzz.targets` — a live Simulator+RM+QS session wrapped
  as a fuzzable target, for each space-sharing policy, including
  checkpoint round-trips at arbitrary cut points.
* :mod:`repro.fuzz.stimulus` — the op vocabulary (arrival, progress,
  fault, repair, crash, forced allocation, checkpoint) with a JSON
  codec, so any interleaving is replayable.
* :mod:`repro.fuzz.statemachine` — the hypothesis
  ``RuleBasedStateMachine`` driving arbitrary interleavings with the
  oracle asserted after every rule.
* :mod:`repro.fuzz.corpus` — shrunk counterexamples written as
  deterministic corpus files under ``tests/fuzz_corpus/`` and replayed
  through the checkpoint/replay machinery as pinned regressions.
* :mod:`repro.fuzz.differential` — the same stimulus replayed under
  every policy; policies may disagree on *who* gets CPUs, never on
  *how many exist*.
* :mod:`repro.fuzz.profiles` — tiered hypothesis settings
  (``ci`` / ``dev`` / ``nightly``) shared with the whole test suite.

The ``repro fuzz`` CLI subcommand drives a deterministic campaign:
same seed, same rule sequence, same verdict.  ``repro fuzz --stream``
points the same machine at the open-system serve stack
(:mod:`repro.serve`): bounded-ingress admission, mid-campaign pruning,
and the stream invariants (``validate_stream``) asserted after every
rule.
"""
