"""repro.analysis — the determinism sanitizer.

Two layers guard the repo's core contract (byte-identical output
across serial, parallel and resumed execution):

* **Static** — :mod:`repro.analysis.linter` walks source ASTs for
  determinism hazards (wall-clock reads, unseeded RNG, set-order
  iteration, float time equality, unstable sort keys, mutable
  defaults, directory-order enumeration, environment reads) with a
  configurable rule catalogue and justified inline suppressions.
  Exposed as ``repro lint``.
* **Runtime** — :mod:`repro.analysis.race` observes the DES engine for
  same-timestamp event cohorts whose order is decided only by
  insertion sequence — the discrete-event analogue of a data race.
  Exposed as ``--sanitize`` on experiment commands.

See ``docs/static-analysis.md`` for the rule catalogue and how the
sanitizer relates to the byte-identity and chaos suites.
"""
