"""PDPA policy parameters.

The paper names three parameters, all modifiable at runtime (§4.2):

1. ``high_eff`` — the efficiency considered very good,
2. ``target_eff`` — the target efficiency the administrator imposes,
3. ``step`` — processors added/removed per allocation change.

The evaluation uses ``target_eff = 0.7`` and ``high_eff = 0.9``.

Our implementation adds the secondary knobs the paper mentions in
passing: the default multiprogramming level PDPA starts from (four in
the evaluation), the limit on STABLE exits that prevents ping-pong
effects, and a small hysteresis band around the thresholds used when
re-evaluating STABLE applications.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(slots=True)
class PDPAParams:
    """Runtime-tunable PDPA parameters.

    Attributes
    ----------
    target_eff:
        Minimum acceptable efficiency; allocations whose measured
        efficiency falls below it are reduced.
    high_eff:
        Efficiency considered very good; allocations above it are
        grown, and it also scales the RelativeSpeedup requirement.
    step:
        Processors added or removed per transition.
    base_mpl:
        Multiprogramming level PDPA admits unconditionally (the
        "default multiprogramming level of four applications" in the
        evaluation); beyond it, admission requires system stability.
    max_stable_exits:
        Maximum number of times one application may leave the STABLE
        state, "to avoid ping-pong effects".
    stable_hysteresis:
        Relative slack applied to the thresholds when deciding whether
        a STABLE application should move (e.g. 0.05 means efficiency
        must fall 5% below ``target_eff`` before leaving STABLE).
    """

    target_eff: float = 0.7
    high_eff: float = 0.9
    step: int = 4
    base_mpl: int = 4
    max_stable_exits: int = 4
    stable_hysteresis: float = 0.05

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check parameter consistency; raises ``ValueError``."""
        if not 0.0 < self.target_eff <= 1.5:
            raise ValueError(f"target_eff must be in (0, 1.5], got {self.target_eff}")
        if self.high_eff < self.target_eff:
            raise ValueError(
                f"high_eff ({self.high_eff}) must be >= target_eff ({self.target_eff})"
            )
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.base_mpl < 1:
            raise ValueError(f"base_mpl must be >= 1, got {self.base_mpl}")
        if self.max_stable_exits < 0:
            raise ValueError(f"max_stable_exits must be >= 0, got {self.max_stable_exits}")
        if self.stable_hysteresis < 0:
            raise ValueError(f"stable_hysteresis must be >= 0, got {self.stable_hysteresis}")

    def with_target(self, target_eff: float) -> "PDPAParams":
        """Copy with a new target efficiency (dynamic retargeting).

        The paper notes the target "alternatively [...] is dynamically
        set depending on the load of the system"; this helper supports
        that usage.
        """
        return replace(self, target_eff=target_eff, high_eff=max(self.high_eff, target_eff))
