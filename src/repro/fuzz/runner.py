"""Deterministic fuzz campaigns (the engine behind ``repro fuzz``).

One campaign = one (policy, seed, budget) triple driven through the
hypothesis state machine.  Campaign verdicts are deterministic: the
machine class is seeded (``machine_for``), the example database is
disabled (no cross-run memory), and shrinking is hypothesis's
deterministic greedy pass — so the same seed always explores the same
rule sequences and lands on the same shrunk counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from hypothesis import HealthCheck, settings
from hypothesis.stateful import run_state_machine_as_test

from repro.fuzz.statemachine import FailureRecord, machine_for


@dataclass
class CampaignResult:
    """Outcome of one policy's campaign."""

    policy: str
    seed: int
    budget: int
    steps: int
    stream: bool = False
    failure: Optional[FailureRecord] = None

    @property
    def ok(self) -> bool:
        """Whether the campaign finished without a counterexample."""
        return self.failure is None


def campaign_settings(budget: int, steps: int) -> settings:
    """Hypothesis settings for one deterministic campaign."""
    return settings(
        max_examples=budget,
        stateful_step_count=steps,
        database=None,  # determinism: no cross-run example memory
        deadline=None,
        suppress_health_check=(
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
            HealthCheck.filter_too_much,
        ),
    )


def run_campaign(
    policy: str, seed: int, budget: int, steps: int, stream: bool = False
) -> CampaignResult:
    """Fuzz one policy; returns the (shrunk) failure, if any.

    Hypothesis replays the minimal example last before raising, so the
    machine class's ``captured`` attribute holds the shrunk stimulus
    when the run raises.
    """
    machine = machine_for(policy, seed, stream=stream)
    result = CampaignResult(
        policy=policy, seed=seed, budget=budget, steps=steps, stream=stream
    )
    try:
        run_state_machine_as_test(
            machine, settings=campaign_settings(budget, steps)
        )
    except Exception as exc:
        failure = machine.captured
        if failure is None:
            # The harness died outside a rule (e.g. target construction).
            from repro.fuzz.stimulus import Stimulus

            failure = FailureRecord(
                stimulus=Stimulus(
                    policy=policy, seed=seed, ops=[], stream=stream
                ),
                crash=f"{type(exc).__name__}: {exc}",
            )
        result.failure = failure
    return result
