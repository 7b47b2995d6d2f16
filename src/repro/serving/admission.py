"""Admission / load-shedding policies for the open-loop serving layer.

At every (re-)arrival the simulator asks the configured policy what to
do with the request given a snapshot of system load.  Four verdicts:

* ``ADMIT``  — enter the run queue now, at the request's own priority;
* ``DROP``   — shed permanently (the request never runs and counts as
  an SLO violation);
* ``DEFER``  — retry admission ``defer_ns`` later, keeping the original
  arrival stamp (latency keeps accruing while deferred);
* ``DEMOTE`` — admit now but at the scheduler's floor priority, keeping
  interactive traffic ahead of the shed-candidate.

Policies are deliberately tiny and deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.common.config import ServingConfig
from repro.common.errors import ConfigError
from repro.serving.request import Request


class Decision(enum.Enum):
    """Verdict of one admission consultation."""

    ADMIT = "admit"
    DROP = "drop"
    DEFER = "defer"
    DEMOTE = "demote"


@dataclass(frozen=True)
class AdmissionView:
    """Load snapshot the policy decides on.

    ``in_system`` counts admitted-but-unfinished requests (queued,
    running or blocked on I/O) — the open-loop analogue of queue depth.
    """

    now_ns: int
    in_system: int


class AdmissionPolicy:
    """Base policy: admit everything; subclasses override :meth:`judge`."""

    name = "admit_all"

    def __init__(self, queue_cap: int = 0) -> None:
        self.queue_cap = queue_cap

    def decide(self, request: Request, view: AdmissionView) -> Decision:
        """The simulator's entry point: judge one (re-)arrival."""
        return self.judge(request, view)

    def judge(self, request: Request, view: AdmissionView) -> Decision:
        """The verdict itself; subclasses override this."""
        return Decision.ADMIT

    @property
    def saturated_label(self) -> str:
        """Human label of the over-cap action (tables, docs)."""
        return self.name


class DropWhenFull(AdmissionPolicy):
    """Shed arrivals outright while the system is at capacity."""

    name = "drop"

    def judge(self, request: Request, view: AdmissionView) -> Decision:
        """Shed at the cap, admit below it."""
        if view.in_system >= self.queue_cap:
            return Decision.DROP
        return Decision.ADMIT


class DeferWhenFull(AdmissionPolicy):
    """Push back: over-cap arrivals retry a little later."""

    name = "defer"

    def judge(self, request: Request, view: AdmissionView) -> Decision:
        """Defer at the cap, admit below it."""
        if view.in_system >= self.queue_cap:
            return Decision.DEFER
        return Decision.ADMIT


class DemoteWhenFull(AdmissionPolicy):
    """Admit over-cap arrivals at the scheduler's floor priority."""

    name = "demote"

    def judge(self, request: Request, view: AdmissionView) -> Decision:
        """Demote at the cap, admit below it."""
        if view.in_system >= self.queue_cap:
            return Decision.DEMOTE
        return Decision.ADMIT


ADMISSION_POLICIES: Dict[str, type[AdmissionPolicy]] = {
    "admit_all": AdmissionPolicy,
    "drop": DropWhenFull,
    "defer": DeferWhenFull,
    "demote": DemoteWhenFull,
}
"""Every admission policy, keyed by the ``ServingConfig.admission`` name."""


def build_admission(serving: ServingConfig) -> AdmissionPolicy:
    """Instantiate the policy named by *serving* (validated upstream)."""
    cls = ADMISSION_POLICIES.get(serving.admission)
    if cls is None:
        raise ConfigError(
            f"unknown admission policy {serving.admission!r}; "
            f"known: {', '.join(ADMISSION_POLICIES)}"
        )
    return cls(queue_cap=serving.queue_cap)
