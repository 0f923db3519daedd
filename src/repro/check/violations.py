"""Structured invariant-violation reporting.

A violation is first produced as a lightweight :class:`Finding` (pure
data, cheap to collect in bulk) and promoted by the harness to an
:class:`InvariantViolation` exception that carries everything needed to
reproduce the failing run from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

__all__ = ["Finding", "InvariantViolation"]


@dataclass(frozen=True)
class Finding:
    """One invariant breach, as produced by the checker functions."""

    #: invariant name (one of :data:`repro.check.harness.INVARIANTS`)
    invariant: str
    #: human-readable statement of what was violated
    message: str
    #: simulated time the breach was observed at (None = end-of-run state)
    time: Optional[float] = None
    #: offending node id, when one node is to blame
    node: Optional[int] = None


class InvariantViolation(AssertionError):
    """A protocol invariant failed during a checked run.

    Subclasses :class:`AssertionError` so pytest renders violations as
    assertion failures.  The message embeds the seed / time / node /
    checkpoint and a short description of the run context, which is the
    one-command repro recipe: re-run the same config (or corpus entry)
    with the same seed and the same violation fires at the same instant.
    """

    def __init__(
        self,
        finding: Finding,
        *,
        seed: Optional[int] = None,
        checkpoint: Optional[str] = None,
        context: Any = None,
    ) -> None:
        self.finding = finding
        self.invariant = finding.invariant
        self.time = finding.time
        self.node = finding.node
        self.seed = seed
        self.checkpoint = checkpoint
        self.context = context
        parts = [f"invariant {finding.invariant!r} violated: {finding.message}"]
        where = []
        if seed is not None:
            where.append(f"seed={seed}")
        if finding.time is not None:
            where.append(f"t={finding.time:.6f}")
        if finding.node is not None:
            where.append(f"node={finding.node}")
        if checkpoint is not None:
            where.append(f"checkpoint={checkpoint!r}")
        if where:
            parts.append(f"[{', '.join(where)}]")
        if context is not None:
            parts.append(f"run context: {context!r}")
        super().__init__("\n".join(parts))

    def __reduce__(self):
        # rebuild from the Finding: the default exception pickling would
        # call InvariantViolation(message), which this constructor rejects
        rebuild = partial(
            InvariantViolation, seed=self.seed, checkpoint=self.checkpoint, context=self.context
        )
        return rebuild, (self.finding,)
