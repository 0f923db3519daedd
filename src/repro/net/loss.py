"""Channel-level frame-loss models.

The paper evaluates over an ideal medium ("received iff within range"),
which the collision model already relaxes for contention.  This module
relaxes it further for *link quality*: a loss model decides, per directed
link and per frame, whether the frame is erased in flight — independently
of (and composable with) collisions.  A lost frame still occupies the
receiver's radio for its airtime (it arrives, garbled), so carrier sense
and collision bookkeeping are unaffected; it is simply never delivered.

Two classic models are provided:

* :class:`IidLoss` — i.i.d. Bernoulli erasures, the memoryless baseline;
* :class:`GilbertElliott` — the two-state (Good/Bad) Markov chain that
  produces the *bursty* losses real low-power links exhibit (fading,
  interference bursts).  Each directed link carries its own chain state.

Both draw from a caller-supplied ``numpy`` generator; wiring in the
simulator's named stream (``sim.rng.stream("loss")``) keeps runs
bit-reproducible and keeps loss draws isolated from every other
stochastic component.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["LossModel", "IidLoss", "GilbertElliott"]


class LossModel:
    """Decides the fate of one frame on one directed link."""

    def frame_lost(self, src: int, dst: int) -> bool:  # pragma: no cover - abstract
        """Is the frame ``src -> dst`` erased?  Called once per arrival."""
        raise NotImplementedError

    def frame_lost_batch(self, src: int, dsts: Sequence[int]) -> List[bool]:
        """Fate of one broadcast frame at every receiver in ``dsts``.

        The channel evaluates a sender's whole delivery list per frame;
        models that can vectorise override this (see :class:`IidLoss`).
        The contract is *bit-equivalence* with ``[frame_lost(src, d) for
        d in dsts]`` — same rng draws in the same order — so traces are
        identical whichever entry point the channel uses.
        """
        lost = self.frame_lost
        return [lost(src, d) for d in dsts]

    def expected_loss(self) -> float:  # pragma: no cover - abstract
        """Long-run per-frame loss probability (for calibration/tests)."""
        raise NotImplementedError


class IidLoss(LossModel):
    """Independent per-frame erasures with probability ``p``."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability {p} not in [0, 1]")
        self.p = float(p)
        self.rng = rng

    def frame_lost(self, src: int, dst: int) -> bool:
        if self.p <= 0.0:
            return False
        if self.p >= 1.0:
            return True
        return float(self.rng.random()) < self.p

    def frame_lost_batch(self, src: int, dsts: Sequence[int]) -> List[bool]:
        """Vectorised i.i.d. erasures over one delivery list.

        ``Generator.random(n)`` consumes the identical doubles ``n``
        scalar ``random()`` calls would (both pull ``next_double`` off
        the bit stream sequentially), so this is bit-equivalent to the
        scalar loop — asserted by ``tests/net/test_loss.py``.
        """
        n = len(dsts)
        if self.p <= 0.0:
            return [False] * n
        if self.p >= 1.0:
            return [True] * n
        if n == 1:
            # vector setup costs more than one scalar draw
            return [float(self.rng.random()) < self.p]
        return (self.rng.random(n) < self.p).tolist()

    def expected_loss(self) -> float:
        return self.p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IidLoss(p={self.p})"


class GilbertElliott(LossModel):
    """Two-state Markov (Gilbert–Elliott) bursty link model.

    Each directed link is an independent chain over {Good, Bad}.  Per
    frame: the current state's loss probability decides the frame's fate,
    then the chain steps (``p_good_bad`` = P[Good->Bad],
    ``p_bad_good`` = P[Bad->Good]).  Defaults give ~7.4% long-run loss in
    bursts of mean length 4 frames — a plausible noisy 802.15.4 link.

    Mean burst length is ``1/p_bad_good`` frames and mean gap between
    bursts ``1/p_good_bad`` frames; the stationary Bad probability is
    ``p_good_bad / (p_good_bad + p_bad_good)``.
    """

    def __init__(
        self,
        p_good_bad: float = 0.02,
        p_bad_good: float = 0.25,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        rng: np.random.Generator = None,
    ) -> None:
        for name, v in (
            ("p_good_bad", p_good_bad),
            ("p_bad_good", p_bad_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} not in [0, 1]")
        if rng is None:
            raise ValueError("GilbertElliott requires an rng (use sim.rng.stream('loss'))")
        self.p_good_bad = float(p_good_bad)
        self.p_bad_good = float(p_bad_good)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self.rng = rng
        #: per directed link: True while the link is in the Bad state
        self._bad: Dict[Tuple[int, int], bool] = {}

    def frame_lost(self, src: int, dst: int) -> bool:
        link = (src, dst)
        bad = self._bad.get(link, False)
        p = self.loss_bad if bad else self.loss_good
        # Always burn exactly two draws per frame so the stream stays
        # aligned regardless of state (variance isolation within the model).
        lost = float(self.rng.random()) < p
        flip = float(self.rng.random()) < (self.p_bad_good if bad else self.p_good_bad)
        if flip:
            self._bad[link] = not bad
        elif link not in self._bad:
            self._bad[link] = bad
        return lost

    def expected_loss(self) -> float:
        denom = self.p_good_bad + self.p_bad_good
        if denom == 0.0:
            return self.loss_good  # chain never leaves its initial Good state
        pi_bad = self.p_good_bad / denom
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def mean_burst_frames(self) -> float:
        """Mean sojourn in the Bad state, in frames."""
        return float("inf") if self.p_bad_good == 0.0 else 1.0 / self.p_bad_good

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GilbertElliott(p_gb={self.p_good_bad}, p_bg={self.p_bad_good}, "
            f"loss={self.loss_good}/{self.loss_bad})"
        )
