"""Signal propagation models.

The paper uses ns-2's TwoRayGround model (Eq. 5) with unity antenna gains,
1.5 m antenna heights, loss factor L=1 and path-loss exponent 4, and no
shadow fading, so received power is a deterministic function of distance:

    Pr(d) = Pt * Gt * Gr * ht^2 * hr^2 / (d^beta * L)            (Eq. 5)

A packet is received successfully iff ``Pr(d) >= rx_threshold``; with the
paper's parameters this is equivalent to ``d <= 40 m``.  FreeSpace and
LogDistance models are provided for ablations (LogDistance optionally adds
log-normal shadowing, the effect the paper explicitly ignores).

All models are vectorised: ``receive_power`` accepts scalar distances or
NumPy arrays, which the channel uses to precompute reachability for a whole
deployment in one shot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "PropagationModel",
    "FreeSpace",
    "TwoRayGround",
    "LogDistance",
    "range_to_threshold",
]

ArrayLike = Union[float, np.ndarray]

#: Speed of light, used for propagation delay (m/s).
SPEED_OF_LIGHT = 299_792_458.0


class PropagationModel:
    """Abstract propagation model: distance -> received power."""

    @property
    def is_deterministic(self) -> bool:
        """True when received power is a pure (monotone) function of distance.

        Picks how the channel fills its neighbor rows.  True: only
        candidate pairs of a spatial-hash cell list inside the model's
        maximum range are evaluated, which is sound iff power decays
        deterministically with distance.  False (shadowing): one fading
        draw over all ``(n, n)`` pairs per geometry, mirrored so links
        stay two-way, which keeps the draw's shape — and therefore
        bit-reproducibility — fixed.
        """
        return True

    def receive_power(self, tx_power: float, distance: ArrayLike) -> ArrayLike:
        """Received signal power at ``distance`` meters for ``tx_power`` watts."""
        raise NotImplementedError

    def median_receive_power(self, tx_power: float, distance: ArrayLike) -> ArrayLike:
        """Received power with any random fading averaged out.

        Deterministic models return :meth:`receive_power`; fading models
        override.  Used to derive receive thresholds from a nominal range.
        """
        return self.receive_power(tx_power, distance)

    def max_range(self, tx_power: float, rx_threshold: float) -> float:
        """Largest distance at which reception still succeeds.

        Generic bisection fallback; deterministic models override with the
        closed form.
        """
        lo, hi = 1e-3, 1e5
        if self.receive_power(tx_power, hi) >= rx_threshold:  # pragma: no cover
            return hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.receive_power(tx_power, mid) >= rx_threshold:
                lo = mid
            else:
                hi = mid
        return lo


@dataclass
class FreeSpace(PropagationModel):
    """Friis free-space model: ``Pr = Pt Gt Gr lambda^2 / ((4 pi d)^2 L)``."""

    gain_tx: float = 1.0
    gain_rx: float = 1.0
    wavelength: float = 0.125  # 2.4 GHz
    loss: float = 1.0

    def receive_power(self, tx_power: float, distance: ArrayLike) -> ArrayLike:
        d = np.asarray(distance, dtype=float)
        with np.errstate(divide="ignore"):
            pr = (
                tx_power
                * self.gain_tx
                * self.gain_rx
                * self.wavelength**2
                / ((4.0 * np.pi * d) ** 2 * self.loss)
            )
        return float(pr) if np.isscalar(distance) else pr

    def max_range(self, tx_power: float, rx_threshold: float) -> float:
        num = tx_power * self.gain_tx * self.gain_rx * self.wavelength**2
        return float(np.sqrt(num / (rx_threshold * self.loss)) / (4.0 * np.pi))


@dataclass
class TwoRayGround(PropagationModel):
    """Two-ray ground-reflection model — the paper's Eq. (5).

    Parameters mirror Sec. V-A: ``Gt = Gr = 1``, ``ht = hr = 1.5``,
    ``L = 1``, ``beta = 4``.
    """

    gain_tx: float = 1.0
    gain_rx: float = 1.0
    height_tx: float = 1.5
    height_rx: float = 1.5
    loss: float = 1.0
    path_loss_exponent: float = 4.0

    def receive_power(self, tx_power: float, distance: ArrayLike) -> ArrayLike:
        d = np.asarray(distance, dtype=float)
        num = (
            tx_power
            * self.gain_tx
            * self.gain_rx
            * self.height_tx**2
            * self.height_rx**2
        )
        with np.errstate(divide="ignore"):
            pr = num / (d**self.path_loss_exponent * self.loss)
        return float(pr) if np.isscalar(distance) else pr

    def max_range(self, tx_power: float, rx_threshold: float) -> float:
        num = (
            tx_power
            * self.gain_tx
            * self.gain_rx
            * self.height_tx**2
            * self.height_rx**2
        )
        return float((num / (rx_threshold * self.loss)) ** (1.0 / self.path_loss_exponent))


@dataclass
class LogDistance(PropagationModel):
    """Log-distance path loss with optional log-normal shadowing.

    Included as an ablation substrate: the paper *disables* shadow fading,
    and this model lets experiments quantify what that assumption hides.
    ``shadowing_sigma_db > 0`` requires an ``rng`` for the fading draw.
    """

    reference_distance: float = 1.0
    reference_power_factor: float = 1.0  # Pr(d0)/Pt
    path_loss_exponent: float = 3.0
    shadowing_sigma_db: float = 0.0
    rng: Optional[np.random.Generator] = None

    @property
    def is_deterministic(self) -> bool:
        return self.shadowing_sigma_db <= 0.0

    def receive_power(self, tx_power: float, distance: ArrayLike) -> ArrayLike:
        d = np.asarray(distance, dtype=float)
        pr = self.median_receive_power(tx_power, d)
        if self.shadowing_sigma_db > 0.0:
            if self.rng is None:
                raise ValueError("shadowing requires an rng")
            db = self.rng.normal(0.0, self.shadowing_sigma_db, size=np.shape(d) or None)
            pr = pr * 10.0 ** (np.asarray(db) / 10.0)
        return float(pr) if np.isscalar(distance) else pr

    def median_receive_power(self, tx_power: float, distance: ArrayLike) -> ArrayLike:
        d = np.asarray(distance, dtype=float)
        with np.errstate(divide="ignore"):
            pr = (
                tx_power
                * self.reference_power_factor
                * (self.reference_distance / d) ** self.path_loss_exponent
            )
        return float(pr) if np.isscalar(distance) else pr

    def max_range(self, tx_power: float, rx_threshold: float) -> float:
        # Median range (shadowing averaged out).
        ratio = tx_power * self.reference_power_factor / rx_threshold
        return float(self.reference_distance * ratio ** (1.0 / self.path_loss_exponent))


def range_to_threshold(
    model: PropagationModel, tx_power: float, desired_range: float
) -> float:
    """Receive threshold that yields exactly ``desired_range``.

    The paper specifies the range (40 m) rather than the threshold; this
    inverts the model so experiments can be configured in meters.
    """
    if desired_range <= 0:
        raise ValueError("desired_range must be positive")
    return float(model.median_receive_power(tx_power, desired_range))
