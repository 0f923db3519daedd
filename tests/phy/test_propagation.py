"""Unit tests for propagation models (Eq. 5 and friends)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.phy.propagation import (
    FreeSpace,
    LogDistance,
    TwoRayGround,
    range_to_threshold,
)


class TestTwoRayGround:
    def test_eq5_closed_form(self):
        """Pr = Pt*Gt*Gr*ht^2*hr^2 / (d^4 * L) with the paper's parameters."""
        m = TwoRayGround()  # Gt=Gr=1, ht=hr=1.5, L=1, beta=4
        pt = 0.5
        d = 10.0
        expected = pt * 1.5**2 * 1.5**2 / d**4
        assert m.receive_power(pt, d) == pytest.approx(expected)

    def test_power_decreases_with_distance(self):
        m = TwoRayGround()
        p = [m.receive_power(1.0, d) for d in (1, 10, 40, 100)]
        assert p == sorted(p, reverse=True)

    def test_fourth_power_falloff(self):
        m = TwoRayGround()
        assert m.receive_power(1.0, 20.0) / m.receive_power(1.0, 40.0) == pytest.approx(16.0)

    def test_max_range_inverts_receive_power(self):
        m = TwoRayGround()
        thr = m.receive_power(1.0, 40.0)
        assert m.max_range(1.0, thr) == pytest.approx(40.0)

    def test_vectorised_matches_scalar(self):
        m = TwoRayGround()
        ds = np.array([5.0, 10.0, 20.0])
        vec = m.receive_power(2.0, ds)
        for d, v in zip(ds, vec):
            assert v == pytest.approx(m.receive_power(2.0, float(d)))

    @given(st.floats(min_value=1.0, max_value=1e3), st.floats(min_value=0.01, max_value=10))
    def test_reception_iff_within_range_property(self, d, pt):
        """Property: with threshold derived for range R, reception succeeds
        exactly when d <= R (the paper's disk model)."""
        m = TwoRayGround()
        r = 40.0
        thr = range_to_threshold(m, pt, r)
        received = m.receive_power(pt, d) >= thr
        assert received == (d <= r)


class TestFreeSpace:
    def test_inverse_square(self):
        m = FreeSpace()
        assert m.receive_power(1.0, 10.0) / m.receive_power(1.0, 20.0) == pytest.approx(4.0)

    def test_max_range_closed_form(self):
        m = FreeSpace()
        thr = m.receive_power(1.0, 100.0)
        assert m.max_range(1.0, thr) == pytest.approx(100.0)


class TestLogDistance:
    def test_deterministic_without_shadowing(self):
        m = LogDistance(path_loss_exponent=3.0)
        assert m.receive_power(1.0, 8.0) / m.receive_power(1.0, 16.0) == pytest.approx(8.0)

    def test_shadowing_requires_rng(self):
        m = LogDistance(shadowing_sigma_db=4.0)
        with pytest.raises(ValueError):
            m.receive_power(1.0, 10.0)

    def test_shadowing_randomises_power(self):
        rng = np.random.default_rng(3)
        m = LogDistance(shadowing_sigma_db=6.0, rng=rng)
        vals = {float(m.receive_power(1.0, 10.0)) for _ in range(10)}
        assert len(vals) > 1

    def test_median_range(self):
        m = LogDistance(path_loss_exponent=2.0)
        thr = m.receive_power(1.0, 50.0)
        assert m.max_range(1.0, thr) == pytest.approx(50.0)


def test_range_to_threshold_rejects_nonpositive():
    with pytest.raises(ValueError):
        range_to_threshold(TwoRayGround(), 1.0, 0.0)


def test_generic_bisection_max_range():
    """The base-class bisection agrees with the closed form."""

    class NoClosedForm(TwoRayGround):
        def max_range(self, tx_power, rx_threshold):
            from repro.phy.propagation import PropagationModel

            return PropagationModel.max_range(self, tx_power, rx_threshold)

    m = NoClosedForm()
    thr = m.receive_power(1.0, 40.0)
    assert m.max_range(1.0, thr) == pytest.approx(40.0, rel=1e-6)
