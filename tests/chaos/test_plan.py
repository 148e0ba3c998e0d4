"""FaultPlan unit tests: validation."""

import pytest

from repro.chaos import (
    FaultPlan,
    LinkDown,
    LinkFlap,
    PacketLoss,
    ServiceCrash,
    SlowResponder,
)
from repro.errors import SimulationError


class TestValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan((LinkDown("a", at=-1.0, duration=1.0),))

    def test_zero_duration_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan((PacketLoss("a", at=0.0, duration=0.0, rate=0.5),))

    def test_total_loss_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan((PacketLoss("a", at=0.0, duration=1.0, rate=1.0),))

    def test_flap_down_for_longer_than_period_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan(
                (LinkFlap("a", at=0.0, period=2.0, down_for=3.0, until=10.0),)
            )

    def test_flap_ending_before_start_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan(
                (LinkFlap("a", at=5.0, period=2.0, down_for=1.0, until=5.0),)
            )

    def test_speedup_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan((SlowResponder("a", at=0.0, duration=1.0, factor=0.5),))

    def test_nonpositive_restart_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan((ServiceCrash("a", at=0.0, restart_after=0.0),))

    def test_faults_coerced_to_tuple(self):
        plan = FaultPlan([LinkDown("a", at=0.0, duration=1.0)])
        assert isinstance(plan.faults, tuple)
