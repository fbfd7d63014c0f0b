import pytest

from gammalattice import GuardExceededError, budget


def test_charge_refuses_only_over_the_cap(monkeypatch):
    monkeypatch.setattr(budget, "MAX_WORK", 1000)
    budget.charge(1000, "the cap itself")
    with pytest.raises(GuardExceededError) as info:
        budget.charge(1001, "one unit more")
    assert str(info.value) == "one unit more is over the work budget 1000"


def test_weight_is_one_up_to_the_knee_then_quadratic():
    knee = budget.KNEE_BITS
    assert budget.weight(0) == budget.weight(knee - 1) == 1
    assert budget.weight(knee) == 2
    assert budget.weight(10 * knee) == 101
    # a range end past 2**63 is weighed without overflow
    assert budget.weight(10**30) > budget.MAX_WORK

