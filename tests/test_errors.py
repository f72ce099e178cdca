"""The one rule every config number passes: errors.check_number."""

import math

import numpy as np
import pytest

from kaclab.errors import ConfigError, check_number


@pytest.mark.parametrize("value, kwargs", [
    (True, {}), ("1", {}), (math.nan, {}), (math.inf, {}), (-0.5, {}),
    (0.0, {"above": True}), (1.5, {"integer": True}), (2.0, {"integer": True}),
], ids=["bool", "string", "nan", "inf", "below", "at_bound_when_above", "fraction",
        "float_for_integer"])
def test_rule_rejects(value, kwargs):
    with pytest.raises(ConfigError, match=r"^x=.* must be "):
        check_number("x", value, 0, **kwargs)


@pytest.mark.parametrize("value, kwargs", [
    (0, {}), (0.0, {}), (1e-12, {"above": True}), (3, {"integer": True}),
    (np.int64(3), {"integer": True}), (np.float64(0.5), {"above": True}),
])
def test_rule_returns_what_it_accepts(value, kwargs):
    assert check_number("x", value, 0, **kwargs) is value
