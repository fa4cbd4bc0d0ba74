"""Selftest criteria outside the rational acceptance run."""

from comodular import selftest


def test_criterion_8_passes_in_float_mode():
    ok, details = selftest._criterion_8("float")
    assert ok, details
    assert details["mean_witness"]["operands"] == {"x": ["0.0", "1.0"], "y": ["0.5", "0.5"]}
