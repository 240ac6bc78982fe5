"""Acceptance suite: one test per verification criterion.

Each criterion lives in subridge.verify (also exposed via the `subridge
verify` CLI); this module asserts every one of them, so the test report
shows a single pass/fail line per criterion with the measured detail.
"""

import pytest

from subridge.verify import REGISTRY


@pytest.mark.parametrize("name", list(REGISTRY))
def test_criterion(name):
    passed, detail = REGISTRY[name]()
    assert passed is True, f"{name}: {detail}"
