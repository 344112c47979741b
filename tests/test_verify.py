"""The invariant checks behind `bundle-lab verify`, one test per check."""

import pytest

from bundlelab import verify


@pytest.mark.parametrize(
    "name,fn", verify.ALL_CHECKS, ids=[n for n, _ in verify.ALL_CHECKS]
)
def test_invariant_check(name, fn):
    ok, info = fn()
    assert ok, f"{name}: {info}"
