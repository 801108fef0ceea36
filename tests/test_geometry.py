"""Space primitive: extents and degeneracy."""
from __future__ import annotations

from repro.core.geometry import Space


def test_width_height():
    s = Space(1.0, 4.0, 2.0, 8.0)
    assert s.width == 3.0 and s.height == 6.0


def test_degenerate():
    assert Space(1, 1, 0, 5).is_degenerate()
    assert Space(0, 5, 3, 3).is_degenerate()
    assert not Space(0, 1, 0, 1).is_degenerate()
    assert Space(2, 1, 0, 5).is_degenerate()


def test_same_extent():
    a = Space(0, 1, 0, 1)
    assert a.same_extent(Space(0, 1, 0, 1))
    assert not a.same_extent(Space(0, 1, 0, 1.0000001))
