"""Corner membership and Z_n element arithmetic."""

import pytest

from starinv import RingMismatch, ZnElement, in_corner

from conftest import M, z


class TestInCorner:
    def test_corner_membership(self):
        e = M([[1, 0], [0, 0]])
        assert in_corner(M([[7, 0], [0, 0]]), e, e, 1, 1)
        assert in_corner(M([[0, 7], [0, 0]]), e, e, 1, 2)
        assert in_corner(M([[0, 0], [7, 0]]), e, e, 2, 1)
        assert in_corner(M([[0, 0], [0, 7]]), e, e, 2, 2)
        assert not in_corner(M([[7, 1], [0, 0]]), e, e, 1, 1)


class TestZnElement:
    def test_modulus_mismatch(self):
        with pytest.raises(RingMismatch):
            ZnElement(1, 6) + ZnElement(1, 8)
        with pytest.raises(RingMismatch):
            ZnElement(1, 6) * ZnElement(1, 8)

    def test_star_identity(self):
        assert z(5).star == z(5)
