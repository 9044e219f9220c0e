"""Edge cases of the interval domain that the transfer functions must
handle: empty sets, unbounded operands, degenerate widths."""

from repro.intervals import Interval, IntervalSet


EMPTY = IntervalSet.empty()
TOP = IntervalSet.top()


class TestEmptyPropagation:
    def test_arith_with_empty(self):
        a = IntervalSet.of(1, 5)
        assert a.add(EMPTY).is_empty
        assert EMPTY.sub(a).is_empty
        assert a.mul(EMPTY).is_empty
        assert EMPTY.neg().is_empty
        assert EMPTY.abs().is_empty

    def test_shifts_with_empty(self):
        a = IntervalSet.of(1, 5)
        assert a.shl(EMPTY).is_empty
        assert EMPTY.shr(a).is_empty

    def test_comparisons_with_empty(self):
        a = IntervalSet.of(1, 5)
        assert a.cmp_lt(EMPTY).is_empty
        assert EMPTY.cmp_eq(a).is_empty
        assert EMPTY.logical_not().is_empty

    def test_bitwise_with_empty(self):
        a = IntervalSet.of(1, 5)
        assert a.bit_and(EMPTY).is_empty
        assert EMPTY.bit_or(a).is_empty

    def test_lzc_of_out_of_domain_is_empty(self):
        # All values outside [0, 2^w): every evaluation is *, set empty.
        assert IntervalSet.of(256, 300).lzc(8).is_empty
        assert IntervalSet.of(-5, -1).lzc(8).is_empty


class TestUnboundedOperands:
    def test_add_with_halfline(self):
        a = IntervalSet.of(0, None)
        b = IntervalSet.of(1, 2)
        out = a.add(b)
        assert out.min() == 1 and out.max() is None

    def test_mul_with_halfline_goes_top(self):
        a = IntervalSet.of(0, None)
        assert a.mul(IntervalSet.of(1, 2)).is_top

    def test_neg_swaps_direction(self):
        a = IntervalSet.of(None, 5)
        out = a.neg()
        assert out.min() == -5 and out.max() is None

    def test_shr_unbounded_amount_includes_limits(self):
        a = IntervalSet.of(-8, 8)
        out = a.shr(IntervalSet.of(0, None))
        # Limits of x >> s as s grows: 0 (x >= 0) and -1 (x < 0).
        assert 0 in out and -1 in out and 8 in out and -8 in out

    def test_shl_by_an_astronomical_amount_goes_top(self):
        # x << (255 << 255) would not fit in memory: the bound is dropped.
        amount = IntervalSet.of(0, 255).shl(IntervalSet.of(0, 255))
        assert IntervalSet.of(0, 255).shl(amount).is_top

    def test_mod_of_unbounded(self):
        assert IntervalSet.of(None, None).trunc_mod(8) == IntervalSet.of(0, 7)


class TestDegenerateWidths:
    def test_unsigned_zero_width(self):
        assert IntervalSet.unsigned(0).as_point() == 0

    def test_lzc_width_one(self):
        assert IntervalSet.of(0, 1).lzc(1) == IntervalSet.of(0, 1)
        assert IntervalSet.point(1).lzc(1).as_point() == 0
        assert IntervalSet.point(0).lzc(1).as_point() == 1

    def test_bitnot_involution(self):
        a = IntervalSet.of(3, 9)
        assert a.bit_not(4).bit_not(4) == a

    def test_point_arithmetic_exact(self):
        p = IntervalSet.point(7)
        q = IntervalSet.point(-3)
        assert p.add(q).as_point() == 4
        assert p.mul(q).as_point() == -21
        assert p.sub(q).as_point() == 10
        assert q.abs().as_point() == 3


class TestCoalescingSoundness:
    def test_cap_preserves_membership(self):
        values = [i * 7 for i in range(40)]
        exact = IntervalSet.from_values(values)
        capped = IntervalSet.from_intervals(
            [Interval(v, v) for v in values], cap=5
        )
        assert len(capped.parts) <= 5
        for v in values:
            assert v in capped
        assert exact.issubset(capped)
