"""Balanced block ranges and rectangle algebra (incl. hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.layout.blocks import (
    Rect,
    block_owner,
    block_range,
    block_size,
    block_start,
    rects_cover_exactly,
)
from repro.layout.distributions import BlockCol1D, BlockCyclic2D, Explicit
from tests.layout.cover_counts import MAX_COVER_CALLS, cover_check_calls


class TestBlockRanges:
    def test_exact_cover(self):
        assert [block_range(10, 3, r) for r in range(3)] == [(0, 3), (3, 6), (6, 10)]

    def test_more_parts_than_items(self):
        ranges = [block_range(2, 5, r) for r in range(5)]
        sizes = [hi - lo for lo, hi in ranges]
        assert sum(sizes) == 2
        assert all(s in (0, 1) for s in sizes)

    def test_single_part(self):
        assert block_range(7, 1, 0) == (0, 7)

    def test_out_of_range_part(self):
        with pytest.raises(ValueError):
            block_start(10, 3, 4)

    @given(n=st.integers(0, 500), p=st.integers(1, 64))
    def test_partition_properties(self, n, p):
        ranges = [block_range(n, p, r) for r in range(p)]
        # contiguous, ordered, covering
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (l0, h0), (l1, h1) in zip(ranges[:-1], ranges[1:]):
            assert h0 == l1
        # balanced: sizes differ by at most one
        sizes = [h - l for l, h in ranges]
        assert max(sizes) - min(sizes) <= 1

    @given(n=st.integers(1, 300), p=st.integers(1, 40), data=st.data())
    def test_owner_inverts_range(self, n, p, data):
        i = data.draw(st.integers(0, n - 1))
        r = block_owner(n, p, i)
        lo, hi = block_range(n, p, r)
        assert lo <= i < hi

    def test_owner_out_of_range(self):
        with pytest.raises(ValueError):
            block_owner(5, 2, 5)

    @given(n=st.integers(0, 200), p=st.integers(1, 30), r=st.data())
    def test_block_size_consistent(self, n, p, r):
        rr = r.draw(st.integers(0, p - 1))
        lo, hi = block_range(n, p, rr)
        assert block_size(n, p, rr) == hi - lo

    def test_nesting_of_halvings(self):
        """floor-halving nests: the mid of [0, floor(n/2)) is floor(n/4)."""
        for n in range(1, 200):
            mid = block_range(n, 2, 0)[1]
            quarter = block_range(mid, 2, 0)[1]
            assert quarter == n // 4


class TestRect:
    def test_shape_area(self):
        r = Rect(2, 5, 1, 7)
        assert r.shape == (3, 6)
        assert r.area == 18
        assert not r.is_empty()

    def test_empty(self):
        assert Rect(3, 3, 0, 5).is_empty()
        assert Rect(0, 5, 4, 2).is_empty()
        assert Rect(0, 5, 4, 2).area == 0

    def test_intersect(self):
        a = Rect(0, 10, 0, 10)
        b = Rect(5, 15, 8, 20)
        assert a.intersect(b) == Rect(5, 10, 8, 10)
        assert b.intersect(a) == a.intersect(b)

    def test_disjoint_intersection_empty(self):
        assert Rect(0, 2, 0, 2).intersect(Rect(2, 4, 0, 2)).is_empty()

    def test_contains(self):
        outer = Rect(0, 10, 0, 10)
        assert outer.contains(Rect(2, 5, 3, 9))
        assert not outer.contains(Rect(2, 11, 3, 9))
        assert outer.contains(Rect(4, 4, 0, 0))  # empty is contained anywhere

    def test_transposed(self):
        assert Rect(1, 2, 3, 5).transposed() == Rect(3, 5, 1, 2)

    def test_local_slice(self):
        outer = Rect(10, 20, 100, 120)
        rs, cs = outer.local_slice(Rect(12, 15, 105, 110))
        assert (rs, cs) == (slice(2, 5), slice(5, 10))

    def test_local_slice_not_contained(self):
        with pytest.raises(ValueError):
            Rect(0, 5, 0, 5).local_slice(Rect(3, 8, 0, 2))

    def test_shifted(self):
        assert Rect(0, 2, 0, 3).shifted(5, 7) == Rect(5, 7, 7, 10)

    def test_iter_unpack(self):
        r0, r1, c0, c1 = Rect(1, 2, 3, 4)
        assert (r0, r1, c0, c1) == (1, 2, 3, 4)

    @given(
        vals=st.tuples(*[st.integers(0, 30)] * 8),
    )
    def test_intersect_commutes_and_shrinks(self, vals):
        a = Rect(min(vals[0], vals[1]), max(vals[0], vals[1]),
                 min(vals[2], vals[3]), max(vals[2], vals[3]))
        b = Rect(min(vals[4], vals[5]), max(vals[4], vals[5]),
                 min(vals[6], vals[7]), max(vals[6], vals[7]))
        i1, i2 = a.intersect(b), b.intersect(a)
        assert i1 == i2
        assert i1.area <= min(a.area, b.area)


class TestCoverage:
    def test_exact_cover_true(self):
        whole = Rect(0, 4, 0, 4)
        rects = [Rect(0, 2, 0, 4), Rect(2, 4, 0, 2), Rect(2, 4, 2, 4)]
        assert rects_cover_exactly(rects, whole)

    def test_hole_detected(self):
        whole = Rect(0, 4, 0, 4)
        rects = [Rect(0, 2, 0, 4), Rect(2, 4, 0, 2)]
        assert not rects_cover_exactly(rects, whole)

    def test_overlap_detected(self):
        whole = Rect(0, 4, 0, 4)
        rects = [Rect(0, 3, 0, 4), Rect(2, 4, 0, 4), Rect(3, 4, 0, 0)]
        assert not rects_cover_exactly(rects, whole)

    def test_outside_detected(self):
        whole = Rect(0, 4, 0, 4)
        rects = [Rect(0, 4, 0, 4), Rect(4, 5, 0, 4)]
        assert not rects_cover_exactly(rects, whole)

    def test_empty_rects_ignored(self):
        whole = Rect(0, 2, 0, 2)
        rects = [Rect(0, 2, 0, 2), Rect(1, 1, 0, 2)]
        assert rects_cover_exactly(rects, whole)

    def test_outside_corners_that_would_cancel_inside_are_refused(self):
        """Keyed row-major from ``whole``'s corner, width 3, the corners of
        the rect outside it land on keys inside it and cancel the rest:
        containment is checked before the corners are."""
        rects = [Rect(-1, 1, 3, 4), Rect(0, 2, 1, 2)]
        assert not rects_cover_exactly(rects, Rect(0, 2, 0, 2))

    def test_rects_outside_an_empty_whole(self):
        assert rects_cover_exactly([Rect(2, 2, 0, 3), Rect(3, 1, 0, 2)], Rect(0, 0, 0, 4))
        assert not rects_cover_exactly([Rect(0, 1, 0, 1)], Rect(0, 0, 0, 4))

    @pytest.mark.parametrize("bad", [
        Rect(0, 2.5, 0, 4), Rect(0, 4, 0, float("nan")), Rect(1.5, 1.5, 0, 4)])
    def test_a_coordinate_that_is_not_an_integer_is_refused(self, bad):
        """An int64 cast would truncate it; the check names the rect."""
        with pytest.raises(ValueError, match=r"^Rect\(.*\) has a coordinate that is not an integer$"):
            rects_cover_exactly([Rect(0, 4, 0, 4), bad], Rect(0, 4, 0, 4))
        with pytest.raises(ValueError, match="not an integer"):
            rects_cover_exactly([Rect(0, 4, 0, 4)], Rect(0, 4.5, 0, 4))

    def test_a_layout_with_a_coordinate_that_is_not_an_integer_is_refused(self):
        halves = Explicit.from_mapping((4, 4), 2, {0: [Rect(0, 2.5, 0, 4)], 1: [Rect(2.5, 4, 0, 4)]})
        with pytest.raises(ValueError, match=r"^Rect\(r0=0, r1=2.5, c0=0, c1=4\) has a"):
            halves.validate()

    @pytest.mark.parametrize("bad", [
        Rect(0, 4, 0, float("nan")), Rect(float("nan"), 4, 0, 4),
        Rect(0, 4, float("inf"), 4), Rect(0, 4, 0, float("-inf")),
        Rect(float("inf"), 4, 0, 4), Rect(0, float("-inf"), 0, 4)])
    def test_a_layout_does_not_drop_a_rect_whose_coordinate_is_not_finite(self, bad):
        """Each of these reads as empty (``max(0, nan - c0)`` is 0), so it
        was dropped with the empties and rank 1 owned nothing."""
        layout = Explicit.from_mapping((4, 4), 2, {0: [Rect(0, 4, 0, 4)], 1: [bad]})
        assert bad.is_empty()
        with pytest.raises(ValueError, match=r"^Rect\(.*\) has a coordinate that is not an integer$"):
            layout.validate()
        with pytest.raises(ValueError, match="not an integer"):
            layout.owned_rects(1)

    def test_integral_floats_are_integers(self):
        assert rects_cover_exactly([Rect(0.0, 2, 0, 4), Rect(2, 4.0, 0, 4)], Rect(0, 4, 0, 4))


def _split(rng: np.random.Generator, rect: Rect, cuts: int) -> list[Rect]:
    """``rect`` cut ``cuts`` times along random axis-aligned lines."""
    parts = [rect]
    for _ in range(cuts):
        r = parts.pop(int(rng.integers(len(parts))))
        if r.rows > 1 and (r.cols < 2 or rng.random() < 0.5):
            at = int(rng.integers(r.r0 + 1, r.r1))
            parts += [Rect(r.r0, at, r.c0, r.c1), Rect(at, r.r1, r.c0, r.c1)]
        elif r.cols > 1:
            at = int(rng.integers(r.c0 + 1, r.c1))
            parts += [Rect(r.r0, r.r1, r.c0, at), Rect(r.r0, r.r1, at, r.c1)]
        else:
            parts.append(r)
    return parts


@st.composite
def _cover_cases(draw):
    """``(rects, whole)``: a random tiling of ``whole`` (which may be empty
    or inverted), then holes, duplicates, rects anywhere (out of bounds,
    empty or inverted), grown and shrunk rects, in random order."""
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    r0, r1, c0, c1 = (int(v) for v in rng.integers(-2, 9, size=4))
    if rng.random() < 0.85:
        r0, r1, c0, c1 = min(r0, r1), max(r0, r1), min(c0, c1), max(c0, c1)
    whole = Rect(r0, r1, c0, c1)
    rects = [] if whole.is_empty() else _split(rng, whole, int(rng.integers(0, 8)))
    for _ in range(draw(st.integers(0, 3))):
        what = draw(st.sampled_from(["hole", "duplicate", "anywhere", "grow", "shrink"]))
        if what == "anywhere":
            rects.append(Rect(*(int(v) for v in rng.integers(-3, 11, size=4))))
        elif rects:
            i = int(rng.integers(len(rects)))
            r = rects[i]
            if what == "hole":
                rects.pop(i)
            elif what == "duplicate":
                rects.append(r)
            else:
                step = 1 if what == "grow" else -1
                rects[i] = Rect(r.r0, r.r1, r.c0, r.c1 + step)
    return [rects[i] for i in rng.permutation(len(rects))], whole


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_cover_cases())
def test_the_cover_verdict_is_painting(case):
    """Painting every non-empty rect onto a canvas around everything: the
    rects tile ``whole`` iff the paint is exactly one coat on ``whole``
    and none anywhere else."""
    rects, whole = case
    lo = min([0, *(v for r in [*rects, whole] for v in r)])
    canvas = np.zeros((16 - lo, 16 - lo), dtype=int)
    for r in rects:
        if not r.is_empty():
            canvas[r.r0 - lo : r.r1 - lo, r.c0 - lo : r.c1 - lo] += 1
    want = np.zeros_like(canvas)
    if not whole.is_empty():
        want[whole.r0 - lo : whole.r1 - lo, whole.c0 - lo : whole.c1 - lo] = 1
    assert rects_cover_exactly(rects, whole) == bool((canvas == want).all())


@pytest.mark.parametrize("dist", [
    BlockCyclic2D((1536, 1536), 16, 4, 4, 64), BlockCol1D((1536, 1536), 1024)], ids=repr)
def test_a_cover_check_is_a_few_calls_at_any_count_of_rects(dist):
    validate, cover = cover_check_calls(dist)
    assert validate <= MAX_COVER_CALLS, validate
    assert cover <= MAX_COVER_CALLS, cover
