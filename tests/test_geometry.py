import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tubekit import Box2D, TemporalSpan, Tube, box_iou, temporal_iou, tube_iou
from tubekit.geometry import _corner_iou, _interval_runs, runs

from oracles import _naive_spans, expand_runs
from test_linking import any_box


def make_tube(start, end, coords, label=None, score=None):
    boxes = tuple(Box2D(x1=c[0], y1=c[1], x2=c[2], y2=c[3]) for c in coords)
    return Tube(span=TemporalSpan(start, end), boxes=boxes, label=label, score=score)


@st.composite
def boxes(draw, lo=-100, hi=100):
    x1 = draw(st.integers(lo, hi - 1))
    x2 = draw(st.integers(x1 + 1, hi))
    y1 = draw(st.integers(lo, hi - 1))
    y2 = draw(st.integers(y1 + 1, hi))
    return Box2D(x1=float(x1), y1=float(y1), x2=float(x2), y2=float(y2))


class TestBox2D:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Box2D(0, 0, 0, 10)
        with pytest.raises(ValueError):
            Box2D(0, 10, 10, 10)
        with pytest.raises(ValueError):
            Box2D(5, 0, 3, 10)

    def test_has_no_frame(self):
        # the frame key or span offset of a box's container is its only frame
        with pytest.raises(TypeError):
            Box2D(0, 0, 1, 1, frame=0)

    def test_area(self):
        assert Box2D(0, 0, 10, 5).area == 50.0

    def test_equality_and_hash_compare_class_and_fields(self):
        a = Box2D(0.5, 1.0, 2.0, 3.0, score=0.25)
        same = Box2D(x1=0.5, y1=1.0, x2=2.0, y2=3.0, score=0.25)
        assert a == same and hash(a) == hash(same)
        assert hash(a) == hash((0.5, 1.0, 2.0, 3.0, 0.25))
        assert a != Box2D(0.5, 1.0, 2.0, 3.0, score=0.75)
        assert a != Box2D(0.5, 1.0, 2.0, 3.0)
        assert a != (0.5, 1.0, 2.0, 3.0, 0.25)
        assert a.__eq__((0.5, 1.0, 2.0, 3.0, 0.25)) is NotImplemented
        assert len({a, same, Box2D(0.5, 1.0, 2.0, 3.0)}) == 2

    def test_repr(self):
        assert repr(Box2D(0.5, 1.0, 2.0, 3.0, score=0.25)) == "Box2D(x1=0.5, y1=1.0, x2=2.0, y2=3.0, score=0.25)"
        assert repr(Box2D(0.0, 0.0, 1.0, 1.0)) == "Box2D(x1=0.0, y1=0.0, x2=1.0, y2=1.0, score=None)"

    @pytest.mark.parametrize("name", ["x1", "y1", "x2", "y2", "score", "area", "frame"])
    def test_immutable(self, name):
        box = Box2D(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(AttributeError):
            setattr(box, name, 0.5)
        with pytest.raises(AttributeError):
            delattr(box, name)
        assert box == Box2D(0.0, 0.0, 1.0, 1.0) and box.area == 1.0

    @pytest.mark.parametrize("clone", [
        lambda b: pickle.loads(pickle.dumps(b)),
        lambda b: pickle.loads(pickle.dumps(b, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"])
    def test_pickle_and_copy_round_trip(self, clone):
        for box in (Box2D(0.5, 1.0, 2.0, 3.0, score=0.25), Box2D(-1.0, -2.0, 1e-3, 7.5)):
            twin = clone(box)
            assert type(twin) is Box2D and twin == box
            assert twin.area == box.area and twin.score == box.score
        tube = Tube(TemporalSpan(2, 3), (Box2D(0.0, 0.0, 1.0, 1.0), Box2D(1.0, 1.0, 2.0, 2.0)), label=1)
        assert pickle.loads(pickle.dumps(tube)) == tube

    def test_dataclass_fields_and_replace(self):
        box = Box2D(0.5, 1.0, 2.0, 3.0, score=0.25)
        assert [f.name for f in dataclasses.fields(Box2D)] == ["x1", "y1", "x2", "y2", "score"]
        wider = dataclasses.replace(box, x2=3.0)
        assert wider == Box2D(0.5, 1.0, 3.0, 3.0, score=0.25) and wider.area == 5.0
        with pytest.raises(ValueError, match="degenerate box"):
            dataclasses.replace(box, x2=0.0)


class TestBoxIou:
    def test_identical(self):
        a = Box2D(0, 0, 10, 10)
        assert box_iou(a, a) == 1.0

    def test_disjoint(self):
        assert box_iou(Box2D(0, 0, 10, 10), Box2D(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # intersection 50, union 150
        assert box_iou(Box2D(0, 0, 10, 10), Box2D(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_touching_edges_do_not_overlap(self):
        assert box_iou(Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10)) == 0.0

    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert box_iou(a, b) == box_iou(b, a)

    @given(boxes())
    def test_self_iou_is_exactly_one(self, a):
        assert box_iou(a, a) == 1.0

    @given(boxes(), boxes(), st.integers(-50, 50), st.integers(-50, 50))
    def test_translation_invariance(self, a, b, dx, dy):
        shifted_a = Box2D(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
        shifted_b = Box2D(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
        assert box_iou(shifted_a, shifted_b) == pytest.approx(box_iou(a, b), abs=1e-12)

    @given(boxes(), boxes())
    def test_bounded(self, a, b):
        assert 0.0 <= box_iou(a, b) <= 1.0


def reference_iou(a, b):
    """The box IoU as written with the builtin ``min`` and ``max``."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    if iw <= 0.0:
        return 0.0
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


zeros = st.sampled_from([0.0, -0.0])
sides = st.integers(1, 6).map(float)


@st.composite
def zero_edged_box(draw):
    """A box whose x and y intervals each have a 0.0 or -0.0 end, low or high."""
    def interval():
        side, zero = draw(sides), draw(zeros)
        return (zero, side) if draw(st.booleans()) else (-side, zero)

    (x1, x2), (y1, y2) = interval(), interval()
    return Box2D(x1, y1, x2, y2)


iou_boxes = st.one_of(any_box, zero_edged_box())


@st.composite
def touching_pair(draw):
    """A box and one sharing its right or bottom edge; a zero edge may change sign."""
    a = draw(iou_boxes)
    side = draw(sides)
    if draw(st.booleans()):
        x1 = draw(st.sampled_from([a.x2, -a.x2])) if a.x2 == 0.0 else a.x2
        return a, Box2D(x1, a.y1, max(x1 + side, math.nextafter(x1, math.inf)), a.y2)
    y1 = draw(st.sampled_from([a.y2, -a.y2])) if a.y2 == 0.0 else a.y2
    return a, Box2D(a.x1, y1, a.x2, max(y1 + side, math.nextafter(y1, math.inf)))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.tuples(iou_boxes, iou_boxes), touching_pair()))
def test_box_iou_is_bit_equal_to_builtin_min_max(pair):
    # box_iou writes min and max out as comparisons; this pins them to the builtins,
    # and through box_iou the linker, tube_iou and the brute-force oracles
    a, b = pair
    assert box_iou(a, b).hex() == reference_iou(a, b).hex()
    assert box_iou(b, a).hex() == reference_iou(b, a).hex()


class TestTemporalIou:
    def test_identical(self):
        assert temporal_iou(TemporalSpan(0, 9), TemporalSpan(0, 9)) == 1.0

    def test_disjoint(self):
        assert temporal_iou(TemporalSpan(0, 9), TemporalSpan(10, 19)) == 0.0

    def test_partial(self):
        # frames {2,3} shared out of {0..5}
        assert temporal_iou(TemporalSpan(0, 3), TemporalSpan(2, 5)) == pytest.approx(1 / 3)

    def test_span_invariants(self):
        with pytest.raises(ValueError):
            TemporalSpan(5, 4)
        assert TemporalSpan(3, 3).length == 1


class TestTubeIou:
    def test_identical(self):
        t = make_tube(0, 2, [(0, 0, 10, 10)] * 3)
        assert tube_iou(t, t) == 1.0

    def test_temporally_disjoint(self):
        a = make_tube(0, 2, [(0, 0, 10, 10)] * 3)
        b = make_tube(5, 7, [(0, 0, 10, 10)] * 3)
        assert tube_iou(a, b) == 0.0

    def test_partial_temporal_same_boxes(self):
        # spans [0,3] and [2,5], identical boxes on the shared frames 2 and 3
        a = make_tube(0, 3, [(0, 0, 10, 10)] * 4)
        b = make_tube(2, 5, [(0, 0, 10, 10)] * 4)
        assert tube_iou(a, b) == pytest.approx(1 / 3)

    def test_upper_bounds(self):
        a = make_tube(0, 3, [(0, 0, 10, 10)] * 4)
        b = make_tube(2, 5, [(0, 0, 10, 10), (0, 0, 10, 10), (5, 0, 15, 10), (5, 0, 15, 10)])
        t = temporal_iou(a.span, b.span)
        per_frame = [box_iou(a.boxes[f], b.boxes[f - 2]) for f in (2, 3)]
        assert tube_iou(a, b) <= min(t, max(per_frame)) + 1e-15

    def test_label_mismatch_still_computed(self):
        a = make_tube(0, 2, [(0, 0, 10, 10)] * 3, label=0)
        b = make_tube(0, 2, [(0, 0, 10, 10)] * 3, label=1)
        assert tube_iou(a, b) == 1.0


class TestTubeInvariants:
    def test_box_count_must_match_span(self):
        with pytest.raises(ValueError):
            make_tube(0, 2, [(0, 0, 10, 10)] * 2)


class TestRuns:
    def test_empty(self):
        assert runs([]) == []

    def test_all_false(self):
        assert runs([(4, False)]) == []
        assert runs([(1, False)] * 4) == []

    def test_all_true(self):
        assert runs([(4, True)]) == [TemporalSpan(0, 3)]
        assert runs([(1, True), (3, True)]) == [TemporalSpan(0, 3)]  # neighbours with one flag join

    def test_run_ending_at_last_flag(self):
        assert runs([(1, True), (2, False), (2, True)]) == [TemporalSpan(0, 0), TemporalSpan(3, 4)]

    def test_nonzero_start_offsets_every_span(self):
        pieces = [(1, False), (2, True), (1, False), (1, True)]
        assert runs(pieces, start=10) == [TemporalSpan(11, 12), TemporalSpan(14, 14)]

    def test_accepts_a_generator_of_truthy_values(self):
        counts = [(1, 0), (1, 2), (1, 1), (1, 0)]
        assert runs(((n, v >= 1) for n, v in counts), start=5) == [TemporalSpan(6, 7)]

    @given(st.lists(st.tuples(st.integers(1, 6), st.booleans()), max_size=20), st.integers(0, 50))
    def test_matches_the_spans_of_the_expanded_flags(self, pieces, start):
        # neighbouring runs often share a flag here, which the spans must join
        assert runs(pieces, start) == _naive_spans(expand_runs(pieces), start)


class TestIntervalRuns:
    @given(st.lists(st.integers(0, 2), max_size=30), st.data())
    def test_expands_to_the_values_the_intervals_give_their_frames(self, frames, data):
        # each frame of value v != 0 starts an interval inside its run of v, so
        # intervals of one value overlap, nest and touch, and frames of 0 get the fill
        intervals = []
        for f, v in enumerate(frames):
            if v:
                stop = f + 1
                while stop < len(frames) and frames[stop] == v:
                    stop += 1
                intervals.append((f, data.draw(st.integers(f + 1, stop)), v))
        got = _interval_runs(intervals, len(frames), 0)
        assert expand_runs(got) == frames
        assert all(n >= 1 for n, _ in got)
        assert all(a[1] != b[1] for a, b in zip(got, got[1:]))


# Coordinates on a small lattice, where touching, nested and identical boxes
# are common, and floats across a wide range, where rounding is exercised.
coords = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
)


@st.composite
def free_boxes(draw):
    x1, x2 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
    area = (x2 - x1) * (y2 - y1)
    assume(0.0 < area < math.inf)
    return (x1, y1, x2, y2)


@st.composite
def partner_box(draw, c):
    """A box for the other tube on a shared frame, related to ``c`` as drawn."""
    x1, y1, x2, y2 = c
    kind = draw(st.sampled_from(["identical", "nested", "touch_x", "touch_y", "free"]))
    if kind == "identical":
        return c
    if kind == "nested":
        inner = (x1 + (x2 - x1) / 4, y1 + (y2 - y1) / 4, x2 - (x2 - x1) / 4, y2 - (y2 - y1) / 4)
        assume(inner[0] < inner[2] and inner[1] < inner[3] and (inner[2] - inner[0]) * (inner[3] - inner[1]) > 0.0)
        return inner
    if kind == "touch_x":  # shares the edge x = x2, so iw == 0
        return (x2, y1, x2 + (x2 - x1), y2) if x2 + (x2 - x1) < math.inf else draw(free_boxes())
    if kind == "touch_y":
        return (x1, y2, x2, y2 + (y2 - y1)) if y2 + (y2 - y1) < math.inf else draw(free_boxes())
    return draw(free_boxes())


@st.composite
def partnered_boxes(draw):
    c = draw(free_boxes())
    return Box2D(*c), Box2D(*draw(partner_box(c)))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.tuples(iou_boxes, iou_boxes), touching_pair(), partnered_boxes()))
def test_corner_iou_is_bit_equal_to_box_iou(pair):
    # the per-box kernel of the one tube IoU, on the boxes' corner lists
    a, b = pair
    ca, cb = [a.x1, a.y1, a.x2, a.y2], [b.x1, b.y1, b.x2, b.y2]
    assert _corner_iou(ca, cb).hex() == box_iou(a, b).hex()
    assert _corner_iou(cb, ca).hex() == box_iou(b, a).hex()


@st.composite
def tube_pairs(draw):
    a_start, b_start = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    a_end, b_end = a_start + draw(st.integers(0, 8)), b_start + draw(st.integers(0, 8))
    a_coords = [draw(free_boxes()) for _ in range(a_start, a_end + 1)]
    b_coords = [
        draw(partner_box(a_coords[f - a_start])) if a_start <= f <= a_end else draw(free_boxes())
        for f in range(b_start, b_end + 1)
    ]
    return make_tube(a_start, a_end, a_coords), make_tube(b_start, b_end, b_coords)


def reference_tube_iou(p, g):
    """Tube IoU from its definition, frame by frame, with ``reference_iou``."""
    t = temporal_iou(p.span, g.span)
    if t == 0.0:
        return 0.0
    shared = range(max(p.span.start, g.span.start), min(p.span.end, g.span.end) + 1)
    ious = [reference_iou(p.boxes[f - p.span.start], g.boxes[f - g.span.start]) for f in shared]
    return t * (math.fsum(ious) / len(ious))


class TestTubeIouMatchesScalarTwin:
    """``tube_iou`` equals ``reference_tube_iou`` bit for bit."""

    @given(tube_pairs())
    @settings(max_examples=300, deadline=None)
    def test_random_pairs(self, pair):
        a, b = pair
        assert tube_iou(a, b) == reference_tube_iou(a, b)
        assert tube_iou(b, a) == reference_tube_iou(b, a)

    @pytest.mark.parametrize(
        "a, b",
        [
            # disjoint spans
            (make_tube(0, 2, [(0, 0, 10, 10)] * 3), make_tube(3, 5, [(0, 0, 10, 10)] * 3)),
            # touching boxes on every shared frame: iw == 0
            (make_tube(0, 2, [(0, 0, 10, 10)] * 3), make_tube(0, 2, [(10, 0, 20, 10)] * 3)),
            # nested boxes
            (make_tube(0, 2, [(0, 0, 10, 10)] * 3), make_tube(1, 2, [(2.5, 2.5, 7.25, 7.5)] * 2)),
            # identical boxes
            (make_tube(0, 3, [(0.1, 0.2, 0.7, 0.9)] * 4), make_tube(0, 3, [(0.1, 0.2, 0.7, 0.9)] * 4)),
            # partial span overlap with per-frame IoUs that round
            (
                make_tube(0, 4, [(i / 3, 0.0, i / 3 + 1.1, 1.7) for i in range(5)]),
                make_tube(2, 7, [(i / 7, 0.1, i / 7 + 0.9, 1.3) for i in range(6)]),
            ),
        ],
        ids=["disjoint-spans", "touching", "nested", "identical", "partial-span"],
    )
    def test_named_cases(self, a, b):
        assert tube_iou(a, b) == reference_tube_iou(a, b)


@pytest.mark.parametrize(
    "corners", [(0, 0, 1e308, 1e308), (-1e308, 0, 1e308, 1), (0, 0, 1e-200, 1e-200)],
    ids=["area-overflows", "width-overflows", "area-underflows"],
)
def test_box_rejects_area_outside_positive_finite(corners):
    with pytest.raises(ValueError, match="area"):
        Box2D(*corners)


@given(free_boxes())
def test_box_area_is_bit_equal_to_its_formula(corners):
    x1, y1, x2, y2 = corners
    assert Box2D(*corners).area == (x2 - x1) * (y2 - y1)
