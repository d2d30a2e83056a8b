from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubekit import (
    Box2D,
    DetectionCountSeries,
    FrameDetections,
    TemporalSpan,
    median_smooth,
    pad_detections,
)

from oracles import _naive_spans, expand_runs, naive_median


def dets_from_counts(counts, video_id="v"):
    frames = {}
    for f, c in enumerate(counts):
        frames[f] = tuple(Box2D(0, 0, 10 + i, 10) for i in range(c))
    return FrameDetections(video_id=video_id, length=len(counts), frames=frames)


def box_counts(dets):
    return [len(dets.frames.get(f, ())) for f in range(dets.length)]


def raw_series(counts):
    """The series of ``counts`` at window 1, where smoothing leaves every count as it is."""
    return DetectionCountSeries.from_detections(dets_from_counts(counts), 1)


def series_of(counts):
    """A hand-built series of per-frame ``counts``: one run per stretch of equal counts."""
    return DetectionCountSeries(tuple((len(list(group)), v) for v, group in groupby(counts)))


series_st = st.lists(st.integers(0, 9), min_size=0, max_size=120)


class TestCountSeries:
    """A window of 1 keeps the raw counts, frame for frame."""

    def test_basic(self):
        series = raw_series([2, 0, 1])
        assert series.pieces == ((1, 2), (1, 0), (1, 1))
        assert expand_runs(series.pieces) == [2, 0, 1]

    def test_empty_video(self):
        series = DetectionCountSeries.from_detections(FrameDetections(video_id="v", length=0), 1)
        assert len(series) == 0
        assert series.pieces == ()

    def test_constant(self):
        series = raw_series([1] * 5)
        assert expand_runs(series.pieces) == [1, 1, 1, 1, 1]
        assert series.pieces == ((5, 1),)


# One case per case of the constructor's former (length, starts, values) form, under the id
# that case was run as.
_BAD_PIECES = [
    pytest.param(((0, 1),), id="3-starts0-values0"),  # a run of no frames
    pytest.param(((-2, 1),), id="3-starts1-values1"),  # a run of a negative length
    pytest.param(((1.0, 1),), id="3-starts2-values2"),  # a float length
    pytest.param(((True, 1),), id="3-starts3-values3"),  # a bool length
    pytest.param((("2", 1),), id="0-starts4-values4"),  # a string length
    pytest.param(((None, 1),), id="-1-starts5-values5"),  # no length
    pytest.param(((2, 1, 0),), id="3-starts6-values6"),  # a run with a third field
    pytest.param(((2,),), id="3-starts7-values7"),  # a run without a count
    pytest.param(((3, 1), (0, 2), (3, 1)), id="4-starts8-values8"),  # an empty run between two
    pytest.param(((1, 0), (3, 2), (2, 2)), id="4-starts9-values9"),  # neighbouring runs of one count
    pytest.param(((2, 1), (1, 1)), id="4-starts10-values10"),  # ditto, at the start
]


class TestSeriesConstructor:
    @pytest.mark.parametrize("pieces", _BAD_PIECES)
    def test_inconsistent_runs_rejected(self, pieces):
        with pytest.raises(ValueError):
            DetectionCountSeries(pieces)

    def test_consistent_runs_accepted(self):
        assert DetectionCountSeries(()).regions() == []
        assert DetectionCountSeries(((1, 0),)).regions() == []
        series = DetectionCountSeries(((2, 1), (2, 0), (1, 1)))
        assert len(series) == 5
        assert expand_runs(series.pieces) == [1, 1, 0, 0, 1]
        assert series.regions() == [TemporalSpan(0, 1), TemporalSpan(4, 4)]
        # neighbouring runs of different positive counts make one region
        assert DetectionCountSeries(((1, 0), (2, 1), (3, 2))).regions() == [TemporalSpan(1, 5)]


class TestMedianSmooth:
    def test_constant_any_window(self):
        for w in (1, 2, 3, 80):
            assert median_smooth([3, 3, 3, 3], w) == [3, 3, 3, 3]

    def test_spike_removed(self):
        assert median_smooth([1, 1, 1, 9, 1, 1, 1], 3) == [1, 1, 1, 1, 1, 1, 1]

    def test_fully_clamped_window(self):
        # every window clamps to the whole series; lower median of {0,5,5} is 5
        assert median_smooth([5, 0, 5], 5) == [5, 5, 5]

    def test_window_zero_rejected(self):
        with pytest.raises(ValueError):
            median_smooth([1, 2, 3], 0)

    def test_even_window_takes_lower_median(self):
        # window 2 covers [t-1, t]: pairs (0), (0,9), (9,4), (4,4)
        assert median_smooth([0, 9, 4, 4], 2) == [0, 0, 4, 4]

    @given(series_st, st.sampled_from([1, 2, 3, 5, 80, 81]))
    def test_matches_naive_reference(self, series, window):
        assert median_smooth(series, window) == naive_median(series, window)

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=80), st.sampled_from([3, 80]))
    def test_output_within_input_range(self, series, window):
        out = median_smooth(series, window)
        assert min(out) >= min(series)
        assert max(out) <= max(series)


@st.composite
def count_layouts(draw):
    """Per-frame counts of 0-400 frames: dense, a count per frame, or sparse,
    bursts of boxes between runs of up to 200 empty frames."""
    n = draw(st.integers(0, 400))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    counts: list[int] = []
    while len(counts) < n:
        counts += [0] * draw(st.integers(0, 200))
        counts += draw(st.lists(st.integers(1, 5), max_size=12))
    return counts[:n]


@st.composite
def layouts_and_windows(draw):
    counts = draw(count_layouts())
    n = len(counts)
    kinds = [st.integers(1, 200), st.integers(1, 100).map(lambda k: 2 * k)]
    if 2 * n < 200:
        kinds.append(st.integers(2 * n + 1, 200))  # longer than twice the video
    return counts, draw(st.one_of(kinds))


class TestRunSmoother:
    """The run smoother behind DetectionCountSeries and median_smooth, against the sorted-window reference."""

    @settings(max_examples=300, deadline=None)
    @given(layouts_and_windows())
    @example(([], 1))
    @example(([1] + [0] * 398 + [1], 80))
    @example(([2, 0, 3], 200))
    def test_matches_naive_median_frame_for_frame(self, layout):
        counts, window = layout
        want = naive_median(counts, window)
        assert median_smooth(counts, window) == want
        series = DetectionCountSeries.from_detections(dets_from_counts(counts), window)
        assert expand_runs(series.pieces) == want
        assert len(series) == len(counts)
        assert series.regions() == _naive_spans([v >= 1 for v in want], 0)
        # the runs have positive int lengths, and neighbours differ in count
        assert all(type(n) is int and n >= 1 for n, _ in series.pieces)
        assert all(a[1] != b[1] for a, b in zip(series.pieces, series.pieces[1:]))
        assert DetectionCountSeries(series.pieces) == series

    def test_long_zero_run_is_one_run(self):
        counts = [1] + [0] * 100_000 + [1]
        series = DetectionCountSeries.from_detections(dets_from_counts(counts), 80)
        assert series.pieces == ((100_002, 0),)
        assert series.regions() == []


class TestPadDetections:
    def test_duplicates_to_expected(self):
        dets = dets_from_counts([1])
        out = pad_detections(dets, series_of([3]))
        assert len(out.frames.get(0, ())) == 3
        assert len(set(out.frames.get(0, ()))) == 1

    def test_empty_frame_stays_empty(self):
        dets = dets_from_counts([0])
        out = pad_detections(dets, series_of([2]))
        assert out.frames.get(0, ()) == ()

    def test_largest_box_is_duplicated(self):
        small = Box2D(0, 0, 5, 5)  # area 25
        big = Box2D(0, 0, 10, 10)  # area 100
        dets = FrameDetections(video_id="v", length=1, frames={0: (small, big)})
        out = pad_detections(dets, series_of([3]))
        assert out.frames.get(0, ()) == (small, big, big)

    def test_ties_take_first_occurrence(self):
        a = Box2D(0, 0, 10, 10)
        b = Box2D(50, 50, 60, 60)  # same area
        dets = FrameDetections(video_id="v", length=1, frames={0: (a, b)})
        out = pad_detections(dets, series_of([3]))
        assert out.frames.get(0, ()) == (a, b, a)

    def test_extra_boxes_left_intact(self):
        dets = dets_from_counts([4])
        out = pad_detections(dets, series_of([2]))
        assert out.frames.get(0, ()) == dets.frames.get(0, ())

    def test_pads_to_elementwise_max(self):
        out = pad_detections(dets_from_counts([2, 1, 2]), series_of([1, 3, 1]))
        assert box_counts(out) == [2, 3, 2]

    def test_equal_counts_unchanged(self):
        dets = dets_from_counts([1, 2, 3])
        assert pad_detections(dets, series_of([1, 2, 3])) == dets

    def test_no_short_frame_returns_the_input_itself(self):
        dets = dets_from_counts([1, 0, 3, 2])
        assert pad_detections(dets, series_of([1, 5, 2, 2])) is dets

    def test_series_pads_as_its_expansion(self):
        # window 3: frame 1 sees (2, 1, 2) and frame 5 (3, 1, 3); empty frame 3 stays empty
        dets = dets_from_counts([2, 1, 2, 0, 3, 1, 3])
        series = DetectionCountSeries.from_detections(dets, 3)
        out = pad_detections(dets, series)
        for f, want in enumerate(expand_runs(series.pieces)):
            boxes = dets.frames.get(f, ())
            largest = max(boxes, key=lambda b: b.area) if boxes else None
            assert out.frames.get(f, ()) == boxes + (largest,) * (want - len(boxes) if boxes else 0)
        assert box_counts(out) == [2, 2, 2, 0, 3, 3, 3]

    def test_length_mismatch(self):
        for counts in ([1], [1, 2, 2]):
            with pytest.raises(ValueError):
                pad_detections(dets_from_counts([1, 2]), series_of(counts))

    def test_zero_raw(self):
        # a frame with no detections has no box to copy, whatever the smoothed count
        out = pad_detections(dets_from_counts([0, 0]), series_of([3, 1]))
        assert box_counts(out) == [0, 0]

    @given(series_st, st.integers(1, 30))
    def test_pads_to_max_of_raw_and_smoothed(self, counts, window):
        # padding to the smoothed count reaches the paper's expected count, max(raw, smoothed)
        dets = dets_from_counts(counts)
        series = DetectionCountSeries.from_detections(dets, window)
        out = pad_detections(dets, series)
        smoothed = expand_runs(series.pieces)
        assert box_counts(out) == [max(c, s) if c else 0 for c, s in zip(counts, smoothed)]

    @given(series_st.filter(lambda s: len(s) > 0))
    def test_originals_preserved_and_counts_reached(self, counts):
        dets = dets_from_counts(counts)
        series = DetectionCountSeries.from_detections(dets, 3)
        out = pad_detections(dets, series)
        for f, smoothed in enumerate(expand_runs(series.pieces)):
            orig = dets.frames.get(f, ())
            padded = out.frames.get(f, ())
            assert padded[: len(orig)] == orig
            if orig:
                assert len(padded) >= smoothed
            else:
                assert padded == ()


class TestContinuousRegions:
    """``regions()`` at window 1: the maximal spans of frames that hold boxes."""

    def test_two_runs(self):
        assert raw_series([0, 1, 1, 0, 1]).regions() == [TemporalSpan(1, 2), TemporalSpan(4, 4)]

    def test_all_zero(self):
        assert raw_series([0, 0, 0]).regions() == []

    def test_all_ones(self):
        assert raw_series([1] * 7).regions() == [TemporalSpan(0, 6)]

    @given(series_st)
    def test_union_matches_positive_frames(self, series):
        regions = raw_series(series).regions()
        covered = set()
        prev_end = None
        for r in regions:
            frames = set(r.frames())
            assert not frames & covered
            if prev_end is not None:
                assert r.start > prev_end + 1  # disjoint and non-adjacent
            covered |= frames
            prev_end = r.end
        assert covered == {t for t, v in enumerate(series) if v >= 1}
