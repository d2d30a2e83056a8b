import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit import (
    Box2D,
    DetectionCountSeries,
    FrameDetections,
    TemporalSpan,
    continuous_regions,
    count_series,
    median_smooth,
    pad_detections,
)


def naive_median(series, window):
    """Reference: sort every clamped window, take the lower median."""
    n = len(series)
    out = []
    for t in range(n):
        lo = max(0, t - window // 2)
        hi = min(n - 1, t + (window - 1) // 2)
        win = sorted(series[lo : hi + 1])
        out.append(win[(len(win) - 1) // 2])
    return out


def dets_from_counts(counts, video_id="v"):
    frames = {}
    for f, c in enumerate(counts):
        frames[f] = tuple(Box2D(0, 0, 10 + i, 10) for i in range(c))
    return FrameDetections(video_id=video_id, length=len(counts), frames=frames)


series_st = st.lists(st.integers(0, 9), min_size=0, max_size=120)


class TestCountSeries:
    def test_basic(self):
        assert count_series(dets_from_counts([2, 0, 1])) == [2, 0, 1]

    def test_empty_video(self):
        assert count_series(FrameDetections(video_id="v", length=0)) == []

    def test_constant(self):
        assert count_series(dets_from_counts([1] * 5)) == [1, 1, 1, 1, 1]


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


class TestPadDetections:
    def test_duplicates_to_expected(self):
        dets = dets_from_counts([1])
        out = pad_detections(dets, [3])
        assert len(out.boxes_on(0)) == 3
        assert len(set(out.boxes_on(0))) == 1

    def test_empty_frame_stays_empty(self):
        dets = dets_from_counts([0])
        out = pad_detections(dets, [2])
        assert out.boxes_on(0) == ()

    def test_largest_box_is_duplicated(self):
        small = Box2D(0, 0, 5, 5)  # area 25
        big = Box2D(0, 0, 10, 10)  # area 100
        dets = FrameDetections(video_id="v", length=1, frames={0: (small, big)})
        out = pad_detections(dets, [3])
        assert out.boxes_on(0) == (small, big, big)

    def test_ties_take_first_occurrence(self):
        a = Box2D(0, 0, 10, 10)
        b = Box2D(50, 50, 60, 60)  # same area
        dets = FrameDetections(video_id="v", length=1, frames={0: (a, b)})
        out = pad_detections(dets, [3])
        assert out.boxes_on(0) == (a, b, a)

    def test_extra_boxes_left_intact(self):
        dets = dets_from_counts([4])
        out = pad_detections(dets, [2])
        assert out.boxes_on(0) == dets.boxes_on(0)

    def test_pads_to_elementwise_max(self):
        out = pad_detections(dets_from_counts([2, 1, 2]), [1, 3, 1])
        assert count_series(out) == [2, 3, 2]

    def test_equal_counts_unchanged(self):
        dets = dets_from_counts([1, 2, 3])
        assert pad_detections(dets, [1, 2, 3]) == dets

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pad_detections(dets_from_counts([1, 2]), [1])

    def test_zero_raw(self):
        # a frame with no detections has no box to copy, whatever the smoothed count
        out = pad_detections(dets_from_counts([0, 0]), [3, 1])
        assert count_series(out) == [0, 0]

    @given(series_st, st.integers(1, 30))
    def test_pads_to_max_of_raw_and_smoothed(self, counts, window):
        # padding to the smoothed count reaches the paper's expected count, max(raw, smoothed)
        dets = dets_from_counts(counts)
        smoothed = DetectionCountSeries.from_detections(dets, window).smoothed
        out = pad_detections(dets, smoothed)
        assert count_series(out) == [max(c, s) if c else 0 for c, s in zip(counts, smoothed)]

    @given(series_st.filter(lambda s: len(s) > 0))
    def test_originals_preserved_and_counts_reached(self, counts):
        dets = dets_from_counts(counts)
        series = DetectionCountSeries.from_detections(dets, 3)
        out = pad_detections(dets, list(series.smoothed))
        for f in range(dets.length):
            orig = dets.boxes_on(f)
            padded = out.boxes_on(f)
            assert padded[: len(orig)] == orig
            if orig:
                assert len(padded) >= series.smoothed[f]
            else:
                assert padded == ()


class TestContinuousRegions:
    def test_two_runs(self):
        assert continuous_regions([0, 1, 1, 0, 1]) == [TemporalSpan(1, 2), TemporalSpan(4, 4)]

    def test_all_zero(self):
        assert continuous_regions([0, 0, 0]) == []

    def test_all_ones(self):
        assert continuous_regions([1] * 7) == [TemporalSpan(0, 6)]

    @given(series_st)
    def test_union_matches_positive_frames(self, series):
        regions = continuous_regions(series)
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
