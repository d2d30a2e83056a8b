import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubekit import (
    ActionnessSeries,
    ClipScore,
    ScoreVector,
    StreamScoreSet,
    TemporalSpan,
    actionness,
    aggregate_video,
    compose_actionness,
    frame_scores_from_clips,
    multigranular_fuse,
    softmax,
    temporal_localize,
    tube_actionness,
)
from tubekit.fusion import (
    ACTIONNESS_STREAMS, CLIP_LEN, FIXED_CROPS, GRANULARITIES, STREAMS, _elementwise_mean, _gate_runs,
    _majority_label, _prob_runs, _unchecked, fuse_video, video_actionness,
)

from oracles import (
    expand_runs, expand_series, naive_actionness, naive_frame_scores, naive_localize, naive_mean,
    naive_tube_actionness,
)


def hexes(values):
    return [v.hex() for v in values]


finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
vectors = st.lists(finite, min_size=1, max_size=8).map(lambda v: ScoreVector(tuple(v)))


@st.composite
def unit_lists(draw, min_units=1, max_units=6):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(min_units, max_units))
    return [
        ScoreVector(tuple(draw(st.lists(finite, min_size=k, max_size=k))))
        for _ in range(n)
    ]


class TestSoftmax:
    def test_symmetric_pair(self):
        assert softmax(ScoreVector((0.0, 0.0))).values == (0.5, 0.5)

    def test_constant_vector_is_uniform(self):
        out = softmax(ScoreVector((3.7,) * 4))
        assert out.values == (0.25, 0.25, 0.25, 0.25)

    def test_reference_values(self):
        out = softmax(ScoreVector((1.0, 2.0, 3.0)))
        expected = (0.09003057317038046, 0.24472847105479767, 0.6652409557748219)
        for got, ref in zip(out.values, expected):
            assert got == pytest.approx(ref, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ScoreVector((float("inf"), 0.0))

    def test_large_logits_do_not_overflow(self):
        out = softmax(ScoreVector((1000.0, 999.0)))
        assert math.isfinite(out.values[0])

    @given(vectors)
    def test_normalized(self, v):
        assert abs(math.fsum(softmax(v).values) - 1.0) <= 1e-9

    @given(vectors, st.floats(min_value=-30, max_value=30))
    def test_shift_invariant(self, v, c):
        shifted = ScoreVector(tuple(x + c for x in v.values))
        for a, b in zip(softmax(v).values, softmax(shifted).values):
            assert a == pytest.approx(b, abs=1e-9)

    @given(st.lists(st.integers(-5000, 5000).map(lambda i: i / 100), min_size=1, max_size=8))
    def test_argmax_preserved(self, values):
        # quantized logits: differences below one float ulp of exp() would
        # collapse to equal probabilities and make the argmax ambiguous
        v = ScoreVector(tuple(values))
        assert softmax(v).argmax() == v.argmax()


class TestAggregateVideo:
    UNITS = [ScoreVector((0.2, 0.8), kind="prob"), ScoreVector((0.4, 0.6), kind="prob")]

    def test_mean(self):
        label, fused = aggregate_video(self.UNITS, "mean")
        assert label == 1
        assert fused.values == pytest.approx((0.3, 0.7))

    def test_max(self):
        label, fused = aggregate_video(self.UNITS, "max")
        assert label == 1
        assert fused.values == (0.4, 0.8)

    def test_majority(self):
        units = [
            ScoreVector((0.1, 0.9), kind="prob"),
            ScoreVector((0.3, 0.7), kind="prob"),
            ScoreVector((0.8, 0.2), kind="prob"),
        ]
        label, fused = aggregate_video(units, "majority")
        assert label == 1
        assert fused.values == pytest.approx((1 / 3, 2 / 3))

    def test_majority_tie_goes_to_higher_mean(self):
        units = [ScoreVector((0.9, 0.1), kind="prob"), ScoreVector((0.2, 0.8), kind="prob")]
        label, _ = aggregate_video(units, "majority")
        assert label == 0  # means: 0.55 vs 0.45

    def test_majority_tie_of_sums_that_overflow(self):
        # classes 0 and 1 tie on votes; the sum of class 1's column overflows
        units = [ScoreVector((1e308, 1e308, 0.0)), ScoreVector((0.0, 1e308, 1e308))]
        label, fused = aggregate_video(units, "majority")
        assert label == 1
        assert fused.values == (0.5, 0.5, 0.0)

    def test_empty_units_rejected(self):
        with pytest.raises(ValueError):
            aggregate_video([], "mean")

    def test_mixed_k_rejected(self):
        with pytest.raises(ValueError):
            aggregate_video([ScoreVector((1.0,)), ScoreVector((1.0, 2.0))], "mean")

    @given(unit_lists(), st.randoms(use_true_random=False))
    def test_mean_max_permutation_invariant(self, units, rnd):
        shuffled = list(units)
        rnd.shuffle(shuffled)
        for method in ("mean", "max"):
            la, va = aggregate_video(units, method)
            lb, vb = aggregate_video(shuffled, method)
            assert la == lb
            assert va.values == vb.values  # exact, thanks to fsum

    @given(unit_lists(), st.randoms(use_true_random=False))
    def test_majority_label_permutation_invariant(self, units, rnd):
        shuffled = list(units)
        rnd.shuffle(shuffled)
        assert aggregate_video(units, "majority")[0] == aggregate_video(shuffled, "majority")[0]

    # few distinct values, huge ones included, so that vote ties and tied means are common
    TIE_PRONE = st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308]), min_size=k, max_size=k)
        .map(lambda v: ScoreVector(tuple(v))),
        min_size=1, max_size=6,
    ))

    @given(TIE_PRONE, st.integers(2, 3))
    def test_majority_of_identical_granularities_keeps_the_label(self, units, copies):
        label, histogram = aggregate_video(units, "majority")
        assert fuse_video([units] * copies, "majority") == (label, multigranular_fuse([histogram] * copies))

    def test_majority_tie_across_granularities_goes_to_the_higher_mean(self):
        # one vote each in both granularities; class 1's means are 0.5 and 0.25, class 0's 0.5 and 0.5
        net16 = [ScoreVector((1.0, 0.0)), ScoreVector((0.0, 1.0))]
        net32 = [ScoreVector((1.0, 0.0)), ScoreVector((0.0, 0.5))]
        assert _majority_label([0.5, 0.5], [net16, net32]) == 0
        assert _majority_label([0.5, 0.5], [net16, net16]) == 0  # equal means: the lower index
        assert _majority_label([0.5, 0.5], [[ScoreVector((1.0, 0.0)), ScoreVector((0.0, 3.0))], net32]) == 1

    @given(unit_lists(), st.floats(min_value=0.1, max_value=10))
    def test_label_invariant_under_positive_scaling(self, units, scale):
        scaled = [ScoreVector(tuple(x * scale for x in u.values)) for u in units]
        assert aggregate_video(units, "mean")[0] == aggregate_video(scaled, "mean")[0]


class TestMultigranularFuse:
    def test_identical_inputs_pass_through(self):
        v = ScoreVector((1.0, 2.0))
        assert multigranular_fuse([v, v, v]).values == (1.0, 2.0)

    def test_two_vectors_average(self):
        out = multigranular_fuse([ScoreVector((1.0, 0.0)), ScoreVector((0.0, 1.0))])
        assert out.values == (0.5, 0.5)

    def test_single_vector_passthrough(self):
        assert multigranular_fuse([ScoreVector((2.0, 5.0))]).values == (2.0, 5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multigranular_fuse([])


class TestFuseVideo:
    @given(unit_lists(), st.sampled_from(["mean", "max", "majority"]))
    def test_one_group_is_aggregate_video(self, units, method):
        label, fused = aggregate_video(units, method)
        got_label, got = fuse_video([units], method)
        assert (got_label, got.kind, hexes(got.values)) == (label, fused.kind, hexes(fused.values))

    @pytest.mark.parametrize("n", [0, 4])
    def test_needs_one_to_three_groups(self, n):
        with pytest.raises(ValueError, match=f"expected 1 to 3 vectors, got {n}"):
            fuse_video([[ScoreVector((1.0, 0.0))]] * n, "mean")


def score_set(entries, video_id="v", stream="rgb", granularity="net16"):
    return StreamScoreSet(
        video_id=video_id,
        stream=stream,
        granularity=granularity,
        entries=tuple(ClipScore(clip_start=s, crop_id=c, vector=v) for s, c, v in entries),
    )


class TestFrameScores:
    def test_single_clip_covers_all(self):
        s = score_set([(0, "center", ScoreVector((1.0, 3.0)))])
        frames = expand_runs(frame_scores_from_clips(s, 16))
        assert len(frames) == 16
        assert all(f.values == (1.0, 3.0) for f in frames)

    def test_overlap_averages(self):
        s = score_set([(0, "center", ScoreVector((1.0, 0.0))), (8, "center", ScoreVector((0.0, 1.0)))])
        frames = expand_runs(frame_scores_from_clips(s, 16))
        assert frames[0].values == (1.0, 0.0)
        for f in range(8, 16):
            assert frames[f].values == (0.5, 0.5)

    def test_tail_frames_take_the_later_clip(self):
        # frames 16,17 fall past the first clip but inside the second
        s = score_set([(0, "center", ScoreVector((1.0, 0.0))), (8, "center", ScoreVector((0.0, 1.0)))])
        frames = expand_runs(frame_scores_from_clips(s, 18))
        assert frames[16].values == (0.0, 1.0)
        assert frames[17].values == (0.0, 1.0)

    def test_uncovered_frames_take_nearest_clip(self):
        # frames 24..29 are covered by no clip; the clip at 8 ends nearest
        s = score_set([(0, "center", ScoreVector((1.0, 0.0))), (8, "center", ScoreVector((0.0, 1.0)))])
        frames = expand_runs(frame_scores_from_clips(s, 30))
        for f in range(24, 30):
            assert frames[f].values == (0.0, 1.0)

    def test_nearest_tie_goes_to_earlier_clip(self):
        # clips cover [0, 15] and [21, 36]; frame 18 is 3 frames from both
        s = score_set([(0, "center", ScoreVector((1.0, 0.0))), (21, "center", ScoreVector((0.0, 1.0)))])
        frames = expand_runs(frame_scores_from_clips(s, 37))
        assert frames[18].values == (1.0, 0.0)
        assert frames[19].values == (0.0, 1.0)  # one frame later the tie breaks

    def test_has_no_clip_len(self):
        # the scores file has no clip-length field: every clip is CLIP_LEN frames
        with pytest.raises(TypeError):
            StreamScoreSet(video_id="v", stream="rgb", granularity="net16", entries=(), clip_len=8)

    def test_crops_average_before_distribution(self):
        s = score_set([(0, "center", ScoreVector((1.0, 0.0))), (0, "center_flip", ScoreVector((0.0, 1.0)))])
        frames = expand_runs(frame_scores_from_clips(s, 4))
        assert frames[0].values == (0.5, 0.5)

    def test_bad_video_len(self):
        s = score_set([(0, "center", ScoreVector((1.0,)))])
        with pytest.raises(ValueError):
            frame_scores_from_clips(s, 0)


# the checks that a score set built by a library caller still gets
@pytest.mark.parametrize("fields, entries, message", [
    ({"stream": "depth"}, [(0, "center", ScoreVector((1.0, 0.0)))], "unknown stream 'depth'"),
    ({"granularity": "net64"}, [(0, "center", ScoreVector((1.0, 0.0)))], "unknown granularity 'net64'"),
    ({}, [(0, "center", ScoreVector((1.0, 0.0))), (0, "center_flip", ScoreVector((1.0, 0.0, 0.0)))],
     "mixed class counts: 3 vs 2"),
    ({}, [(0, "center", ScoreVector((1.0, 0.0))), (8, "center", ScoreVector((1.0, 0.0), "prob"))],
     "mixed raw/prob score kinds in one set"),
], ids=["unknown-stream", "unknown-granularity", "mixed-class-counts", "mixed-kinds"])
def test_checked_score_set_error_text(fields, entries, message):
    with pytest.raises(ValueError) as err:
        score_set(entries, **fields)
    assert str(err.value) == message


wide = st.one_of(finite, st.floats(min_value=-1e308, max_value=1e308, allow_nan=False))


@st.composite
def clip_layouts(draw):
    """A score set and a video length.

    Small ranges give gaps, nearest-clip distance ties, repeated starts and
    starts at or past the video's end; one set is all raw or all prob.
    """
    video_len = draw(st.integers(1, 60))
    k = draw(st.integers(1, 4))
    prob = draw(st.booleans())
    entries = []
    for start in draw(st.lists(st.integers(0, video_len + CLIP_LEN), min_size=1, max_size=8)):
        for crop in draw(st.lists(st.sampled_from(FIXED_CROPS), min_size=1, max_size=3)):
            v = ScoreVector(tuple(draw(st.lists(wide, min_size=k, max_size=k))))
            entries.append(ClipScore(start, crop, softmax(v) if prob else v))
    scores = StreamScoreSet(
        video_id="v", stream="rgb", granularity="net16", entries=tuple(entries),
    )
    return scores, video_len


@settings(max_examples=300, deadline=None)
@given(clip_layouts())
# two crops of -0.0 logits: their mean is fsum's 0.0, where -0.0 + -0.0 is -0.0
@example((score_set([(0, "center", ScoreVector((-0.0, -0.0))), (0, "center_flip", ScoreVector((-0.0, 1.0)))]), 20))
def test_frame_scores_match_scalar_twin(layout):
    scores, video_len = layout
    runs = frame_scores_from_clips(scores, video_len)
    # by bits: == takes -0.0 for 0.0
    assert [bits(v) for v in expand_runs(runs)] == [bits(v) for v in naive_frame_scores(scores, video_len)]
    assert all(n >= 1 for n, _ in runs)
    assert sum(n for n, _ in runs) == video_len
    assert all(a is not b for (_, a), (_, b) in zip(runs, runs[1:]))


class TestActionness:
    def test_all_ones(self):
        assert actionness(1.0, 1.0, 1.0) == 1.0

    def test_pose_squared(self):
        assert actionness(0.5, 1.0, 1.0) == 0.25

    def test_reference_value(self):
        assert actionness(0.9, 0.8, 0.7) == pytest.approx(0.6676, abs=1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            actionness(1.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            actionness(0.5, -0.1, 0.5)

    @given(
        st.floats(min_value=1e-30, max_value=1.0),
        st.floats(min_value=1e-30, max_value=1.0),
        st.floats(min_value=1e-30, max_value=1.0),
    )
    def test_positive_for_positive_inputs(self, p, r, f):
        assert actionness(p, r, f) > 0.0

    def test_zero_iff_any_zero(self):
        assert actionness(0.0, 0.5, 0.5) == 0.0
        assert actionness(0.5, 0.0, 0.5) == 0.0
        assert actionness(0.5, 0.5, 0.0) == 0.0

    @given(
        st.floats(min_value=0, max_value=0.9),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_monotone_in_pose(self, p, r, f):
        assert actionness(p + 0.1, r, f) >= actionness(p, r, f)


def per_frame_series(values, human):
    """A series of one-frame pieces."""
    return ActionnessSeries(tuple((1, v, h) for v, h in zip(values, human, strict=True)))


class TestActionnessSeries:
    def test_length_is_the_frame_count(self):
        assert len(ActionnessSeries(((3, 0.5, True), (1, 0.5, True), (4, 0.0, False)))) == 8
        assert len(ActionnessSeries(())) == 0

    @pytest.mark.parametrize("n", [0, -1, 1.0, True])
    def test_piece_length_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError, match="positive integer length"):
            ActionnessSeries(((2, 0.5, True), (n, 0.5, True)))

    def test_ends_are_each_piece_end(self):
        assert ActionnessSeries(((2, 0.5, True), (3, 0.1, False))).ends == (2, 5)


class TestTubeActionness:
    def test_zero_series(self):
        assert tube_actionness(TemporalSpan(0, 4), ActionnessSeries(((5, 0.0, True),))) == 0.0

    def test_constant_series(self):
        assert tube_actionness(TemporalSpan(0, 9), ActionnessSeries(((10, 0.5, True),))) == 5.0

    def test_partial_sum(self):
        series = per_frame_series([0.1, 0.2, 0.3, 0.4, 0.5], [True] * 5)
        assert tube_actionness(TemporalSpan(1, 3), series) == pytest.approx(0.9)

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            tube_actionness(TemporalSpan(3, 6), ActionnessSeries(((5, 0.5, True),)))

    def test_sum_of_repeats_is_rounded_once(self):
        # nine frames of 0.1 sum to 0.9 rounded once; fsum of the per-piece
        # products 3 * 0.1 and 6 * 0.1 is 0.9000000000000001
        series = ActionnessSeries(((3, 0.1, True), (6, 0.1, False), (1, 0.5, True)))
        assert tube_actionness(TemporalSpan(0, 8), series) == 0.9 == math.fsum([0.1] * 9)
        assert math.fsum([3 * 0.1, 6 * 0.1]) == 0.9000000000000001
        assert tube_actionness(TemporalSpan(2, 9), series) == math.fsum([0.1] * 7 + [0.5])


class TestTemporalLocalize:
    def test_full_video(self):
        spans = temporal_localize(ActionnessSeries(((5, 0.9, True),)), 0.5)
        assert spans == [TemporalSpan(0, 4)]

    def test_human_gate_blocks_everything(self):
        spans = temporal_localize(ActionnessSeries(((5, 0.9, False),)), 0.5)
        assert spans == []

    def test_threshold_scan(self):
        spans = temporal_localize(ActionnessSeries(((2, 0.9, True), (1, 0.1, True), (2, 0.9, True))), 0.5)
        assert spans == [TemporalSpan(0, 1), TemporalSpan(3, 4)]

    def test_neighbouring_pieces_that_pass_are_joined(self):
        series = ActionnessSeries(((2, 0.9, True), (3, 0.5, True), (1, 0.5, False), (2, 0.7, True)))
        assert temporal_localize(series, 0.5) == [TemporalSpan(0, 4), TemporalSpan(6, 7)]

    def test_non_finite_threshold(self):
        with pytest.raises(ValueError):
            temporal_localize(ActionnessSeries(((1, 0.5, True),)), float("nan"))

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=0, max_size=40),
        st.floats(min_value=0, max_value=1),
    )
    def test_spans_cover_exactly_qualifying_frames(self, values, threshold):
        human = [i % 3 != 0 for i in range(len(values))]
        series = per_frame_series(values, human)
        spans = temporal_localize(series, threshold)
        covered = set()
        for s in spans:
            assert not covered & set(s.frames())
            covered |= set(s.frames())
        expected = {t for t in range(len(values)) if human[t] and values[t] >= threshold}
        assert covered == expected


class TestComposeActionness:
    def test_composes_formula(self):
        series = compose_actionness([(1, 0.5)], [(1, 1.0)], [(1, 1.0)], [(1, True)])
        assert series.pieces == ((1, 0.25, True),)

    def test_cuts_at_every_boundary(self):
        series = compose_actionness([(4, 0.5)], [(1, 1.0), (3, 0.0)], [(2, 1.0), (2, 1.0)], [(3, True), (1, False)])
        assert series.pieces == ((1, 0.25, True), (1, 0.0, True), (1, 0.0, True), (1, 0.0, False))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compose_actionness([(1, 0.5)], [(1, 1.0)], [(1, 1.0)], [(1, True), (1, False)])


# values with +-1e308 often enough that a column's fsum overflows, over two crops of
# one clip or over two clips that share a run, and takes _mean's scaled path
huge_or_wide = st.one_of(wide, st.sampled_from([1e308, -1e308]))


def stream_set(draw, stream, video_len, k):
    """A stream's score set with a clip layout of its own: gaps, repeated starts, starts past the end."""
    prob = draw(st.booleans())
    entries = []
    for start in draw(st.lists(st.integers(0, video_len + CLIP_LEN), min_size=1, max_size=6)):
        for crop in draw(st.lists(st.sampled_from(FIXED_CROPS), min_size=1, max_size=2)):
            v = ScoreVector(tuple(draw(st.lists(huge_or_wide, min_size=k, max_size=k))))
            entries.append(ClipScore(start, crop, softmax(v) if prob else v))
    return StreamScoreSet(video_id="v", stream=stream, granularity="net16", entries=tuple(entries))


@st.composite
def actionness_videos(draw):
    """Human-present intervals with their per-frame flags, tube spans to sum over, and the three streams' score sets.

    The intervals are single frames, as detections give them, with empty
    interior and trailing frames, or spans, as tubes give them, that may
    overlap, nest, touch or repeat. Either kind comes in any order.
    """
    length = draw(st.integers(1, 70))
    frame = st.integers(0, length - 1)
    if draw(st.booleans()):
        present = [(f, f + 1) for f in draw(st.lists(frame, unique=True))]
    else:
        spans = draw(st.lists(st.tuples(frame, st.integers(1, 30)), min_size=1, max_size=5))
        present = [(a, min(a + d, length)) for a, d in spans]
        present += draw(st.lists(st.sampled_from(present), max_size=2))
    flags = [any(a <= f < b for a, b in present) for f in range(length)]
    spans = draw(st.lists(st.tuples(frame, frame), max_size=3))
    tubes = [TemporalSpan(min(s), max(s)) for s in spans] + [TemporalSpan(a, b - 1) for a, b in present]
    k = draw(st.integers(1, 3))
    sets = [stream_set(draw, stream, length, k) for stream in ACTIONNESS_STREAMS]
    return present, flags, tubes, sets, draw(st.integers(0, k - 1))


@settings(max_examples=300, deadline=None)
@given(actionness_videos(), st.data())
def test_actionness_runs_match_frames(video, data):
    present, flags, tubes, sets, cls = video
    human = _gate_runs(present, len(flags))
    assert expand_runs(human) == flags
    assert all(a[1] != b[1] for a, b in zip(human, human[1:]))  # neighbouring runs differ
    series = video_actionness(sets, present, len(flags), cls)

    frame_probs = [
        [(softmax(v) if v.kind == "raw" else v).values[cls] for v in naive_frame_scores(s, len(flags))]
        for s in sets
    ]
    values, gate = naive_actionness(*frame_probs, flags)
    got_values, got_gate = expand_series(series)
    assert hexes(got_values) == hexes(values)
    assert got_gate == gate
    # thresholds equal to a piece's value, and between values
    threshold = data.draw(st.sampled_from(values) | st.floats(0.0, 1.0))
    assert temporal_localize(series, threshold) == naive_localize(values, gate, threshold)
    assert hexes(tube_actionness(t, series) for t in tubes) == hexes(naive_tube_actionness(t, values) for t in tubes)


def one_clip_streams(k=2):
    return [score_set([(0, "center", ScoreVector((1.0,) * k))], stream=s) for s in ACTIONNESS_STREAMS]


@pytest.mark.parametrize("cls", [-1, 2])
def test_video_actionness_rejects_a_class_outside_k(cls):
    with pytest.raises(ValueError, match=rf"class {cls} outside \[0, 2\) for the pose scores"):
        video_actionness(one_clip_streams(), [(0, 4)], 10, cls)


@pytest.mark.parametrize("interval", [(3, 3), (5, 4), (-1, 2), (5, 11)])
def test_video_actionness_rejects_an_empty_or_outside_interval(interval):
    start, stop = interval
    with pytest.raises(ValueError, match=rf"interval \[{start}, {stop}\) is empty or outside \[0, 10\)"):
        video_actionness(one_clip_streams(), [(0, 4), interval], 10, 0)


@pytest.mark.parametrize("pick", [lambda s: s[:2], lambda s: s + s[:1], lambda s: s[::-1]],
                         ids=["two", "four", "reversed"])
def test_video_actionness_needs_the_three_score_sets_in_order(pick):
    streams = pick(one_clip_streams())
    got = tuple(s.stream for s in streams)
    with pytest.raises(ValueError, match=re.escape(f"expected the score sets of {ACTIONNESS_STREAMS}, got {got}")):
        video_actionness(streams, [(0, 4)], 10, 0)


# raw scores as they come: huge values, signed zeros, and few enough distinct ones for ties
RAW_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(RAW_SCORES, min_size=k, max_size=k), min_size=1, max_size=6)
    ),
    st.data(),
)
def test_prob_runs_are_softmax_entries_to_the_bit(vectors, data):
    # two crops per clip, clips 8 frames apart: runs of one clip and runs of two
    entries = tuple(
        ClipScore(8 * (i // 2), FIXED_CROPS[i % 2], ScoreVector(tuple(v))) for i, v in enumerate(vectors)
    )
    scores = StreamScoreSet("v", "rgb", "net16", entries)
    length = data.draw(st.integers(1, 40))
    cls = data.draw(st.integers(0, len(vectors[0]) - 1))
    want = [(n, softmax(vec).values[cls].hex()) for n, vec in frame_scores_from_clips(scores, length)]
    assert [(n, p.hex()) for n, p in _prob_runs(scores, length, cls)] == want


@pytest.mark.parametrize("n", [2, 3, 7])
def test_mean_of_values_whose_sum_overflows(n):
    big = 1.7976931348623157e308  # the largest finite float
    units = [ScoreVector(values=(big, -big, 0.0)) for _ in range(n)]
    label, fused = aggregate_video(units, "mean")
    assert label == 0
    assert fused.values == (big, -big, 0.0)
    assert multigranular_fuse([fused, fused]).values == (big, -big, 0.0)


def test_prob_entries_must_lie_in_unit_interval():
    with pytest.raises(ValueError, match="above 1"):
        ScoreVector((1.0000000005, 0.0), kind="prob")
    with pytest.raises(ValueError, match="negative"):
        ScoreVector((1.0, -1e-12), kind="prob")


def test_mean_of_prob_vectors_whose_rounded_sum_misses_the_tolerance():
    # each sums to 1 within 1e-9; the rounded sum of their mean is 1.000000001
    a = ScoreVector((0.2707664883780633, 0.7292335126219366), kind="prob")
    b = ScoreVector((0.0872546530413557, 0.9127453479586443), kind="prob")
    label, fused = aggregate_video([a, b], "mean")
    assert label == 1
    assert fused.kind == "prob"
    assert abs(math.fsum(fused.values) - 1.0) > 1e-9


# finite values, with +-1e308 whose column sums overflow and take _mean's scaled path
extreme = st.one_of(finite, st.sampled_from([1e308, -1e308]), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def mixed_sets(draw, max_units=6):
    """1 to max_units vectors of one K, each raw or prob, so one set can mix kinds."""
    k = draw(st.integers(1, 5))
    out = []
    for _ in range(draw(st.integers(1, max_units))):
        if draw(st.booleans()):
            out.append(ScoreVector(tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))), "prob"))
        else:
            out.append(ScoreVector(tuple(draw(st.lists(extreme, min_size=k, max_size=k)))))
    return out


def assert_passes_checks(out):
    """A vector built unchecked is one that the checked constructor builds equal."""
    assert all(type(v) is float for v in out.values)
    assert ScoreVector(out.values, out.kind) == out


def bits(v):
    return v.kind, [x.hex() for x in v.values]


@settings(max_examples=300, deadline=None)
@given(mixed_sets())
# columns of -0.0 only: fsum's mean is 0.0, a pairwise sum's -0.0
@example([ScoreVector((-0.0, -0.0)), ScoreVector((-0.0, -0.0))])
@example([ScoreVector((-0.0, -0.0, -0.0)), ScoreVector((-0.0, -0.0, -0.0)), ScoreVector((-0.0, -0.0, -0.0))])
# a pair whose sum overflows, though its mean does not
@example([ScoreVector((1e308, -1.0)), ScoreVector((1e308, 1.0))])
def test_derived_vectors_pass_the_checks(vectors):
    for v in vectors:
        assert_passes_checks(softmax(v))
    mean = _elementwise_mean(vectors)
    assert_passes_checks(mean)
    assert bits(mean) == bits(naive_mean(vectors))
    for method in ("mean", "max", "majority"):
        assert_passes_checks(aggregate_video(vectors, method)[1])
    fused = multigranular_fuse(vectors[:3])
    assert_passes_checks(fused)
    assert bits(fused) == bits(naive_mean(vectors[:3]))


def test_mean_of_mixed_class_counts_raises():
    with pytest.raises(ValueError):
        _elementwise_mean([ScoreVector((1.0, 2.0)), ScoreVector((1.0,))])


def assert_same_value(cls, fields):
    unchecked, checked = _unchecked(cls, **fields), cls(**fields)
    assert unchecked == checked
    assert vars(unchecked) == vars(checked)
    assert hash(unchecked) == hash(checked)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.sampled_from(["raw", "prob"]), st.data())
def test_unchecked_builds_what_the_checked_constructors_build(k, kind, data):
    entry = st.floats(0.0, 1.0) if kind == "prob" else wide
    clips = []
    for _ in range(data.draw(st.integers(0, 3))):
        vector = {"values": tuple(data.draw(st.lists(entry, min_size=k, max_size=k))), "kind": kind}
        assert_same_value(ScoreVector, vector)
        clip = {"clip_start": data.draw(st.integers(0, 100)), "crop_id": data.draw(st.sampled_from(FIXED_CROPS)),
                "vector": ScoreVector(**vector)}
        assert_same_value(ClipScore, clip)
        clips.append(ClipScore(**clip))
    assert_same_value(StreamScoreSet, {
        "video_id": "v", "stream": data.draw(st.sampled_from(STREAMS)),
        "granularity": data.draw(st.sampled_from(GRANULARITIES)), "entries": tuple(clips),
    })
