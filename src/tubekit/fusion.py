"""Score-level arithmetic: softmax, aggregation, actionness, localization.

All means use exactly-rounded summation (math.fsum), which makes the
aggregations permutation invariant down to the last bit. Every mean of
vectors here comes from one column-mean kernel, ``_column_means``, over
value tuples.

A video's scores are constant over runs of frames, one clip's worth or
less, so its actionness is kept as ``(length, value)`` runs, as is every
per-frame signal here: ``_clip_runs``, the one clip-to-frame run
builder, returns ``(length, values)`` runs of value tuples, which
``_prob_runs`` reads for one class's probability and
``frame_scores_from_clips`` returns as ``(length, vector)`` runs of
``ScoreVector``s; ``compose_actionness`` cuts the three
streams' runs and the gate's at the union of their boundaries and
computes ``actionness`` once per piece, ``temporal_localize`` finds the
spans with ``geometry.runs`` and ``tube_actionness`` reads the pieces.
The gate's runs come from ``geometry._interval_runs``, the run builder
of the detection counts too.
Their work grows with the number of pieces, not with the video's
length; the per-frame twins are in ``tests/oracles.py``.

The per-video entry points are ``fuse_video``, a video's label, and
``video_actionness``, one class's series gated by human presence.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import attrgetter
from typing import Iterable, Sequence

from .geometry import TemporalSpan, _check_lengths, _interval_runs, _unchecked, runs

STREAMS = ("pose", "flow", "rgb")
# the order in which video_actionness takes the streams, and compose_actionness their runs
ACTIONNESS_STREAMS = ("pose", "rgb", "flow")
GRANULARITIES = ("net16", "net32", "netW")
KINDS = ("raw", "prob")
FUSION_METHODS = ("mean", "max", "majority")
CENTER_CROPS = ("center", "center_flip")
FIXED_CROPS = CENTER_CROPS + (
    "tl", "tl_flip", "tr", "tr_flip", "bl", "bl_flip", "br", "br_flip",
)
CROP_SCHEMES = {"center": CENTER_CROPS, "fixed": FIXED_CROPS}

PROB_SUM_TOL = 1e-9
# frames per scored clip: the scores file has no clip-length field, so every
# score set read or generated has clips of this length
CLIP_LEN = 16


@dataclass(frozen=True)
class ScoreVector:
    """K class scores, either raw logits or probabilities.

    Probability entries lie in [0, 1]. That their sum is 1 within
    PROB_SUM_TOL is checked where vectors are read (``read_scores``), not
    here: a mean of such vectors keeps its entries in [0, 1], but its
    rounded sum can miss the tolerance by an ulp.

    One rule for every score value (vector, clip score, set): the checked
    constructors take values from outside (``synth``, library callers, the
    reader's field-by-field path); ``_unchecked`` builds those whose checks
    hold by construction or were already made by the reader. A vector this
    module derives from checked ones passes them by construction: a
    softmax entry ``e / total`` has ``0 <= e <= total``; a column mean
    (``_mean``) is finite, and lies in [0, 1] when its entries do; the
    ``max`` fusion is a max of finite values, and the ``majority``
    histogram is votes / n.
    """

    values: tuple[float, ...]
    kind: str = "raw"

    def __post_init__(self):
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if len(values) == 0:
            raise ValueError("empty score vector")
        if self.kind not in KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        if not all(map(math.isfinite, values)):
            bad = next(v for v in values if not math.isfinite(v))
            raise ValueError(f"non-finite score value {bad!r}")
        if self.kind == "prob":
            if min(values) < 0.0:
                raise ValueError("probability vector with negative entries")
            if max(values) > 1.0:
                raise ValueError("probability vector with entries above 1")

    @property
    def k(self) -> int:
        return len(self.values)

    def argmax(self) -> int:
        """The index of the first largest value."""
        return self.values.index(max(self.values))


@dataclass(frozen=True)
class ClipScore:
    clip_start: int
    crop_id: str
    vector: ScoreVector

    def __post_init__(self):
        if self.clip_start < 0:
            raise ValueError(f"negative clip_start {self.clip_start}")
        if self.crop_id not in FIXED_CROPS:
            raise ValueError(f"unknown crop_id {self.crop_id!r}")


@dataclass(frozen=True)
class StreamScoreSet:
    """Per-clip, per-crop scores of one stream of one video; each clip is CLIP_LEN frames."""

    video_id: str
    stream: str
    granularity: str
    entries: tuple[ClipScore, ...]

    def __post_init__(self):
        if self.stream not in STREAMS:
            raise ValueError(f"unknown stream {self.stream!r}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.entries:
            _check_units([e.vector for e in self.entries], "hold")
            if len({e.vector.kind for e in self.entries}) > 1:
                raise ValueError("mixed raw/prob score kinds in one set")

    @property
    def k(self) -> int:
        return self.entries[0].vector.k if self.entries else 0


@dataclass(frozen=True)
class ActionnessSeries:
    """Actionness of one class plus the human-presence gate, as pieces of frames.

    ``pieces`` holds one ``(length, actionness, human_present)`` per piece,
    in frame order: every frame of a piece has that actionness and that
    gate. Neighbouring pieces may be equal. ``ends`` holds each piece's end
    frame, exclusive, so ``len(series)`` is the last of them.
    """

    pieces: tuple[tuple[int, float, bool], ...]
    ends: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = [n for n, _, _ in self.pieces]
        _check_lengths(lengths)
        object.__setattr__(self, "ends", tuple(accumulate(lengths)))

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0


def _softmax_terms(values: Sequence[float]) -> tuple[list[float], float]:
    """Softmax's numerators, ``exp(x - max)`` per value, and their fsum: entry c is ``exps[c] / total``."""
    m = max(values)
    exps = [math.exp(x - m) for x in values]
    return exps, math.fsum(exps)


def softmax(v: ScoreVector) -> ScoreVector:
    """Exponential normalization, shifted by the max for overflow safety."""
    exps, total = _softmax_terms(v.values)
    return _unchecked(ScoreVector, values=tuple([e / total for e in exps]), kind="prob")


_kind = attrgetter("kind")


def _scaled_fsum(column: Sequence[float], e: int) -> float:
    """fsum of the terms scaled by 2**-e: exact scaling unless a term turns subnormal."""
    return math.fsum(math.ldexp(v, -e) for v in column)


def _mean(column: Sequence[float]) -> float:
    n = len(column)
    try:
        return math.fsum(column) / n
    except OverflowError:
        # Huge finite terms whose sum overflows, though their mean cannot. With
        # 2**e > n the scaled terms sum to a finite value. Dividing each term
        # by n instead can still overflow.
        e = n.bit_length()
        return math.ldexp(_scaled_fsum(column, e) / n, e)


def _column_means(rows: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """``_mean`` of each column of equal-length rows, the columns in order and each in row order.

    The column-mean kernel of every mean here. Each column is summed by
    fsum, never added up pairwise: ``-0.0 + -0.0`` is ``-0.0`` where fsum
    gives ``0.0``, and a pair of huge terms can overflow where their mean
    does not. Rows of unequal length raise ValueError.
    """
    n = len(rows)
    try:
        return tuple([math.fsum(col) / n for col in zip(*rows, strict=True)])
    except OverflowError:
        return tuple(map(_mean, zip(*rows, strict=True)))


def _elementwise_mean(vectors: Sequence[ScoreVector]) -> ScoreVector:
    """``_column_means`` of the vectors' values: ``_mean`` of each class's column, in vector order."""
    values = _column_means([v.values for v in vectors])
    # every vector's kind is "raw" or "prob"
    return _unchecked(ScoreVector, values=values, kind="raw" if "raw" in map(_kind, vectors) else "prob")


def _check_units(units: Sequence[ScoreVector], what: str) -> None:
    if not units:
        raise ValueError(f"no score vectors to {what}")
    k = units[0].k
    for u in units:
        if u.k != k:
            raise ValueError(f"mixed class counts: {u.k} vs {k}")


def aggregate_video(units: Sequence[ScoreVector], method: str) -> tuple[int, ScoreVector]:
    """Fuse the clip-by-crop score vectors of one video into a label.

    mean and max fuse elementwise and take the argmax. Majority voting
    counts per-unit argmax votes; ties between classes go to the one with
    the higher mean score, and the fused vector is the normalized vote
    histogram (the only confidence signal voting produces).
    """
    _check_units(units, "aggregate")
    if method == "mean":
        fused = _elementwise_mean(units)
        return fused.argmax(), fused
    if method == "max":
        k = units[0].k
        values = tuple(max(u.values[c] for u in units) for c in range(k))
        fused = _unchecked(ScoreVector, values=values, kind="raw")
        return fused.argmax(), fused
    if method == "majority":
        votes = [0] * units[0].k
        for u in units:
            votes[u.argmax()] += 1
        n = len(units)
        fused = _unchecked(ScoreVector, values=tuple(v / n for v in votes), kind="prob")
        return _majority_label(votes, [units]), fused
    raise ValueError(f"unknown fusion method {method!r}")


def _majority_label(histogram: Sequence[float], groups: Sequence[Sequence[ScoreVector]]) -> int:
    """The class with the most votes in ``histogram``, the votes of the units in ``groups``.

    Ties go to the class with the higher mean score, then to the lower index.
    A class's mean score is the mean over the groups (one per granularity) of
    its mean over a group's units, compared exactly but for the rounding of
    each group's sums: so one group, and several identical groups, rank the
    tied classes alike.
    """
    top = max(histogram)
    tied = [c for c, h in enumerate(histogram) if h == top]
    if len(tied) > 1:
        from fractions import Fraction  # only a tie needs it

        means = dict.fromkeys(tied, Fraction(0))
        for units in groups:
            n = len(units)
            columns = {c: [u.values[c] for u in units] for c in tied}
            try:
                sums, scale = {c: math.fsum(col) for c, col in columns.items()}, Fraction(1, n)
            except OverflowError:
                # one common 2**-e for every tied class keeps the order of the
                # exact sums; ranking by _mean could merge two of them
                e = n.bit_length()
                sums, scale = {c: _scaled_fsum(col, e) for c, col in columns.items()}, Fraction(2**e, n)
            for c in tied:
                means[c] += Fraction(sums[c]) * scale
        tied.sort(key=lambda c: (-means[c], c))
    return tied[0]


def multigranular_fuse(vectors: Sequence[ScoreVector]) -> ScoreVector:
    """Average the fused vectors of up to three temporal granularities."""
    if not 1 <= len(vectors) <= 3:
        raise ValueError(f"expected 1 to 3 vectors, got {len(vectors)}")
    _check_units(vectors, "fuse")
    return _elementwise_mean(vectors)


def fuse_video(groups: Sequence[Sequence[ScoreVector]], method: str) -> tuple[int, ScoreVector]:
    """``aggregate_video`` of each group, one granularity's units; ``multigranular_fuse`` of two or more.

    Averaged vote histograms keep the vote rule: a tie goes to the class
    with the higher mean score over the groups.
    """
    fused = [aggregate_video(units, method) for units in groups]
    if len(fused) == 1:
        return fused[0]
    final = multigranular_fuse([vector for _, vector in fused])
    return _majority_label(final.values, groups) if method == "majority" else final.argmax(), final


def _clip_runs(scores: StreamScoreSet, video_len: int) -> list[tuple[int, tuple[float, ...]]]:
    """Clip-level scores distributed to the frames ``[0, video_len)``, as ``(length, values)`` runs.

    The one clip-to-frame run builder: ``frame_scores_from_clips`` is its
    ``ScoreVector`` view, and ``_prob_runs`` reads it directly. Each clip's
    values are its crops' ``_column_means``, and a run owned by several
    clips takes their ``_column_means``.
    """
    if video_len <= 0:
        raise ValueError(f"video_len must be positive, got {video_len}")
    if not scores.entries:
        raise ValueError("score set has no entries")
    by_start: dict[int, list[tuple[float, ...]]] = {}
    for e in scores.entries:
        by_start.setdefault(e.clip_start, []).append(e.vector.values)
    starts = sorted(by_start)
    clips = [_column_means(by_start[s]) for s in starts]

    # Each clip owns the frames [first, end): those it covers, and those of a
    # gap it is nearest to. mid is the first gap frame strictly nearer the
    # later clip t than the earlier clip s, so the earlier clip wins a tie.
    # Both lists are non-decreasing, so the owners of a frame are one slice.
    firsts, ends = [0], []
    for s, t in zip(starts, starts[1:]):
        mid = (s + CLIP_LEN - 1 + t) // 2 + 1
        firsts.append(min(t, mid))
        ends.append(max(s + CLIP_LEN, mid))
    ends.append(math.inf)
    cuts = sorted({0, video_len, *firsts, *ends})
    cuts = cuts[:cuts.index(video_len) + 1]
    out = []
    for a, b in zip(cuts, cuts[1:]):
        lo, hi = bisect_right(ends, a), bisect_right(firsts, a)
        out.append((b - a, clips[lo] if hi - lo == 1 else _column_means(clips[lo:hi])))
    return out


def frame_scores_from_clips(scores: StreamScoreSet, video_len: int) -> list[tuple[int, ScoreVector]]:
    """Distribute clip-level scores to every frame of the video, as runs of frames.

    Each clip contributes its crop-mean vector to the frames it covers. A
    frame covered by several clips gets their arithmetic mean, and a frame
    covered by none gets the vector of the nearest covering clip (earlier
    clip wins distance ties).

    Returns one ``(length, vector)`` per maximal run of frames that take
    their vector from the same clips, in frame order; the lengths sum to
    ``video_len``, and neighbouring runs never share a vector object. This
    is the ``ScoreVector`` view of ``_clip_runs``, the one run builder,
    whose means are ``_column_means``, the one column-mean kernel; each
    vector has the set's kind.
    """
    value_runs = _clip_runs(scores, video_len)
    kind = scores.entries[0].vector.kind  # a set holds one kind
    return [(n, _unchecked(ScoreVector, values=values, kind=kind)) for n, values in value_runs]


def actionness(s_pose: float, s_rgb: float, s_flow: float) -> float:
    """Per-frame actionness: squared pose score times cube roots of the others."""
    if not (0.0 <= s_pose <= 1.0 and 0.0 <= s_rgb <= 1.0 and 0.0 <= s_flow <= 1.0):
        for name, v in (("s_pose", s_pose), ("s_rgb", s_rgb), ("s_flow", s_flow)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
    return (s_pose * s_pose) * s_rgb ** (1.0 / 3.0) * s_flow ** (1.0 / 3.0)


def _cut(run_lists: Sequence[Sequence[tuple[int, object]]]) -> list[tuple]:
    """``(length, value)`` run lists over the same frames, cut at the union of their run ends.

    Returns ``(length, value of each list)`` per piece, in frame order.
    """
    run_ends = [list(accumulate([n for n, _ in runs])) for runs in run_lists]
    if len({stops[-1] if stops else 0 for stops in run_ends}) > 1:
        raise ValueError("run lists cover mismatched frame counts")
    ends = sorted(set().union(*run_ends))
    # the first run of a list to reach a piece's end holds the piece
    columns = [[runs[bisect_left(stops, e)][1] for e in ends] for runs, stops in zip(run_lists, run_ends)]
    return list(zip([b - a for a, b in zip([0, *ends], ends)], *columns))


def compose_actionness(
    pose: Sequence[tuple[int, float]],
    rgb: Sequence[tuple[int, float]],
    flow: Sequence[tuple[int, float]],
    human_present: Sequence[tuple[int, bool]],
) -> ActionnessSeries:
    """The actionness series of ``(length, value)`` runs over the same frames.

    The three streams' runs hold a class probability and the gate's runs a
    human-present flag; ``actionness`` is called once per piece of their cut.
    """
    pieces = _cut((pose, rgb, flow, human_present))
    return ActionnessSeries(tuple([(n, actionness(p, r, f), bool(h)) for n, p, r, f, h in pieces]))


def _prob_runs(scores: StreamScoreSet, length: int, cls: int) -> list[tuple[int, float]]:
    """``(length, probability of cls)`` per run of ``_clip_runs``: ``softmax``'s entry, to the bit."""
    value_runs = _clip_runs(scores, length)
    if scores.entries[0].vector.kind == "prob":  # a set holds one kind
        return [(n, values[cls]) for n, values in value_runs]
    out = []
    for n, values in value_runs:
        exps, total = _softmax_terms(values)
        out.append((n, exps[cls] / total))
    return out


def _gate_runs(present: Iterable[tuple[int, int]], length: int) -> list[tuple[int, bool]]:
    """The frames ``[0, length)`` as ``(length, present)`` runs, present on those an interval covers."""
    present = sorted(present)
    for start, stop in present:
        if not 0 <= start < stop <= length:
            raise ValueError(f"present interval [{start}, {stop}) is empty or outside [0, {length})")
    return _interval_runs([(start, stop, True) for start, stop in present], length, False)


def video_actionness(streams: Sequence[StreamScoreSet], present: Iterable[tuple[int, int]],
                     length: int, cls: int) -> ActionnessSeries:
    """The actionness series of class ``cls`` over a video's ``length`` frames.

    ``streams`` holds the score sets in ``ACTIONNESS_STREAMS`` order, and
    ``present`` the ``[start, stop)`` frame intervals where a human is
    present, in any order and possibly overlapping: ``compose_actionness``
    gets their gate and each stream's ``_prob_runs``.
    """
    if tuple([s.stream for s in streams]) != ACTIONNESS_STREAMS:
        raise ValueError(f"expected the score sets of {ACTIONNESS_STREAMS}, got {tuple([s.stream for s in streams])}")
    for s in streams:
        if not 0 <= cls < s.k:
            raise ValueError(f"class {cls} outside [0, {s.k}) for the {s.stream} scores")
    human = _gate_runs(present, length)  # first, so that a bad interval costs no stream's runs
    return compose_actionness(*[_prob_runs(s, length, cls) for s in streams], human)


def tube_actionness(span: TemporalSpan, series: ActionnessSeries) -> float:
    """Sum of the per-frame actionness over a tube's frames, given by its span.

    fsum of each overlapping piece's value repeated once per frame: fsum
    rounds the exact sum of the multiset once, so this is the per-frame sum
    to the bit, where adding per-piece products ``n * v`` would round each.
    """
    start, stop = span.start, span.end + 1
    if start < 0 or stop > len(series):
        raise ValueError(
            f"tube span [{span.start}, {span.end}] outside series of length {len(series)}"
        )
    ends, pieces = series.ends, series.pieces
    i, terms = bisect_right(ends, start), []
    while start < stop:
        end = min(ends[i], stop)
        terms.append(repeat(pieces[i][1], end - start))
        start, i = end, i + 1
    return math.fsum(chain.from_iterable(terms))


def temporal_localize(series: ActionnessSeries, threshold: float) -> list[TemporalSpan]:
    """Maximal runs of frames above threshold while a human is present.

    Neighbouring pieces that pass the gate and the threshold join into one span.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"non-finite threshold {threshold!r}")
    return runs([(n, h and v >= threshold) for n, v, h in series.pieces])
