import math
import random

import pytest

from tubekit import evaluation
from tubekit import (
    Box2D,
    EvalConfig,
    TemporalSpan,
    Tube,
    video_map,
)

from oracles import brute_force_eval


def tube(start, end, x=0.0, label=0, score=1.0, size=10.0):
    boxes = tuple(
        Box2D(x1=x, y1=0.0, x2=x + size, y2=size) for f in range(start, end + 1)
    )
    return Tube(span=TemporalSpan(start, end), boxes=boxes, label=label, score=score)


def random_instance(rng, classes=3, max_tubes=4):
    preds, gts = [], []
    for vid in ("a", "b"):
        for _ in range(rng.randint(0, max_tubes)):
            start = rng.randint(0, 10)
            end = start + rng.randint(0, 10)
            gts.append((vid, tube(start, end, x=rng.randint(0, 30), label=rng.randrange(classes), score=None)))
        for _ in range(rng.randint(0, max_tubes)):
            start = rng.randint(0, 10)
            end = start + rng.randint(0, 10)
            preds.append(
                (vid, tube(start, end, x=rng.randint(0, 30), label=rng.randrange(classes), score=rng.random()))
            )
    return preds, gts


def class_result(preds, gts, delta, label=0):
    """``video_map``'s ClassResult for one class at one threshold."""
    report = video_map(preds, gts, EvalConfig(deltas=(delta,)))
    return {r.label: r for r in report.per_delta[delta]}[label]


class TestMatchPredictions:
    """Greedy matching, as ``video_map`` counts it in ClassResult.tp, fp and pr (rank order)."""

    def test_perfect_match(self):
        p = [("v", tube(0, 9))]
        g = [("v", tube(0, 9, score=None))]
        r = class_result(p, g, 0.5)
        assert (r.tp, r.fp, r.pr) == (1, 0, ((1.0, 1.0),))

    def test_wrong_label_is_fp(self):
        p = [("v", tube(0, 9, label=1))]
        g = [("v", tube(0, 9, label=0, score=None))]
        assert (class_result(p, g, 0.5, label=1).fp, class_result(p, g, 0.5, label=0).tp) == (1, 0)

    def test_wrong_video_is_fp(self):
        p = [("v1", tube(0, 9))]
        g = [("v2", tube(0, 9, score=None))]
        r = class_result(p, g, 0.5)
        assert (r.tp, r.fp) == (0, 1)

    def test_gt_consumed_once(self):
        p = [("v", tube(0, 9, score=0.9)), ("v", tube(0, 9, score=0.5))]
        g = [("v", tube(0, 9, score=None))]
        r = class_result(p, g, 0.5)
        assert (r.tp, r.fp, r.pr) == (1, 1, ((1.0, 1.0), (1.0, 0.5)))

    def test_higher_scored_duplicate_wins(self):
        # listed first, the lower-scored duplicate still ranks second and finds the gt taken
        p = [("v", tube(0, 9, score=0.5)), ("v", tube(0, 9, score=0.9))]
        g = [("v", tube(0, 9, score=None))]
        assert class_result(p, g, 0.5).pr == ((1.0, 1.0), (1.0, 0.5))

    def test_below_threshold_leaves_gt_unconsumed(self):
        # first prediction overlaps best with the gt but under delta; the
        # second exact prediction must still be able to claim it
        p = [("v", tube(0, 9, x=8.0, score=0.9)), ("v", tube(0, 9, x=0.0, score=0.5))]
        g = [("v", tube(0, 9, score=None))]
        r = class_result(p, g, 0.9)
        assert (r.tp, r.fp, r.pr) == (1, 1, ((0.0, 0.0), (1.0, 0.5)))

    def test_missing_score_rejected(self):
        p = [("v", tube(0, 9, score=None))]
        with pytest.raises(ValueError, match="^prediction in video 'v' has no finite score$"):
            video_map(p, [], EvalConfig(deltas=(0.5,)))
        # scores are checked before any label
        g = [("v", tube(0, 9, label=None, score=None))]
        with pytest.raises(ValueError, match="no finite score"):
            video_map(p, g, EvalConfig(deltas=(0.5,)))

    def test_nan_score_rejected(self):
        p = [("v", tube(0, 9)), ("w", tube(0, 9, score=math.nan))]
        with pytest.raises(ValueError, match="^prediction in video 'w' has no finite score$"):
            video_map(p, [], EvalConfig(deltas=(0.5,)))


class TestAveragePrecision:
    """AP as the area under the precision envelope, read from ClassResult.ap."""

    def test_single_tp(self):
        p = [("v", tube(0, 9))]
        assert class_result(p, [("v", tube(0, 9, score=None))], 0.5).ap == 1.0

    def test_tp_then_fp(self):
        p = [("v", tube(0, 9, score=0.9)), ("v", tube(0, 9, score=0.5))]
        assert class_result(p, [("v", tube(0, 9, score=None))], 0.5).ap == 1.0

    def test_fp_then_tp(self):
        p = [("v", tube(0, 9, x=100.0, score=0.9)), ("v", tube(0, 9, score=0.5))]
        assert class_result(p, [("v", tube(0, 9, score=None))], 0.5).ap == 0.5

    def test_no_predictions(self):
        g = [("v", tube(0, 9, score=None)) for _ in range(3)]
        r = class_result([], g, 0.5)
        assert (r.ap, r.num_gt, r.pr) == (0.0, 3, ())

    def test_no_gt_with_predictions_scores_zero(self):
        p = [("v", tube(0, 9, label=7, score=0.9)), ("v", tube(0, 9, label=7, score=0.5))]
        r = class_result(p, [], 0.5, label=7)
        assert (r.ap, r.num_gt, r.fp) == (0.0, 0, 2)

    def test_interleaved(self):
        # points: (1/2,1), (1/2,1/2), (1,2/3); envelope at r=1/2 is 1
        p = [("v", tube(0, 9, score=0.9)), ("v", tube(0, 9, x=100.0, score=0.8)),
             ("v", tube(20, 29, score=0.7))]
        g = [("v", tube(0, 9, score=None)), ("v", tube(20, 29, score=None))]
        r = class_result(p, g, 0.5)
        assert r.pr == ((0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3))
        assert r.ap == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))


class TestVideoMap:
    def test_perfect_predictions(self):
        gts, preds = [], []
        for c in range(3):
            gts.append(("v", tube(c * 20, c * 20 + 9, label=c, score=None)))
            preds.append(("v", tube(c * 20, c * 20 + 9, label=c, score=0.9)))
        report = video_map(preds, gts, EvalConfig())
        for d in report.deltas:
            assert report.map_by_delta[d] == 1.0

    def test_no_predictions(self):
        gts = [("v", tube(0, 9, label=0, score=None))]
        report = video_map([], gts, EvalConfig(deltas=(0.5,)))
        assert report.map_by_delta[0.5] == 0.0

    def test_classes_without_gt_excluded_from_map(self):
        gts = [("v", tube(0, 9, label=0, score=None))]
        preds = [
            ("v", tube(0, 9, label=0, score=0.9)),
            ("v", tube(50, 59, label=7, score=0.8)),  # no gt for class 7
        ]
        report = video_map(preds, gts, EvalConfig(deltas=(0.5,)))
        assert report.map_by_delta[0.5] == 1.0
        by_label = {r.label: r for r in report.per_delta[0.5]}
        assert by_label[7].ap == 0.0 and by_label[7].num_gt == 0

    def test_map_non_increasing_in_delta(self):
        rng = random.Random(42)
        cfg = EvalConfig(deltas=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5))
        for _ in range(30):
            preds, gts = random_instance(rng)
            if not (preds and gts):
                continue
            report = video_map(preds, gts, cfg)
            maps = [report.map_by_delta[d] for d in cfg.deltas]
            assert all(a >= b - 1e-12 for a, b in zip(maps, maps[1:]))

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            preds, gts = random_instance(rng)
            delta = rng.choice([0.1, 0.3, 0.5])
            oracle = brute_force_eval(preds, gts, delta)
            report = video_map(preds, gts, EvalConfig(deltas=(delta,)))
            got = {r.label: r.ap for r in report.per_delta[delta]}
            for c, ap in oracle.items():
                if ap is None:
                    assert c not in got
                else:
                    assert got[c] == ap  # bit-exact

    def test_ap_invariant_to_monotone_score_transform(self):
        rng = random.Random(11)
        for _ in range(20):
            preds, gts = random_instance(rng)
            if not preds:
                continue
            transformed = [
                (v, Tube(span=t.span, boxes=t.boxes, label=t.label, score=math.exp(3 * t.score)))
                for v, t in preds
            ]
            cfg = EvalConfig(deltas=(0.3,))
            a = video_map(preds, gts, cfg)
            b = video_map(transformed, gts, cfg)
            assert a.map_by_delta == b.map_by_delta

    def test_pr_curve_shape(self):
        rng = random.Random(13)
        preds, gts = random_instance(rng)
        report = video_map(preds, gts, EvalConfig(deltas=(0.2,)))
        for result in report.per_delta[0.2]:
            recalls = [r for r, _ in result.pr]
            assert recalls == sorted(recalls)

    def test_unlabeled_gt_rejected(self):
        gts = [("v", tube(0, 9, label=None, score=None))]
        with pytest.raises(ValueError):
            video_map([], gts, EvalConfig(deltas=(0.5,)))

    def test_unlabeled_prediction_rejected(self):
        preds = [("v", tube(0, 9, label=None))]
        with pytest.raises(ValueError, match="^prediction in video 'v' has no label$"):
            video_map(preds, [], EvalConfig(deltas=(0.5,)))
        # ground truth is checked first
        gts = [("g", tube(0, 9, label=None, score=None))]
        with pytest.raises(ValueError, match="^ground-truth tube in video 'g' has no label$"):
            video_map(preds, gts, EvalConfig(deltas=(0.5,)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(deltas=())
        with pytest.raises(ValueError):
            EvalConfig(deltas=(0.0,))
        with pytest.raises(ValueError):
            EvalConfig(deltas=(1.2,))
        with pytest.raises(ValueError, match="twice"):
            EvalConfig(deltas=(0.5, 0.2, 0.5))


def test_video_map_computes_each_same_video_same_class_iou_once(monkeypatch):
    calls = []
    real = evaluation.tube_iou

    def counting(p, g):
        calls.append((id(p), id(g)))
        return real(p, g)

    monkeypatch.setattr(evaluation, "tube_iou", counting)
    rng = random.Random(3)
    cfg = EvalConfig(deltas=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5))
    total = 0
    for _ in range(20):
        preds, gts = random_instance(rng)
        calls.clear()
        video_map(preds, gts, cfg)
        assert len(calls) == len(set(calls))
        pred_key = {id(t): (v, t.label) for v, t in preds}
        gt_key = {id(t): (v, t.label) for v, t in gts}
        assert all(pred_key[p] == gt_key[g] for p, g in calls)
        total += len(calls)
    assert total > 0
