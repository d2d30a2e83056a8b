"""Post-processing and evaluation toolkit for spatio-temporal action detection."""

from .count_signal import (
    DetectionCountSeries,
    FrameDetections,
    median_smooth,
    pad_detections,
)
from .errors import EmptyFrameError, ParseError, VocabularyError
from .evaluation import (
    ClassResult,
    EvalConfig,
    EvalReport,
    video_map,
    video_map_rows,
)
from .formats import (
    read_detections,
    read_predictions,
    read_scores,
    read_tubes,
    write_detections,
    write_predictions,
    write_report,
    write_scores,
    write_tubes,
)
from .fusion import (
    ActionnessSeries,
    ClipScore,
    ScoreVector,
    StreamScoreSet,
    actionness,
    aggregate_video,
    compose_actionness,
    frame_scores_from_clips,
    multigranular_fuse,
    softmax,
    temporal_localize,
    tube_actionness,
)
from .geometry import Box2D, TemporalSpan, Tube, box_iou, temporal_iou, tube_iou
from .linking import ExtractionConfig, LinkingProblem, extract_tubes, viterbi_link
from .synth import SynthConfig, generate_scene

__version__ = "0.1.0"

__all__ = [
    "ActionnessSeries",
    "Box2D",
    "ClassResult",
    "ClipScore",
    "DetectionCountSeries",
    "EmptyFrameError",
    "EvalConfig",
    "EvalReport",
    "ExtractionConfig",
    "FrameDetections",
    "LinkingProblem",
    "ParseError",
    "ScoreVector",
    "StreamScoreSet",
    "SynthConfig",
    "TemporalSpan",
    "Tube",
    "VocabularyError",
    "actionness",
    "aggregate_video",
    "box_iou",
    "compose_actionness",
    "extract_tubes",
    "frame_scores_from_clips",
    "generate_scene",
    "median_smooth",
    "multigranular_fuse",
    "pad_detections",
    "read_detections",
    "read_predictions",
    "read_scores",
    "read_tubes",
    "softmax",
    "temporal_iou",
    "temporal_localize",
    "tube_actionness",
    "tube_iou",
    "video_map",
    "video_map_rows",
    "viterbi_link",
    "write_detections",
    "write_predictions",
    "write_report",
    "write_scores",
    "write_tubes",
]
