"""Per-pixel input of a detector: body-part masks.

Masks become person boxes by connected components. This is the only part
of tubekit, besides ``synth``, that needs numpy, and ``mask_to_boxes`` is
the only one that needs scipy, which the ``tubekit[masks]`` extra installs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Box2D


@dataclass(frozen=True)
class LabelMask:
    """Per-pixel body-part labels; 0 is background."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mask must be 2-D and non-empty, got shape {arr.shape}")
        if np.issubdtype(arr.dtype, np.floating):
            raise ValueError("mask labels must be integers")
        if (arr < 0).any():
            raise ValueError("mask labels must be >= 0")
        object.__setattr__(self, "labels", arr)


_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


def mask_to_boxes(mask: LabelMask, min_pixels: int = 25) -> list[Box2D]:
    """Tight half-open boxes around 8-connected foreground components.

    Components smaller than ``min_pixels`` pixels are treated as
    segmentation speckle and dropped. Boxes come sorted by descending area.
    """
    if min_pixels < 1:
        raise ValueError(f"min_pixels must be >= 1, got {min_pixels}")
    try:
        from scipy import ndimage  # imported here: it is slow to import and only used here
    except ImportError as exc:
        raise ImportError("mask_to_boxes needs scipy, which pip install 'tubekit[masks]' installs") from exc

    fg = mask.labels >= 1
    labeled, n = ndimage.label(fg, structure=_EIGHT_CONNECTED)
    if n == 0:
        return []
    counts = np.bincount(labeled.ravel())
    boxes: list[Box2D] = []
    for comp, sl in enumerate(ndimage.find_objects(labeled), start=1):
        if sl is None or counts[comp] < min_pixels:
            continue
        ys, xs = sl
        boxes.append(
            Box2D(x1=float(xs.start), y1=float(ys.start), x2=float(xs.stop), y2=float(ys.stop))
        )
    boxes.sort(key=lambda b: -b.area)
    return boxes
