"""Per-pixel inputs of a detector: body-part masks and optical flow.

Masks become person boxes by connected components; flow fields become
3-channel byte images, the input encoding of a flow stream. These are the
only parts of tubekit, besides ``synth``, that need numpy, and
``mask_to_boxes`` is the only one that needs scipy.
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


@dataclass(frozen=True)
class FlowField:
    """Dense optical flow, x and y displacement per pixel."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.ndim != 2 or u.shape != v.shape or u.shape[0] < 1 or u.shape[1] < 1:
            raise ValueError(f"flow components must share a non-empty 2-D shape, got {u.shape} and {v.shape}")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("flow field contains non-finite values")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


def mask_to_boxes(mask: LabelMask, min_pixels: int = 25) -> list[Box2D]:
    """Tight half-open boxes around 8-connected foreground components.

    Components smaller than ``min_pixels`` pixels are treated as
    segmentation speckle and dropped. Boxes come sorted by descending area.
    """
    if min_pixels < 1:
        raise ValueError(f"min_pixels must be >= 1, got {min_pixels}")
    from scipy import ndimage  # imported here: it is slow to import and only used here

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


def encode_flow(flow: FlowField) -> np.ndarray:
    """3-channel byte image: offset-quantized components plus magnitude.

    Components are scaled by 16 and shifted by 128 so signed values survive
    the byte quantization; the magnitude channel needs no offset.
    """
    u, v = flow.u, flow.v
    c1 = np.clip(np.rint(u * 16.0 + 128.0), 0, 255)
    c2 = np.clip(np.rint(v * 16.0 + 128.0), 0, 255)
    c3 = np.clip(np.rint(np.sqrt(u * u + v * v) * 16.0), 0, 255)
    return np.stack([c1, c2, c3], axis=-1).astype(np.uint8)
