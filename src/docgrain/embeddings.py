"""Input representations: textual, visual, and layout embeddings.

The token-type and 1D-position tables are shared by the text and visual
paths. The layout term is six coordinate lookups (x0, x1, width from the
x table; y0, y1, height from the y table) into consecutive d//6-wide
column blocks; when 6 does not divide d the remaining columns get no
term.

The visual backbone is a deterministic patch featurizer: per-patch mean
RGB plus normalized center/size, linearly projected to width d.

``Model.fine_input`` builds the fine-grained input as one stacked sequence,
word rows then patch rows, plus one ``add_lookups`` node for the
token-type, position and ``layout_lookups`` terms; ``Model.coarse_input``
adds the same layout lookups to the coarse rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .document import Page
from .tensor import Tensor

TEXT_TYPE = 0
VISUAL_TYPE = 1

COORD_RANGE = 1001  # normalized coordinates and extents live in 0..1000

PATCH_RAW_DIM = 7  # mean R, G, B, center x, center y, width, height


@dataclass
class EmbeddingTables:
    """All learnable input tables. ``position`` and ``token_type`` are the
    same objects for both modalities by construction."""

    word: Tensor
    token_type: Tensor
    position: Tensor
    coord_x: Tensor
    coord_y: Tensor
    patch_proj_w: Tensor
    patch_proj_b: Tensor

    @property
    def d(self) -> int:
        return self.word.shape[1]

    @property
    def coord_width(self) -> int:
        return self.coord_x.shape[1]


def layout_lookups(coords: np.ndarray, tables: EmbeddingTables) -> list[tuple[Tensor, np.ndarray, int]]:
    """The six ``(coord table, index, column)`` lookups of an (n, 4) int
    array of normalized (x0, y0, x1, y1) coordinates, for ``add_lookups``."""
    coords = np.asarray(coords, dtype=np.int64)
    if len(coords) and (coords.min() < 0 or coords.max() >= COORD_RANGE):
        raise ValueError("layout coordinates out of the 0..1000 range; normalize boxes first")
    x0, y0, x1, y1 = coords.T
    x, y, c = tables.coord_x, tables.coord_y, tables.coord_width
    return [(x, x0, 0), (x, x1, c), (x, x1 - x0, 2 * c), (y, y0, 3 * c), (y, y1, 4 * c), (y, y1 - y0, 5 * c)]


def _pixel_ranges(n_pixels: int, n_cells: int) -> list[tuple[int, int]]:
    # Pixel px belongs to cell c when the pixel center (px + 0.5) falls in
    # [n_pixels * c / n_cells, n_pixels * (c + 1) / n_cells).
    bounds = [math.ceil(n_pixels * c / n_cells - 0.5) for c in range(n_cells + 1)]
    return [(max(bounds[c], 0), min(bounds[c + 1], n_pixels)) for c in range(n_cells)]


def patch_raw_features(page: Page, grid_w: int, grid_h: int) -> np.ndarray:
    """Per-patch [mean R, G, B, cx, cy, w, h] in raster order.

    Color means are over pixel centers inside the patch, scaled to [0, 1];
    geometry is normalized by the page dimensions. Pages without an image
    get zero color channels.
    """
    if grid_w < 1 or grid_h < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid_w}x{grid_h}")
    image = _page_image(page)
    feats = np.zeros((grid_w * grid_h, PATCH_RAW_DIM))
    if image is not None:
        img_h, img_w = image.shape[0], image.shape[1]
        col_ranges = _pixel_ranges(img_w, grid_w)
        row_ranges = _pixel_ranges(img_h, grid_h)
    for row in range(grid_h):
        for col in range(grid_w):
            k = row * grid_w + col
            if image is not None:
                c0, c1 = col_ranges[col]
                r0, r1 = row_ranges[row]
                if c1 > c0 and r1 > r0:
                    feats[k, 0:3] = image[r0:r1, c0:c1].reshape(-1, 3).mean(axis=0)
            feats[k, 3] = (col + 0.5) / grid_w
            feats[k, 4] = (row + 0.5) / grid_h
            feats[k, 5] = 1.0 / grid_w
            feats[k, 6] = 1.0 / grid_h
    return feats


def _page_image(page: Page) -> np.ndarray | None:
    if page.image is not None:
        # The dtype, never the values, fixes the scale: 8-bit integers or [0, 1] floats.
        image = np.asarray(page.image)
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError(f"page image must be (H, W, 3), got {image.shape}")
        if image.dtype.kind not in "iuf":
            raise ValueError(f"page image must hold integers or floats, got {image.dtype}")
        top = 255.0 if image.dtype.kind in "iu" else 1.0
        if not np.all((image >= 0) & (image <= top)):
            raise ValueError(f"page image of {image.dtype} must lie in 0..{top:g}")
        return image.astype(np.float64) / top
    if page.image_path is not None:
        return load_image(page.image_path)
    return None


def load_image(path: str) -> np.ndarray:
    """Read an RGB raster as float64 in [0, 1]. PPM natively, PIL if present."""
    if path.lower().endswith((".ppm", ".pnm")):
        return _read_ppm(path)
    try:
        from PIL import Image  # type: ignore
    except ImportError:
        raise ValueError(f"cannot read image '{path}': only PPM is supported without Pillow") from None
    with Image.open(path) as img:
        return np.asarray(img.convert("RGB"), dtype=np.float64) / 255.0


def _read_ppm(path: str) -> np.ndarray:
    """Netpbm P6 (binary, 8- or 16-bit big-endian samples) or P3 (plain).

    Raises ValueError on a malformed header, a maxval outside 1..65535, a
    sample above maxval or a short payload.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    def bad(why: str) -> ValueError:
        return ValueError(f"cannot read image '{path}': {why}")

    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    magic = fields[0]
    if magic not in (b"P6", b"P3"):
        raise bad(f"unsupported PPM magic {magic!r}")
    if not all(f.isdigit() for f in fields[1:]):
        raise bad("width, height and maxval must be decimal integers")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if width < 1 or height < 1:
        raise bad(f"image size {width}x{height} is empty")
    if not 1 <= maxval <= 65535:
        raise bad(f"maxval {maxval} outside 1..65535")
    count = width * height * 3
    if magic == b"P6":
        dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
        start = pos + 1  # one whitespace byte ends the header
        if len(raw) - start < count * dtype.itemsize:
            raise bad(f"payload holds {max(len(raw) - start, 0)} bytes, {count * dtype.itemsize} needed")
        samples = np.frombuffer(raw, dtype=dtype, count=count, offset=start)
        top = int(samples.max())
    else:
        tokens = raw[pos:].split()
        if len(tokens) != count:
            raise bad(f"payload holds {len(tokens)} samples, {count} needed")
        if not all(t.isdigit() for t in tokens):
            raise bad("samples must be decimal integers")
        samples = [int(t) for t in tokens]
        top = max(samples)
    if top > maxval:
        raise bad(f"sample {top} above maxval {maxval}")
    return np.array(samples, dtype=np.float64).reshape(height, width, 3) / float(maxval)
