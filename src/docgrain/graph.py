"""The four-node-set document graph and its fine-to-coarse edge map.

Fine nodes are words and image patches; coarse nodes are text segments and
salient regions. Only the cross-grained parent relation is materialized:
same-granularity connectivity is realized as self-attention downstream.

Patches attach to regions through one (patches x regions) IOU matrix,
``document.iou_matrix``, which keeps ``document.iou``'s operation order so
every decision matches the scalar definition.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterParams, SalientRegion, detect_salient_regions
from .document import BBox, Page, axis_gaps, box_array, iou_matrix


class NodeKind(enum.Enum):
    FINE_TEXT = "fine_text"
    FINE_VISUAL = "fine_visual"
    COARSE_TEXT = "coarse_text"
    COARSE_VISUAL = "coarse_visual"


@dataclass(frozen=True)
class NodeRef:
    kind: NodeKind
    index: int


def patch_boxes(page_w: float, page_h: float, grid_w: int, grid_h: int) -> list[BBox]:
    """Uniform grid_w x grid_h tiling of the page, row-major raster order."""
    if grid_w < 1 or grid_h < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid_w}x{grid_h}")
    boxes = []
    for row in range(grid_h):
        for col in range(grid_w):
            boxes.append(
                BBox(
                    page_w * col / grid_w,
                    page_h * row / grid_h,
                    page_w * (col + 1) / grid_w,
                    page_h * (row + 1) / grid_h,
                )
            )
    return boxes


def assign_patches(patches: list[BBox], regions: list[SalientRegion]) -> list[int]:
    """Index of the region with the largest IOU against each patch.

    When every IOU of a patch is zero (margin and whitespace patches) the
    nearest region by boundary distance wins; all ties go to the lowest
    index so the edge map stays total and deterministic.
    """
    if not regions:
        raise ValueError("no regions for patch assignment")
    p, r = box_array(patches), box_array([reg.bbox for reg in regions])
    ious = iou_matrix(p, r)
    parent = ious.argmax(axis=1)
    zero = np.flatnonzero(ious.max(axis=1) <= 0.0)
    if zero.size:
        dx, dy = axis_gaps(p[zero], r)
        for row, patch in enumerate(zero.tolist()):
            dists = list(map(math.hypot, dx[row].tolist(), dy[row].tolist()))
            parent[patch] = dists.index(min(dists))
    return parent.tolist()


@dataclass
class DocumentGraph:
    page: Page
    regions: list[SalientRegion]
    grid: tuple[int, int]
    patch_bboxes: list[BBox]
    text_parent: list[int]  # word index -> segment index
    visual_parent: list[int]  # patch index -> region index

    @property
    def n_fine_text(self) -> int:
        return len(self.text_parent)

    @property
    def n_fine_visual(self) -> int:
        return len(self.visual_parent)

    @property
    def n_coarse_text(self) -> int:
        return len(self.page.segments)

    @property
    def n_coarse_visual(self) -> int:
        return len(self.regions)

    def parent_of(self, node: NodeRef) -> NodeRef:
        if node.kind is NodeKind.FINE_TEXT:
            return NodeRef(NodeKind.COARSE_TEXT, self.text_parent[node.index])
        if node.kind is NodeKind.FINE_VISUAL:
            return NodeRef(NodeKind.COARSE_VISUAL, self.visual_parent[node.index])
        raise ValueError(f"coarse node {node} has no parent")

    def children_of(self, node: NodeRef) -> list[NodeRef]:
        if node.kind is NodeKind.COARSE_TEXT:
            return [
                NodeRef(NodeKind.FINE_TEXT, i)
                for i, p in enumerate(self.text_parent)
                if p == node.index
            ]
        if node.kind is NodeKind.COARSE_VISUAL:
            return [
                NodeRef(NodeKind.FINE_VISUAL, i)
                for i, p in enumerate(self.visual_parent)
                if p == node.index
            ]
        raise ValueError(f"fine node {node} has no children")


def build_graph(page: Page, params: ClusterParams, grid: tuple[int, int]) -> DocumentGraph:
    """Assemble regions, patch tiling, and the total fine-to-coarse map."""
    regions = detect_salient_regions(page.segments, params)
    patches = patch_boxes(page.width, page.height, grid[0], grid[1])
    text_parent = [w.segment_id for w in page.words]
    visual_parent = assign_patches(patches, regions)
    return DocumentGraph(
        page=page,
        regions=regions,
        grid=(grid[0], grid[1]),
        patch_bboxes=patches,
        text_parent=text_parent,
        visual_parent=visual_parent,
    )


def graph_to_dict(graph: DocumentGraph) -> dict:
    return {
        "regions": [
            {"bbox": r.bbox.as_list(), "segments": list(r.member_segment_ids)}
            for r in graph.regions
        ],
        "patch_grid": [graph.grid[0], graph.grid[1]],
        "text_parent": list(graph.text_parent),
        "visual_parent": list(graph.visual_parent),
    }


def graph_to_json(graph: DocumentGraph) -> str:
    return json.dumps(graph_to_dict(graph), separators=(",", ":"))


def graph_from_dict(page: Page, data: dict) -> DocumentGraph:
    """Rebuild a DocumentGraph from its serialized form and its page."""
    regions = [
        SalientRegion(bbox=BBox(*r["bbox"]), member_segment_ids=tuple(r["segments"]))
        for r in data["regions"]
    ]
    grid = (int(data["patch_grid"][0]), int(data["patch_grid"][1]))
    return DocumentGraph(
        page=page,
        regions=regions,
        grid=grid,
        patch_bboxes=patch_boxes(page.width, page.height, grid[0], grid[1]),
        text_parent=[int(v) for v in data["text_parent"]],
        visual_parent=[int(v) for v in data["visual_parent"]],
    )
