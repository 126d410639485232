"""Salient region detection: DBSCAN over the rectangle boundary distance.

Text segments cluster into high-density groups; each cluster becomes one
salient visual region. Noise segments become singleton regions so that the
fine-to-coarse edge map stays total.

The neighbourhood search is whole-array: the per-axis gaps of all pairs
are computed at once, and since the boundary distance is at least the
larger gap, only pairs with both gaps within the radius are confirmed with
the scalar ``boundary_distance``, so every ``<= radius`` decision is the
scalar one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .document import BBox, Segment, axis_gaps, boundary_distance, box_array, union_box

NOISE = -1


@dataclass(frozen=True)
class ClusterParams:
    """DBSCAN hyperparameters in page-pixel units.

    A box is core when at least ``min_pts`` OTHER boxes lie within
    ``radius`` of it (the box itself does not count).
    """

    radius: float = 30.0
    min_pts: int = 1

    def __post_init__(self) -> None:
        if not self.radius >= 0:  # also NaN, under which every box would be noise
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.min_pts < 0:
            raise ValueError(f"min_pts must be >= 0, got {self.min_pts}")


@dataclass(frozen=True)
class SalientRegion:
    bbox: BBox
    member_segment_ids: tuple[int, ...]


def dbscan(boxes: list[BBox], params: ClusterParams) -> list[int]:
    """Cluster boxes under boundary_distance; returns one label per box.

    Labels are cluster ids (0, 1, ...) or NOISE. Deterministic given input
    order: cluster ids follow the input order of their first core member,
    and a border box attaches to the cluster of the lowest-index core box
    that reaches it.
    """
    n = len(boxes)
    if n == 0:
        return []
    r = params.radius
    within = _neighbours(boxes, r)
    core = [len(within[i]) >= params.min_pts for i in range(n)]

    labels = [NOISE] * n
    next_id = 0
    for start in range(n):
        if not core[start] or labels[start] != NOISE:
            continue
        # Flood the core graph from the first unlabeled core box.
        labels[start] = next_id
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in within[i]:
                if core[j] and labels[j] == NOISE:
                    labels[j] = next_id
                    frontier.append(j)
        next_id += 1

    # Border boxes: first core neighbor in input order decides the cluster.
    for i in range(n):
        if core[i] or labels[i] != NOISE:
            continue
        for j in within[i]:
            if core[j]:
                labels[i] = labels[j]
                break
    return labels


def _neighbours(boxes: list[BBox], r: float) -> list[list[int]]:
    """Ascending indices of the other boxes within ``r`` of each box."""
    coords = box_array(boxes)
    dx, dy = axis_gaps(coords, coords)
    # hypot(dx, dy) >= max(dx, dy): pairs failing this cannot be neighbours.
    candidate = np.triu((dx <= r) & (dy <= r), 1)
    within: list[list[int]] = [[] for _ in range(len(boxes))]
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(candidate))):
        if boundary_distance(boxes[i], boxes[j]) <= r:
            within[i].append(j)
            within[j].append(i)
    return within


def detect_salient_regions(segments: list[Segment], params: ClusterParams) -> list[SalientRegion]:
    """Cluster segment boxes into regions; noise segments become singletons.

    Regions are ordered by their smallest member segment index and their
    member lists partition the segment indices.
    """
    labels = dbscan([s.bbox for s in segments], params)
    groups: dict[int, list[int]] = {}
    order: list[int] = []
    for idx, lab in enumerate(labels):
        key = lab if lab != NOISE else -(idx + 2)  # unique key per noise singleton
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(idx)
    members = sorted((sorted(groups[k]) for k in order), key=lambda m: m[0])
    return [
        SalientRegion(
            bbox=union_box([segments[i].bbox for i in m]),
            member_segment_ids=tuple(m),
        )
        for m in members
    ]
