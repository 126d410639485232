import json

import numpy as np
import pytest

from docgrain.clustering import ClusterParams, SalientRegion
from docgrain.document import BBox, Page, Segment, Word, boundary_distance, iou
from docgrain.graph import (
    NodeKind,
    NodeRef,
    assign_patches,
    build_graph,
    graph_from_dict,
    graph_to_dict,
    graph_to_json,
    patch_boxes,
)
from docgrain.synth import SynthParams, generate_page


def region(b, members):
    return SalientRegion(bbox=b, member_segment_ids=tuple(members))


class TestPatchBoxes:
    def test_single_patch(self):
        assert patch_boxes(640, 480, 1, 1) == [BBox(0, 0, 640, 480)]

    def test_two_by_two(self):
        assert patch_boxes(100, 100, 2, 2) == [
            BBox(0, 0, 50, 50),
            BBox(50, 0, 100, 50),
            BBox(0, 50, 50, 100),
            BBox(50, 50, 100, 100),
        ]

    def test_default_grid_count(self):
        boxes = patch_boxes(850, 1100, 7, 7)
        assert len(boxes) == 49

    def test_tiling_non_overlapping(self):
        boxes = patch_boxes(300, 200, 5, 4)
        total = sum(b.area for b in boxes)
        assert total == pytest.approx(300 * 200, abs=1e-9)
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert iou(a, b) == 0.0

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            patch_boxes(100, 100, 0, 2)


class TestAssignPatch:
    def test_only_nonzero_iou(self):
        regions = [region(BBox(0, 0, 10, 10), [0]), region(BBox(90, 90, 95, 95), [1])]
        assert assign_patches([BBox(2, 2, 8, 8)], regions)[0] == 0

    def test_argmax(self):
        patch = BBox(0, 0, 10, 10)
        regions = [region(BBox(0, 0, 3, 10), [0]), region(BBox(0, 0, 10, 9), [1])]
        assert iou(patch, regions[1].bbox) > iou(patch, regions[0].bbox)
        assert assign_patches([patch], regions)[0] == 1

    def test_zero_iou_uses_boundary_distance(self):
        patch = BBox(0, 0, 10, 10)
        regions = [region(BBox(100, 0, 110, 10), [0]), region(BBox(20, 0, 30, 10), [1])]
        dists = [boundary_distance(patch, r.bbox) for r in regions]
        assert dists[1] < dists[0]
        assert assign_patches([patch], regions)[0] == 1

    def test_zero_iou_distance_tie_lowest_index(self):
        patch = BBox(50, 50, 60, 60)
        regions = [region(BBox(30, 50, 40, 60), [0]), region(BBox(70, 50, 80, 60), [1])]
        assert assign_patches([patch], regions)[0] == 0

    def test_empty_regions(self):
        with pytest.raises(ValueError, match="no regions for patch assignment"):
            assign_patches([BBox(0, 0, 1, 1)], [])


def one_segment_page():
    words = [
        Word("alpha", BBox(10, 10, 45, 24), 0),
        Word("beta", BBox(49, 10, 77, 24), 0),
        Word("gamma", BBox(81, 10, 116, 24), 0),
    ]
    seg = Segment("alpha beta gamma", BBox(10, 10, 116, 24), (0, 1, 2))
    return Page(width=200, height=100, words=words, segments=[seg])


class TestBuildGraph:
    def test_single_coarse_node_per_modality(self):
        g = build_graph(one_segment_page(), ClusterParams(30, 1), (1, 1))
        assert g.text_parent == [0, 0, 0]
        assert g.visual_parent == [0]
        assert g.n_coarse_text == 1 and g.n_coarse_visual == 1

    def test_empty_page_fails_patch_assignment(self):
        page = Page(width=100, height=100)
        with pytest.raises(ValueError, match="no regions for patch assignment"):
            build_graph(page, ClusterParams(30, 1), (2, 2))

    def test_three_segment_fixture_patch_assignment(self):
        words = []
        segs = []
        for i, b in enumerate([BBox(0, 0, 10, 10), BBox(15, 0, 25, 10), BBox(100, 0, 110, 10)]):
            words.append(Word(f"w{i}", b, i))
            segs.append(Segment(f"w{i}", b, (i,)))
        page = Page(width=120, height=12, words=words, segments=segs)
        g = build_graph(page, ClusterParams(10, 1), (1, 1))
        patch = g.patch_bboxes[0]
        want = 0 if iou(patch, g.regions[0].bbox) > iou(patch, g.regions[1].bbox) else 1
        assert g.visual_parent == [want]

    def test_parent_child_inverse(self):
        page = generate_page(3, 0, SynthParams())
        g = build_graph(page, ClusterParams(30, 1), (3, 3))
        for i in range(g.n_fine_text):
            ref = NodeRef(NodeKind.FINE_TEXT, i)
            parent = g.parent_of(ref)
            assert parent.kind is NodeKind.COARSE_TEXT
            assert ref in g.children_of(parent)
        for p in range(g.n_fine_visual):
            ref = NodeRef(NodeKind.FINE_VISUAL, p)
            parent = g.parent_of(ref)
            assert parent.kind is NodeKind.COARSE_VISUAL
            assert ref in g.children_of(parent)

    def test_partition_sums_over_random_pages(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            page = generate_page(100, trial, SynthParams())
            g = build_graph(page, ClusterParams(float(rng.choice([10, 30, 60])), 1), (4, 4))
            text_total = sum(len(g.children_of(NodeRef(NodeKind.COARSE_TEXT, z))) for z in range(g.n_coarse_text))
            visual_total = sum(
                len(g.children_of(NodeRef(NodeKind.COARSE_VISUAL, r))) for r in range(g.n_coarse_visual)
            )
            assert text_total == g.n_fine_text
            assert visual_total == g.n_fine_visual

    def test_deterministic(self):
        page = generate_page(5, 2, SynthParams())
        a = build_graph(page, ClusterParams(30, 1), (4, 4))
        b = build_graph(page, ClusterParams(30, 1), (4, 4))
        assert graph_to_json(a) == graph_to_json(b)

    def test_serialization_roundtrip(self):
        page = generate_page(9, 1, SynthParams())
        g = build_graph(page, ClusterParams(30, 1), (4, 4))
        data = json.loads(graph_to_json(g))
        rebuilt = graph_from_dict(page, data)
        assert graph_to_dict(rebuilt) == graph_to_dict(g)
        assert rebuilt.regions == g.regions
        assert rebuilt.patch_bboxes == g.patch_bboxes
