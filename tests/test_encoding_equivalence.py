"""Whole-array page encoding against the scalar loops it replaced.

Every comparison is byte-equal: DBSCAN labels, patch parents, normalized
coordinates, bucket index matrices (values and dtype) and targets.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from docgrain.attention import AttentionConfig, spatial_indices
from docgrain.clustering import ClusterParams, SalientRegion, dbscan
from docgrain.document import BBox, Page, axis_gaps, box_array, boundary_distance, iou, iou_matrix
from docgrain.graph import assign_patches, patch_boxes
from docgrain.model import Model, ModelConfig, normalized_coords
from docgrain.synth import SynthParams, generate_page
from docgrain.training import reference_model_config
from docgrain.vocab import build_vocab

from .reference_impls import (
    assign_patch_loop,
    dbscan_loop,
    normalized_coords_loop,
    spatial_indices_direct,
)

# The forms and dense page shapes of the benchmark workloads.
FORMS = (SynthParams(), (4, 4))
DENSE = (SynthParams(page_height=2600, min_kv_pairs=12, max_kv_pairs=24, max_list_blocks=6, max_noise_lines=6), (7, 7))


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_indices(got, want) -> bool:
    return all(same_bytes(getattr(got, k), getattr(want, k)) for k in ("idx_1d", "idx_x", "idx_y"))


def region(b: BBox) -> SalientRegion:
    return SalientRegion(bbox=b, member_segment_ids=(0,))


def grid_boxes(rng, n: int, span: int = 60, size: int = 12) -> list[BBox]:
    """Integer-cornered boxes on a small canvas: exact distances, touching
    edges and IOU ties are common."""
    out = []
    for _ in range(n):
        x0, y0 = (int(v) for v in rng.integers(0, span, size=2))
        w, h = (int(v) for v in rng.integers(0, size, size=2))
        out.append(BBox(x0, y0, x0 + w, y0 + h))
    return out


@pytest.mark.parametrize("params, grid", [FORMS, DENSE], ids=["forms-4x4", "dense-7x7"])
class TestSyntheticPages:
    def test_dbscan(self, params, grid):
        for page in [generate_page(31, i, params) for i in range(4)]:
            boxes = [s.bbox for s in page.segments]
            for radius in (0.0, 10.0, 30.0, 60.0):
                for min_pts in (0, 1, 2, 3):
                    assert dbscan(boxes, ClusterParams(radius, min_pts)) == dbscan_loop(boxes, radius, min_pts)

    def test_encode_page(self, params, grid):
        pages = [generate_page(31, i, params) for i in range(4)]
        cfg = replace(reference_model_config(), grid=grid)
        model = Model(cfg, build_vocab(pages, cfg.vocab_size))
        for page in pages:
            enc = model.encode_page(page)
            g = enc.graph
            assert g.visual_parent == [assign_patch_loop(p, g.regions) for p in g.patch_bboxes]
            fine = normalized_coords_loop([*enc.tokens.bboxes, *g.patch_bboxes], page)
            coarse = normalized_coords_loop([s.bbox for s in page.segments] + [r.bbox for r in g.regions], page)
            assert same_bytes(enc.fine_boxes, fine)
            assert same_bytes(enc.coarse_boxes, coarse)
            assert same_indices(enc.fine_indices, spatial_indices_direct(fine, enc.positions, cfg.attention_config))
            targets = np.full(enc.n_text, -100, dtype=np.int64)
            for t in range(enc.n_text):
                if enc.tokens.first_subtoken[t]:
                    targets[t] = model.tag_set.tag_id(page.labels[enc.tokens.word_index[t]])
            assert same_bytes(enc.targets, targets)


def float_boxes(rng, n: int) -> list[BBox]:
    """Boxes with arbitrary float corners, a few of them zero-area or -0.0."""
    out = []
    for _ in range(n):
        x0, y0 = rng.uniform(-5, 40, size=2)
        w, h = rng.uniform(0, 15, size=2) * (rng.random(2) > 0.1)
        out.append(BBox(float(x0), float(y0), float(x0 + w), float(y0 + h)))
    return out + [BBox(-0.0, -0.0, 0.0, 0.0), BBox(0.0, -0.0, 1e-300, 3.0)]


class TestPairwiseGeometry:
    def test_iou_matrix_is_scalar_iou(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b = float_boxes(rng, int(rng.integers(0, 9))), float_boxes(rng, int(rng.integers(1, 9)))
            want = np.array([[iou(p, q) for q in b] for p in a]).reshape(len(a), len(b))
            assert same_bytes(iou_matrix(box_array(a), box_array(b)), want)

    def test_axis_gaps_give_boundary_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a, b = float_boxes(rng, int(rng.integers(1, 9))), float_boxes(rng, int(rng.integers(1, 9)))
            dx, dy = axis_gaps(box_array(a), box_array(b))
            got = [[math.hypot(x, y) for x, y in zip(rx, ry)] for rx, ry in zip(dx.tolist(), dy.tolist())]
            assert got == [[boundary_distance(p, q) for q in b] for p in a]


class TestDbscanEdgeCases:
    def test_pair_at_exactly_radius_with_both_gaps(self):
        boxes = [BBox(0, 0, 1, 1), BBox(4, 5, 6, 6)]  # dx 3, dy 4: distance exactly 5
        for r in (5.0, np.nextafter(5.0, 0.0)):
            assert dbscan(boxes, ClusterParams(r, 1)) == dbscan_loop(boxes, r, 1)
        assert dbscan(boxes, ClusterParams(5.0, 1)) == [0, 0]

    def test_touching_boxes(self):
        boxes = [BBox(0, 0, 10, 10), BBox(10, 0, 20, 10), BBox(20, 10, 30, 20), BBox(31, 10, 40, 20)]
        for r in (0.0, 0.5, 1.0):
            for min_pts in (0, 1, 2):
                assert dbscan(boxes, ClusterParams(r, min_pts)) == dbscan_loop(boxes, r, min_pts)

    def test_min_pts_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            boxes = grid_boxes(rng, int(rng.integers(1, 12)))
            assert dbscan(boxes, ClusterParams(4.0, 0)) == dbscan_loop(boxes, 4.0, 0)

    def test_random_integer_boxes(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            boxes = grid_boxes(rng, int(rng.integers(1, 25)))
            r = float(rng.choice([0.0, 1.0, 5.0, 13.0, np.inf]))
            min_pts = int(rng.integers(0, 4))
            assert dbscan(boxes, ClusterParams(r, min_pts)) == dbscan_loop(boxes, r, min_pts)


class TestAssignPatchesEdgeCases:
    def check(self, patches, regions):
        assert assign_patches(patches, regions) == [assign_patch_loop(p, regions) for p in patches]

    def test_zero_area_regions(self):
        regions = [region(BBox(5, 5, 5, 5)), region(BBox(0, 20, 40, 20)), region(BBox(50, 50, 60, 60))]
        patches = patch_boxes(60, 60, 3, 3) + [BBox(5, 5, 5, 5), BBox(0, 20, 0, 20)]  # union <= 0 pairs too
        self.check(patches, regions)

    def test_zero_iou_distance_ties(self):
        regions = [region(BBox(30, 50, 40, 60)), region(BBox(70, 50, 80, 60)), region(BBox(50, 70, 60, 80))]
        self.check([BBox(50, 50, 60, 60), BBox(55, 0, 56, 1), BBox(0, 0, 1, 1)], regions)
        assert assign_patches([BBox(50, 50, 60, 60)], regions) == [0]

    def test_iou_ties_and_touching(self):
        regions = [region(BBox(0, 0, 5, 10)), region(BBox(5, 0, 10, 10)), region(BBox(10, 0, 20, 10))]
        self.check([BBox(0, 0, 10, 10), BBox(10, 0, 10, 10), BBox(20, 0, 30, 10)], regions)
        assert assign_patches([BBox(0, 0, 10, 10)], regions) == [0]

    def test_random_integer_boxes(self):
        rng = np.random.default_rng(8)
        for _ in range(150):
            regions = [region(b) for b in grid_boxes(rng, int(rng.integers(1, 8)))]
            self.check(grid_boxes(rng, int(rng.integers(1, 10)), size=20), regions)


class TestNormalizedCoordsEdgeCases:
    def test_boxes_partly_off_the_page(self):
        page = Page(width=850, height=1100)
        boxes = [
            BBox(-20, -5, 30, 40),
            BBox(800, 1000, 900, 1200),
            BBox(-1e9, 3.5, 1e9, 7.25),
            BBox(-np.inf, -0.0, np.inf, 0.0),
            BBox(-0.0, 1099.999, 849.9999999, 1100),
        ]
        assert same_bytes(normalized_coords(boxes, page), normalized_coords_loop(boxes, page))

    def test_every_integer_and_half_coordinate(self):
        for w, h in ((850, 1100), (800, 2600), (7, 3), (999, 1001)):
            page = Page(width=w, height=h)
            xs, ys = np.arange(2 * w + 1) / 2, np.arange(2 * h + 1) / 2
            n = min(len(xs), len(ys))
            boxes = [BBox(float(x), float(y), float(x), float(y)) for x, y in zip(xs[:n], ys[:n])]
            boxes += [BBox(float(x), 0.0, float(w), float(y)) for x, y in zip(xs[::-1][:n], ys[:n])]
            assert same_bytes(normalized_coords(boxes, page), normalized_coords_loop(boxes, page))

    def test_grid_line_boundaries(self):
        """Coordinates at and beside k * dim / 1000, where the floor is most
        sensitive to the order of the multiply and the divide."""
        for w, h in ((850, 1100), (800, 2600), (613, 997)):
            page = Page(width=w, height=h)
            boxes = []
            for k in range(1001):
                x, y = k * w / 1000, k * h / 1000
                for dx, dy in ((x, y), (np.nextafter(x, 0.0), np.nextafter(y, 0.0)), (np.nextafter(x, w), np.nextafter(y, h))):
                    boxes.append(BBox(float(dx), float(dy), float(dx), float(dy)))
            assert same_bytes(normalized_coords(boxes, page), normalized_coords_loop(boxes, page))

    def test_nan_coordinate_rejected_like_the_loop(self):
        page = Page(width=10, height=10)
        boxes = [BBox(float("nan"), 0, 1, 1)]
        with pytest.raises(ValueError):
            normalized_coords_loop(boxes, page)
        with pytest.raises(ValueError):
            normalized_coords(boxes, page)


class TestSpatialIndicesEdgeCases:
    @pytest.mark.parametrize("buckets, max_distance", [(32, 1000), (16, 100), (8, 3), (64, 4096)])
    def test_max_len_beyond_1001(self, buckets, max_distance):
        rng = np.random.default_rng(buckets)
        n = 1500
        cfg = AttentionConfig(heads=2, rel_buckets=buckets, rel_max_distance=max_distance)
        positions = np.concatenate([np.arange(n - 40), np.arange(40)])
        coords = rng.integers(0, 1001, size=(n, 4))
        got = spatial_indices(coords, positions, cfg)
        assert same_indices(got, spatial_indices_direct(coords, positions, cfg))

    def test_coordinates_outside_the_grid(self):
        cfg = ModelConfig().attention_config
        coords = np.array([[-3000, 5, 0, 0], [0, 0, 0, 0], [2500, -7000, 0, 0], [999, 1000, 0, 0]])
        positions = [0, 1, 2, 3]
        assert same_indices(spatial_indices(coords, positions, cfg), spatial_indices_direct(coords, positions, cfg))

    def test_empty_sequence(self):
        cfg = ModelConfig().attention_config
        got = spatial_indices(np.zeros((0, 4), dtype=np.int64), [], cfg)
        assert same_indices(got, spatial_indices_direct(np.zeros((0, 4), dtype=np.int64), [], cfg))

