import numpy as np
import pytest

from docgrain.clustering import NOISE, ClusterParams, dbscan, detect_salient_regions
from docgrain.document import BBox, Segment, boundary_distance, union_box

from .reference_impls import dbscan_oracle, partitions_equal


def random_boxes(rng, n, span=400.0, size=40.0):
    out = []
    for _ in range(n):
        x0 = rng.uniform(0, span)
        y0 = rng.uniform(0, span)
        out.append(BBox(x0, y0, x0 + rng.uniform(1, size), y0 + rng.uniform(1, size)))
    return out


def segment_for(box, i):
    return Segment(text=f"s{i}", bbox=box, word_ids=(i,))


THREE = [BBox(0, 0, 10, 10), BBox(15, 0, 25, 10), BBox(100, 0, 110, 10)]


class TestDbscan:
    def test_three_box_fixture(self):
        labels = dbscan(THREE, ClusterParams(radius=10, min_pts=1))
        assert labels == [0, 0, NOISE]
        assert labels == dbscan_oracle(THREE, 10, 1)

    def test_all_overlapping_single_cluster(self):
        boxes = [BBox(i, 0, i + 20, 10) for i in range(0, 50, 5)]
        labels = dbscan(boxes, ClusterParams(radius=10, min_pts=len(boxes) - 1))
        assert labels == [0] * len(boxes)

    def test_min_pts_zero_connected_components(self):
        boxes = [BBox(0, 0, 1, 1), BBox(3, 0, 4, 1), BBox(50, 0, 51, 1)]
        labels = dbscan(boxes, ClusterParams(radius=5, min_pts=0))
        assert labels == dbscan_oracle(boxes, 5, 0)
        assert labels == [0, 0, 1]  # every box core, components of the <=r graph

    def test_empty(self):
        assert dbscan([], ClusterParams()) == []

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            n = int(rng.integers(1, 30))
            boxes = random_boxes(rng, n)
            radius = float(rng.choice([5.0, 20.0, 50.0, 120.0]))
            min_pts = int(rng.integers(0, 4))
            got = dbscan(boxes, ClusterParams(radius, min_pts))
            want = dbscan_oracle(boxes, radius, min_pts)
            assert partitions_equal(got, want), f"trial {trial}: {got} vs {want}"
            # border attachment rule is identical, not just the partition
            assert got == want, f"trial {trial}: label order differs"

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        boxes = random_boxes(rng, 25)
        p = ClusterParams(30, 1)
        assert dbscan(boxes, p) == dbscan(boxes, p)


class TestDetectSalientRegions:
    def test_single_segment_singleton(self):
        seg = segment_for(BBox(5, 5, 30, 15), 0)
        regions = detect_salient_regions([seg], ClusterParams(30, 1))
        assert len(regions) == 1
        assert regions[0].bbox == seg.bbox
        assert regions[0].member_segment_ids == (0,)

    def test_three_box_fixture_regions(self):
        segs = [segment_for(b, i) for i, b in enumerate(THREE)]
        regions = detect_salient_regions(segs, ClusterParams(10, 1))
        assert [r.member_segment_ids for r in regions] == [(0, 1), (2,)]
        assert regions[0].bbox == BBox(0, 0, 25, 10)
        assert regions[1].bbox == BBox(100, 0, 110, 10)

    def test_partition_property(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            boxes = random_boxes(rng, int(rng.integers(1, 40)))
            segs = [segment_for(b, i) for i, b in enumerate(boxes)]
            regions = detect_salient_regions(segs, ClusterParams(float(rng.choice([10, 30, 80])), 1))
            seen = sorted(i for r in regions for i in r.member_segment_ids)
            assert seen == list(range(len(segs)))
            for r in regions:
                assert r.bbox == union_box([segs[i].bbox for i in r.member_segment_ids])

    def test_regions_group_oracle_labels_with_border_and_noise_boxes(self):
        rng = np.random.default_rng(17)
        kinds = set()
        for trial in range(60):
            boxes = random_boxes(rng, int(rng.integers(1, 25)))
            segs = [segment_for(b, i) for i, b in enumerate(boxes)]
            radius = float(rng.choice([5.0, 20.0, 50.0]))
            for min_pts in range(4):
                labels = dbscan_oracle(boxes, radius, min_pts)
                groups: dict[tuple, list[int]] = {}
                for i, lab in enumerate(labels):
                    # A cluster is one region; a noise box is a region alone.
                    groups.setdefault(("cluster", lab) if lab != NOISE else ("noise", i), []).append(i)
                    near = sum(boundary_distance(boxes[i], b) <= radius for j, b in enumerate(boxes) if j != i)
                    kinds.add("core" if near >= min_pts else "border" if lab != NOISE else "noise")
                want = sorted((sorted(m) for m in groups.values()), key=lambda m: m[0])
                regions = detect_salient_regions(segs, ClusterParams(radius, min_pts))
                assert [list(r.member_segment_ids) for r in regions] == want, f"trial {trial}, min_pts {min_pts}"
                assert [r.bbox for r in regions] == [union_box([boxes[i] for i in m]) for m in want]
        assert kinds == {"core", "border", "noise"}

    def test_region_count_nonincreasing_in_radius(self):
        # empirical monotonicity on the suite's random instances
        rng = np.random.default_rng(5)
        for _ in range(20):
            boxes = random_boxes(rng, int(rng.integers(2, 35)))
            segs = [segment_for(b, i) for i, b in enumerate(boxes)]
            counts = [
                len(detect_salient_regions(segs, ClusterParams(r, 1)))
                for r in (5.0, 10.0, 30.0, 50.0, 100.0)
            ]
            assert counts == sorted(counts, reverse=True), counts


class TestClusterParams:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ClusterParams(radius=-1)
        with pytest.raises(ValueError):
            ClusterParams(min_pts=-1)

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="radius"):
            ClusterParams(radius=float("nan"))
        assert ClusterParams(radius=float("inf")).radius == float("inf")
