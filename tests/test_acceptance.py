"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion (the conftest hook prints them). The training criteria at
the bottom take several minutes; everything else is fast.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import docgrain as dg
from docgrain.attention import multi_head_attention, spatial_bias, spatial_indices
from docgrain.clustering import ClusterParams, dbscan, detect_salient_regions
from docgrain.document import BBox, boundary_distance, iou
from docgrain.graph import build_graph
from docgrain.labeling import Entity, anls, entity_f1
from docgrain.model import Model, ModelConfig, finite_difference_check, gradcheck_config, load_model
from docgrain.synth import SynthParams, generate_page, probe_page
from docgrain.tensor import Tensor, no_grad
from docgrain.training import (
    ablate,
    reference_model_config,
    reference_train_config,
    seed_averages,
    train,
)
from docgrain.vocab import build_vocab

from .reference_impls import dbscan_oracle, levenshtein_oracle, partitions_equal, softmax
from .test_attention import make_bias, make_layer, norm_boxes

SEEDS = (0, 1, 2)


def corpus(seed, count, variant="plain"):
    params = SynthParams(variant=variant)
    return [generate_page(seed, i, params) for i in range(count)]


@pytest.mark.criterion(1, "dbscan equals the brute-force oracle on 200 random instances")
def test_clustering_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(1, 51))
        boxes = []
        for _ in range(n):
            x0, y0 = rng.uniform(0, 600, size=2)
            boxes.append(BBox(x0, y0, x0 + rng.uniform(1, 60), y0 + rng.uniform(1, 25)))
        radius = float(rng.choice([5.0, 15.0, 30.0, 60.0, 140.0]))
        min_pts = int(rng.integers(0, 5))
        got = dbscan(boxes, ClusterParams(radius, min_pts))
        want = dbscan_oracle(boxes, radius, min_pts)
        assert partitions_equal(got, want), f"trial {trial} partition mismatch"
        assert got == want, f"trial {trial} border assignment mismatch"
    assert time.monotonic() - started < 10.0


@pytest.mark.criterion(2, "geometry fixtures exact; boundary distance symmetric, zero iff overlap")
def test_distance_geometry_suite():
    a, b = BBox(0, 0, 10, 10), BBox(13, 14, 20, 20)
    assert boundary_distance(a, b) == 5.0  # 3-4-5 right triangle
    assert boundary_distance(BBox(0, 0, 10, 10), BBox(5, 5, 15, 15)) == 0.0
    assert boundary_distance(BBox(0, 0, 10, 10), BBox(12, 0, 20, 10)) == 2.0

    assert abs(iou(BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)) - 1.0) <= 1e-12
    assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)) == 0.0
    assert abs(iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) - 50 / 150) <= 1e-12

    rng = np.random.default_rng(7)
    for _ in range(500):
        x0, y0, x1, y1 = rng.uniform(0, 300, size=4)
        p = BBox(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
        x0, y0, x1, y1 = rng.uniform(0, 300, size=4)
        q = BBox(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
        assert boundary_distance(p, q) == boundary_distance(q, p)
        dx = max(max(p.x0, q.x0) - min(p.x1, q.x1), 0.0)
        dy = max(max(p.y0, q.y0) - min(p.y1, q.y1), 0.0)
        assert (boundary_distance(p, q) == 0.0) == (dx == 0.0 and dy == 0.0)
        assert iou(p, q) == iou(q, p)


@pytest.mark.criterion(3, "every fine node has one parent; children counts sum per modality")
def test_graph_partition_invariants():
    rng = np.random.default_rng(11)
    for i in range(100):
        page = generate_page(500 + i % 17, i, SynthParams())
        grid = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        graph = build_graph(page, ClusterParams(float(rng.choice([10, 30, 60])), 1), grid)
        assert len(graph.text_parent) == page.n_words
        assert len(graph.visual_parent) == grid[0] * grid[1]
        for parent in graph.text_parent:
            assert 0 <= parent < graph.n_coarse_text
        for parent in graph.visual_parent:
            assert 0 <= parent < graph.n_coarse_visual
        # Children per coarse node, summed over the coarse nodes.
        text_children = np.bincount(graph.text_parent, minlength=graph.n_coarse_text)[: graph.n_coarse_text].sum()
        visual_children = np.bincount(graph.visual_parent, minlength=graph.n_coarse_visual)[: graph.n_coarse_visual].sum()
        assert text_children == len(graph.text_parent)
        assert visual_children == len(graph.visual_parent)


@pytest.mark.criterion(4, "spatial attention invariants: zero-bias reduction, translation, row sums")
def test_attention_invariants():
    rng = np.random.default_rng(3)
    heads = 4
    params = make_layer(16, rng=np.random.default_rng(5))
    h = Tensor(rng.normal(size=(9, 16)))
    coords = [(int(x), int(y)) for x, y in rng.integers(0, 900, size=(9, 2))]
    boxes = norm_boxes(coords)
    positions = list(range(9))

    zero_bias = make_bias(heads, zero=True)
    got = multi_head_attention(h, params, heads, spatial_bias(zero_bias, spatial_indices(boxes, positions))).data
    want = multi_head_attention(h, params, heads).data
    assert np.max(np.abs(got - want)) < 1e-12

    live_bias = make_bias(heads, zero=False, rng=np.random.default_rng(6))
    moved = boxes + [7, 11, 7, 11]
    base = multi_head_attention(h, params, heads, spatial_bias(live_bias, spatial_indices(boxes, positions))).data
    shifted = multi_head_attention(h, params, heads, spatial_bias(live_bias, spatial_indices(moved, positions))).data
    assert np.array_equal(base, shifted)

    idx = spatial_indices(boxes, positions)
    for head in range(heads):
        scores = rng.normal(size=(9, 9)) * 30
        biased = (
            scores
            + live_bias.rel_1d.data[idx.idx_1d, head]
            + live_bias.rel_x.data[idx.idx_x, head]
            + live_bias.rel_y.data[idx.idx_y, head]
        )
        rows = softmax(biased).sum(axis=-1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-9


@pytest.mark.criterion(5, "end-to-end finite differences < 1e-4 (d=16, N=2, M=1, K=4, 6 words)")
def test_full_model_gradient_check():
    started = time.monotonic()
    page = probe_page()
    assert page.n_words == 6
    cfg = gradcheck_config(seed=0)
    assert (cfg.d, cfg.fine_layers, cfg.coarse_layers, cfg.commonsense_k) == (16, 2, 1, 4)
    model = Model(cfg, build_vocab([page], cfg.vocab_size))
    max_err, per_group = finite_difference_check(model, page)
    elapsed = time.monotonic() - started
    assert max_err < 1e-4, per_group
    assert elapsed < 60.0


def _clone_params(dst: Model, src: Model) -> None:
    for name, p in dst.params.items():
        p.data = src.params[name].data.copy()


@pytest.mark.criterion(6, "M=0 / K=0 / bypass are exact computation-graph reductions")
def test_exact_ablation_reductions():
    page = generate_page(30, 0, SynthParams())
    base = dict(d=16, heads=2, fine_layers=2, vocab_size=512, max_len=256, grid=(2, 2), seed=4)
    vocab_pages = [page]

    # w/o Coarse-grained Encoder: M = 0 equals the manually chained
    # aggregate -> enhance -> layout -> (identity) -> fuse pipeline.
    m0 = Model(ModelConfig(coarse_layers=0, commonsense_k=4, **base), build_vocab(vocab_pages, 512))
    enc = m0.encode_page(page)
    with no_grad():
        full, _ = m0.forward_encoded(enc)
        h_fine = m0.fine_encode(m0.fine_input(enc), enc)
        agg = m0.aggregate(h_fine, enc)
        reduced = m0.fuse(h_fine, m0.coarse_input(agg, enc), enc)
    assert np.max(np.abs(full.data - reduced.data)) <= 1e-12

    # w/o Common Sense Enhancement: K = 0 equals the pipeline with the
    # knowledge term dropped and everything else identical.
    k0 = Model(ModelConfig(coarse_layers=1, commonsense_k=0, **base), build_vocab(vocab_pages, 512))
    enc = k0.encode_page(page)
    with no_grad():
        full, _ = k0.forward_encoded(enc)
        h_fine = k0.fine_encode(k0.fine_input(enc), enc)
        agg = k0.aggregate(h_fine, enc)
        from docgrain.embeddings import layout_lookups
        from docgrain.tensor import add_lookups

        coarse_in = add_lookups(agg, layout_lookups(enc.coarse_boxes, k0.tables))
        reduced = k0.fuse(h_fine, k0.coarse_encode(coarse_in), enc)
    assert np.max(np.abs(full.data - reduced.data)) <= 1e-12

    # w/o Aggregation with Cross-grained Edges: the bypass flag equals the
    # bare fine-grained encoder.
    bypass = Model(ModelConfig(coarse_layers=1, commonsense_k=4, use_cross_grained=False, **base),
                   build_vocab(vocab_pages, 512))
    enc = bypass.encode_page(page)
    with no_grad():
        full, _ = bypass.forward_encoded(enc)
        reduced = bypass.fine_encode(bypass.fine_input(enc), enc)
    assert np.max(np.abs(full.data - reduced.data)) <= 1e-12

    # The three reduced models also share every surviving parameter with a
    # same-seed full model (the reductions only remove terms).
    full_model = Model(ModelConfig(coarse_layers=1, commonsense_k=4, **base), build_vocab(vocab_pages, 512))
    for reduced_model in (m0, k0):
        for name, p in reduced_model.params.items():
            assert np.array_equal(p.data, full_model.params[name].data), name


@pytest.mark.criterion(7, "reference run reaches micro F1 >= 0.85 on held-out synthetic data")
def test_learning_smoke():
    started = time.monotonic()
    pages = corpus(1000, 500)
    train_pages, eval_pages = pages[:450], pages[450:]
    scores = []
    for seed in SEEDS:
        result = train(
            train_pages, eval_pages, reference_model_config(seed=seed), reference_train_config(seed=seed)
        )
        scores.append(result.best_f1)
    mean_f1 = float(np.mean(scores))
    elapsed = time.monotonic() - started
    print(f"\n  reference run: per-seed F1 {[round(s, 4) for s in scores]}, mean {mean_f1:.4f}, {elapsed:.0f}s")
    assert mean_f1 >= 0.85, scores
    assert elapsed < 900.0


@pytest.mark.criterion(8, "coarse-grained benefit on REGION-CUE >= 0.02; no plain-task regression > 0.01")
def test_directional_coarse_benefit():
    cue_pages = corpus(77, 220, variant="region_cue")
    cue_train, cue_eval = cue_pages[:190], cue_pages[190:]
    cue_model = replace(reference_model_config(), max_len=256)
    cue_train_cfg = replace(reference_train_config(epochs=16), warmup_steps=50, eval_every=4)

    full_scores, ablated_scores = [], []
    for seed in SEEDS:
        full = train(cue_train, cue_eval, replace(cue_model, seed=seed), replace(cue_train_cfg, seed=seed))
        full_scores.append(full.best_f1)
        woagg = train(
            cue_train,
            cue_eval,
            replace(cue_model, seed=seed, use_cross_grained=False),
            replace(cue_train_cfg, seed=seed),
        )
        ablated_scores.append(woagg.best_f1)
    full_mean, ablated_mean = float(np.mean(full_scores)), float(np.mean(ablated_scores))
    print(
        f"\n  region-cue: full {[round(s, 3) for s in full_scores]} mean {full_mean:.4f} vs "
        f"w/o aggregation {[round(s, 3) for s in ablated_scores]} mean {ablated_mean:.4f}"
    )
    assert full_mean - ablated_mean >= 0.02

    plain_pages = corpus(88, 170)
    plain_train, plain_eval = plain_pages[:140], plain_pages[140:]
    plain_model = replace(reference_model_config(), max_len=256)
    plain_train_cfg = replace(reference_train_config(epochs=12), warmup_steps=50, eval_every=4)
    rows = ablate(plain_train, plain_eval, plain_model, plain_train_cfg, "components", seeds=SEEDS)
    means = seed_averages(rows)
    print(f"  plain-task component means: { {k: round(v, 4) for k, v in means.items()} }")
    for run, mean in means.items():
        if run != "full":
            assert means["full"] >= mean - 0.01, (run, means)


@pytest.mark.criterion(9, "radius ablation covers the 5/10/30/50/100 grid; regions shrink as r grows")
def test_radius_harness(tmp_path):
    import csv
    import json

    from docgrain.cli import run

    corpus_dir = str(tmp_path / "corpus")
    assert run(["synth", "--seed", "55", "--count", "36", "--out", corpus_dir]) == 0
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(
            {
                "model": {"d": 12, "heads": 2, "fine_layers": 1, "coarse_layers": 1,
                          "vocab_size": 512, "max_len": 256, "grid": [2, 2], "commonsense_k": 4},
                "train": {"lr": 1e-3, "warmup_steps": 4, "epochs": 2, "batch_size": 8, "eval_every": 2},
            },
            fh,
        )
    csv_path = str(tmp_path / "radius.csv")
    assert run(
        ["ablate", "--axis", "radius", "--corpus", corpus_dir, "--config", cfg_path,
         "--seeds", "0", "--out", csv_path]
    ) == 0
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["run", "seed", "f1", "precision", "recall"]
        rows = list(reader)
    assert [row["run"] for row in rows] == ["r=5", "r=10", "r=30", "r=50", "r=100"]

    # monotone region counts on the test fixtures, and the golden claim:
    # strictly fewer regions at r=100 than at r=5
    from pathlib import Path

    from docgrain.document import load_document
    from docgrain.render import count_region_rects, render_page_svg

    fixture = load_document(str(Path(__file__).parent / "fixtures" / "radius_page.json"))
    counts = []
    for r in (5.0, 10.0, 30.0, 50.0, 100.0):
        counts.append(len(detect_salient_regions(fixture.segments, ClusterParams(r, 1))))
    assert counts == sorted(counts, reverse=True), counts

    golden_dir = Path(__file__).parent / "golden"
    svg5 = render_page_svg(fixture, detect_salient_regions(fixture.segments, ClusterParams(5.0, 1)))
    svg100 = render_page_svg(fixture, detect_salient_regions(fixture.segments, ClusterParams(100.0, 1)))
    assert svg5 == (golden_dir / "radius_page_r5.svg").read_text()
    assert svg100 == (golden_dir / "radius_page_r100.svg").read_text()
    assert svg5 != svg100
    assert count_region_rects(svg100) < count_region_rects(svg5)


@pytest.mark.criterion(10, "metric fixtures exact; checkpoint round trip bit-exact")
def test_metric_fixtures_and_checkpoint(tmp_path):
    gold = [Entity("ANSWER", 0, 2), Entity("QUESTION", 4, 5)]
    assert entity_f1(gold, gold) == (1.0, 1.0, 1.0)
    pred = [Entity("ANSWER", 0, 2), Entity("ANSWER", 7, 9)]
    assert entity_f1(pred, gold) == (0.5, 0.5, 0.5)
    assert entity_f1([], gold) == (0.0, 0.0, 0.0)

    want = 1.0 - levenshtein_oracle("fox", "fax") / 3.0
    assert abs(anls("fox", ["fax"]) - want) <= 1e-12
    assert abs(anls("fox", ["fax"]) - 0.6667) < 5e-5
    assert anls("Total", ["total"]) == 1.0
    assert anls("abcd", ["wxyz"]) == 0.0

    page = probe_page()
    cfg = gradcheck_config(seed=9)
    model = Model(cfg, build_vocab([page], cfg.vocab_size))
    first = str(tmp_path / "first.ckpt")
    second = str(tmp_path / "second.ckpt")
    model.save(first)
    reloaded = load_model(first)
    for name, p in model.params.items():
        assert reloaded.params[name].data.tobytes() == p.data.tobytes()
    reloaded.save(second)
    assert open(first, "rb").read() == open(second, "rb").read()
