from dataclasses import replace

import numpy as np
import pytest

from docgrain.commonsense import CommonSenseInventory, make_inventory
from docgrain.document import BBox, Page, Segment, Word
from docgrain.model import Model, ModelConfig, gradcheck_config, stage_summary
from docgrain.synth import SynthParams, generate_page, probe_page
from docgrain.tensor import Tensor, no_grad
from docgrain.training import reference_model_config
from docgrain.vocab import build_vocab

from .reference_impls import (
    aggregate_oracle,
    coarse_input_oracle,
    composed_coarse_input,
    composed_fine_input,
    composed_fuse,
    fine_input_oracle,
)

TINY = dict(d=12, heads=2, fine_layers=1, coarse_layers=1, vocab_size=64, max_len=64, grid=(2, 2), commonsense_k=4)


def tiny_model(page, seed=0, **overrides):
    kwargs = {**TINY, **overrides}
    cfg = ModelConfig(seed=seed, **kwargs)
    return Model(cfg, build_vocab([page], size=kwargs["vocab_size"]))


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="not divisible"):
            ModelConfig(d=10, heads=4)
        with pytest.raises(ValueError, match="fine layer"):
            ModelConfig(fine_layers=0)
        with pytest.raises(ValueError, match=r"\[0, 5\]"):
            ModelConfig(coarse_layers=6)

    def test_commonsense_k_bounded_by_detectors(self):
        # Checked with the rest of the config, before any vocabulary or model.
        for k in (-1, 9):
            with pytest.raises(ValueError, match=r"commonsense_k must be in \[0, 8\]"):
                ModelConfig(commonsense_k=k)
        assert ModelConfig(commonsense_k=8).commonsense_k == 8

    @pytest.mark.parametrize("field, bad, good", [
        ("rel_buckets", [5, 2, 0, -4], [4, 32]),
        ("rel_max_distance", [8, 0, -1], [9, 1000]),
        ("radius", [-1.0, float("inf"), float("nan")], [0.0, 30.0]),
        ("min_pts", [-1], [0, 3]),
    ])
    def test_bucket_and_cluster_fields(self, field, bad, good):
        for value in bad:
            with pytest.raises(ValueError, match=field):
                ModelConfig(**{field: value})
        for value in good:
            assert getattr(ModelConfig(**{field: value}), field) == value

    def test_round_trip_dict(self):
        cfg = ModelConfig(d=24, heads=4, grid=(3, 5))
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown model config"):
            ModelConfig.from_dict({"depth": 3})


class TestCommonSense:
    def test_date_detected(self):
        inv = make_inventory(8)
        bits = inv.detect("January 5, 1989")
        assert bits[inv.categories.index("DATE")] == 1.0

    def test_empty_text(self):
        inv = make_inventory(8)
        assert np.all(inv.detect("") == 0.0)

    def test_multi_hot(self):
        inv = make_inventory(8)
        bits = inv.detect("$12.50 on January 5")
        assert bits[inv.categories.index("DATE")] == 1.0
        assert bits[inv.categories.index("MONEY")] == 1.0
        # digits all claimed by the date and money spans
        assert bits[inv.categories.index("CARDINAL")] == 0.0

    def test_cardinal_residual(self):
        inv = make_inventory(8)
        assert inv.detect("volume 42")[inv.categories.index("CARDINAL")] == 1.0

    def test_person_org_gpe(self):
        inv = make_inventory(8)
        assert inv.detect("Mr. Smith")[inv.categories.index("PERSON")] == 1.0
        assert inv.detect("Acme Corp.")[inv.categories.index("ORG")] == 1.0
        assert inv.detect("Richmond Virginia")[inv.categories.index("GPE")] == 1.0

    def test_k_zero_inventory(self):
        inv = make_inventory(0)
        assert inv.size == 0
        assert inv.detect_all(["anything"]).shape == (1, 0)

    def test_detect_common_sense_vector(self):
        inv = make_inventory(8)
        bits = inv.detect("$12.50 on January 5")
        assert len(bits) == 8
        assert bits[inv.categories.index("MONEY")] == 1.0


class TestCommonsenseEmbed:
    def test_zero_vector_zero_output(self):
        page = probe_page()
        m = tiny_model(page)
        out = m.commonsense_embed(np.zeros((3, 4)))
        assert np.all(out.data == 0.0)

    def test_one_hot_selects_row(self):
        page = probe_page()
        m = tiny_model(page)
        one = np.zeros((1, 4))
        one[0, 2] = 1.0
        out = m.commonsense_embed(one).data
        want = m.cs_emb.data[2] @ m.cs_proj.data
        assert np.max(np.abs(out[0] - want)) < 1e-12

    def test_two_hot_is_sum(self):
        page = probe_page()
        m = tiny_model(page)
        a, b, both = np.zeros((1, 4)), np.zeros((1, 4)), np.zeros((1, 4))
        a[0, 0] = b[0, 3] = 1.0
        both[0, 0] = both[0, 3] = 1.0
        got = m.commonsense_embed(both).data
        want = m.commonsense_embed(a).data + m.commonsense_embed(b).data
        assert np.max(np.abs(got - want)) < 1e-12


class TestStages:
    def test_fine_encode_empty_stack_is_identity(self):
        page = probe_page()
        m = tiny_model(page)
        enc = m.encode_page(page)
        h = m.fine_input(enc)
        m.fine_stack = []
        assert m.fine_encode(h, enc) is h

    def test_aggregate_sums_children(self):
        page = probe_page()
        m = tiny_model(page)
        enc = m.encode_page(page)
        n = enc.n_text + enc.n_visual
        h = Tensor(np.random.default_rng(0).normal(size=(n, m.config.d)))
        agg = m.aggregate(h, enc).data
        agg_t, agg_v = agg[: enc.graph.n_coarse_text], agg[enc.graph.n_coarse_text :]
        # edge-list oracle over the graph parent maps
        want_t = np.zeros((enc.graph.n_coarse_text, m.config.d))
        for t in range(enc.n_text):
            want_t[enc.graph.text_parent[enc.tokens.word_index[t]]] += h.data[t]
        want_v = np.zeros((enc.graph.n_coarse_visual, m.config.d))
        for p in range(enc.n_visual):
            want_v[enc.graph.visual_parent[p]] += h.data[enc.n_text + p]
        assert np.max(np.abs(agg_t - want_t)) < 1e-12
        assert np.max(np.abs(agg_v - want_v)) < 1e-12

    def test_aggregate_fixture_rows(self):
        # children rows [1,2,...] and [3,4,...] sum to [4,6,...]
        words = [Word("a", BBox(0, 0, 5, 5), 0), Word("b", BBox(6, 0, 11, 5), 0)]
        seg = Segment("a b", BBox(0, 0, 11, 5), (0, 1))
        page = Page(width=20, height=10, words=words, segments=[seg])
        m = tiny_model(page, grid=(1, 1))
        enc = m.encode_page(page)
        h = Tensor(
            np.vstack([np.tile([[1.0, 2.0]], (1, 6)), np.tile([[3.0, 4.0]], (1, 6)), np.zeros((1, 12))])
        )
        agg_t = m.aggregate(h, enc).data[: enc.graph.n_coarse_text]
        assert np.allclose(agg_t[0][:2], [4.0, 6.0])
        # single child: the aggregate is the child's row itself
        single_page = Page(width=20, height=10, words=[words[0]], segments=[Segment("a", BBox(0, 0, 5, 5), (0,))])
        ms = tiny_model(single_page, grid=(1, 1))
        encs = ms.encode_page(single_page)
        hs = Tensor(np.vstack([np.tile([[5.0, -1.0]], (1, 6)), np.zeros((1, 12))]))
        agg_s = ms.aggregate(hs, encs).data[: encs.graph.n_coarse_text]
        assert np.array_equal(agg_s[0], hs.data[0])

    def test_parent_map_matches_loop_reference(self):
        page = generate_page(4, 0, SynthParams())
        m = tiny_model(page, max_len=256, grid=(3, 2))
        enc = m.encode_page(page)
        g, n_text, n_visual = enc.graph, enc.n_text, enc.n_visual
        n_seg = g.n_coarse_text
        parent_row = np.zeros(n_text + n_visual, dtype=np.int64)
        agg_text = np.zeros((n_seg, n_text))
        agg_visual = np.zeros((g.n_coarse_visual, n_visual))
        for t in range(n_text):
            parent_row[t] = g.text_parent[enc.tokens.word_index[t]]
            agg_text[parent_row[t], t] = 1.0
        for p in range(n_visual):
            parent_row[n_text + p] = n_seg + g.visual_parent[p]
            agg_visual[g.visual_parent[p], p] = 1.0
        # The one matrix is the two per-modality blocks on its diagonal.
        agg = np.zeros((n_seg + g.n_coarse_visual, n_text + n_visual))
        agg[:n_seg, :n_text] = agg_text
        agg[n_seg:, n_text:] = agg_visual
        for got, want in ((enc.parent_row, parent_row), (enc.agg, agg)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_coarse_encode_m0_identity(self):
        page = probe_page()
        m = tiny_model(page, coarse_layers=0)
        h = Tensor(np.random.default_rng(1).normal(size=(4, m.config.d)))
        assert m.coarse_encode(h) is h

    def test_coarse_input_shape(self):
        page = probe_page()
        m = tiny_model(page)
        enc = m.encode_page(page)
        fused, stages = m.forward_encoded(enc, collect=True)
        z, p = enc.graph.n_coarse_text, enc.graph.n_coarse_visual
        assert stages["coarse_input"].shape == (z + p, m.config.d)

    def test_fuse_zero_coarse_is_identity(self):
        page = probe_page()
        m = tiny_model(page)
        enc = m.encode_page(page)
        n = enc.n_text + enc.n_visual
        n_coarse = enc.graph.n_coarse_text + enc.graph.n_coarse_visual
        h = Tensor(np.random.default_rng(2).normal(size=(n, m.config.d)))
        fused = m.fuse(h, Tensor(np.zeros((n_coarse, m.config.d))), enc)
        assert np.array_equal(fused.data, h.data)

    def test_fuse_matches_parent_loop(self):
        page = generate_page(4, 0, SynthParams())
        m = tiny_model(page, max_len=256)
        enc = m.encode_page(page)
        rng = np.random.default_rng(3)
        n = enc.n_text + enc.n_visual
        n_coarse = enc.graph.n_coarse_text + enc.graph.n_coarse_visual
        h = Tensor(rng.normal(size=(n, m.config.d)))
        hc = Tensor(rng.normal(size=(n_coarse, m.config.d)))
        fused = m.fuse(h, hc, enc).data
        for i in range(n):
            want = h.data[i] + hc.data[enc.parent_row[i]]
            assert np.max(np.abs(fused[i] - want)) < 1e-12

    def test_fusion_linearity(self):
        page = probe_page()
        m = tiny_model(page)
        enc = m.encode_page(page)
        rng = np.random.default_rng(4)
        n = enc.n_text + enc.n_visual
        n_coarse = enc.graph.n_coarse_text + enc.graph.n_coarse_visual
        a = Tensor(rng.normal(size=(n, m.config.d)))
        b = Tensor(rng.normal(size=(n_coarse, m.config.d)))
        c = Tensor(rng.normal(size=(n_coarse, m.config.d)))
        lhs = m.fuse(a, Tensor(b.data + c.data), enc).data
        rhs = m.fuse(a, b, enc).data + c.data[enc.parent_row]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# Long pages on a 7x7 grid, as in the dense benchmark workload.
DENSE = SynthParams(page_height=2600, min_kv_pairs=12, max_kv_pairs=24, max_list_blocks=6, max_noise_lines=6)


class TestStackedInputsMatchOracle:
    """The stacked [text; visual] stages equal the per-row, per-modality
    numpy oracle byte for byte."""

    @pytest.mark.parametrize("params, grid", [(SynthParams(), (4, 4)), (DENSE, (7, 7))], ids=["forms-sum", "dense-sum"])
    def test_fine_input_aggregate_coarse_input(self, params, grid):
        pages = [generate_page(41, i, params) for i in range(2)]
        cfg = replace(reference_model_config(), grid=grid)
        m = Model(cfg, build_vocab(pages, cfg.vocab_size))
        for page in pages:
            enc = m.encode_page(page)
            with no_grad():
                h0 = m.fine_input(enc)
                h = m.fine_encode(h0, enc)
                agg = m.aggregate(h, enc)
                coarse = m.coarse_input(agg, enc)
            assert h0.data.tobytes() == fine_input_oracle(m, enc).tobytes()
            want_agg = aggregate_oracle(enc, h.data)
            assert agg.data.tobytes() == want_agg.tobytes()
            assert coarse.data.tobytes() == coarse_input_oracle(m, enc, want_agg).tobytes()

    def test_collected_aggregate_blocks_add_no_tape_node(self):
        page = probe_page()
        m = tiny_model(page)
        enc = m.encode_page(page)
        _, stages = m.forward_encoded(enc, collect=True)
        z = enc.graph.n_coarse_text
        agg = m.aggregate(stages["fine_encoded"], enc).data
        assert np.array_equal(stages["aggregated_text"].data, agg[:z])
        assert np.array_equal(stages["aggregated_visual"].data, agg[z:])
        for name in ("aggregated_text", "aggregated_visual"):
            assert stages[name]._backward is None and not stages[name].requires_grad


def tape_nodes(root: Tensor) -> int:
    """Interior nodes of the autodiff graph under ``root``: every recorded
    op that carries a backward closure."""
    seen: set[int] = set()
    stack, count = [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


def random_bias_model(cfg, vocab) -> Model:
    """A model whose relative-bias tables are drawn from N(0, 0.5), so the
    spatial bias is live in every gradient."""
    m = Model(cfg, vocab)
    rng = np.random.default_rng(5)
    for t in (m.bias_tables.rel_1d, m.bias_tables.rel_x, m.bias_tables.rel_y):
        t.data[:] = rng.normal(0.0, 0.5, size=t.shape)
    return m


class TestLookupSumMatchesComposedChain:
    """The ``add_lookups`` input, coarse-input and fuse stages against the
    composed gather / column-concatenation / add chain they replaced."""

    @pytest.mark.parametrize("params, grid", [(SynthParams(), (4, 4)), (DENSE, (7, 7))], ids=["forms-sum", "dense-sum"])
    def test_stages_loss_and_gradients(self, params, grid):
        pages = [generate_page(43, i, params) for i in range(3)]
        cfg = replace(reference_model_config(), grid=grid)
        vocab = build_vocab(pages, cfg.vocab_size)
        m, oracle = random_bias_model(cfg, vocab), random_bias_model(cfg, vocab)
        oracle.fine_input = lambda enc: composed_fine_input(oracle, enc)
        oracle.coarse_input = lambda agg, enc: composed_coarse_input(oracle, agg, enc)
        oracle.fuse = lambda h_fine, h_coarse, enc: composed_fuse(h_fine, h_coarse, enc)
        for page in pages:
            enc = m.encode_page(page)
            runs = []
            for model in (m, oracle):
                model.zero_grad()
                _, stages = model.forward_encoded(enc, collect=True)
                loss = model.loss_encoded(enc)
                loss.backward()
                runs.append((loss, stages, {k: p.grad for k, p in model.params.items()}))
            (loss, stages, grads), (want_loss, want_stages, want_grads) = runs
            assert loss.data.tobytes() == want_loss.data.tobytes()
            assert stages.keys() == want_stages.keys()
            for name in stages:
                assert stages[name].data.tobytes() == want_stages[name].data.tobytes(), name
            for name, g in grads.items():
                want = want_grads[name]
                if name in ("emb.coord_x", "emb.coord_y"):
                    # The coarse layout terms now reach the tables before
                    # the fine ones: the same sums in another order.
                    assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), name
                else:
                    assert g.tobytes() == want.tobytes(), name

    def test_tape_nodes_per_document(self):
        # Fine input 4 (word gather, patch linear, concat, lookups), one
        # spatial bias and two fine layers of 13, aggregate 1, coarse input
        # 4 (knowledge 2, add, lookups), one coarse layer 13, fuse 1, and
        # slice, head and loss 3.
        page = generate_page(10, 0, SynthParams())
        m = Model(reference_model_config(), build_vocab([page], 2048))
        assert tape_nodes(m.loss_encoded(m.encode_page(page))) == 53


class TestForward:
    def test_shapes_end_to_end(self):
        page = generate_page(11, 0, SynthParams())
        m = tiny_model(page, max_len=256)
        enc = m.encode_page(page)
        fused, stages = m.forward_encoded(enc, collect=True)
        assert fused.shape == (enc.n_text + enc.n_visual, m.config.d)
        summary = stage_summary(stages)
        assert summary["fine_encoded"]["shape"] == [enc.n_text + enc.n_visual, m.config.d]
        assert "coarse_encoded" in summary

    def test_full_degeneration_equals_fine_encoder(self):
        page = probe_page()
        m = tiny_model(page, use_cross_grained=False)
        enc = m.encode_page(page)
        with no_grad():
            fused, _ = m.forward_encoded(enc)
            h0 = m.fine_input(enc)
            fine = m.fine_encode(h0, enc)
        assert np.array_equal(fused.data, fine.data)

    def test_segment_permutation_invariance(self):
        page = generate_page(21, 0, SynthParams())
        perm_rng = np.random.default_rng(9)
        perm = perm_rng.permutation(page.n_segments)
        inverse = {int(old): int(new) for new, old in enumerate(perm)}
        permuted = Page(
            width=page.width,
            height=page.height,
            words=[Word(w.text, w.bbox, inverse[w.segment_id]) for w in page.words],
            segments=[page.segments[int(old)] for old in perm],
            labels=list(page.labels),
        )
        for m_layers in (0, 1):
            m1 = tiny_model(page, max_len=256, coarse_layers=m_layers)
            m2 = Model(m1.config, m1.vocab)
            for name, p in m2.params.items():
                p.data = m1.params[name].data.copy()
            with no_grad():
                a, _ = m1.forward_encoded(m1.encode_page(page))
                b, _ = m2.forward_encoded(m2.encode_page(permuted))
            tol = 0.0 if m_layers == 0 else 1e-9
            assert np.max(np.abs(a.data - b.data)) <= tol

    def test_every_parameter_group_gets_gradient(self):
        page = probe_page()
        m = tiny_model(page)
        enc = m.encode_page(page)
        m.zero_grad()
        m.loss_encoded(enc).backward()
        for name, p in m.params.items():
            assert p.grad is not None, f"no gradient buffer for {name}"
            assert np.any(p.grad != 0.0), f"all-zero gradient for {name}"

    def test_quick_finite_difference(self):
        from docgrain.model import finite_difference_check

        page = probe_page()
        m = tiny_model(page)
        max_err, per_group = finite_difference_check(m, page, samples_per_group=3)
        assert max_err < 1e-4, per_group

    def test_gradcheck_config_matches_contract(self):
        cfg = gradcheck_config()
        assert (cfg.d, cfg.fine_layers, cfg.coarse_layers, cfg.commonsense_k) == (16, 2, 1, 4)

    def test_predict_word_tags_length(self):
        page = probe_page()
        m = tiny_model(page)
        tags = m.predict_word_tags(m.encode_page(page))
        assert len(tags) == page.n_words
        assert all(t == "O" or t[:2] in ("B-", "I-") for t in tags)

    def test_inventory_mismatch_rejected(self):
        page = probe_page()
        cfg = ModelConfig(seed=0, **TINY)
        with pytest.raises(ValueError, match="inventory size"):
            Model(cfg, build_vocab([page], 64), inventory=CommonSenseInventory(("DATE",)))
