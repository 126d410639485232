import weakref
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import docgrain.model as model_module
import docgrain.tensor as tensor_module
from docgrain.commonsense import DEFAULT_CATEGORIES, CommonSenseInventory
from docgrain.document import BBox, Page, Segment, Word
from docgrain.embeddings import layout_lookups
from docgrain.model import Model, ModelConfig, gradcheck_config, stage_summary
from docgrain.synth import SynthParams, generate_page, probe_page
from docgrain.tensor import Tensor, add_lookups, matmul, no_grad
from docgrain.training import reference_model_config
from docgrain.vocab import build_vocab

from .reference_impls import (
    ChainModel,
    FullTableModel,
    aggregate_oracle,
    coarse_input_oracle,
    composed_coarse_input,
    composed_fine_input,
    composed_fuse,
    composed_transformer_layer,
    fine_input_oracle,
    gradients_sharing_memory,
    tape_tensors,
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

    def test_negative_seed_rejected(self):
        # numpy's seeding once failed later, without naming the key.
        for seed in (-1, -(2**70)):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                ModelConfig(seed=seed)
        assert ModelConfig(seed=2**70).seed == 2**70

    def test_radius_field(self):
        for value in (-1.0, float("inf"), float("nan"), 10**400):
            with pytest.raises(ValueError, match="radius"):
                ModelConfig(radius=value)
        for value in (0.0, 30.0, 10**300):
            assert ModelConfig(radius=value).radius == value

    def test_retired_bucket_and_cluster_keys_load_at_the_implemented_values(self):
        cfg = ModelConfig(d=24, heads=4)
        old = {**cfg.to_dict(), "min_pts": 1, "rel_buckets": 32, "rel_max_distance": 1000}
        assert ModelConfig.from_dict(old) == cfg

    @pytest.mark.parametrize("key, value", [("rel_buckets", 16), ("rel_max_distance", 100), ("min_pts", 2)])
    def test_retired_bucket_and_cluster_keys_at_other_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"retired model config field '{key}'"):
            ModelConfig.from_dict({key: value})

    def test_vocab_size_holds_the_special_tokens(self):
        # A smaller cap leaves no room for the vocabulary's two special tokens.
        for size in (-1, 0, 1):
            with pytest.raises(ValueError, match="vocab_size must be at least 2"):
                ModelConfig(vocab_size=size)
        page = probe_page()
        m = tiny_model(page, vocab_size=2)
        assert len(m.vocab) == 2 and m.tables.word.shape == (2, TINY["d"])

    def test_round_trip_dict(self):
        cfg = ModelConfig(d=24, heads=4, grid=(3, 5))
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown model config"):
            ModelConfig.from_dict({"depth": 3})


def detect(text: str) -> dict[str, float]:
    """The knowledge bits of one text, by category name."""
    return dict(zip(DEFAULT_CATEGORIES, CommonSenseInventory().detect_all([text])[0]))


class TestCommonSense:
    def test_date_detected(self):
        assert detect("January 5, 1989")["DATE"] == 1.0

    def test_empty_text(self):
        assert set(detect("").values()) == {0.0}

    def test_multi_hot(self):
        bits = detect("$12.50 on January 5")
        assert bits["DATE"] == 1.0
        assert bits["MONEY"] == 1.0
        # digits all claimed by the date and money spans
        assert bits["CARDINAL"] == 0.0

    def test_cardinal_residual(self):
        assert detect("volume 42")["CARDINAL"] == 1.0

    def test_person_org_gpe(self):
        assert detect("Mr. Smith")["PERSON"] == 1.0
        assert detect("Acme Corp.")["ORG"] == 1.0
        assert detect("Richmond Virginia")["GPE"] == 1.0

    def test_k_zero_inventory(self):
        inv = CommonSenseInventory(0)
        assert inv.size == 0
        assert inv.detect_all(["anything"]).shape == (1, 0)

    def test_detect_common_sense_vector(self):
        bits = detect("$12.50 on January 5")
        assert len(bits) == 8
        assert bits["MONEY"] == 1.0

    def test_inventory_is_a_default_prefix(self):
        assert CommonSenseInventory().categories == DEFAULT_CATEGORIES
        for k in range(len(DEFAULT_CATEGORIES) + 1):
            assert CommonSenseInventory(k).categories == DEFAULT_CATEGORIES[:k]
        for bad in (-1, 9, True, 2.0, "3", ("DATE",)):
            with pytest.raises(ValueError, match="inventory size"):
                CommonSenseInventory(bad)


class TestCommonsenseEmbed:
    """The knowledge term ``coarse_input`` adds to the aggregate: bits @ cs.emb @ cs.proj."""

    @staticmethod
    def knowledge_term(bits):
        """The model and ``coarse_input`` less its layout term, with ``bits``
        as the first knowledge rows of the probe page and zero rows after."""
        page = probe_page()
        m = tiny_model(page)
        enc = m.encode_page(page)
        rows = np.zeros_like(enc.cs_bits)
        rows[: len(bits)] = bits
        agg = Tensor(np.zeros((rows.shape[0], m.config.d)))
        layout = add_lookups(agg, layout_lookups(enc.coarse_boxes, m.tables)).data
        return m, m.coarse_input(agg, replace(enc, cs_bits=rows)).data - layout

    def test_zero_vector_zero_output(self):
        _, out = self.knowledge_term(np.zeros((3, 4)))
        assert np.all(out == 0.0)

    def test_one_hot_selects_row(self):
        m, out = self.knowledge_term([[0.0, 0.0, 1.0, 0.0]])
        want = m.cs_emb.data[2] @ m.cs_proj.data
        assert np.max(np.abs(out[0] - want)) < 1e-12

    def test_two_hot_is_sum(self):
        _, got = self.knowledge_term([[1.0, 0.0, 0.0, 1.0]])
        _, a = self.knowledge_term([[1.0, 0.0, 0.0, 0.0]])
        _, b = self.knowledge_term([[0.0, 0.0, 0.0, 1.0]])
        assert np.max(np.abs(got - (a + b))) < 1e-12


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
        h = Tensor(np.random.default_rng(3).normal(size=(n_text + n_visual, m.config.d)))
        for got, want in ((enc.parent_row, parent_row), (m.aggregate(h, enc).data, matmul(Tensor(agg), h).data)):
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
        fused, stages = m.forward_encoded(enc)
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
        _, stages = m.forward_encoded(enc)
        z = enc.graph.n_coarse_text
        agg = m.aggregate(stages["fine_encoded"], enc).data
        assert np.array_equal(stages["aggregated_text"].data, agg[:z])
        assert np.array_equal(stages["aggregated_visual"].data, agg[z:])
        for name in ("aggregated_text", "aggregated_visual"):
            assert stages[name]._backward is None and not stages[name].requires_grad


def held_arrays(value):
    """Every numpy array reachable from ``value`` through dataclass fields,
    lists, tuples and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif is_dataclass(value):
        for f in fields(value):
            yield from held_arrays(getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from held_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from held_arrays(item)


def test_encoding_holds_no_pairwise_array():
    """A dense page's encoding keeps O(n) arrays only: none has two axes as
    long as a sequence, as an (n_fine, n_fine) bucket-index matrix or an
    (n_coarse, n_fine) aggregation matrix would."""
    pages = [generate_page(31, i, DENSE) for i in range(2)]
    cfg = replace(reference_model_config(), grid=(7, 7))
    m = Model(cfg, build_vocab(pages, cfg.vocab_size))
    for page in pages:
        enc = m.encode_page(page)
        n_fine, n_coarse = enc.n_text + enc.n_visual, enc.coarse_boxes.shape[0]
        assert n_fine > n_coarse > max(cfg.grid[0] * cfg.grid[1], cfg.commonsense_k, 7)
        arrays = list(held_arrays(enc))
        assert enc.parent_row.shape == (n_fine,) and any(a is enc.parent_row for a in arrays)
        for a in arrays:
            assert sum(dim >= n_coarse for dim in a.shape) <= 1, a.shape


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


def random_bias_model(cfg, vocab, cls=Model) -> Model:
    """A model whose relative-bias tables are drawn from N(0, 0.5), so the
    spatial bias is live in every gradient."""
    m = cls(cfg, vocab)
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
                _, stages = model.forward_encoded(enc)
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
        # One node each for the fine input, the spatial bias, the aggregate,
        # the coarse input, fuse, and head plus loss; four per Transformer
        # layer (attention, residual norm, FFN, residual norm). The reference
        # has two fine layers and one coarse: 6 + 12 = 18. A batch weight is
        # an argument of the loss node, not a node.
        page = generate_page(10, 0, SynthParams())
        variants = {**TestSublayerNodesMatchComposedLayer.VARIANTS, "batch-weighted": {}}
        want = {"reference": 18, "no-coarse-layer": 14, "no-knowledge": 18, "fine-only": 11, "batch-weighted": 18}
        got = {}
        for name, overrides in variants.items():
            m = Model(replace(reference_model_config(), **overrides), build_vocab([page], 2048))
            enc = m.encode_page(page)
            got[name] = tape_nodes(m.loss_encoded(enc, 1.0 / 8.0) if name == "batch-weighted" else m.loss_encoded(enc))
        assert got == want


class TestSublayerNodesMatchComposedLayer:
    """The model with the attention, FFN and residual-norm nodes against
    the same model whose Transformer layers are the composed 13-op chain."""

    VARIANTS = {
        "reference": {},
        "no-coarse-layer": {"coarse_layers": 0},
        "no-knowledge": {"commonsense_k": 0},
        "fine-only": {"use_cross_grained": False},
    }

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("params, grid", [(SynthParams(), (4, 4)), (DENSE, (7, 7))], ids=["forms", "dense"])
    def test_stages_loss_and_gradients(self, params, grid, variant, monkeypatch):
        pages = [generate_page(47, i, params) for i in range(3)]
        cfg = replace(reference_model_config(), grid=grid, **self.VARIANTS[variant])
        vocab = build_vocab(pages, cfg.vocab_size)
        m, oracle = random_bias_model(cfg, vocab), random_bias_model(cfg, vocab)
        for page in pages:
            enc = m.encode_page(page)
            # The dense pages' fine rows pass the score tile, so the no-tape
            # forward scores their attention one head at a time.
            n_fine = enc.fine_boxes.shape[0]
            assert (cfg.heads * n_fine * n_fine > tensor_module._SCORE_TILE) == (grid == (7, 7)), n_fine
            runs = []
            for model, layer in ((m, model_module.transformer_layer), (oracle, composed_transformer_layer)):
                monkeypatch.setattr(model_module, "transformer_layer", layer)
                with no_grad():
                    _, stages = model.forward_encoded(enc)
                model.zero_grad()
                loss = model.loss_encoded(enc)
                loss.backward()
                grads = {k: None if p.grad is None else p.grad.tobytes() for k, p in model.params.items()}
                runs.append((loss.data.tobytes(), {k: t.data.tobytes() for k, t in stages.items()}, grads))
            monkeypatch.undo()
            assert runs[0] == runs[1]


class TestStageNodesMatchChain:
    """The model whose fine input, coarse input and head plus loss are one
    node each against ``ChainModel``, whose stages are the chains those
    nodes replaced: every stage, the logits, the loss and every parameter
    gradient byte for byte, for one document's loss and for a batch's
    weighted losses added into one set of gradients. The detector sets few
    knowledge bits per segment, so each segment row gets the same seeded
    random multi-hot bits in both models; with one bit a row, a
    reassociated ``bits @ emb @ proj`` would match by accident."""

    @pytest.mark.parametrize("variant", list(TestSublayerNodesMatchComposedLayer.VARIANTS))
    @pytest.mark.parametrize("params, grid", [(SynthParams(), (4, 4)), (DENSE, (7, 7))], ids=["forms", "dense"])
    def test_stages_logits_loss_and_gradients(self, params, grid, variant):
        pages = [generate_page(61, i, params) for i in range(3)]
        cfg = replace(reference_model_config(), grid=grid, **TestSublayerNodesMatchComposedLayer.VARIANTS[variant])
        vocab = build_vocab(pages, cfg.vocab_size)
        models = (random_bias_model(cfg, vocab), random_bias_model(cfg, vocab, ChainModel))
        for weight in (None, 1.0 / len(pages)):
            runs = []
            for model in models:
                model.zero_grad()
                record = []
                for i, page in enumerate(pages):
                    enc = model.encode_page(page)
                    segment_bits = enc.cs_bits[: enc.graph.n_coarse_text]
                    segment_bits[:] = np.random.default_rng(i).integers(0, 2, segment_bits.shape)
                    _, stages = model.forward_encoded(enc)
                    record.append({k: t.data.tobytes() for k, t in stages.items()})
                    record.append(model.logits_encoded(enc).data.tobytes())
                    loss = model.loss_encoded(enc) if weight is None else model.loss_encoded(enc, weight)
                    loss.backward()
                    record.append(loss.data.tobytes())
                    record.append({k: None if p.grad is None else p.grad.tobytes() for k, p in model.params.items()})
                runs.append(record)
            assert runs[0] == runs[1], weight


class TestWordTableSizedByVocabulary:
    """``emb.word`` keeps the first ``len(vocab)`` rows of its
    ``(vocab_size, d)`` draw, the only rows a token id can reach."""

    def test_one_row_per_vocabulary_token(self):
        page = generate_page(10, 0, SynthParams())
        m = Model(reference_model_config(), build_vocab([page], 2048))
        assert len(m.vocab) < m.config.vocab_size
        assert m.params["emb.word"] is m.tables.word
        assert m.tables.word.shape == (len(m.vocab), m.config.d)
        assert m.tables.word.data.flags.owndata

    @pytest.mark.parametrize("variant", list(TestSublayerNodesMatchComposedLayer.VARIANTS))
    def test_stages_loss_and_gradients_match_the_full_table(self, variant):
        pages = [generate_page(59, i, SynthParams()) for i in range(2)]
        cfg = replace(reference_model_config(), **TestSublayerNodesMatchComposedLayer.VARIANTS[variant])
        vocab = build_vocab(pages, cfg.vocab_size)
        n = len(vocab)
        m, full = Model(cfg, vocab), FullTableModel(cfg, vocab)
        assert full.tables.word.data[:n].tobytes() == m.tables.word.data.tobytes()
        for page in pages:
            enc = m.encode_page(page)
            runs = []
            for model in (m, full):
                with no_grad():
                    _, stages = model.forward_encoded(enc)
                model.zero_grad()
                loss = model.loss_encoded(enc)
                loss.backward()
                grads = {k: p.grad[:n] if k == "emb.word" else p.grad for k, p in model.params.items()}
                runs.append((loss.data.tobytes(), {k: t.data.tobytes() for k, t in stages.items()},
                             {k: None if g is None else g.tobytes() for k, g in grads.items()}))
            assert runs[0] == runs[1]
            assert not full.tables.word.grad[n:].any()


class TestGradientBuffers:
    """Where the training step's gradients live: only tensors that require
    a gradient hold one, and no two share memory."""

    @staticmethod
    def two_document_backward(cfg, pages, vocab):
        """Both documents' losses, scaled as in a batch of two, backward
        into one set of parameter gradients; every tensor of both tapes,
        listed before each sweep releases its tape."""
        m = random_bias_model(cfg, vocab)
        tensors = []
        for page in pages:
            loss = m.loss_encoded(m.encode_page(page), 0.5)
            tensors.extend(tape_tensors(loss))
            loss.backward()
        return list({id(t): t for t in tensors}.values())

    def test_no_constant_holds_a_gradient(self):
        page = generate_page(10, 0, SynthParams())
        m = Model(reference_model_config(), build_vocab([page], 2048))
        loss = m.loss_encoded(m.encode_page(page))
        tensors = tape_tensors(loss)
        loss.backward()
        held = [t.shape for t in tensors if not t.requires_grad and t.grad is not None]
        assert held == []

    @pytest.mark.parametrize("params, grid", [(SynthParams(), (4, 4)), (DENSE, (7, 7))], ids=["forms", "dense"])
    def test_owned_gradients_never_alias(self, params, grid):
        pages = [generate_page(53, i, params) for i in range(2)]
        cfg = replace(reference_model_config(), grid=grid)
        assert gradients_sharing_memory(self.two_document_backward(cfg, pages, build_vocab(pages, cfg.vocab_size))) == []


class TestTapeRelease:
    @pytest.mark.parametrize("params, grid", [(SynthParams(), (4, 4)), (DENSE, (7, 7))], ids=["forms", "dense"])
    def test_activations_freed_while_loss_held(self, params, grid):
        # Every recorded stage's output, and so every array its closure
        # saved, is gone once backward() returns; the parameters keep
        # their gradients.
        page = generate_page(10, 0, params)
        cfg = replace(reference_model_config(), grid=grid)
        m = Model(cfg, build_vocab([page], cfg.vocab_size))
        loss = m.loss_encoded(m.encode_page(page))
        stages = [weakref.ref(t.data) for t in tape_tensors(loss) if t._backward is not None and t is not loss]
        assert stages
        loss.backward()
        assert [ref for ref in stages if ref() is not None] == []
        assert all(p.grad is not None for p in m.params.values())


class TestForward:
    def test_shapes_end_to_end(self):
        page = generate_page(11, 0, SynthParams())
        m = tiny_model(page, max_len=256)
        enc = m.encode_page(page)
        fused, stages = m.forward_encoded(enc)
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

    def test_predict_word_tags_matches_the_per_token_loop(self, monkeypatch):
        """One argmax over the first-sub-token rows gives the tags of the
        loop it replaced, ties included: both take the first maximum."""
        page = generate_page(10, 0, SynthParams())
        m = Model(reference_model_config(), build_vocab([page], 2048))
        enc = m.encode_page(page)
        first = enc.tokens.first_subtoken
        assert not all(first)

        def loop(logits):
            return [m.tag_set.id_tag(int(logits[t].argmax())) for t in range(enc.n_text) if first[t]]

        with no_grad():
            trained = m.logits_encoded(enc).data
        tied = np.random.default_rng(0).integers(0, 2, trained.shape).astype(np.float64)
        tied[first.index(True)] = 0.0  # every tag tied
        assert sum((row == row.max()).sum() > 1 for row in tied[np.flatnonzero(first)]) > 1
        for logits in (trained, tied):
            monkeypatch.setattr(m, "logits_encoded", lambda _enc, logits=logits: Tensor(logits))
            assert m.predict_word_tags(enc) == loop(logits)
