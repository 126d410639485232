"""SHA-256 digests of docgrain outputs that a change claiming identical
outputs must leave unchanged.

Entries:

- ``train.checkpoint`` and ``train.metric_log``: the checkpoint bytes and
  the metric log of a seeded reference ``train()`` on 40 forms pages
  (``generate_page(10, i)``), the last 8 held out, 3 epochs, evaluated
  every epoch, model and train seed 10;
- for one forms page (grid 4x4) and one dense page (grid 7x7, 260 fine
  rows, so the no-tape attention scores its heads one at a time), at the
  reference config with seed-5 random relative-bias tables:
  ``<page>.logits`` under ``no_grad``, ``<page>.loss`` and one
  ``<page>.grad.<parameter>`` per parameter after ``backward()``;
- ``dense_sharp.logits``: the dense page's ``no_grad`` logits with every
  ``wq`` and ``wk`` scaled by 5, so that the last bits of the attention
  scores reach the logits;
- ``gradcheck``: the value ``docgrain gradcheck`` prints (1.866e-05), as
  the float's ``repr``.

The bits depend on numpy, the BLAS and its thread count (the dense
page's gradients differ between 1 and 2 OpenBLAS threads), so the file
records all three beside the digests. Like the test suite, this module
pins BLAS to one thread unless the environment sets a count. Regenerate
the file with a command, never by hand, and only for a deliberate output
change:

    PYTHONPATH=src python -m tests.golden_outputs --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace

# Set before numpy is first imported: OpenBLAS sizes its pool at load time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from docgrain.model import EncodedDoc, Model, finite_difference_check, gradcheck_config
from docgrain.synth import SynthParams, generate_page, probe_page
from docgrain.tensor import no_grad
from docgrain.training import reference_model_config, reference_train_config, train
from docgrain.vocab import build_vocab

PATH = os.path.join(os.path.dirname(__file__), "golden", "outputs.json")
DENSE = SynthParams(page_height=2600, min_kv_pairs=12, max_kv_pairs=24, max_list_blocks=6, max_noise_lines=6)


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _train_digests() -> dict[str, str]:
    pages = [generate_page(10, i, SynthParams()) for i in range(40)]
    train_cfg = replace(reference_train_config(seed=10, epochs=3), eval_every=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        result = train(pages[:32], pages[32:], reference_model_config(seed=10), train_cfg, path)
        with open(path, "rb") as fh:
            checkpoint = fh.read()
    return {"train.checkpoint": _sha(checkpoint), "train.metric_log": _sha(json.dumps(result.metric_log, sort_keys=True))}


def _page_model(params: SynthParams, grid: tuple[int, int]) -> tuple[Model, EncodedDoc]:
    page = generate_page(10, 0, params)
    model = Model(replace(reference_model_config(seed=10), grid=grid), build_vocab([page], 2048))
    rng = np.random.default_rng(5)
    for table in (model.bias_tables.rel_1d, model.bias_tables.rel_x, model.bias_tables.rel_y):
        table.data[:] = rng.normal(0.0, 0.5, size=table.shape)
    return model, model.encode_page(page)


def _page_digests(tag: str, params: SynthParams, grid: tuple[int, int]) -> dict[str, str]:
    model, enc = _page_model(params, grid)
    with no_grad():
        out = {f"{tag}.logits": _sha(model.logits_encoded(enc).data.tobytes())}
    model.zero_grad()
    loss = model.loss_encoded(enc)
    loss.backward()
    out[f"{tag}.loss"] = _sha(loss.data.tobytes())
    for name, p in sorted(model.params.items()):
        out[f"{tag}.grad.{name}"] = _sha(b"none" if p.grad is None else p.grad.tobytes())
    return out


def _sharp_attention_digest() -> dict[str, str]:
    # At the initial weights the scores are about 0.1 and the bias rounds
    # their last bits away; with every wq and wk scaled by 5 they reach the
    # logits.
    model, enc = _page_model(DENSE, (7, 7))
    for name, p in model.params.items():
        if name.endswith((".wq", ".wk")):
            p.data *= 5.0
    with no_grad():
        return {"dense_sharp.logits": _sha(model.logits_encoded(enc).data.tobytes())}


def _gradcheck_digest() -> dict[str, str]:
    probe = probe_page()
    cfg = gradcheck_config(seed=0)
    max_err, _ = finite_difference_check(Model(cfg, build_vocab([probe], size=cfg.vocab_size)), probe)
    return {"gradcheck": _sha(repr(max_err))}


def digests() -> dict[str, str]:
    return {
        **_train_digests(),
        **_page_digests("forms", SynthParams(), (4, 4)),
        **_page_digests("dense", DENSE, (7, 7)),
        **_sharp_attention_digest(),
        **_gradcheck_digest(),
    }


def changed_entries(got: dict[str, str], stored: dict[str, str]) -> list[str]:
    """The entries whose digests differ, or that only one side has."""
    return sorted(k for k in got.keys() | stored.keys() if got.get(k) != stored.get(k))


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check, or with --write regenerate, tests/golden/outputs.json.")
    parser.add_argument("--write", action="store_true", help="overwrite the stored digests with this tree's")
    args = parser.parse_args(argv)
    got = digests()
    if args.write:
        with open(PATH, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "digests": got}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(got)} digests to {PATH}")
        return 0
    changed = changed_entries(got, load()["digests"])
    print("\n".join(changed) if changed else f"all {len(got)} digests match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
