"""Byte-identity of the pipeline's outputs, pinned by a committed digest.

The pools are perfbench's own (``perfbench/docgen.py`` with the shapes of
``harness.WORKLOADS``), classified with the session desk model. Each
document gives its canonical record bytes or, for a payload the pipeline
refuses, its typed error's type and message; each eval-noisy sentence gives
its ``annotate_text`` spans. A fourth pool, ``combined-lines``, is the
7-drug fixture with generated posology phrases appended to some of its drug
lines, so its records hold combined lines: a drug name and its posology on
one line, whose entity offsets fall after the name. A sha256 over each
pool's outputs in order is compared with ``tests/data/output_digest.json``. The digest pins records,
not the model file; whether it holds on another CPU is not verified.

A refactor must leave every digest unchanged. A change that alters outputs
on purpose updates the file with the digests that the failure message
prints, and says why.
"""

import hashlib
import json
import pathlib
import random
import sys

import pytest

from ordonnance.corpus import CorpusSpec, generate
from ordonnance.druglink import default_lexicon_path
from ordonnance.errors import OrdonnanceError
from ordonnance.pipeline import annotate_text

from conftest import DATA_DIR

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
from docgen import DocGenerator, eval_sentences  # noqa: E402

DIGEST = json.loads((DATA_DIR / "output_digest.json").read_text(encoding="utf-8"))


def _document_outputs(name: str, runtime, work_dir) -> list[bytes]:
    docs = DocGenerator(work_dir).documents(
        harness.WORKLOADS[name].docs, DIGEST["documents"], DIGEST["seed"], name
    )
    outputs = []
    for doc in docs:
        try:
            outputs.append(harness.run_document(doc.payload, runtime))
        except OrdonnanceError as exc:
            outputs.append(f"{type(exc).__name__}: {exc}\n".encode("utf-8"))
    return outputs


def _eval_outputs(runtime) -> list[bytes]:
    sentences = eval_sentences(per_class=harness.WORKLOADS["eval-noisy"].pool // 3, seed=harness.EVAL_SEED)
    return [(json.dumps(annotate_text(s.text, runtime)) + "\n").encode("utf-8") for s in sentences]


def _combined_outputs(runtime) -> list[bytes]:
    """Records of the fixture with a generated posology phrase appended to each drug line, at even odds."""
    fixture = json.loads((DATA_DIR / "ocr_fixture_7drugs.json").read_text(encoding="utf-8"))
    drug_lines = sum(ln["id"].startswith("drug-") for ln in fixture["lines"])
    count, seed = DIGEST["documents"], DIGEST["seed"]
    phrases = iter(
        generate(CorpusSpec(0, count * drug_lines, 0, seed=seed, lexicon_path=default_lexicon_path()))
    )
    rng = random.Random(seed)
    outputs = []
    for k in range(count):
        lines = [
            {**ln, "text": f"{ln['text']} {next(phrases).text}"}
            if ln["id"].startswith("drug-") and rng.random() < 0.5
            else ln
            for ln in fixture["lines"]
        ]
        payload = json.dumps({**fixture, "doc_id": f"combined-{k}", "lines": lines}).encode("utf-8")
        outputs.append(harness.run_document(payload, runtime))
    return outputs


def _sha256(outputs: list[bytes]) -> str:
    digest = hashlib.sha256()
    for out in outputs:
        digest.update(out)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def outputs(runtime, tmp_path_factory) -> dict[str, list[bytes]]:
    work_dir = tmp_path_factory.mktemp("docgen")
    pools = {name: _document_outputs(name, runtime, work_dir) for name in ("rx-typical", "rx-druglist-noisy")}
    pools["eval-noisy"] = _eval_outputs(runtime)
    pools["combined-lines"] = _combined_outputs(runtime)
    return pools


@pytest.mark.parametrize("name", ["rx-typical", "rx-druglist-noisy", "eval-noisy", "combined-lines"])
def test_outputs_match_the_digest(outputs, name):
    got = _sha256(outputs[name])
    assert got == DIGEST["sha256"][name], f"{name}: sha256 {got}"


def test_the_pools_cover_typed_errors_and_every_eval_sentence(outputs):
    assert any(not out.startswith(b"{") for out in outputs["rx-druglist-noisy"])
    assert len(outputs["eval-noisy"]) == harness.WORKLOADS["eval-noisy"].pool


def test_the_combined_pool_holds_combined_lines(outputs):
    """Some drug carries an extraction of its own line: the remainder after its name."""
    records = [json.loads(out) for out in outputs["combined-lines"]]
    assert any(
        posology["line_id"] == drug["line_id"]
        for record in records
        for drug in record["drugs"]
        for posology in drug["posologies"]
    )
