"""Byte-identity of the pipeline's outputs, pinned by a committed digest.

The pools are perfbench's own (``perfbench/docgen.py`` with the shapes of
``harness.WORKLOADS``), classified with the session desk model. Each
document gives its canonical record bytes or, for a payload the pipeline
refuses, its typed error's type and message; each eval-noisy sentence gives
its ``annotate_text`` spans. A fourth pool, ``combined-lines``, is the
7-drug fixture with generated posology phrases appended to some of its drug
lines, so its records hold combined lines: a drug name and its posology on
one line, whose entity offsets fall after the name. A fifth pool,
``posology-lines``, is 1,500 generated posology lines and 500 boilerplate
ones, clean and at noise 0.1, each run through ``extract_posology`` alone:
its entities' labels, character spans and texts, then its residual text.
It pins the pattern set's matches on more lines than the records do; pattern
ids are left out, as no record or eval span holds one. A sixth pool,
``class-scores``, is the classifier's output on each eval-noisy sentence,
scored as ``annotate_text`` scores it (a one-line batch): its label, then
its three scores in ``CLASS_LABELS`` order as little-endian float64 bytes.
It pins every bit of the scores, which no record or span holds. A sha256 over each
pool's outputs in order is compared with ``tests/data/output_digest.json``.
The digest pins records, not the model file; whether it holds on another CPU
is not verified.

A refactor must leave every digest unchanged. A change that alters outputs
on purpose updates the file with the digests that the failure message
prints, and says why.
"""

import hashlib
import json
import pathlib
import random
import struct
import sys

import pytest

from ordonnance.classify import CLASS_LABELS, LineBatch, predict
from ordonnance.corpus import CorpusSpec, generate
from ordonnance.druglink import default_lexicon_path
from ordonnance.errors import OrdonnanceError
from ordonnance.pipeline import annotate_text
from ordonnance.posology import extract_posology
from ordonnance.textnorm import sentence_from_text

from conftest import DATA_DIR, posology_line_texts

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


def _score_outputs(runtime) -> list[bytes]:
    """Each eval-noisy sentence's label and scores, scored alone; a sentence normalized away gives an empty line."""
    outputs = []
    for s in eval_sentences(per_class=harness.WORKLOADS["eval-noisy"].pool // 3, seed=harness.EVAL_SEED):
        sentence = sentence_from_text(s.text, runtime.stopwords)
        if sentence is None:
            outputs.append(b"\n")
            continue
        label, scores = predict(runtime.model, sentence, LineBatch([sentence]))
        outputs.append(f"{label}\n".encode("ascii") + struct.pack("<3d", *(scores[k] for k in CLASS_LABELS)))
    return outputs


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


def _posology_outputs(runtime) -> list[bytes]:
    """Entities and residual text of each line, clean, then noised as ``gen-corpus --noise 0.1`` noises it."""
    outputs = []
    for text in posology_line_texts(DIGEST["seed"]):
        extraction = extract_posology(sentence_from_text(text, runtime.stopwords), runtime.patterns)
        entities = [[e.label, e.char_start, e.char_end, e.text] for e in extraction.entities]
        outputs.append((json.dumps([entities, extraction.residual_text]) + "\n").encode("utf-8"))
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
    pools["class-scores"] = _score_outputs(runtime)
    pools["combined-lines"] = _combined_outputs(runtime)
    pools["posology-lines"] = _posology_outputs(runtime)
    return pools


@pytest.mark.parametrize(
    "name", ["rx-typical", "rx-druglist-noisy", "eval-noisy", "class-scores", "combined-lines", "posology-lines"]
)
def test_outputs_match_the_digest(outputs, name):
    got = _sha256(outputs[name])
    assert got == DIGEST["sha256"][name], f"{name}: sha256 {got}"


def test_the_pools_cover_typed_errors_and_every_eval_sentence(outputs):
    assert any(not out.startswith(b"{") for out in outputs["rx-druglist-noisy"])
    assert len(outputs["eval-noisy"]) == len(outputs["class-scores"]) == harness.WORKLOADS["eval-noisy"].pool


def test_the_combined_pool_holds_combined_lines(outputs):
    """Some drug carries an extraction of its own line: the remainder after its name."""
    records = [json.loads(out) for out in outputs["combined-lines"]]
    assert any(
        posology["line_id"] == drug["line_id"]
        for record in records
        for drug in record["drugs"]
        for posology in drug["posologies"]
    )
