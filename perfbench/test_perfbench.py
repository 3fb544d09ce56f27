"""Tests for the benchmark's own code: the document generator, the output checks, the tracer."""

import json
from dataclasses import replace

import pytest

import checks
import spans
from docgen import DRUG_LEFT, DocGenerator, DocSpec
from ordonnance.druglink import DrugMention
from ordonnance.errors import OrdonnanceError
from ordonnance.linking import ClassifiedLine, PrescriptionRecord, dumps_canonical
from ordonnance.ocr import BoundingBox, parse_ocr_document
from ordonnance.posology import PosologyExtraction

TYPICAL = DocSpec(boilerplate=5, drugs=4, posology_per_drug=(1, 3))
DRUGLIST = DocSpec(
    boilerplate=8, drugs=30, posology_per_drug=(0, 0), noise=0.1, word_boxes=True,
    equivalents=2, malformed_share=0.25,
)
# drug blocks that carry posology and equivalents at once, across pages
MIXED = DocSpec(boilerplate=3, drugs=12, posology_per_drug=(0, 3), equivalents=3)


@pytest.fixture(scope="module")
def generator(tmp_path_factory):
    return DocGenerator(tmp_path_factory.mktemp("lexicons"))


@pytest.mark.parametrize("spec", [TYPICAL, DRUGLIST, MIXED])
def test_valid_payloads_parse_and_malformed_ones_raise_typed_errors(generator, spec):
    docs = generator.documents(spec, 8, seed=3, prefix="t")
    assert sum(d.malformed is not None for d in docs) == round(spec.malformed_share * 8)
    for doc in docs:
        if doc.malformed is None:
            parsed = parse_ocr_document(doc.payload)
            assert {ln.line_id for ln in parsed.lines} == set(doc.labels)
        else:
            with pytest.raises(OrdonnanceError):
                parse_ocr_document(doc.payload)


def test_druglist_spans_two_pages_with_word_boxes(generator):
    doc = generator.documents(replace(DRUGLIST, malformed_share=0.0), 1, seed=5, prefix="t")[0]
    parsed = parse_ocr_document(doc.payload)
    assert parsed.pages == 2
    assert all(ln.words for ln in parsed.lines)
    assert len(doc.labels) == 8 + 30 + 2


def test_same_seed_same_bytes(generator):
    a = generator.documents(DRUGLIST, 4, seed=11, prefix="t")
    b = generator.documents(DRUGLIST, 4, seed=11, prefix="t")
    c = generator.documents(DRUGLIST, 4, seed=12, prefix="t")
    assert [d.payload for d in a] == [d.payload for d in b]
    assert [d.payload for d in a] != [d.payload for d in c]


@pytest.mark.parametrize("spec", [TYPICAL, MIXED])
def test_gold_owner_is_the_nearest_drug_line_above_on_the_same_page(generator, spec):
    for doc in generator.documents(spec, 6, seed=2, prefix="t"):
        lines = {ln.line_id: ln for ln in parse_ocr_document(doc.payload).lines}
        assert doc.owners
        for pos_id, owner_id in doc.owners.items():
            pos, owner = lines[pos_id], lines[owner_id]
            assert doc.labels[pos_id] == "POSOLOGY" and owner_id in doc.drug_ids
            assert owner.page == pos.page and owner.bbox.bottom <= pos.bbox.top
            above = [
                ln for ln_id, ln in lines.items()
                if ln_id in doc.drug_ids and ln.page == pos.page and ln.bbox.top < pos.bbox.top
            ]
            assert max(above, key=lambda ln: ln.bbox.top) is owner


def test_drug_lines_carry_their_gold_name(generator):
    doc = generator.documents(TYPICAL, 1, seed=4, prefix="t")[0]
    names = {e.drug_id: e.name for e in generator.lexicon.entries}
    lines = {ln.line_id: ln for ln in parse_ocr_document(doc.payload).lines}
    for line_id, drug_id in doc.drug_ids.items():
        assert lines[line_id].bbox.left == DRUG_LEFT
        head = names[drug_id].split()[0].lower()
        assert head in lines[line_id].raw_text.lower()


# ---- output checks on deliberately broken records -----------------------

BOX = BoundingBox(0.1, 0.1, 0.5, 0.02)


def _mention(line_id):
    return DrugMention(line_id=line_id, drug_id="1", lexicon_name="X", surface_text="x",
                       score=1.0, trigger_token_index=0)


def _extraction(line_id):
    return PosologyExtraction(line_id=line_id, entities=(), residual_text="")


def _lines_and_record():
    p1, p2 = _extraction("p1"), _extraction("p2")
    lines = [
        ClassifiedLine("d1", 1, BOX, "DRUG", mention=_mention("d1")),
        ClassifiedLine("p1", 1, BOX, "POSOLOGY", extraction=p1),
        ClassifiedLine("p2", 1, BOX, "POSOLOGY", extraction=p2),
    ]
    record = PrescriptionRecord(doc_id="d", drugs=[(_mention("d1"), [p1])], orphans=[p2])
    return lines, record


def test_landing_check_passes_on_a_correct_record():
    assert checks.landing_errors(*_lines_and_record()) == []


def test_landing_check_fails_on_a_lost_extraction():
    lines, record = _lines_and_record()
    record.orphans.clear()
    assert checks.landing_errors(lines, record)


def test_landing_check_fails_on_a_duplicated_extraction():
    lines, record = _lines_and_record()
    record.orphans.append(record.drugs[0][1][0])
    assert checks.landing_errors(lines, record)


def test_landing_check_fails_on_a_foreign_extraction():
    lines, record = _lines_and_record()
    record.orphans.append(_extraction("p9"))
    assert checks.landing_errors(lines, record)


def _fixture_record():
    return {
        "doc_id": "fixture-7drugs",
        "drugs": [
            {
                "drug_id": str(i),
                "name": f"{prefix} 1 mg",
                "line_id": line_id,
                "posologies": [{"line_id": p} for p in checks.FIXTURE_POSOLOGY.get(line_id, [])],
            }
            for i, (line_id, prefix) in enumerate(checks.FIXTURE_DRUGS.items())
        ],
        "orphans": [],
        "unmatched_drug_lines": [],
    }


def test_fixture_check_passes_on_the_golden_record():
    assert checks.fixture_errors(_fixture_record()) == []


@pytest.mark.parametrize("breakage", ["drop-drug", "move-posology", "rename", "orphan"])
def test_fixture_check_fails_on_a_broken_record(breakage):
    record = _fixture_record()
    if breakage == "drop-drug":
        record["drugs"].pop(2)
    elif breakage == "move-posology":
        record["drugs"][0]["posologies"], record["drugs"][2]["posologies"] = [], record["drugs"][0]["posologies"]
    elif breakage == "rename":
        record["drugs"][1]["name"] = "OMEPRAZOLE 20 mg"
    else:
        record["orphans"].append(record["drugs"][0]["posologies"].pop())
    assert checks.fixture_errors(record)


def test_canonical_check_fails_on_reformatted_bytes():
    record = _fixture_record()
    assert checks.canonical_errors(dumps_canonical(record)) == []
    assert checks.canonical_errors(json.dumps(record, indent=1).encode("utf-8"))


def test_repeat_check_fails_on_differing_output():
    assert checks.repeat_errors("x", b"a", b"a") == []
    assert checks.repeat_errors("x", b"a", b"b")


def test_gold_scores_count_only_exact_links_and_owners():
    record = {
        "drugs": [
            {"line_id": "d1", "drug_id": "A", "posologies": [{"line_id": "p1"}, {"line_id": "d1"}]},
            {"line_id": "d2", "drug_id": "X", "posologies": [{"line_id": "p2"}]},
        ]
    }
    assert checks.drug_link_hits(record, {"d1": "A", "d2": "B", "d3": "C"}) == 1
    assert checks.attach_hits(record, {"p1": "d1", "p2": "d1", "p3": "d2"}) == 1


def test_quality_gate_fails_below_its_floor_or_when_unmeasured():
    gates = {"token_f1": 0.9884, "exact_span_f1": 0.9825}
    assert checks.quality_errors({"token_f1": 0.99, "exact_span_f1": 0.99}, gates) == []
    assert checks.quality_errors({"token_f1": 0.98, "exact_span_f1": 0.99}, gates)
    assert checks.quality_errors({"token_f1": 0.99}, gates)


# ---- tracer ----------------------------------------------------------------


def test_tracer_self_times_add_up_and_wrappers_are_restored():
    from ordonnance import kernels, pipeline

    tracer = spans.Tracer()
    original = pipeline.predict
    with tracer.installed():
        assert pipeline.predict is not original
        tracer.op = 0
        tracer.call("op", lambda: kernels.similarity("doliprane", "doliprane 1000"))
    assert pipeline.predict is original
    assert tracer.names == ["op", "kernels.similarity"]
    assert tracer.parents == [-1, 0]
    assert tracer.misnested() == []
    assert sum(tracer.self_times()) == tracer.ends[0] - tracer.starts[0]


def test_tracer_flags_a_span_outside_its_parent():
    tracer = spans.Tracer()
    tracer.call("op", lambda: tracer.call("kernels.similarity", lambda: None))
    tracer.ends[1] = tracer.ends[0] + 1
    assert tracer.misnested() == [1]
