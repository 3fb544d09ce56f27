"""Contract tests for the end-to-end pipeline on the 7-drug OCR fixture."""

import copy
import dataclasses
import json
from collections import Counter

import pytest

from ordonnance import classify, pipeline, textnorm
from ordonnance.linking import dumps_canonical, link, record_to_dict
from ordonnance.ocr import parse_ocr_document
from ordonnance.pipeline import Runtime, annotate_text, classify_lines, classify_sentence, extract_document
from ordonnance.textnorm import make_sentence

from conftest import DATA_DIR

FIXTURE = json.loads((DATA_DIR / "ocr_fixture_7drugs.json").read_text(encoding="utf-8"))

# drug line -> (lexicon name prefix, posology lines it carries)
GOLDEN = {
    "drug-1": ("DOLIPRANE", ["pos-1"]),
    "drug-2": ("MOPRAL", ["pos-2"]),
    "drug-3": ("KARDEGIC", []),
    "drug-4": ("SMECTA", ["pos-3"]),
    "drug-5": ("TAHOR", []),
    "drug-6": ("SPASFON", ["pos-4"]),
    "drug-7": ("FORLAX", []),
}


def _doc(payload: dict):
    return parse_ocr_document(json.dumps(payload).encode("utf-8"))


def _with_line_after(after_id: str, line_id: str, text: str, top: float) -> dict:
    """The fixture with one more line, placed after ``after_id`` in document order."""
    payload = copy.deepcopy(FIXTURE)
    lines = payload["lines"]
    i = [ln["id"] for ln in lines].index(after_id)
    new = dict(lines[i], id=line_id, text=text, bbox=dict(lines[i]["bbox"], top=top))
    lines.insert(i + 1, new)
    return payload


def _with_orphan() -> dict:
    """The fixture with SPASFON's posology line moved far below every drug."""
    payload = copy.deepcopy(FIXTURE)
    for ln in payload["lines"]:
        if ln["id"] == "pos-4":
            ln["bbox"]["top"] = 0.9
    return payload


def _with_tied_boxes(swapped: bool) -> dict:
    """The fixture with SPASFON's drug line given TAHOR's box, the two lines swapped in the payload or not."""
    payload = copy.deepcopy(FIXTURE)
    lines = payload["lines"]
    i, j = ([ln["id"] for ln in lines].index(line_id) for line_id in ("drug-5", "drug-6"))
    lines[j]["bbox"] = dict(lines[i]["bbox"])
    if swapped:
        lines[i], lines[j] = lines[j], lines[i]
    return payload


class TestGoldenRecord:
    def test_fixture_links_all_seven_drugs_with_their_posology(self, runtime):
        record = record_to_dict(extract_document(_doc(FIXTURE), runtime))
        got = {
            d["line_id"]: (d["name"].split()[0], [p["line_id"] for p in d["posologies"]])
            for d in record["drugs"]
        }
        assert got == GOLDEN
        assert all(d["score"] == 1.0 for d in record["drugs"])
        assert record["orphans"] == []
        assert record["unmatched_drug_lines"] == []

    def test_posology_entities_of_the_fixture(self, runtime):
        record = record_to_dict(extract_document(_doc(FIXTURE), runtime))
        doliprane = next(d for d in record["drugs"] if d["line_id"] == "drug-1")
        entities = [(e["kind"], e["text"]) for e in doliprane["posologies"][0]["entities"]]
        assert entities == [
            ("DOSE", "1 comprime"),
            ("FREQUENCY", "matin et soir"),
            ("DURATION", "pendant 10 jours"),
        ]

    def test_output_is_byte_identical_on_repeat(self, runtime):
        first = dumps_canonical(record_to_dict(extract_document(_doc(FIXTURE), runtime)))
        assert dumps_canonical(record_to_dict(extract_document(_doc(FIXTURE), runtime))) == first


@pytest.mark.parametrize(
    "payload",
    [
        FIXTURE,
        _with_orphan(),
        _with_line_after("drug-6", "combo-1", "DOLIPRANE 1000 mg, comprimé 2 gélules le soir", 0.56),
        _with_line_after("drug-2", "eq-1", "ou SPASFON 80 mg, comprimé enrobé", 0.30),
    ],
    ids=["fixture", "orphan", "combined-line", "equivalent"],
)
def test_every_extraction_lands_exactly_once(runtime, payload):
    lines = classify_lines(_doc(payload), runtime)
    record = link(payload["doc_id"], lines, runtime.link_config)
    produced = Counter(id(ln.extraction) for ln in lines if ln.extraction is not None)
    landed = Counter(id(e) for _, extractions in record.drugs for e in extractions)
    landed.update(id(e) for e in record.orphans)
    assert produced and all(n == 1 for n in produced.values())
    assert landed == produced


def test_lines_with_tied_boxes_give_the_same_record_in_either_payload_order(runtime):
    records = [
        dumps_canonical(record_to_dict(extract_document(_doc(_with_tied_boxes(swapped)), runtime)))
        for swapped in (False, True)
    ]
    assert records[0] == records[1]
    drugs = [d["line_id"] for d in json.loads(records[0])["drugs"]]
    assert drugs.index("drug-5") + 1 == drugs.index("drug-6")


def test_far_posology_line_becomes_an_orphan(runtime):
    record = record_to_dict(extract_document(_doc(_with_orphan()), runtime))
    assert [o["line_id"] for o in record["orphans"]] == ["pos-4"]


class TestAnnotateText:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("DOLIPRANE 1000 mg, comprimé", [("DRUG", "DOLIPRANE 1000 mg, comprimé")]),
            (
                "1 comprimé matin et soir pendant 10 jours",
                [("DOSE", "1 comprimé"), ("FREQUENCY", "matin et soir"), ("DURATION", "pendant 10 jours")],
            ),
            (
                "DOLIPRANE 1000 mg, comprimé 2 gélules le matin à jeun",
                [
                    ("DRUG", "DOLIPRANE 1000 mg, comprimé"),
                    ("DOSE", "2 gélules"),
                    ("FREQUENCY", "le matin"),
                    ("COMMENT", "à jeun"),
                ],
            ),
            ("Signature du médecin", []),
        ],
        ids=["drug", "posology", "combined", "useless"],
    )
    def test_spans_slice_the_raw_text(self, runtime, text, expected):
        spans = annotate_text(text, runtime)
        assert [(kind, text[start:end]) for kind, start, end in spans] == expected

    def test_blank_text_has_no_spans(self, runtime):
        assert annotate_text("", runtime) == []

    def test_text_is_normalized_once(self, runtime, monkeypatch):
        calls = []

        def counting(raw):
            calls.append(raw)
            return normalize(raw)

        normalize = textnorm.normalize_text
        monkeypatch.setattr(textnorm, "normalize_text", counting)
        monkeypatch.setattr(pipeline, "normalize_text", counting)
        text = "DOLIPRANE 1000 mg, comprimé 2 gélules le matin à jeun"
        assert len(annotate_text(text, runtime)) == 4
        assert calls == [text]


class TestClassifyCalls:
    """Where the classifier is called: perfbench wraps these names to time the layer."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The calls in order: ("predict", sentence) on entry, ("return", sentence) on exit, ("featurize", lines)."""
        seen = []
        featurize, predict = classify.featurize, pipeline.predict

        def counting_featurize(lines, config):
            seen.append(("featurize", list(lines)))
            return featurize(lines, config)

        def counting_predict(model, sentence, *rest):
            seen.append(("predict", sentence))
            result = predict(model, sentence, *rest)
            seen.append(("return", sentence))
            return result

        monkeypatch.setattr(classify, "featurize", counting_featurize)
        monkeypatch.setattr(pipeline, "predict", counting_predict)
        return seen

    def test_a_document_is_featurized_once_and_predicted_per_line(self, runtime, calls):
        lines = classify_lines(_doc(FIXTURE), runtime)
        sentences = [s for kind, s in calls if kind == "predict"]
        assert [s.line_id for s in sentences] == [ln.line_id for ln in lines]
        # The whole document is featurized inside the first line's predict;
        # every later predict only looks its line up.
        first, *rest = sentences
        assert calls[:3] == [("predict", first), ("featurize", sentences), ("return", first)]
        assert calls[3:] == [event for s in rest for event in (("predict", s), ("return", s))]

    def test_a_document_of_debris_calls_neither(self, runtime, calls):
        payload = copy.deepcopy(FIXTURE)
        for ln in payload["lines"]:
            ln["text"] = "x"
        assert classify_lines(_doc(payload), runtime) == [] and calls == []

    def test_bare_text_featurizes_its_one_line(self, runtime, calls):
        annotate_text("DOLIPRANE 1000 mg", runtime)
        sentence = calls[0][1]
        assert sentence.match_text == "doliprane 1000 mg"
        assert calls == [("predict", sentence), ("featurize", [sentence]), ("return", sentence)]

    def test_batched_lines_classify_as_each_line_alone(self, runtime):
        doc = _doc(FIXTURE)
        alone = [
            classify_sentence(s, runtime) for line in doc.lines if (s := make_sentence(line, runtime.stopwords))
        ]
        assert classify_lines(doc, runtime) == alone


@pytest.mark.parametrize("threshold", [0, 0.72, 1.0, 1])
def test_runtime_accepts_a_threshold_in_the_unit_interval(runtime, threshold):
    assert dataclasses.replace(runtime, threshold=threshold).threshold == threshold


@pytest.mark.parametrize("threshold", [7, -0.1, float("nan"), "x", None, True])
def test_runtime_rejects_a_threshold_outside_the_unit_interval(runtime, threshold):
    with pytest.raises(ValueError, match="threshold"):
        Runtime(model=runtime.model, lexicon=runtime.lexicon, patterns=runtime.patterns, threshold=threshold)


def test_equivalent_drug_line_is_collapsed(runtime):
    payload = _with_line_after("drug-2", "eq-1", "ou SPASFON 80 mg, comprimé enrobé", 0.30)
    labels = {ln.line_id: ln.label for ln in classify_lines(_doc(payload), runtime)}
    assert labels["drug-2"] == "DRUG"
    assert labels["eq-1"] == "EQUIVALENT"
    record = record_to_dict(extract_document(_doc(payload), runtime))
    assert [d["line_id"] for d in record["drugs"]] == list(GOLDEN)
