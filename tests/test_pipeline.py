"""Contract tests for the end-to-end pipeline on the 7-drug OCR fixture."""

import copy
import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordonnance import classify, pipeline, textnorm
from ordonnance.corpus import CorpusSpec, generate, noisify
from ordonnance.druglink import (
    DEFAULT_THRESHOLD,
    build_lexicon,
    default_lexicon_path,
    detect_drug,
    split_combined_line,
)
from ordonnance.errors import OrdonnanceError
from ordonnance.linking import ClassifiedLine, LinkConfig, dumps_canonical, link, record_to_dict
from ordonnance.ocr import BoundingBox, parse_ocr_document
from ordonnance.pipeline import Runtime, annotate_text, classify_lines, classify_sentence, extract_document
from ordonnance.posology import extract_posology
from ordonnance.textnorm import make_sentence, normalize_text, sentence_from_text

from conftest import DATA_DIR
from test_druglink import write_lexicon

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


def _extractions_and_landings(payload: dict, runtime) -> tuple[Counter, Counter]:
    """How often each posology extraction is produced by a line, and how often it lands in the record."""
    lines = classify_lines(_doc(payload), runtime)
    record = link(payload["doc_id"], lines, runtime.link_config)
    produced = Counter(id(ln.extraction) for ln in lines if ln.extraction is not None)
    landed = Counter(id(e) for _, extractions in record.drugs for e in extractions)
    landed.update(id(e) for e in record.orphans)
    return produced, landed


def _with_line_after(after_id: str, line_id: str, text: str, top: float, base: dict = FIXTURE) -> dict:
    """``base`` (the fixture by default) with one more line, placed after ``after_id`` in document order."""
    payload = copy.deepcopy(base)
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
    produced, landed = _extractions_and_landings(payload, runtime)
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


# What a scanned line may carry that the fixture's lines do not: NBSP, narrow
# NBSP, tab, accents and a ligature, case mappings that grow, a combining
# accent, non-BMP characters, split-off punctuation and digits.
UNICODE_BITS = st.text(alphabet="\u00a0\u202f\téÈçœßİ\u0301\U0001d7d8\U0001f48a.,;:()/0123", min_size=1, max_size=6)

# Generated sentences, clean and at OCR noise 0.1 (fixed seeds), that a drawn
# line may carry in place of its fixture text: they reach far more lexicon
# names and posology phrasings than the fixture's lines. Besides drug,
# posology and boilerplate (USELESS) lines there are combined lines, a drug
# line followed by a posology line on one line, which reach
# `split_combined_line` and its remainder.
_GENERATED = generate(CorpusSpec(n_drug=60, n_posology=60, n_useless=30, seed=23, lexicon_path=default_lexicon_path()))


def _texts(label: str) -> tuple[str, ...]:
    """The generated sentences of one label, clean and then noisy."""
    sentences = [s for s in _GENERATED if s.label == label]
    return tuple(s.text for s in sentences) + tuple(noisify(s, 0.1, 23_000 + i).text for i, s in enumerate(sentences))


_DRUG, _POSOLOGY, _USELESS = map(_texts, ("DRUG", "POSOLOGY", "USELESS"))
_COMBINED = tuple(f"{drug} {posology}" for drug, posology in zip(_DRUG, _POSOLOGY))  # both clean or both noisy
GENERATED_TEXTS = _DRUG + _POSOLOGY + _COMBINED + _USELESS

# Edits that keep a payload valid, and edits that make it invalid.
VALID_EDITS = ("keep", "unicode", "tie", "top-left", "bottom-right")
INVALID_EDITS = ("blank", "overflow", "page-out", "same-id")

# Word boxes a line may carry: none, one per word of its text (what the
# rx-druglist-noisy payloads carry), words that reassemble the text with a
# space inside one, and words that do not reassemble it (invalid).
VALID_WORDS = ("none", "boxes", "joined")
INVALID_WORDS = ("mismatch",)

# The vertical steps of a stacked layout: within a block, and between blocks.
STACK_GAPS = (0.006, 0.02)


def _word_boxes(text: str, box: dict, kind: str) -> list[dict]:
    """Word boxes over the line's box, each as wide as its share of the text's characters."""
    words, at = [], 0
    for word in text.split():
        start = text.index(word, at)
        at = start + len(word)
        left = box["left"] + box["width"] * start / len(text)
        width = box["width"] * len(word) / len(text)
        words.append({"text": word, "bbox": dict(box, left=left, width=width)})
    if kind == "joined" and len(words) > 1:
        words[:2] = [{"text": words[0]["text"] + " " + words[1]["text"], "bbox": words[0]["bbox"]}]
    elif kind == "mismatch":
        words[0]["text"] += "x"
    return words


@st.composite
def payloads(draw, edits=VALID_EDITS, words=VALID_WORDS):
    """A payload of the fixture's lines on 1 to 4 pages, some of them empty, each line kept or edited.

    A line keeps its fixture text or carries a generated drug, posology,
    combined or USELESS line. Lines keep their fixture boxes, or are
    stacked down their page in blocks as generated documents are. A line
    may be edited (unicode text, a tied box, a box at the page bounds) and
    may carry word boxes.
    """
    picks = draw(st.lists(st.integers(0, len(FIXTURE["lines"]) - 1), min_size=1, max_size=15, unique=True))
    pages = draw(st.integers(1, 4))
    stacked = draw(st.booleans())
    tops = [0.05] * (pages + 1)  # per page, the top of the next stacked line
    lines = []
    for i in picks:
        line = copy.deepcopy(FIXTURE["lines"][i])
        if draw(st.booleans()):
            line["text"] = draw(st.sampled_from(GENERATED_TEXTS))
        line["page"] = page = draw(st.integers(1, pages))
        box = line["bbox"]
        if stacked:
            box["top"] = tops[page]
            tops[page] += box["height"] + draw(st.sampled_from(STACK_GAPS))
        edit = draw(st.sampled_from(edits))
        if edit == "unicode":
            at = draw(st.integers(0, len(line["text"])))
            line["text"] = line["text"][:at] + draw(UNICODE_BITS) + line["text"][at:]
        elif edit == "tie" and lines:
            line["bbox"] = dict(draw(st.sampled_from(lines))["bbox"])
        elif edit == "top-left":
            box["left"] = box["top"] = 0.0
        elif edit == "bottom-right":
            box["left"], box["top"] = 1.0 - box["width"], 1.0 - box["height"]
        elif edit == "blank":
            line["text"] = " \u00a0\t"
        elif edit == "overflow":
            box["left"] = 1.0 - box["width"] / 2
        elif edit == "page-out":
            line["page"] = pages + 1
        elif edit == "same-id" and lines:
            line["id"] = lines[-1]["id"]
        kind = draw(st.sampled_from(words))
        if kind != "none" and line["text"].split():
            line["words"] = _word_boxes(line["text"], line["bbox"], kind)
        lines.append(line)
    return {"doc_id": "drawn", "pages": pages, "lines": lines}


def _record_bytes(payload: dict, runtime) -> bytes:
    return dumps_canonical(record_to_dict(extract_document(_doc(payload), runtime)))


class TestWholePayloadProperties:
    """Properties of parse plus extract over payloads drawn from the fixture's lines and generated sentences."""

    @given(payloads(edits=VALID_EDITS + INVALID_EDITS, words=VALID_WORDS + INVALID_WORDS))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_a_record_or_a_typed_error(self, runtime, payload):
        try:
            record = _record_bytes(payload, runtime)
        except OrdonnanceError:
            return
        assert json.loads(record)["doc_id"] == "drawn"

    @given(st.data(), payloads())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_a_permutation_and_a_repeat_give_the_same_bytes(self, runtime, data, payload):
        record = _record_bytes(payload, runtime)
        assert _record_bytes(payload, runtime) == record
        shuffled = dict(payload, lines=data.draw(st.permutations(payload["lines"])))
        assert _record_bytes(shuffled, runtime) == record

    @given(payloads())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_every_extraction_lands_exactly_once(self, runtime, payload):
        produced, landed = _extractions_and_landings(payload, runtime)
        assert all(n == 1 for n in produced.values()) and landed == produced

    @given(payloads())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_every_record_entity_slices_its_own_line(self, runtime, payload):
        # a combined line's entities too: their offsets index the whole line's match_text
        raw = {line["id"]: line["text"] for line in payload["lines"]}
        record = json.loads(_record_bytes(payload, runtime))
        extractions = [p for d in record["drugs"] for p in d["posologies"]] + record["orphans"]
        for extraction in extractions:
            text = normalize_text(raw[extraction["line_id"]]).text
            for e in extraction["entities"]:
                assert text[e["start"] : e["end"]] == e["text"]


def test_a_combined_line_records_offsets_in_its_own_line(tmp_path, patterns):
    lexicon = build_lexicon(write_lexicon(tmp_path, [("CIS1", "DOLIPRANE 1000 mg, comprimé")]))
    sentence = sentence_from_text("Doliprane 1000 mg, comprimé : 2 cp par jour")
    mention = detect_drug(sentence, lexicon)
    extraction = extract_posology(split_combined_line(sentence, mention), patterns)
    line = ClassifiedLine(sentence.line_id, 1, BoundingBox(0.1, 0.1, 0.8, 0.03), "DRUG", mention, extraction)
    record = record_to_dict(link("doc", [line], LinkConfig()))
    [dose] = [e for e in record["drugs"][0]["posologies"][0]["entities"] if e["kind"] == "DOSE"]
    assert (dose["text"], dose["start"], dose["end"]) == ("2 cp", 30, 34)
    assert sentence.match_text[30:34] == "2 cp"


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

    def test_one_normalized_text_per_sentence_built_inside_normalize_text(self, runtime, noisy_texts, monkeypatch):
        inside = []  # the texts normalize_text is working on
        built = []  # for each NormalizedText built: whether normalize_text was running

        def normalizing(raw):
            inside.append(raw)
            try:
                return normalize(raw)
            finally:
                inside.pop()

        def building(*fields):
            built.append(bool(inside))
            return normalized_text(*fields)

        normalize, normalized_text = textnorm.normalize_text, textnorm.NormalizedText
        monkeypatch.setattr(textnorm, "normalize_text", normalizing)
        monkeypatch.setattr(textnorm, "NormalizedText", building)
        # also catch a copy built through the pipeline's own binding of the name
        monkeypatch.setattr(pipeline, "NormalizedText", building, raising=False)
        texts = ["DOLIPRANE 1 000 mg, comprimé 2 gélules le matin à jeun", *noisy_texts[::25]]
        assert all(textnorm.sentence_from_text(t) is not None for t in texts)
        built.clear()
        spans = [annotate_text(t, runtime) for t in texts]
        assert len(spans[0]) == 4
        assert built == [True] * len(texts)


class TestClassifyCalls:
    """Where the classifier is called: perfbench wraps these names to time the layer."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The calls in order: ("predict", sentence) on entry, ("return", sentence) on exit, ("featurize", texts)."""
        seen = []
        featurize, predict = classify.featurize, pipeline.predict

        def counting_featurize(texts):
            seen.append(("featurize", list(texts)))
            return featurize(texts)

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
        texts = [s.feature_text for s in sentences]
        assert calls[:3] == [("predict", first), ("featurize", texts), ("return", first)]
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
        assert calls == [("predict", sentence), ("featurize", [sentence.feature_text]), ("return", sentence)]

    def test_batched_lines_classify_as_each_line_alone(self, runtime):
        doc = _doc(FIXTURE)
        alone = [
            classify_sentence(s, runtime) for line in doc.lines if (s := make_sentence(line, runtime.stopwords))
        ]
        assert [(ln.label, ln.mention, ln.extraction) for ln in classify_lines(doc, runtime)] == alone


def test_the_link_threshold_is_not_a_setting(runtime):
    # drugs link at druglink.DEFAULT_THRESHOLD; the link rules keep LinkConfig's defaults
    assert [f.name for f in dataclasses.fields(Runtime)] == ["model", "lexicon", "patterns", "stopwords", "link_config"]
    with pytest.raises(TypeError, match="threshold"):
        Runtime(model=runtime.model, lexicon=runtime.lexicon, patterns=runtime.patterns, threshold=0.9)


@pytest.mark.parametrize("text, linked", [
    ("DOLIPRANE 1000 mg, comprimé", True),  # the whole name, score 1.0
    ("KARDEGIC 75 mg, poudre pour", True),  # score 0.761
    ("MOPRAL 20 mg, gélule", False),  # score 0.690
    ("KARDEGIC 75 mg, poudre", False),  # score 0.667
    ("SMECTA 3 g, poudre", False),  # score 0.600
], ids=["whole-name", "just-above", "just-below", "below", "well-below"])
def test_a_drug_line_links_at_the_default_threshold(runtime, text, linked):
    sentence = sentence_from_text(text, runtime.stopwords)
    label, mention, _ = classify_sentence(sentence, runtime)
    assert label == "DRUG"
    assert mention == detect_drug(sentence, runtime.lexicon, DEFAULT_THRESHOLD)
    assert (mention is not None) == linked
    assert detect_drug(sentence, runtime.lexicon, 0.5) is not None  # each would link at a lower threshold


@pytest.mark.parametrize("config", [LinkConfig(), LinkConfig(section_gap_factor=0.01, drug_gap_factor=0.01)],
                         ids=["defaults", "tight-gaps"])
def test_extract_document_links_by_the_runtimes_link_config(runtime, config):
    doc = _doc(FIXTURE)
    record = extract_document(doc, dataclasses.replace(runtime, link_config=config))
    assert record == link(doc.doc_id, classify_lines(doc, runtime), config)
    # the fixture's posology lies within the default gaps, and beyond gaps of 0.01 line heights
    assert bool(record.orphans) == (config != LinkConfig())


def test_equivalent_drug_line_is_collapsed(runtime):
    payload = _with_line_after("drug-2", "eq-1", "ou SPASFON 80 mg, comprimé enrobé", 0.30)
    labels = {ln.line_id: ln.label for ln in classify_lines(_doc(payload), runtime)}
    assert labels["drug-2"] == "DRUG"
    assert labels["eq-1"] == "EQUIVALENT"
    record = record_to_dict(extract_document(_doc(payload), runtime))
    assert [d["line_id"] for d in record["drugs"]] == list(GOLDEN)


def test_a_marked_line_naming_the_same_drug_as_the_line_above_stays_a_drug(runtime):
    # The rule collapses a substitute, another drug: "ou" before the drug
    # above repeated is no equivalence.
    payload = _with_line_after("drug-2", "eq-1", "ou MOPRAL 20 mg, gélule gastro-résistante", 0.30)
    lines = {ln.line_id: ln for ln in classify_lines(_doc(payload), runtime)}
    for line_id in ("drug-2", "eq-1"):
        assert lines[line_id].label == "DRUG"
        assert lines[line_id].mention.drug_id == "61000379"


def test_a_substitute_after_an_equivalent_line_is_compared_with_that_line(runtime):
    # The rule looks at the previous line as relabelled: an EQUIVALENT line
    # has no mention, so the line below it stays DRUG. Whether a chain of
    # substitutes should collapse is left open; this pins today's rule.
    payload = _with_line_after("drug-2", "eq-1", "ou SPASFON 80 mg, comprimé enrobé", 0.30)
    payload = _with_line_after("drug-2", "eq-2", "ou TAHOR 10 mg, comprimé pelliculé", 0.31, payload)
    labels = {ln.line_id: ln.label for ln in classify_lines(_doc(payload), runtime)}
    assert (labels["drug-2"], labels["eq-1"], labels["eq-2"]) == ("DRUG", "EQUIVALENT", "DRUG")


def test_each_classified_line_carries_the_geometry_of_its_own_ocr_line(runtime):
    # Two pages, with a debris line ("x", dropped before classification)
    # after every line: a join that paired lines by position would shift
    # a box onto a neighbour.
    payload = copy.deepcopy(FIXTURE)
    payload["pages"] = 2
    lines = []
    for ln in payload["lines"]:
        for page in (1, 2):
            line = dict(ln, id=f"{ln['id']}-p{page}", page=page)
            below = dict(ln["bbox"], top=ln["bbox"]["top"] + 0.01)
            lines += [line, dict(line, id=f"x-{line['id']}", text="x", bbox=below)]
    payload["lines"] = lines
    doc = _doc(payload)
    ocr_lines = {ln.line_id: ln for ln in doc.lines}
    classified = classify_lines(doc, runtime)
    assert [ln.line_id for ln in classified] == [ln.line_id for ln in doc.lines if ln.raw_text != "x"]
    assert {ln.page for ln in classified} == {1, 2}
    for ln in classified:
        own = ocr_lines[ln.line_id]
        assert (ln.page, ln.bbox) == (own.page, own.bbox)
