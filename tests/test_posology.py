import json

import pytest

from ordonnance.druglink import detect_drug, split_combined_line
from ordonnance.linking import record_to_dict
from ordonnance.ocr import parse_ocr_document
from ordonnance.patterns import LABELS, PatternSet, find_all
from ordonnance.pipeline import extract_document
from ordonnance.posology import extract_posology
from ordonnance.textnorm import sentence_from_text

from conftest import posology_line_texts


def test_full_sentence_example(patterns):
    s = sentence_from_text("1 comprime matin et soir pendant 10 jours")
    ext = extract_posology(s, patterns)
    got = {(e.label, e.text) for e in ext.entities}
    assert got == {
        ("DOSE", "1 comprime"),
        ("FREQUENCY", "matin et soir"),
        ("DURATION", "pendant 10 jours"),
    }
    assert ext.residual_text == ""


def test_empty_sentence(patterns):
    s = sentence_from_text("xy zz")  # two tokens, nothing matches
    ext = extract_posology(s, patterns)
    assert ext.entities == ()
    assert ext.residual_text == "xy zz"


def test_comment_family(patterns):
    s = sentence_from_text("au moment des repas")
    ext = extract_posology(s, patterns)
    assert [(e.label, e.text) for e in ext.entities] == [("COMMENT", "au moment des repas")]


def test_entities_sorted_and_typed(patterns):
    s = sentence_from_text("prendre 2 gelules le soir au coucher si douleur")
    ext = extract_posology(s, patterns)
    starts = [e.char_start for e in ext.entities]
    assert starts == sorted(starts)
    assert all(e.label in LABELS for e in ext.entities)
    assert ext.residual_text == "prendre"


PLAIN_LINES = [
    "1 sachet apres les repas pendant 8 jours",
    "prendre 2 gelules le soir au coucher si douleur",
    "1-0-1 pendant 3 semaines",
]
COMBINED_LINES = [
    "doliprane 1000 mg 1 cp matin et soir pendant 5 jours",
    "DOLIPRANE 1000 mg, comprimé 2 comprimés le soir au coucher",
    "KARDEGIC 75 mg, poudre pour solution buvable 1 sachet au moment des repas",
]


def test_entity_text_matches_char_span(patterns, lexicon):
    """An entity is the match span: its text, its characters and its tokens agree, and its pattern has its label.

    On a combined line the entities come from the remainder after the drug
    name, a view of the line, so their characters index the whole line.
    """
    by_id = {p.pattern_id: p for p in patterns.patterns}
    plain = [sentence_from_text(text) for text in PLAIN_LINES]
    remainders = []
    for text in COMBINED_LINES:
        s = sentence_from_text(text)
        mention = detect_drug(s, lexicon)
        assert mention is not None, text
        remainders.append(split_combined_line(s, mention))
    for s in plain + remainders:
        ext = extract_posology(s, patterns)
        assert ext.entities and ext.line_id == s.line_id, s.match_text
        for e in ext.entities:
            assert s.match_text[e.char_start : e.char_end] == e.text
            assert (e.char_start, e.char_end) == s.char_span(e.start_token, e.end_token)
            assert by_id[e.pattern_id].label == e.label
    # a remainder's entities fall after the drug name
    assert all(e.char_start >= r.starts[0] > 0 for r in remainders for e in extract_posology(r, patterns).entities)


def test_per_kind_no_token_overlap(patterns):
    s = sentence_from_text("1 comprime de 500 mg 2 fois par jour pendant 7 jours a jeun")
    ext = extract_posology(s, patterns)
    for kind in LABELS:
        seen = set()
        for e in ext.entities:
            if e.label != kind:
                continue
            span = set(range(e.char_start, e.char_end))
            assert not span & seen
            seen |= span


def test_deterministic(patterns):
    s = sentence_from_text("2 cp matin et soir pendant 5 jours")
    a = extract_posology(s, patterns)
    b = extract_posology(s, patterns)
    assert a == b


def test_elliptical_dose_frequency_shorthand(patterns):
    # morning-noon-evening shorthand yields both a dose and a frequency
    s = sentence_from_text("1-0-1")
    ext = extract_posology(s, patterns)
    kinds = {e.label for e in ext.entities}
    assert kinds == {"DOSE", "FREQUENCY"}
    spans = {(e.char_start, e.char_end) for e in ext.entities}
    assert len(spans) == 1


# Pattern alternatives that no generated line writes: the "gr" unit, "h" after
# "toutes les", and the "j", "jr" and "jrs" units after "qsp".
RARE_ALTERNATIVES = [
    ("500 gr", [("DOSE", 0, 6, "500 gr", "dose-num-unit")]),
    ("1 cp toutes les h", [
        ("DOSE", 0, 4, "1 cp", "dose-num-unit"),
        ("FREQUENCY", 5, 17, "toutes les h", "freq-toutes-les-heures-nuits"),
    ]),
    ("qsp 3 j", [("DURATION", 0, 7, "qsp 3 j", "dur-qsp-num-unit")]),
    ("qsp 10 jr", [("DURATION", 0, 9, "qsp 10 jr", "dur-qsp-num-unit")]),
    ("qsp 2 jrs", [("DURATION", 0, 9, "qsp 2 jrs", "dur-qsp-num-unit")]),
]


@pytest.mark.parametrize("text, want", RARE_ALTERNATIVES, ids=[text for text, _ in RARE_ALTERNATIVES])
def test_a_rare_alternative_matches_through_its_pattern(patterns, text, want):
    ext = extract_posology(sentence_from_text(text), patterns)
    assert [(e.label, e.char_start, e.char_end, e.text, e.pattern_id) for e in ext.entities] == want
    assert ext.residual_text == ""


def test_residual_is_the_tokens_outside_every_entity(patterns, lexicon):
    # on a combined line only the remainder's tokens can be left over, never the drug name
    s = sentence_from_text("DOLIPRANE 1000 mg, comprimé prendre 1 cp matin et soir si douleur")
    ext = extract_posology(split_combined_line(s, detect_drug(s, lexicon)), patterns)
    assert [e.text for e in ext.entities] == ["1 cp", "matin et soir", "si douleur"]
    assert ext.residual_text == "prendre"


def test_a_record_names_an_entity_kind_by_its_label(runtime):
    doc = parse_ocr_document(json.dumps({
        "doc_id": "d",
        "pages": 1,
        "lines": [{
            "id": "l1", "page": 1, "text": "DOLIPRANE 1000 mg, comprimé 1 comprimé matin et soir",
            "bbox": {"left": 0.1, "top": 0.2, "width": 0.6, "height": 0.02},
        }],
    }).encode())
    record = extract_document(doc, runtime)
    ((mention, extractions),) = record.drugs
    (extraction,) = extractions
    (posology,) = record_to_dict(record)["drugs"][0]["posologies"]
    assert posology["line_id"] == mention.line_id == "l1"
    assert posology["entities"] == [
        {"kind": e.label, "text": e.text, "start": e.char_start, "end": e.char_end} for e in extraction.entities
    ]
    assert [e["kind"] for e in posology["entities"]] == ["DOSE", "FREQUENCY"]


def reference_resolution(matches) -> list[tuple[str, str, int, int]]:
    """The earlier per-label resolution over (start, end, pattern) matches: (pattern id, label, start, end) kept.

    Candidates are sorted longest first, then by start, then by pattern id,
    and each is kept unless a token of its range is already taken by its
    label; the kept ones come back by start, end, label and pattern id.
    """
    taken: dict[str, set[int]] = {label: set() for label in LABELS}
    kept = []
    for start, end, p in sorted(matches, key=lambda m: (m[0] - m[1], m[0], m[2].pattern_id)):
        if taken[p.label].isdisjoint(range(start, end)):
            taken[p.label].update(range(start, end))
            kept.append((p.pattern_id, p.label, start, end))
    return sorted(kept, key=lambda k: (k[2], k[3], k[1], k[0]))


def residual_of(sentence, entities) -> str:
    """The tokens outside every entity's token range, in order."""
    covered = {i for e in entities for i in range(e.start_token, e.end_token)}
    return " ".join(t for i, t in enumerate(sentence.tokens) if i not in covered)


def test_entities_are_the_per_label_resolution_of_every_patterns_own_matches(patterns):
    """On the digest's posology-lines pool: pattern ids included, which the digest leaves out.

    Each pattern's own matches come from a set of that pattern alone, so no
    other pattern can hide one; the shipped set's entities must be the
    reference resolution of their union, and ``find_all``'s spans.
    """
    singles = [(p, PatternSet((p,))) for p in patterns.patterns]
    resolved = 0  # lines on which some same-label overlap was resolved
    for text in posology_line_texts(11):
        s = sentence_from_text(text)
        ext = extract_posology(s, patterns)
        assert ext.entities == tuple(find_all(patterns, s)), text
        matches = [(sp.start_token, sp.end_token, p) for p, single in singles for sp in find_all(single, s)]
        got = [(e.pattern_id, e.label, e.start_token, e.end_token) for e in ext.entities]
        assert got == reference_resolution(matches), text
        assert ext.residual_text == residual_of(s, ext.entities), text
        resolved += len(got) < len(matches)
    assert resolved >= 1000, resolved
