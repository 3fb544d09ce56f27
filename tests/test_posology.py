from ordonnance.patterns import LABELS
from ordonnance.posology import extract_posology
from ordonnance.textnorm import sentence_from_text


def test_full_sentence_example(patterns):
    s = sentence_from_text("1 comprime matin et soir pendant 10 jours")
    ext = extract_posology(s, patterns)
    got = {(e.kind, e.text) for e in ext.entities}
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
    assert [(e.kind, e.text) for e in ext.entities] == [("COMMENT", "au moment des repas")]


def test_entities_sorted_and_typed(patterns):
    s = sentence_from_text("prendre 2 gelules le soir au coucher si douleur")
    ext = extract_posology(s, patterns)
    starts = [e.char_start for e in ext.entities]
    assert starts == sorted(starts)
    assert all(e.kind in LABELS for e in ext.entities)
    assert ext.residual_text == "prendre"


def test_entity_text_matches_char_span(patterns):
    s = sentence_from_text("1 sachet apres les repas pendant 8 jours")
    ext = extract_posology(s, patterns)
    for e in ext.entities:
        assert s.match_text[e.char_start : e.char_end] == e.text
    assert ext.line_id == s.line_id


def test_per_kind_no_token_overlap(patterns):
    s = sentence_from_text("1 comprime de 500 mg 2 fois par jour pendant 7 jours a jeun")
    ext = extract_posology(s, patterns)
    for kind in LABELS:
        seen = set()
        for e in ext.entities:
            if e.kind != kind:
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
    kinds = {e.kind for e in ext.entities}
    assert kinds == {"DOSE", "FREQUENCY"}
    spans = {(e.char_start, e.char_end) for e in ext.entities}
    assert len(spans) == 1
