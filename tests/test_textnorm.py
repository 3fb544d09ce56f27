import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordonnance.ocr import BoundingBox, OcrLine
from ordonnance.textnorm import (
    make_sentence,
    normalize_text,
    sentence_from_text,
    strip_accents,
    tokenize,
    unify_numbers,
)

# alphabet used by property tests: French letters, digits, punctuation, spaces
FRENCH = st.text(alphabet="abcdefgijlmnoprstuvzéèêàçûôùïA BCDER0123456789.,;:()/-'", max_size=40)


def box():
    return BoundingBox(0.1, 0.1, 0.5, 0.02)


def ocr_line(text):
    return OcrLine(line_id="t", raw_text=text, bbox=box(), page=1)


class TestStripAccents:
    def test_french_accents(self):
        assert strip_accents("céfpodoxime à jeûn").lower() == "cefpodoxime a jeun"

    def test_empty(self):
        assert strip_accents("") == ""

    def test_no_accents_identity(self):
        assert strip_accents("DOLIPRANE") == "DOLIPRANE"

    @given(FRENCH)
    def test_idempotent(self, s):
        assert strip_accents(strip_accents(s)) == strip_accents(s)


class TestUnifyNumbers:
    def test_join_digit_groups(self):
        assert unify_numbers("1 000 mg") == "1000 mg"

    def test_comma_decimal(self):
        assert unify_numbers("0,5 g matin") == "0.5 g matin"

    def test_identity_when_no_adjacent_digits(self):
        assert unify_numbers("prendre 2 fois par jour") == "prendre 2 fois par jour"

    def test_spaced_decimal_separator(self):
        assert unify_numbers("0 , 5") == "0.5"

    def test_double_space_not_joined(self):
        assert unify_numbers("1  000") == "1  000"

    def test_chained_groups(self):
        assert unify_numbers("1 0 0 0") == "1000"

    @given(FRENCH)
    def test_idempotent(self, s):
        once = unify_numbers(s)
        assert unify_numbers(once) == once

    @given(FRENCH)
    def test_letters_and_digits_untouched(self, s):
        # the operation only edits spaces and separators around digits
        out = unify_numbers(s)
        assert [c for c in out if c.isalpha()] == [c for c in s if c.isalpha()]
        assert [c for c in out if c.isdigit()] == [c for c in s if c.isdigit()]


class TestTokenize:
    def test_basic_split(self):
        tokens = tokenize("1 cp matin et soir")
        assert [t.text for t in tokens] == ["1", "cp", "matin", "et", "soir"]
        assert tokens[0].is_digit and tokens[0].like_num

    def test_decimal_stays_whole(self):
        (tok,) = tokenize("1.5")
        assert tok.like_num and not tok.is_digit

    def test_fraction_stays_whole(self):
        (tok,) = tokenize("1/2")
        assert tok.like_num and not tok.is_digit

    def test_punctuation_split_off(self):
        assert [t.text for t in tokenize("(matin)")] == ["(", "matin", ")"]

    def test_offsets_point_into_text(self):
        text = "1 cp, matin"
        for t in tokenize(text):
            assert text[t.start : t.end] == t.text

    def test_is_digit_implies_like_num(self):
        for t in tokenize("12 0.5 1/2 abc a1 12/04/2021"):
            if t.is_digit:
                assert t.like_num

    @given(FRENCH)
    @settings(max_examples=200)
    def test_stable_under_rejoin(self, s):
        norm = normalize_text(s).text
        tokens = [t.text for t in tokenize(norm)]
        again = [t.text for t in tokenize(" ".join(tokens))]
        assert tokens == again


class TestNormalizeText:
    @given(FRENCH)
    def test_pipeline_idempotent(self, s):
        once = normalize_text(s).text
        assert normalize_text(once).text == once

    @given(FRENCH)
    def test_origins_monotonic_and_in_range(self, s):
        n = normalize_text(s)
        assert len(n.origins) == len(n.text)
        assert all(0 <= o < len(s) for o in n.origins)
        assert list(n.origins) == sorted(n.origins)

    def test_span_projection_round_trip(self):
        raw = "À JEÛN 1 000 mg"
        n = normalize_text(raw)
        assert n.text == "a jeun 1000 mg"
        start = n.text.index("1000")
        raw_span = n.to_raw_span(start, start + 4)
        assert raw[raw_span[0] : raw_span[1]] == "1 000"


class TestMakeSentence:
    def test_single_short_token_dropped(self):
        assert make_sentence(ocr_line("X")) is None

    def test_stopwords_only_affect_feature_text(self):
        s = make_sentence(ocr_line("1 cp par jour"), frozenset({"par"}))
        assert s.match_text == "1 cp par jour"
        assert s.feature_text == "1 cp jour"

    def test_accent_case_pipeline(self):
        s = make_sentence(ocr_line("À JEÛN"))
        assert s.match_text == "a jeun"

    def test_two_char_single_token_kept(self):
        assert make_sentence(ocr_line("cp")) is not None

    @given(st.lists(st.sampled_from(["cp", "matin", "12", "et"]), min_size=2, max_size=6))
    def test_multi_token_lines_never_dropped(self, words):
        assert make_sentence(ocr_line(" ".join(words))) is not None

    def test_tokens_rebuild_match_text_up_to_spaces(self):
        s = sentence_from_text("prendre 1/2 comprimé (matin), à jeûn")
        assert "".join(t.text for t in s.tokens) == s.match_text.replace(" ", "")
