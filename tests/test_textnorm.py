"""Text normalization and tokenization contracts.

The oracles below are the earlier implementation: ``normalize_text`` as
four passes over a character list (strip accents, lowercase, collapse
whitespace, unify numbers) and ``tokenize`` as a per-chunk scanner. The
one-pass code must agree with them exactly, in text, origins and token
spans.
"""

import codecs
import itertools
import re
import sys
import unicodedata
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordonnance.druglink import build_lexicon, default_equivalence_markers, default_lexicon_path
from ordonnance.errors import FileError
from ordonnance.ocr import BoundingBox, OcrLine
from ordonnance.textnorm import (
    NormalizedText,
    _fold_char,
    is_one_token,
    load_stopwords,
    make_sentence,
    normalize_text,
    read_word_list,
    sentence_from_text,
    tokenize,
)

# alphabet used by property tests: French letters, digits, punctuation, spaces
FRENCH = st.text(alphabet="abcdefgijlmnoprstuvzéèêàçûôùïA BCDER0123456789.,;:()/-'", max_size=40)

# number-dense text: digits, separators and spaces of every kind
NUMBERS = st.text(alphabet="0123456789 .,/\u00a0\u202f\u2009\tmg", max_size=30)

# characters whose folding or spacing is easy to get wrong: accents, ligatures,
# case mappings that grow (ß, İ) or depend on context (Σ), a syllable that
# decomposes into three letters (한), a lone combining accent, NBSP, narrow
# NBSP, thin space, tab, separators between digits and a non-ASCII decimal
# digit (Arabic-Indic three)
TRICKY = st.text(
    alphabet="aeAEéÉèàçœŒßİΣ한\u0301 \u00a0\u202f\u2009\t\n01239٣.,/;:()-",
    max_size=40,
)


def box():
    return BoundingBox(0.1, 0.1, 0.5, 0.02)


def ocr_line(text):
    return OcrLine(line_id="t", raw_text=text, bbox=box(), page=1)


# ---- oracles: the four-pass normalizer and the chunk tokenizer ------------

_ORACLE_DIGITS = "0123456789"
_ORACLE_NUM_SPACES = {" ", "\u00a0", "\u202f", "\u2009"}


def _map_strip_accents(chars, origins):
    out_c, out_o = [], []
    for ch, org in zip(chars, origins):
        for piece in unicodedata.normalize("NFD", ch):
            if not unicodedata.combining(piece):
                out_c.append(piece)
                out_o.append(org)
    return out_c, out_o


def _map_lower(chars, origins):
    out_c, out_o = [], []
    for ch, org in zip(chars, origins):
        for piece in ch.lower():
            out_c.append(piece)
            out_o.append(org)
    return out_c, out_o


def _map_collapse_ws(chars, origins):
    out_c, out_o = [], []
    pending_space = None
    for ch, org in zip(chars, origins):
        if ch.isspace():
            if out_c and pending_space is None:
                pending_space = org
            continue
        if pending_space is not None:
            out_c.append(" ")
            out_o.append(pending_space)
            pending_space = None
        out_c.append(ch)
        out_o.append(org)
    return out_c, out_o


def _map_unify_numbers(chars, origins):
    n = len(chars)
    out_c, out_o = [], []
    i = 0
    while i < n:
        ch = chars[i]
        if ch in (",", ".") or ch in _ORACLE_NUM_SPACES:
            prev_digit = bool(out_c) and out_c[-1] in _ORACLE_DIGITS
            j = i + 1
            while j < n and chars[j] in _ORACLE_NUM_SPACES:
                j += 1
            if ch in (",", "."):
                # decimal separator between digits, tolerating spaces around it
                if prev_digit and j < n and chars[j] in _ORACLE_DIGITS:
                    out_c.append(".")
                    out_o.append(origins[i])
                    i = j
                    continue
            else:
                # a separator that might precede "digit , digit" or join digit groups
                if prev_digit and j < n and chars[j] in (",", "."):
                    k = j + 1
                    while k < n and chars[k] in _ORACLE_NUM_SPACES:
                        k += 1
                    if k < n and chars[k] in _ORACLE_DIGITS:
                        out_c.append(".")
                        out_o.append(origins[j])
                        i = k
                        continue
                # single space between digit groups: join
                if prev_digit and j == i + 1 and j < n and chars[j] in _ORACLE_DIGITS:
                    i += 1
                    continue
        out_c.append(ch)
        out_o.append(origins[i])
        i += 1
    return out_c, out_o


def oracle_normalize_text(raw):
    chars, origins = list(raw), list(range(len(raw)))
    for step in (_map_strip_accents, _map_lower, _map_collapse_ws, _map_unify_numbers):
        chars, origins = step(chars, origins)
    while chars and chars[-1] == " ":
        chars.pop()
        origins.pop()
    return NormalizedText("".join(chars), tuple(origins))


def _split_chunk(chunk, base):
    parts = []
    buf_start = None
    for i, ch in enumerate(chunk):
        if ch in ".,;:()/":
            keep = (
                ch in "./"
                and 0 < i < len(chunk) - 1
                and chunk[i - 1] in _ORACLE_DIGITS
                and chunk[i + 1] in _ORACLE_DIGITS
            )
            if keep:
                if buf_start is None:
                    buf_start = i
                continue
            if buf_start is not None:
                parts.append((chunk[buf_start:i], base + buf_start, base + i))
                buf_start = None
            parts.append((ch, base + i, base + i + 1))
        elif buf_start is None:
            buf_start = i
    if buf_start is not None:
        parts.append((chunk[buf_start:], base + buf_start, base + len(chunk)))
    return parts


def oracle_tokenize(s):
    """The (text, start, end) triple of every token of s."""
    return [
        (text, start, end)
        for m in re.finditer(r"\S+", s)
        for text, start, end in _split_chunk(m.group(), m.start())
    ]


def triples(s):
    """tokenize's texts and starts as (text, start, end) triples, after checking their types."""
    texts, starts = tokenize(s)
    assert type(texts) is tuple and type(starts) is tuple and len(texts) == len(starts)
    return [(text, start, start + len(text)) for text, start in zip(texts, starts)]


def assert_same_as_oracle(raw):
    norm = normalize_text(raw)
    assert norm == oracle_normalize_text(raw), raw
    assert triples(norm.text) == oracle_tokenize(norm.text), raw
    assert triples(raw) == oracle_tokenize(raw), raw


class TestAgainstOracles:
    def test_bundled_names_with_and_without_posology(self):
        for entry in build_lexicon(default_lexicon_path()).entries:
            assert_same_as_oracle(entry.name)
            assert_same_as_oracle(entry.name + " 1 comprimé le soir pendant 5 jours")

    def test_generated_sentences_at_noise(self, noisy_texts):
        for text in noisy_texts:
            assert_same_as_oracle(text)
            assert_same_as_oracle(text.upper())

    @given(TRICKY)
    @settings(max_examples=500, derandomize=True)
    def test_tricky_alphabet(self, s):
        assert_same_as_oracle(s)

    def test_hand_cases(self):
        for raw in [
            "", " ", "\t\u00a0", "  1 000 , 5  mg ", "1\u202f000\u00a0mg", "1 , 2 , 3", "1 ,a", "1 2.5",
            "ΑΣ ΟΔΟΣ", "İstanbul", "straße", "œdème", "한 1,5", "e\u0301 \u0301 b", "٣ 4", "٣.4", "4/٣", "1./2", "1.2.3",
            "12/04/2021",
        ]:
            assert_same_as_oracle(raw)

    def test_regex_whitespace_is_str_isspace(self):
        # normalize_text and tokenize split on str.split() and the regex
        # class \s where the oracles test str.isspace(); str.split() is
        # defined by isspace, and \s agrees with it at every code point
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


# The shipped word lists as they were read before one reader served both.
SHIPPED_STOPWORDS = frozenset(
    """
    a afin ainsi alors au aussi autre autres aux avoir bien c ca car ce ceci cela celle
    celles celui cependant ces cet cette ceux chacun chacune chez comme comment d dans de
    deja depuis des donc dont du elle elles en encore entre est et etre eux faire fait ici
    il ils j jamais je jusque l la le les leur leurs lors lorsque lui m ma mais mal me meme
    memes mes moins mon n neanmoins ni nos notre nous on or ou parfois peu plus pourquoi
    pourtant puisque qu quand que quel quelle quelles quelque quelques quels qui quoi rien s
    sa se ses si son sont souvent t ta tandis te tes ton toujours tous tout toute toutefois
    toutes tres trop tu un une vers vos votre vous y
    """.split()
)
SHIPPED_MARKERS = frozenset({"ou", "equivalent", "soit"})


class TestReadWordList:
    @staticmethod
    def shipped(name):
        return resources.files("ordonnance.data").joinpath(name)

    def test_shipped_stopwords(self):
        path = self.shipped("stopwords_fr.txt")
        assert len(SHIPPED_STOPWORDS) == 133
        assert read_word_list(path.read_text("utf-8"), "stopwords") == load_stopwords(str(path)) == SHIPPED_STOPWORDS

    def test_shipped_markers(self):
        text = self.shipped("equivalence_markers.txt").read_text("utf-8")
        assert read_word_list(text, "markers") == default_equivalence_markers() == SHIPPED_MARKERS

    def test_invalid_utf8_stopwords_name_the_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("le\nla\nà\n".encode("latin-1"))
        with pytest.raises(FileError, match=re.escape(f"{path}:3: not valid UTF-8")):
            load_stopwords(path)

    @pytest.mark.parametrize("data", [b"le\rpar\r\xe0\r", b"le\r\npar\r\xe0\n"], ids=["cr", "mixed"])
    def test_invalid_utf8_after_carriage_returns_names_its_own_line(self, tmp_path, data):
        # a lone carriage return ends a line, as read_word_list numbers lines
        path = tmp_path / "cr.txt"
        path.write_bytes(data)
        with pytest.raises(FileError, match=re.escape(f"{path}:3: not valid UTF-8")):
            load_stopwords(path)

    def test_a_leading_bom_is_dropped(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(codecs.BOM_UTF8 + "le\nla\nà\n".encode("utf-8"))
        assert load_stopwords(path) == read_word_list("le\nla\nà\n", "list") == {"le", "la", "a"}

    def test_comments_blank_lines_and_folding(self):
        text = "# a comment line\n\n   \nÉquivalent  # trailing comment\nOU\n#\nsoit"
        assert read_word_list(text, "list") == {"equivalent", "ou", "soit"}

    # two words, an abbreviation split at its periods, and a lone accent that normalizes to nothing
    @pytest.mark.parametrize("entry", ["par jour", "c.-a-d.", "\u0301"])
    def test_an_entry_that_is_not_one_token_names_the_file_and_line(self, tmp_path, entry):
        path = tmp_path / "stopwords.txt"
        path.write_text(f"# comment\nle\n{entry}  # never matched\nsoir\n", "utf-8")
        with pytest.raises(FileError, match=re.escape(f"{path}:3: {entry!r} is not one token")):
            load_stopwords(path)

    # Lines end at "\n", "\r\n" or a lone "\r", as the lexicon reader's rows do;
    # a form feed or a Unicode line separator is whitespace inside its line.
    @pytest.mark.parametrize("text, number, entry", [
        ("le\x0cpar jour\n", 1, "le\x0cpar jour"),
        ("le\x0cpar\n", 1, "le\x0cpar"),
        ("le\npar jour\nsoir\n", 2, "par jour"),
        ("le\rla\r\npar jour\rsoir", 3, "par jour"),
    ])
    def test_lines_are_numbered_as_the_lexicon_reader_numbers_them(self, text, number, entry):
        with pytest.raises(FileError, match="^" + re.escape(f"list:{number}: {entry!r} is not one token")):
            read_word_list(text, "list")

    def test_lines_ended_by_a_lone_carriage_return_load(self):
        assert read_word_list("le\rla\r\nde\r# comment\rdu", "list") == {"le", "la", "de", "du"}

    def test_shipped_lists_hold_no_other_line_separator(self):
        for name in ("stopwords_fr.txt", "equivalence_markers.txt"):
            text = self.shipped(name).read_text("utf-8")
            assert not set(text) & set("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"), name

    def test_every_shipped_entry_is_one_token(self):
        assert all(is_one_token(word) for word in SHIPPED_STOPWORDS | SHIPPED_MARKERS)
        assert not is_one_token("par jour") and not is_one_token("")


def test_the_cached_accent_fold_equals_the_fold_and_is_bounded():
    # every Latin, Greek and Cyrillic code point, twice: the second pass reads the cache
    assert _fold_char.cache_info().maxsize == 4096
    chars = [chr(code) for code in range(0x80, 0x530)]
    for _ in range(2):
        assert [_fold_char(ch) for ch in chars] == [_fold_char.__wrapped__(ch) for ch in chars]
    assert _fold_char.cache_info().hits >= len(chars)


class TestUnifyNumbers:
    """Number unification, the last step of normalize_text."""

    @staticmethod
    def unify(s):
        return normalize_text(s).text

    def test_join_digit_groups(self):
        assert self.unify("1 000 mg") == "1000 mg"

    def test_comma_decimal(self):
        assert self.unify("0,5 g matin") == "0.5 g matin"

    def test_identity_when_no_adjacent_digits(self):
        assert self.unify("prendre 2 fois par jour") == "prendre 2 fois par jour"

    def test_spaced_decimal_separator(self):
        assert self.unify("0 , 5") == "0.5"

    def test_double_space_collapses_then_joins(self):
        # whitespace collapses before numbers are unified
        assert self.unify("1  000") == "1000"
        assert self.unify("1\u00a0\u202f000") == "1000"

    def test_chained_groups(self):
        assert self.unify("1 0 0 0") == "1000"

    @given(NUMBERS)
    @settings(max_examples=100, derandomize=True)
    def test_idempotent(self, s):
        once = self.unify(s)
        assert self.unify(once) == once

    @given(FRENCH)
    @settings(max_examples=100, derandomize=True)
    def test_letters_and_digits_untouched(self, s):
        # unification only edits spaces and separators around digits, so the
        # letters are those of the folded text and the digits those of s
        out = self.unify(s)
        folded = "".join(_map_strip_accents(s, range(len(s)))[0]).lower()
        assert [c for c in out if c.isalpha()] == [c for c in folded if c.isalpha()]
        assert [c for c in out if c.isdigit()] == [c for c in s if c.isdigit()]


# whitespace of several kinds, the split-off punctuation, digits, accented
# and non-BMP characters: the text tokenize may meet, normalized or not
TOKEN_TEXT = st.text(
    alphabet=" \t\u00a0\n.,;:()/0123456789abeéèçœ\U0001d7d8\U0001f48a\U00020000",
    max_size=40,
)


class TestTokenize:
    def test_basic_split(self):
        texts, _ = tokenize("1 cp matin et soir")
        assert texts == ("1", "cp", "matin", "et", "soir")

    def test_decimal_stays_whole(self):
        assert tokenize("1.5") == (("1.5",), (0,))

    def test_fraction_stays_whole(self):
        assert tokenize("1/2") == (("1/2",), (0,))

    def test_punctuation_split_off(self):
        assert tokenize("(matin)") == (("(", "matin", ")"), (0, 1, 6))

    def test_offsets_point_into_text(self):
        text = "1 cp, matin"
        for t, start, end in triples(text):
            assert text[start:end] == t

    def test_token_is_immutable_and_hashed_by_value(self):
        # the texts and starts are tuples, so a Sentence built from them is frozen all the way down
        tokens = tokenize("1 cp")
        assert tokens == (("1", "cp"), (0, 2)) and hash(tokens) == hash((("1", "cp"), (0, 2)))
        s = sentence_from_text("1 cp")
        assert (s.tokens, s.starts) == tokens
        with pytest.raises(AttributeError):
            s.starts = (0, 1)

    @given(TOKEN_TEXT)
    @settings(max_examples=300, derandomize=True)
    def test_starts_found_from_the_previous_end_equal_the_oracle(self, s):
        got = triples(s)
        assert got == oracle_tokenize(s)
        ends = [0]
        for t, start, end in got:
            assert s[start : start + len(t)] == t
            assert s[ends[-1] : start].isspace() or ends[-1] == start  # only whitespace between two tokens
            ends.append(end)
        assert s[ends[-1] :].isspace() or ends[-1] == len(s)

    def test_every_short_string_equals_the_oracle(self):
        # every string of up to 4 characters over a digit, a letter, the two
        # separators kept between digits, two split off, and two whitespaces
        alphabet = "1a./,( \t"
        for n in range(5):
            for chars in itertools.product(alphabet, repeat=n):
                s = "".join(chars)
                assert triples(s) == oracle_tokenize(s), s

    @given(FRENCH)
    @settings(max_examples=200, derandomize=True)
    def test_stable_under_rejoin(self, s):
        tokens, _ = tokenize(normalize_text(s).text)
        again, _ = tokenize(" ".join(tokens))
        assert tokens == again


class TestNormalizeText:
    def test_normalized_text_is_its_own_lower_case_at_every_code_point(self):
        # A pattern spec's regex is matched against the token text itself, so a
        # regex letter must be lower-case and unaccented to match a token.
        # Folding maps one character at a time, and the "x" between two code
        # points keeps a whitespace run or a digit pair from spanning them, so a
        # chunk holds iff each of its code points does; a chunk that fails is
        # re-checked one code point at a time, to name exactly those that fail.
        changed = []
        for start in range(0, sys.maxunicode + 1, 4096):
            chunk = range(start, min(start + 4096, sys.maxunicode + 1))
            if (t := normalize_text("x".join(map(chr, chunk))).text) != t.lower():
                changed += [cp for cp in chunk if (t := normalize_text(chr(cp)).text) != t.lower()]
        assert changed == []

    @given(FRENCH)
    @settings(max_examples=100, derandomize=True)
    def test_pipeline_idempotent(self, s):
        once = normalize_text(s).text
        assert normalize_text(once).text == once

    @given(FRENCH)
    @settings(max_examples=100, derandomize=True)
    def test_origins_monotonic_and_in_range(self, s):
        n = normalize_text(s)
        assert len(n.origins) == len(n.text)
        assert all(0 <= o < len(s) for o in n.origins)
        assert list(n.origins) == sorted(n.origins)

    def test_span_projection_round_trip(self):
        raw = "À JEÛN 1 000 mg"
        s = sentence_from_text(raw)
        assert s.match_text == "a jeun 1000 mg"
        assert s.origins == normalize_text(raw).origins
        start = s.match_text.index("1000")
        raw_span = s.to_raw_span(start, start + 4)
        assert raw[raw_span[0] : raw_span[1]] == "1 000"
        with pytest.raises(ValueError, match="empty span"):
            s.to_raw_span(start, start)


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
    @settings(max_examples=100, derandomize=True)
    def test_multi_token_lines_never_dropped(self, words):
        assert make_sentence(ocr_line(" ".join(words))) is not None

    def test_tokens_rebuild_match_text_up_to_spaces(self):
        s = sentence_from_text("prendre 1/2 comprimé (matin), à jeûn")
        assert "".join(s.tokens) == s.match_text.replace(" ", "")
