import codecs
import functools
import math
import random
import re
import string
from collections import Counter

import pytest

from ordonnance import kernels
from ordonnance.corpus import CorpusSpec, generate, noisify
from ordonnance.druglink import (
    DrugLexicon,
    DrugMention,
    LexiconEntry,
    build_lexicon,
    _candidate_indices,
    default_lexicon_path,
    detect_drug,
    mention_token_window,
    split_combined_line,
    starts_with_equivalence_marker,
)
from ordonnance.errors import DuplicateId, EmptyLexicon, FileError
from ordonnance.kernels import similarity
from ordonnance.ocr import parse_ocr_document
from ordonnance.pipeline import classify_lines
from ordonnance.posology import extract_posology
from ordonnance.textnorm import make_sentence, sentence_from_text, tokenize

from conftest import DATA_DIR
from test_kernels import _edit_distance, oracle_similarity, reference_similarity


@functools.lru_cache(maxsize=None)
def _tokens_of(norm_name):
    return tokenize(norm_name)[0]


def name_tokens(entry):
    """The entry's name tokens, worked out from its ``norm_name`` (once per name), never from the index."""
    return _tokens_of(entry.norm_name)


def oracle_detect_drug(sentence, lexicon, threshold=0.72):
    """Unpruned detection: score every candidate of each of the first three tokens.

    Candidates are the entries whose first name token equals the sentence
    token, or, when none does and the token has at least five characters,
    those within one edit of it, in lexicon order. Scores come from
    ``reference_similarity``, so the oracle shares no code with the kernel.
    """
    tokens, starts = sentence.tokens, sentence.starts
    n = len(tokens)
    best = None  # (score, -trigger, len(norm_name), drug_id), entry, trigger
    for trigger in range(min(3, n)):
        text = tokens[trigger]
        idxs = [i for i, e in enumerate(lexicon.entries) if name_tokens(e)[0] == text]
        if not idxs and len(text) >= 5:
            idxs = [i for i, e in enumerate(lexicon.entries) if kernels.levenshtein_leq1(text, name_tokens(e)[0])]
        for idx in idxs:
            entry = lexicon.entries[idx]
            end = min(trigger + len(name_tokens(entry)), n)
            window = sentence.match_text[starts[trigger] : starts[end - 1] + len(tokens[end - 1])]
            score = reference_similarity(entry.norm_name, window)
            key = (score, -trigger, len(entry.norm_name))
            if best is None or key > best[0][:3] or (key == best[0][:3] and entry.drug_id < best[0][3]):
                best = ((*key, entry.drug_id), entry, trigger, window)
    if best is None or best[0][0] < threshold:
        return None
    (score, _, _, _), entry, trigger, window = best
    return DrugMention(
        line_id=sentence.line_id,
        drug_id=entry.drug_id,
        lexicon_name=entry.name,
        surface_text=window,
        score=score,
        trigger_token_index=trigger,
    )


def oracle_pruned_detect_drug(sentence, lexicon, threshold=0.72):
    """The earlier ``detect_drug``: the same pruning, with the winner held in three variables.

    Its rank, entry and trigger are kept apart, a better candidate is found by
    a three-clause test, and the winner's window is computed a second time.
    """
    tokens = sentence.tokens
    char_span = sentence.char_span
    match_text = sentence.match_text
    best = None  # (score, -trigger, len(norm_name), drug_id)
    best_entry = None
    best_trigger = -1
    n = len(tokens)
    for trigger in range(min(3, n)):
        if best is not None and best[0] == 1.0:
            break
        start = sentence.starts[trigger]
        for idx in _candidate_indices(lexicon, tokens[trigger]):
            entry = lexicon.entries[idx]
            name = entry.norm_name
            stop = char_span(trigger, min(trigger + len(name_tokens(entry)), n))[1]
            la, lb = len(name), stop - start
            floor = threshold if best is None else max(threshold, best[0])
            if 2.0 * min(la, lb) / (la + lb) < floor:
                continue
            window = match_text[start:stop]
            score = 1.0 if window == name else kernels.similarity(name, window)
            key = (score, -trigger, len(name))
            if best is None or key > best[:3] or (key == best[:3] and entry.drug_id < best[3]):
                best = (score, -trigger, len(name), entry.drug_id)
                best_entry = entry
                best_trigger = trigger
    if best is None or best_entry is None or best[0] < threshold:
        return None
    lo, hi = char_span(best_trigger, min(best_trigger + len(name_tokens(best_entry)), n))
    return DrugMention(sentence.line_id, best_entry.drug_id, best_entry.name, match_text[lo:hi], best[0], best_trigger)


def brute_force_candidates(lexicon, token, keys=None):
    """The first-token lookup spelt out, with no filter.

    A key gives its own entries. A token of at least five characters that is
    no key gives the entries of every key within one edit, sorted. ``keys``
    narrows the loop to keys known to hold every answer; by default it is
    every key.
    """
    hit = lexicon.first_token_index.get(token)
    if hit:
        return hit
    if len(token) < 5:
        return ()
    keys = lexicon.first_token_index if keys is None else keys
    return tuple(
        sorted(i for key in keys if kernels.levenshtein_leq1(token, key) for i in lexicon.first_token_index[key])
    )


EDIT_ALPHABET = string.ascii_lowercase + string.digits + "-é"


def single_edits(key):
    """Every substitution, insertion and deletion of one character of key, over EDIT_ALPHABET."""
    for i in range(len(key) + 1):
        for ch in EDIT_ALPHABET:
            yield key[:i] + ch + key[i:]
            if i < len(key):
                yield key[:i] + ch + key[i + 1 :]
        if i < len(key):
            yield key[:i] + key[i + 1 :]


def random_tokens(lexicon, count, seed):
    """Random strings, and splices of one key's start with another's end."""
    rng = random.Random(seed)
    keys = sorted(lexicon.first_token_index)
    tokens = []
    for _ in range(count):
        tokens.append("".join(rng.choice(EDIT_ALPHABET) for _ in range(rng.randint(3, 14))))
        a, b = rng.choice(keys), rng.choice(keys)
        tokens.append(a[: rng.randint(1, len(a))] + b[rng.randint(0, len(b) - 1) :])
    return tokens


def write_lexicon(tmp_path, rows, name="lex.csv"):
    path = tmp_path / name
    lines = ["id,name"]
    for rid, rname in rows:
        rname = '"' + rname.replace('"', '""') + '"' if "," in rname else rname
        lines.append(f"{rid},{rname}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def similarity_calls(monkeypatch):
    """The (name, window) pairs ``kernels.similarity`` is called on through its module, as ``detect_drug`` calls it."""
    calls = []
    kernel = kernels.similarity

    def counted(a, b):
        calls.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(kernels, "similarity", counted)
    return calls


class TestSimilarityOp:
    def test_spec_values(self):
        assert similarity("abc", "abc") == 1.0
        assert similarity("abc", "xyz") == 0.0
        a, b = "doliprane 1000mg", "doliprane 1000 mg"
        assert similarity(a, b) == oracle_similarity(a, b)


class TestBuildLexicon:
    def test_two_rows(self, tmp_path):
        lex = build_lexicon(write_lexicon(tmp_path, [("A1", "DOLIPRANE 500"), ("A2", "SPASFON 80")]))
        assert len(lex.entries) == 2
        assert len(lex.first_token_index) <= 2

    def test_duplicate_id(self, tmp_path):
        with pytest.raises(DuplicateId):
            build_lexicon(write_lexicon(tmp_path, [("A1", "X Y"), ("A1", "Z W")]))

    def test_name_normalized_for_index(self, tmp_path):
        lex = build_lexicon(write_lexicon(tmp_path, [("A1", "DOLIPRANE 1000 mg, comprimé")]))
        assert "doliprane" in lex.first_token_index
        assert lex.entries[0].norm_name == "doliprane 1000 mg, comprime"
        assert name_tokens(lex.entries[0]) == ("doliprane", "1000", "mg", ",", "comprime")
        assert lex.entries[0].n_tokens == 5

    def test_empty_lexicon(self, tmp_path):
        with pytest.raises(EmptyLexicon):
            build_lexicon(write_lexicon(tmp_path, []))

    def test_an_empty_file_is_named(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyLexicon, match="^" + re.escape(f"{path}: empty file") + "$"):
            build_lexicon(path)

    def test_blank_rows_are_skipped_and_still_counted(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("id,name\nA1,DOLIPRANE 500\n\n  ,  \nA2,SPASFON 80\nA3,\n", encoding="utf-8")
        with pytest.raises(FileError, match="^" + re.escape(f"{path}:6: empty id or name") + "$"):
            build_lexicon(path)
        path.write_text("id,name\nA1,DOLIPRANE 500\n\n  ,  \nA2,SPASFON 80\n", encoding="utf-8")
        assert [e.drug_id for e in build_lexicon(path).entries] == ["A1", "A2"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            build_lexicon(tmp_path / "absent.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("drug,title\nA,B\n")
        with pytest.raises(FileError):
            build_lexicon(path)

    def test_invalid_utf8_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("id,name\nA1,DOLIPRANE 500\n\nA2,Paracétamol 1 g\n".encode("latin-1"))
        with pytest.raises(FileError, match=re.escape(f"{path}:4: not valid UTF-8")):
            build_lexicon(path)

    # An invalid byte's line is counted as the reader counts its rows: a lone
    # carriage return ends a line too, as the duplicate id's line 3 shows.
    @pytest.mark.parametrize("data, error, message", [
        (b"id,name\rA1,DOLIPRANE\rA2,Parac\xe9tamol\r", FileError, "not valid UTF-8"),
        (b"id,name\r\nA1,DOLIPRANE\rA2,Parac\xe9tamol\r\n", FileError, "not valid UTF-8"),
        (b"id,name\rA1,DOLIPRANE\rA1,X\r", DuplicateId, "duplicate id 'A1'"),
    ], ids=["bad-byte-cr", "bad-byte-mixed", "duplicate-id-cr"])
    def test_lines_ended_by_a_carriage_return_are_numbered_alike(self, tmp_path, data, error, message):
        path = tmp_path / "cr.csv"
        path.write_bytes(data)
        with pytest.raises(error, match="^" + re.escape(f"{path}:3: {message}")):
            build_lexicon(path)

    def test_a_leading_bom_is_dropped(self, tmp_path):
        text = "id,name\nA1,DOLIPRANE 500\nA2,Paracétamol 1 g\n".encode("utf-8")
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text)
        bom.write_bytes(codecs.BOM_UTF8 + text)
        assert build_lexicon(bom).entries == build_lexicon(plain).entries

    def test_invalid_utf8_after_a_bom_names_its_own_line_and_byte(self, tmp_path):
        path = tmp_path / "bom-latin1.csv"
        data = codecs.BOM_UTF8 + "id,name\nA1,DOLIPRANE 500\nA2,Paracétamol 1 g\n".encode("latin-1")
        path.write_bytes(data)
        # the offset counts the BOM, as the line count does
        with pytest.raises(FileError, match=re.escape(f"{path}:3: not valid UTF-8") + f".* at byte {data.index(0xE9)}$"):
            build_lexicon(path)

    def test_a_row_of_three_cells_is_refused(self, tmp_path):
        # an unquoted comma would otherwise cut the name short at "DOLIPRANE 1000 mg"
        path = tmp_path / "extra.csv"
        path.write_text("id,name\nA0,SPASFON 80\n1,DOLIPRANE 1000 mg, comprime\n", encoding="utf-8")
        with pytest.raises(FileError, match=re.escape(f"{path}:3: expected 2 columns")):
            build_lexicon(path)

    @pytest.mark.parametrize(
        "row, error, message",
        [
            ("D2,a,b", FileError, "expected 2 columns"),
            ("D2,", FileError, "empty id or name"),
            ("D1,DOLIPRANE", DuplicateId, "duplicate id 'D1'"),
            ("D2,\u0301", FileError, "name normalizes to nothing"),
        ],
        ids=["columns", "empty-cell", "duplicate-id", "empty-name"],
    )
    def test_a_bad_row_after_a_two_line_name_is_named_by_its_own_first_line(self, tmp_path, row, error, message):
        path = tmp_path / "two-line.csv"
        path.write_text(f'id,name\nD1,"doli\nprane"\n{row}\n', encoding="utf-8")
        with pytest.raises(error, match="^" + re.escape(f"{path}:4: {message}") + "$"):
            build_lexicon(path)

    def test_a_quoted_comma_stays_in_the_name(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('id,name\n1,"DOLIPRANE 1000 mg, comprime"\n', encoding="utf-8")
        assert [(e.drug_id, e.name) for e in build_lexicon(path).entries] == [("1", "DOLIPRANE 1000 mg, comprime")]

    def test_crlf_rows_read_as_lf_rows(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"id,name\r\nA1,DOLIPRANE 500\r\nA2,\"SPASFON\r\n80\"\r\n")
        lex = build_lexicon(path)
        assert [(e.drug_id, e.name) for e in lex.entries] == [("A1", "DOLIPRANE 500"), ("A2", "SPASFON\r\n80")]

    def test_first_token_index_groups_names(self, tmp_path):
        rows = [("A1", "DOLIPRANE 500"), ("B1", "SPASFON 80"), ("A2", "DOLIPRANE 1000")]
        lex = build_lexicon(write_lexicon(tmp_path, rows))
        # entry positions per first token, in file order
        assert lex.first_token_index == {"doliprane": (0, 2), "spasfon": (1,)}
        assert [lex.entries[i].drug_id for i in lex.first_token_index["doliprane"]] == ["A1", "A2"]

    @pytest.mark.parametrize("which", ["lexicon", "big_lexicon"])
    def test_one_pass_index_equals_a_two_pass_rebuild(self, request, which):
        lex = request.getfixturevalue(which)
        index = {}
        for i, entry in enumerate(lex.entries):
            index.setdefault(name_tokens(entry)[0], []).append(i)
        assert lex.first_token_index == {key: tuple(idxs) for key, idxs in index.items()}
        assert list(lex.first_token_index) == list(index)  # keys in order of first appearance
        assert lex.sorted_keys == tuple(sorted(index))
        assert lex.keys_by_ending == tuple(sorted(index, key=lambda key: key[::-1]))
        assert [entry.n_tokens for entry in lex.entries] == [len(name_tokens(entry)) for entry in lex.entries]


class TestFuzzyLookup:
    """The pigeonhole lookup gives the candidates of the brute-force loop, in its order."""

    def test_every_key(self, lexicon, big_lexicon):
        for lex in (lexicon, big_lexicon):
            for key, idxs in lex.first_token_index.items():
                assert _candidate_indices(lex, key) == brute_force_candidates(lex, key) == idxs, key

    def test_every_single_edit_of_every_key(self, lexicon):
        # A key within one edit of an edit of ``key`` is within two edits of
        # ``key``, so the loop over those keys misses no answer. A sample is
        # checked against the loop over every key too. Two keys are at least
        # as many edits apart as the longer has characters the other lacks.
        keys = list(lexicon.first_token_index)
        chars = {key: Counter(key) for key in keys}
        near = {
            key: [
                k
                for k in keys
                if max(len(k), len(key)) - (chars[k] & chars[key]).total() <= 2 and _edit_distance(key, k) <= 2
            ]
            for key in keys
        }
        rng = random.Random(23)
        tokens = fuzzy = 0
        for key in keys:
            for token in sorted(set(single_edits(key))):
                got = _candidate_indices(lexicon, token)
                assert got == brute_force_candidates(lexicon, token, near[key]), (key, token)
                if rng.random() < 0.01:
                    assert got == brute_force_candidates(lexicon, token), (key, token)
                tokens += 1
                fuzzy += bool(got) and token not in lexicon.first_token_index
        assert tokens > 100_000 and fuzzy > 30_000

    def test_five_character_tokens_against_the_four_character_key(self, lexicon):
        (short,) = [key for key in lexicon.first_token_index if len(key) == 4]
        idxs = lexicon.first_token_index[short]
        for token in {e for e in single_edits(short) if len(e) == 5}:
            got = _candidate_indices(lexicon, token)
            assert got == brute_force_candidates(lexicon, token), token
            assert set(idxs) <= set(got), token
        for token in {e for e in single_edits(short) if len(e) < 5} - {short}:
            assert _candidate_indices(lexicon, token) == (), token  # too short to be fuzzy

    def test_random_tokens(self, lexicon, big_lexicon):
        tokens = random_tokens(lexicon, 600, seed=29)
        hits = 0
        for lex in (lexicon, big_lexicon):
            for token in tokens:
                got = _candidate_indices(lex, token)
                assert got == brute_force_candidates(lex, token), token
                hits += bool(got)
        assert hits > 100

    def test_single_edits_on_the_big_lexicon(self, big_lexicon):
        for key in sorted(big_lexicon.first_token_index)[::30]:
            for token in set(single_edits(key)):
                assert _candidate_indices(big_lexicon, token) == brute_force_candidates(big_lexicon, token), token


class TestDetectDrug:
    @pytest.fixture
    def lex(self, tmp_path):
        return build_lexicon(
            write_lexicon(
                tmp_path,
                [
                    ("CIS1", "DOLIPRANE 1000 mg, comprimé"),
                    ("CIS2", "DOLIPRANE 500 mg, comprimé"),
                    ("CIS3", "SPASFON 80 mg, comprimé enrobé"),
                ],
            )
        )

    def test_spec_example_links(self, lex):
        s = sentence_from_text("doliprane 1000 mg comprime")
        m = detect_drug(s, lex, threshold=0.72)
        assert m is not None
        assert m.drug_id == "CIS1"
        assert m.score >= 0.72
        expected = oracle_similarity("doliprane 1000 mg, comprime", "doliprane 1000 mg comprime")
        assert m.score == expected

    def test_no_first_token_hit_returns_none(self, lex):
        assert detect_drug(sentence_from_text("prendre au coucher"), lex) is None

    def test_trigger_window_top3(self, lex):
        s = sentence_from_text("1. DOLIPRANE 1000 mg, comprimé")
        m = detect_drug(s, lex)
        assert m is not None
        assert m.trigger_token_index == 2
        assert m.drug_id == "CIS1"

    def test_name_beyond_top3_not_found(self, lex):
        s = sentence_from_text("a b c doliprane 1000 mg")
        assert detect_drug(s, lex) is None

    def test_fuzzy_first_token_fallback(self, lex):
        m = detect_drug(sentence_from_text("d0liprane 1000 mg comprime"), lex)
        assert m is not None and m.drug_id == "CIS1"

    def test_fuzzy_fallback_needs_length_5(self, tmp_path):
        lex = build_lexicon(write_lexicon(tmp_path, [("A1", "ABC 100")]))
        assert detect_drug(sentence_from_text("abx 100"), lex) is None

    def test_tie_prefers_longer_name(self, tmp_path):
        # the line writes both names exactly from its first token, so both
        # windows equal their names and the longer name wins the tie
        lex = build_lexicon(
            write_lexicon(tmp_path, [("B", "ZETA 10"), ("A", "ZETA 10 mg retard forte")])
        )
        s = sentence_from_text("zeta 10 mg retard forte")
        m = detect_drug(s, lex, threshold=0.5)
        assert m.drug_id == "A"

    def test_tie_breaks_by_smallest_id(self, tmp_path):
        lex = build_lexicon(write_lexicon(tmp_path, [("B2", "OMEGA 5"), ("B1", "OMEGA 5")]))
        m = detect_drug(sentence_from_text("omega 5"), lex)
        assert m.drug_id == "B1"

    def test_threshold_monotonicity(self, lex):
        rng = random.Random(5)
        texts = ["doliprane 1000 mg comprime", "dol1prane 500", "spasfon 80 mg", "spa sfon 80"]
        for text in texts:
            s = sentence_from_text(text)
            mentions = []
            for threshold in [0.1, 0.3, 0.5, 0.72, 0.9, 0.99]:
                mentions.append(detect_drug(s, lex, threshold))
            ids = [m.drug_id for m in mentions if m is not None]
            assert len(set(ids)) <= 1  # identity never changes
            seen_none = False
            for m in mentions:  # once None, stays None as threshold rises
                if m is None:
                    seen_none = True
                else:
                    assert not seen_none

    def test_every_bundled_name_links_to_itself_exactly(self):
        # norm_name lives in the same space as the sentence window, so a line
        # that is exactly a lexicon name links to that entry at score 1.0,
        # and the remainder of a posology suffix after the name holds the
        # suffix's tokens whole, at their places in the line.
        lexicon = build_lexicon(default_lexicon_path())
        suffix = " 1 comprime le soir"
        suffix_tokens, suffix_starts = tokenize(suffix.strip())
        for entry in lexicon.entries:
            m = detect_drug(sentence_from_text(entry.name), lexicon)
            assert m is not None, entry.name
            assert (m.drug_id, m.score) == (entry.drug_id, 1.0), entry.name
            combined = sentence_from_text(entry.name + suffix)
            m = detect_drug(combined, lexicon)
            assert m is not None and m.drug_id == entry.drug_id, entry.name
            remainder = split_combined_line(combined, m)
            at = len(combined.match_text) - len(suffix.strip())
            assert remainder.tokens == suffix_tokens, entry.name
            assert remainder.starts == tuple(at + start for start in suffix_starts), entry.name
            assert remainder.match_text == combined.match_text, entry.name

    def test_detection_is_total(self, lex):
        for text in ["doliprane", "x", "doliprane doliprane doliprane", "1000 mg"]:
            s = sentence_from_text(text)
            if s is None:
                continue
            result = detect_drug(s, lex)
            assert result is None or result.score >= 0.72


class TestSplitCombinedLine:
    @pytest.fixture
    def lex(self, tmp_path):
        return build_lexicon(write_lexicon(tmp_path, [("CIS1", "DOLIPRANE 1000 mg")]))

    def test_remainder_after_name(self, lex):
        # a view of the line: its text and origins, the tokens after the name at their own starts
        s = sentence_from_text("doliprane 1000 mg 1 cp matin")
        m = detect_drug(s, lex)
        remainder = split_combined_line(s, m)
        assert (remainder.line_id, remainder.match_text, remainder.origins) == (s.line_id, s.match_text, s.origins)
        assert remainder.feature_text == ""
        assert (remainder.tokens, remainder.starts) == (("1", "cp", "matin"), (18, 20, 23))
        assert remainder.match_text[remainder.starts[0] :] == "1 cp matin"

    def test_whole_sentence_name_gives_empty_remainder(self, lex):
        s = sentence_from_text("doliprane 1000 mg")
        m = detect_drug(s, lex)
        remainder = split_combined_line(s, m)
        assert remainder.match_text == s.match_text
        assert remainder.tokens == remainder.starts == ()

    def test_remainder_feeds_posology(self, lex, patterns):
        s = sentence_from_text("doliprane 1000 mg 1 cp matin")
        m = detect_drug(s, lex)
        ext = extract_posology(split_combined_line(s, m), patterns)
        assert {(e.label, e.text) for e in ext.entities} == {("DOSE", "1 cp"), ("FREQUENCY", "matin")}

    def test_window_matches_name_tokens(self, lex):
        s = sentence_from_text("doliprane 1000 mg 1 cp")
        m = detect_drug(s, lex)
        assert mention_token_window(s, m) == (0, 3)


def test_equivalence_marker_detection():
    assert starts_with_equivalence_marker(sentence_from_text("ou efferalgan 500"))
    assert starts_with_equivalence_marker(sentence_from_text("équivalent dafalgan"))
    assert not starts_with_equivalence_marker(sentence_from_text("doliprane 1000"))


class TestSimilarityProperties:
    def test_exhaustive_short_alphabet(self):
        import itertools

        strings = [""]
        for n in range(1, 4):
            strings += ["".join(t) for t in itertools.product("ab1", repeat=n)]
        for a in strings:
            for b in strings:
                assert similarity(a, b) == oracle_similarity(a, b), (a, b)


class TestAgainstUnprunedOracle:
    """Pruned detection returns exactly the mention of the unpruned loop."""

    # the last one is the least float above 1.0: no line links there, an equal window neither
    THRESHOLDS = (0.0, 0.5, 0.72, 0.9, 1.0, math.nextafter(1.0, 2.0))

    def test_bundled_names_with_and_without_posology(self, lexicon):
        for entry in lexicon.entries:
            for text in (entry.name, entry.name + " 1 comprime le soir"):
                s = sentence_from_text(text)
                assert detect_drug(s, lexicon) == oracle_detect_drug(s, lexicon), text

    def test_generated_sentences_at_every_threshold(self, lexicon, noisy_texts):
        linked = 0
        for text in noisy_texts:
            s = sentence_from_text(text)
            if s is None:
                continue
            # the threshold only gates the oracle's winner, so it runs once per sentence
            best = oracle_detect_drug(s, lexicon, 0.0)
            for threshold in self.THRESHOLDS:
                got = detect_drug(s, lexicon, threshold)
                assert got == (best if best is not None and best.score >= threshold else None), (text, threshold)
                linked += got is not None
        assert linked > 1000  # the comparison covers real links, not only None

    def test_noisy_lines_on_the_big_lexicon(self, big_lexicon, big_lexicon_path):
        spec = CorpusSpec(n_drug=30, n_posology=5, n_useless=5, seed=5, lexicon_path=str(big_lexicon_path))
        linked = 0
        for i, row in enumerate(generate(spec)):
            s = sentence_from_text(noisify(row, 0.1, 5_000 + i).text)
            if s is None:
                continue
            got = detect_drug(s, big_lexicon)
            assert got == oracle_detect_drug(s, big_lexicon), s.match_text
            linked += got is not None
        assert linked > 25

    def test_fuzzy_only_first_token(self, lexicon):
        s = sentence_from_text("d0liprane 1000 mg, comprime")
        assert s.tokens[0] not in lexicon.first_token_index
        m = detect_drug(s, lexicon)
        assert m is not None and m.trigger_token_index == 0
        assert m == oracle_detect_drug(s, lexicon)

    def test_equal_score_winner_scored_second(self, tmp_path):
        # both entries score 14/15 against "omega 5x", and the bound of the
        # second equals the first's score; it must still be scored, as it wins
        # the tie on its smaller id
        lex = build_lexicon(write_lexicon(tmp_path, [("B2", "OMEGA 5"), ("B1", "OMEGA 5")]))
        s = sentence_from_text("omega 5x")
        m = detect_drug(s, lex)
        assert (m.drug_id, m.score) == ("B1", 14 / 15)
        assert m == oracle_detect_drug(s, lex)

    def test_full_match_stops_later_triggers(self, tmp_path):
        # a full match on the first token settles the line; the later
        # trigger "spasfon" would also score 1.0 but loses on position
        lex = build_lexicon(write_lexicon(tmp_path, [("A", "DOLIPRANE"), ("B", "SPASFON")]))
        s = sentence_from_text("doliprane spasfon")
        m = detect_drug(s, lex)
        assert (m.drug_id, m.score, m.trigger_token_index) == ("A", 1.0, 0)
        assert m == oracle_detect_drug(s, lex)

    def test_partial_match_keeps_probing_later_triggers(self, tmp_path, similarity_calls):
        # the misspelt first token would link A at 26/28 by one edit; only a
        # full match settles a line, so the later "spasfon" still wins at 1.0,
        # and as its window equals its name nothing is scored
        lex = build_lexicon(write_lexicon(tmp_path, [("A", "ALPHABETAGAMMA"), ("B", "SPASFON")]))
        s = sentence_from_text("alphabetagammx spasfon")
        m = detect_drug(s, lex)
        assert similarity_calls == []
        assert (m.drug_id, m.score, m.trigger_token_index) == ("B", 1.0, 1)
        assert m == oracle_detect_drug(s, lex)

    def test_a_near_full_match_keeps_probing_later_triggers(self, tmp_path):
        # E1 is the line with one letter changed in a long name, so it scores
        # 0.9934 at the first token; only a score of exactly 1.0 settles a
        # line, so the second token still links E2 in full
        e2 = ("paracetamol codeine " * 5 + "comprime effervescent secable boite de trente").strip()
        e1 = "alpha " + e2.replace("boite", "boote")
        lex = build_lexicon(write_lexicon(tmp_path, [("E1", e1), ("E2", e2)]))
        s = sentence_from_text("alpha " + e2)
        m = detect_drug(s, lex)
        assert (m.drug_id, m.score, m.trigger_token_index) == ("E2", 1.0, 1)
        assert m == oracle_detect_drug(s, lex)


class TestAgainstEarlierLoop:
    """The one-record winner returns exactly the mention of the earlier three-variable loop."""

    THRESHOLDS = (0.0, 0.72, 0.99, 1.0, math.nextafter(1.0, 2.0))

    @pytest.mark.parametrize("which, seed", [("lexicon", 61), ("big_lexicon", 62)])
    def test_noisy_lines_at_every_threshold(self, request, big_lexicon_path, which, seed):
        lexicon = request.getfixturevalue(which)
        path = str(big_lexicon_path) if which == "big_lexicon" else default_lexicon_path()
        spec = CorpusSpec(n_drug=80, n_posology=10, n_useless=10, seed=seed, lexicon_path=path)
        linked = 0
        for i, row in enumerate(generate(spec)):
            s = sentence_from_text(noisify(row, 0.2, seed * 1_000 + i).text)
            if s is None:
                continue
            for threshold in self.THRESHOLDS:
                got = detect_drug(s, lexicon, threshold)
                assert got == oracle_pruned_detect_drug(s, lexicon, threshold), (s.match_text, threshold)
                linked += got is not None
        assert linked > 100  # the comparison covers real links, not only None

    def test_full_match_on_a_later_trigger_at_threshold_one(self, tmp_path):
        # "doliprana" links A below 1.0, so the line is not settled and the
        # later "spasfon" is still probed, although max(threshold, best
        # score) is already 1.0: only the best score ends the search
        lex = build_lexicon(write_lexicon(tmp_path, [("A", "DOLIPRANE"), ("B", "SPASFON")]))
        s = sentence_from_text("Doliprana Spasfon")
        m = detect_drug(s, lex, 1.0)
        assert (m.drug_id, m.score, m.trigger_token_index, m.surface_text) == ("B", 1.0, 1, "spasfon")
        assert m == oracle_pruned_detect_drug(s, lex, 1.0) == oracle_detect_drug(s, lex, 1.0)


class TestEqualWindowSettles:
    """A line whose window equals a candidate's name links at 1.0 without a similarity call."""

    def test_the_second_of_two_names_sharing_a_first_token(self, tmp_path, similarity_calls):
        # the window scored against "doliprane 1000 mg" is 16/17 alike, above
        # the threshold, so a loop in candidate order would score it first
        lex = build_lexicon(write_lexicon(tmp_path, [("A", "DOLIPRANE 1000 mg"), ("B", "DOLIPRANE 500 mg")]))
        s = sentence_from_text("DOLIPRANE 500 mg")
        m = detect_drug(s, lex)
        assert similarity_calls == []
        assert (m.drug_id, m.score, m.trigger_token_index) == ("B", 1.0, 0)
        assert m == oracle_detect_drug(s, lex)

    def test_the_golden_fixture_links_every_drug_without_a_similarity_call(self, runtime, similarity_calls):
        doc = parse_ocr_document((DATA_DIR / "ocr_fixture_7drugs.json").read_bytes())
        mentions = {line.line_id: line.mention for line in classify_lines(doc, runtime) if line.mention is not None}
        assert similarity_calls == []
        assert [m.score for m in mentions.values()] == [1.0] * 7
        for line in doc.lines:
            if line.line_id in mentions:
                sentence = make_sentence(line, runtime.stopwords)
                assert mentions[line.line_id] == oracle_detect_drug(sentence, runtime.lexicon), line.line_id

    def test_big_lexicon_names_written_exactly(self, big_lexicon, similarity_calls):
        # a clean line on a lexicon of 9,396 names: 54 share each first token
        by_id = {e.drug_id: e for e in big_lexicon.entries}
        for entry in random.Random(40).sample(big_lexicon.entries, 150):
            for text in (entry.name, entry.name + " 1 comprime le soir"):
                s = sentence_from_text(text)
                m = detect_drug(s, big_lexicon)
                assert similarity_calls == [], text
                assert (m.score, by_id[m.drug_id].norm_name) == (1.0, entry.norm_name), text
                assert m == oracle_pruned_detect_drug(s, big_lexicon), text
                similarity_calls.clear()  # the oracle calls the kernel
