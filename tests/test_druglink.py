import random

import pytest

from ordonnance.druglink import (
    DrugLexicon,
    LexiconEntry,
    build_lexicon,
    default_lexicon,
    detect_drug,
    mention_token_window,
    split_combined_line,
    starts_with_equivalence_marker,
)
from ordonnance.errors import DuplicateId, EmptyLexicon, FileError
from ordonnance.kernels import similarity
from ordonnance.posology import extract_posology
from ordonnance.textnorm import sentence_from_text

from test_kernels import oracle_similarity


def write_lexicon(tmp_path, rows, name="lex.csv"):
    path = tmp_path / name
    lines = ["id,name"]
    for rid, rname in rows:
        rname = '"' + rname.replace('"', '""') + '"' if "," in rname else rname
        lines.append(f"{rid},{rname}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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
        assert lex.entries[0].norm_tokens == ("doliprane", "1000", "mg", ",", "comprime")

    def test_empty_lexicon(self, tmp_path):
        with pytest.raises(EmptyLexicon):
            build_lexicon(write_lexicon(tmp_path, []))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileError):
            build_lexicon(tmp_path / "absent.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("drug,title\nA,B\n")
        with pytest.raises(FileError):
            build_lexicon(path)

    def test_first_token_index_groups_names(self, tmp_path):
        rows = [("A1", "DOLIPRANE 500"), ("B1", "SPASFON 80"), ("A2", "DOLIPRANE 1000")]
        lex = build_lexicon(write_lexicon(tmp_path, rows))
        # entry positions per first token, in file order
        assert lex.first_token_index == {"doliprane": (0, 2), "spasfon": (1,)}
        assert [lex.entries[i].drug_id for i in lex.first_token_index["doliprane"]] == ["A1", "A2"]


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
        # both candidates share the matched prefix; surface extends past the
        # short name so both windows score below 1 but identically
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
        # and a posology suffix after the name is split off whole.
        lexicon = default_lexicon()
        suffix = " 1 comprime le soir"
        for entry in lexicon.entries:
            m = detect_drug(sentence_from_text(entry.name), lexicon)
            assert m is not None, entry.name
            assert (m.drug_id, m.score) == (entry.drug_id, 1.0), entry.name
            combined = sentence_from_text(entry.name + suffix)
            m = detect_drug(combined, lexicon)
            assert m is not None and m.drug_id == entry.drug_id, entry.name
            assert split_combined_line(combined, m).match_text == suffix.strip(), entry.name

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
        s = sentence_from_text("doliprane 1000 mg 1 cp matin")
        m = detect_drug(s, lex)
        remainder = split_combined_line(s, m)
        assert remainder.match_text == "1 cp matin"
        assert remainder.line_id == s.line_id
        assert remainder.tokens[0].start == 0

    def test_whole_sentence_name_gives_empty_remainder(self, lex):
        s = sentence_from_text("doliprane 1000 mg")
        m = detect_drug(s, lex)
        remainder = split_combined_line(s, m)
        assert remainder.match_text == ""
        assert remainder.tokens == ()

    def test_remainder_feeds_posology(self, lex, patterns):
        s = sentence_from_text("doliprane 1000 mg 1 cp matin")
        m = detect_drug(s, lex)
        ext = extract_posology(split_combined_line(s, m), patterns)
        assert {(e.kind, e.text) for e in ext.entities} == {("DOSE", "1 cp"), ("FREQUENCY", "matin")}

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
