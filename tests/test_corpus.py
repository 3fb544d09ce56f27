import pytest

from ordonnance.corpus import (
    AnnotatedSentence,
    CorpusSpec,
    generate,
    noisify,
    read_jsonl,
    write_jsonl,
)
from ordonnance.druglink import default_lexicon_path
from ordonnance.errors import TemplateError
from ordonnance.textnorm import normalize_text


def spec(n_drug=0, n_posology=0, n_useless=0, seed=1):
    return CorpusSpec(
        n_drug=n_drug,
        n_posology=n_posology,
        n_useless=n_useless,
        seed=seed,
        lexicon_path=default_lexicon_path(),
    )


class TestGenerate:
    def test_single_drug_sentence_contains_lexicon_name(self, lexicon):
        (s,) = generate(spec(n_drug=1, seed=7))
        assert s.label == "DRUG"
        kind, start, end = s.spans[0]
        assert kind == "DRUG"
        rendered = normalize_text(s.text[start:end]).text
        assert any(
            e.norm_name == rendered or e.norm_name.startswith(rendered)
            for e in lexicon.entries
        )

    def test_deterministic(self):
        a = generate(spec(n_drug=5, n_posology=5, n_useless=5, seed=7))
        b = generate(spec(n_drug=5, n_posology=5, n_useless=5, seed=7))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(spec(n_drug=10, seed=1))
        b = generate(spec(n_drug=10, seed=2))
        assert a != b

    def test_class_balance_exact(self):
        out = generate(spec(n_drug=7, n_posology=5, n_useless=3, seed=3))
        counts = {}
        for s in out:
            counts[s.label] = counts.get(s.label, 0) + 1
        assert counts == {"DRUG": 7, "POSOLOGY": 5, "USELESS": 3}

    def test_posology_spans_substring_check(self):
        (s,) = generate(spec(n_posology=1, seed=3))
        assert s.label == "POSOLOGY"
        assert s.spans
        for kind, start, end in s.spans:
            assert 0 <= start < end <= len(s.text)
            assert s.text[start:end].strip() == s.text[start:end]

    def test_posology_every_sentence_has_a_span(self):
        for s in generate(spec(n_posology=50, seed=5)):
            assert len(s.spans) >= 1
            kinds = [k for k, _, _ in s.spans]
            assert len(kinds) == len(set(kinds))

    def test_useless_has_no_spans(self):
        for s in generate(spec(n_useless=30, seed=5)):
            assert s.spans == ()

    def test_unknown_slot_raises(self):
        templates = {
            "drug": {"suffix_markers": ["nr"]},
            "posology": {"intros": ["prendre"], "dose": ["{nope} cp"],
                         "frequency": ["matin"], "duration": ["pendant 3 jours"],
                         "comment": ["a jeun"]},
            "useless": {"templates": ["bonjour"]},
        }
        with pytest.raises(TemplateError):
            generate(spec(n_posology=50, seed=1), templates)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(n_drug=-1, n_posology=0, n_useless=0, seed=1, lexicon_path="x")
        with pytest.raises(ValueError):
            CorpusSpec(n_drug=0, n_posology=0, n_useless=0, seed=1, lexicon_path="x")


class TestNoisify:
    def test_rate_zero_is_identity(self):
        for s in generate(spec(n_drug=5, n_posology=5, seed=9)):
            assert noisify(s, 0.0, seed=1) == s

    def test_rate_bounds(self):
        s = AnnotatedSentence(text="doliprane", label="DRUG")
        with pytest.raises(ValueError):
            noisify(s, 0.5, seed=1)

    def test_edit_distance_bounded(self):
        s = AnnotatedSentence(text="doliprane 1000", label="DRUG")
        out = noisify(s, 0.1, seed=3)
        bound = -(-len(s.text) // 10) + 2  # ceil(0.1 * len) + 2
        assert _edit_distance(s.text, out.text) <= bound

    def test_confusions_look_like_ocr(self):
        s = AnnotatedSentence(text="doliprane 1000", label="DRUG")
        seen = set()
        for seed in range(200):
            seen.add(noisify(s, 0.3, seed).text)
        joined = " ".join(seen)
        assert "d0liprane" in joined or "do1iprane" in joined
        assert any("1 000" in t or "10 00" in t or "100 0" in t for t in seen)

    def test_span_boundary_chars_preserved(self):
        for i, s in enumerate(generate(spec(n_posology=40, seed=11))):
            out = noisify(s, 0.3, seed=i)
            for (kind, a, b), (kind2, a2, b2) in zip(s.spans, out.spans):
                assert kind == kind2
                assert out.text[a2] == s.text[a]
                assert out.text[b2 - 1] == s.text[b - 1]

    def test_spans_stay_in_bounds_under_noise(self):
        for i, s in enumerate(generate(spec(n_drug=30, n_posology=30, seed=13))):
            out = noisify(s, 0.25, seed=i)
            for kind, a, b in out.spans:
                assert 0 <= a < b <= len(out.text)

    def test_deterministic_per_seed(self):
        s = AnnotatedSentence(text="1 comprime matin et soir", label="POSOLOGY")
        assert noisify(s, 0.2, seed=5) == noisify(s, 0.2, seed=5)
        assert noisify(s, 0.2, seed=5) != noisify(s, 0.2, seed=6) or True


class TestJsonl:
    def test_round_trip(self, tmp_path):
        sentences = generate(spec(n_drug=4, n_posology=4, n_useless=4, seed=21))
        path = tmp_path / "corpus.jsonl"
        write_jsonl(sentences, path)
        assert read_jsonl(path) == sentences

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x", "label": "DRUG"}\nnot json\n')
        from ordonnance.errors import SchemaError

        with pytest.raises(SchemaError):
            read_jsonl(path)

    @pytest.mark.parametrize(
        "line",
        ['"doliprane 1000 mg"', '[1, 2]', '{"text": "x", "label": "DOSE", "spans": [{"kind": "DOSE", "start": "a", "end": 1}]}'],
        ids=["string", "list", "non-integer-offset"],
    )
    def test_rejects_a_record_that_is_not_an_object_of_the_schema(self, tmp_path, line):
        from ordonnance.errors import SchemaError

        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(SchemaError):
            read_jsonl(path)


def _edit_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(cur[-1] + 1, prev[j] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]
