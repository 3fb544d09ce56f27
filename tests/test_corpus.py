import json
import math

import pytest

from ordonnance import corpus
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

    def test_unknown_slot_raises(self, monkeypatch):
        templates = {
            "drug": {"suffix_markers": ["nr"]},
            "posology": {"intros": ["prendre"], "dose": ["{nope} cp"],
                         "frequency": ["matin"], "duration": ["pendant 3 jours"],
                         "comment": ["a jeun"]},
            "useless": {"templates": ["bonjour"]},
        }
        monkeypatch.setattr(corpus, "default_templates", lambda: templates)
        with pytest.raises(TemplateError):
            generate(spec(n_posology=50, seed=1))

    # a brace never closed, and a slot whose every fill is itself, which the guard stops after 20 fills
    @pytest.mark.parametrize("template, message", [
        ("bonjour {", "unbalanced brace in template 'bonjour {'"),
        ("{templates}", "unresolvable template '{templates}'"),
    ], ids=["unbalanced-brace", "more-than-20-fills"])
    def test_a_template_that_never_resolves_is_named(self, monkeypatch, template, message):
        templates = {**corpus.default_templates(), "useless": {"templates": [template]}}
        monkeypatch.setattr(corpus, "default_templates", lambda: templates)
        with pytest.raises(TemplateError) as info:
            generate(spec(n_useless=1, seed=1))
        assert str(info.value) == message

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(n_drug=-1, n_posology=0, n_useless=0, seed=1, lexicon_path="x")
        with pytest.raises(ValueError):
            CorpusSpec(n_drug=0, n_posology=0, n_useless=0, seed=1, lexicon_path="x")

    # n_drug=True made one sentence, n_drug=2.5 failed inside generate with a
    # TypeError, NaN passed, and seed=None gave a different corpus on each run
    @pytest.mark.parametrize("field", ["n_drug", "n_posology", "n_useless"])
    @pytest.mark.parametrize("value", [-1, True, 2.5, math.nan, "3", None])
    def test_a_count_not_an_int_of_at_least_zero_raises_naming_its_field(self, field, value):
        counts = {"n_drug": 1, "n_posology": 1, "n_useless": 1, field: value}
        with pytest.raises(ValueError, match=field):
            CorpusSpec(**counts, seed=1, lexicon_path="x")

    @pytest.mark.parametrize("seed", [None, 1.5, True, math.nan, "1"])
    def test_seed_not_an_int_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            CorpusSpec(n_drug=1, n_posology=0, n_useless=0, seed=seed, lexicon_path="x")


class TestNoisify:
    def test_rate_zero_is_identity(self):
        for s in generate(spec(n_drug=5, n_posology=5, seed=9)):
            assert noisify(s, 0.0, seed=1) == s

    def test_rate_bounds(self):
        s = AnnotatedSentence(text="doliprane", label="DRUG")
        with pytest.raises(ValueError):
            noisify(s, 0.5, seed=1)

    @pytest.mark.parametrize("rate", [-0.1, 0.31, True, False, math.nan, math.inf, "0.1", None])
    def test_rate_not_a_number_in_range_raises(self, rate):
        s = AnnotatedSentence(text="doliprane", label="DRUG")
        with pytest.raises(ValueError, match="rate"):
            noisify(s, rate, seed=1)

    @pytest.mark.parametrize("seed", [None, 1.5, 1.0, True, math.nan, "1"])
    def test_seed_not_an_int_raises(self, seed):
        # seed None drew from the system: 20 calls gave 20 different texts
        s = AnnotatedSentence(text="doliprane 1000 mg, comprime secable", label="DRUG")
        with pytest.raises(ValueError, match="seed must be an int"):
            noisify(s, 0.3, seed)

    def test_rate_edges_and_int_rate_are_accepted(self):
        s = AnnotatedSentence(text="doliprane 1000", label="DRUG")
        assert noisify(s, 0, seed=1) == noisify(s, 0.0, seed=1) == s
        assert noisify(s, 0.3, seed=1).label == "DRUG"  # the upper edge is in range

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
        "record",
        [
            "doliprane 1000 mg",
            [1, 2],
            {"text": "x", "label": "DOSE", "spans": [{"kind": "DOSE", "start": "a", "end": 1}]},
            {"text": 5, "label": "DRUG"},
            {"text": "x"},
            {"text": "x", "label": 1},
            {"text": "x", "label": "DRUG", "spans": {"kind": "DRUG", "start": 0, "end": 1}},
            {"text": "x", "label": "DRUG", "spans": [["DRUG", 0, 1]]},
            {"text": "doliprane", "label": "DRUG", "spans": [{"kind": "DRUG", "start": 0.9, "end": 9}]},
            {"text": "doliprane", "label": "DRUG", "spans": [{"kind": "DRUG", "start": "0", "end": "9"}]},
            {"text": "doliprane", "label": "DRUG", "spans": [{"kind": "DRUG", "start": False, "end": True}]},
            {"text": "doliprane", "label": "DRUG", "spans": [{"kind": 1, "start": 0, "end": 9}]},
            {"text": "doliprane", "label": "DRUG", "spans": [{"kind": "DRUG", "start": -1, "end": 9}]},
            {"text": "doliprane", "label": "DRUG", "spans": [{"kind": "DRUG", "start": 4, "end": 4}]},
            {"text": "doliprane", "label": "DRUG", "spans": [{"kind": "DRUG", "start": 0, "end": 10}]},
        ],
        ids=["string", "list", "non-integer-offset", "numeric-text", "no-label", "numeric-label", "spans-an-object",
             "span-a-list", "float-offset", "string-offsets", "bool-offsets", "numeric-kind", "negative-start",
             "empty-span", "end-beyond-text"],
    )
    def test_rejects_a_record_that_is_not_an_object_of_the_schema(self, tmp_path, record):
        from ordonnance.errors import SchemaError

        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x", "label": "DRUG"}\n' + json.dumps(record) + "\n")
        with pytest.raises(SchemaError, match=r"bad\.jsonl:2: "):
            read_jsonl(path)

    @pytest.mark.parametrize("surrogate", ["\\ud800", "\\udfff"])
    def test_rejects_a_text_holding_a_lone_surrogate(self, tmp_path, surrogate):
        # JSON decodes the escape to a string that no UTF-8 encodes; the featurizer would fail on it later
        from ordonnance.errors import SchemaError

        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x", "label": "DRUG"}\n{"text": "doliprane ' + surrogate + ' 1 g", "label": "DRUG"}\n')
        with pytest.raises(SchemaError, match=r"bad\.jsonl:2: text: holds a lone surrogate '\\ud[8f]"):
            read_jsonl(path)

    def test_a_surrogate_pair_escape_is_one_character_of_text(self, tmp_path):
        path = tmp_path / "pair.jsonl"
        path.write_text('{"text": "sol \\ud834\\udd1e", "label": "USELESS"}\n')
        (record,) = read_jsonl(path)
        assert record.text == "sol \U0001d11e"


def _edit_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(cur[-1] + 1, prev[j] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]
