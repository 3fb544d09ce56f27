import json
import math
import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordonnance.classify import (
    CLASS_LABELS,
    LR_DECAY,
    ClassifierModel,
    FeatureConfig,
    LineBatch,
    SentenceClass,
    TrainConfig,
    featurize,
    load_model,
    predict,
    save_model,
    train,
)
from ordonnance.corpus import CorpusSpec, generate, noisify
from ordonnance.druglink import default_lexicon_path
from ordonnance.errors import DegenerateCorpus, SchemaError, VersionMismatch
from ordonnance.textnorm import sentence_from_text


def sent(text):
    return sentence_from_text(text)


def toy_corpus():
    drugs = ["doliprane 1000 mg", "efferalgan 500 mg", "kardegic 75 mg", "tahor 20 mg",
             "smecta 3 g", "spasfon 80 mg", "mopral 20 mg", "forlax 10 g",
             "plavix 75 mg", "lasilix 40 mg"]
    posos = ["1 cp matin et soir", "2 gelules le matin", "1 sachet au coucher",
             "3 fois par jour", "pendant 10 jours", "1 cp si douleur",
             "2 cp a jeun", "1 gelule au moment des repas",
             "20 gouttes matin midi et soir", "1 cp par jour"]
    useless = ["docteur jean dupont", "12 rue de la paix paris", "signature du medecin",
               "tel 01 42 36 57 88", "madame durand", "cabinet medical", "page 1/2",
               "le 12/04/2021", "cardiologue", "ordonnance"]
    corpus = []
    for t in drugs:
        corpus.append((sent(t), "DRUG"))
    for t in posos:
        corpus.append((sent(t), "POSOLOGY"))
    for t in useless:
        corpus.append((sent(t), "USELESS"))
    return corpus


TOY_CONFIG = TrainConfig(epochs=300, features=FeatureConfig(hash_dim=2**14), holdout_fraction=0.0)


def oracle_featurize(text, config):
    """featurize as specified: each feature string built, encoded and hashed whole."""
    counts = {}
    for n in range(3, 6):  # character 3- to 5-grams
        for i in range(len(text) - n + 1):
            idx = zlib.crc32(f"c{n}|{text[i : i + n]}".encode("utf-8")) % config.hash_dim
            counts[idx] = counts.get(idx, 0.0) + 1.0
    for word in text.split():
        idx = zlib.crc32(f"w|{word}".encode("utf-8")) % config.hash_dim
        counts[idx] = counts.get(idx, 0.0) + 1.0
    norm = sum(v * v for v in counts.values()) ** 0.5
    return {k: v / norm for k, v in counts.items()} if norm > 0 else counts


def oracle_predict(model, text):
    """predict on the dense (labels, hash_dim) weights, one column at a time."""
    dense = np.zeros((len(model.labels), model.config.hash_dim))
    dense[:, model.ids] = model.weights.T
    logits = model.bias.copy()
    for k, v in oracle_featurize(text, model.config).items():
        logits += dense[:, k] * v
    exp = np.exp(logits - logits.max())
    probs = exp / exp.sum()
    return SentenceClass(model.labels[int(np.argmax(probs))], dict(zip(model.labels, probs.tolist())))


def softmax(logits):
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


def oracle_train(corpus, config):
    """train spelled out: (ids, weights, bias), every sparse sum a Python loop.

    Each logit and each gradient entry starts at 0.0 and adds its terms in
    row order, each row's keys ascending. Only the softmax and the bias step
    are numpy, written as train writes them.
    """
    order = list(range(len(corpus)))
    random.Random(config.seed).shuffle(order)
    train_idx = order[: len(order) - int(len(corpus) * config.holdout_fraction)]
    rows = [sorted(oracle_featurize(corpus[i][0].feature_text, config.features).items()) for i in train_idx]
    y = np.array([[float(corpus[i][1] == label) for label in CLASS_LABELS] for i in train_idx])
    n = len(rows)
    weights = {key: [0.0] * len(CLASS_LABELS) for row in rows for key, _ in row}
    bias = np.zeros(len(CLASS_LABELS))
    for epoch in range(config.epochs):
        lr = config.learning_rate / (1.0 + LR_DECAY * epoch)
        logits = []
        for row in rows:
            sums = [0.0] * len(CLASS_LABELS)
            for key, value in row:
                for k in range(len(CLASS_LABELS)):
                    sums[k] += value * weights[key][k]
            logits.append(sums)
        logits = np.array(logits) + bias
        exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        grad = (exp / exp.sum(axis=-1, keepdims=True) - y) / n
        sums = {key: [0.0] * len(CLASS_LABELS) for key in weights}
        for i, row in enumerate(rows):
            for key, value in row:
                for k in range(len(CLASS_LABELS)):
                    sums[key][k] += value * float(grad[i, k])
        for key, column in sums.items():
            for k in range(len(CLASS_LABELS)):
                weights[key][k] -= lr * column[k]
        bias -= lr * grad.sum(axis=0)
    ids = sorted(weights)
    return np.array(ids, dtype=np.int64), np.array([weights[key] for key in ids]), bias


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def noisy_sentences(stopwords):
    spec = CorpusSpec(n_drug=67, n_posology=67, n_useless=66, seed=5, lexicon_path=default_lexicon_path())
    rows = [noisify(row, 0.1, 5_000 + i) for i, row in enumerate(generate(spec))]
    return [s for row in rows if (s := sentence_from_text(row.text, stopwords)) is not None]


def split_lines(n_lines, line, ids, values):
    """The batch arrays cut into one (ids, values) list pair per line, after checking their order."""
    assert line.dtype == ids.dtype == np.int64 and values.dtype == np.float64
    assert len(line) == len(ids) == len(values)
    keys = line.tolist()
    assert keys == sorted(keys) and all(0 <= k < n_lines for k in keys)
    out = []
    for k in range(n_lines):
        mine = line == k
        row_ids = ids[mine].tolist()
        assert all(a < b for a, b in zip(row_ids, row_ids[1:]))  # strictly increasing
        out.append((row_ids, values[mine].tolist()))
    return out


def assert_equals_oracle(texts, config):
    """Per line, the batch holds the oracle's features with their keys sorted, values bit for bit."""
    got = split_lines(len(texts), *featurize(texts, config))
    for text, (ids, values) in zip(texts, got):
        want = sorted(oracle_featurize(text, config).items())
        assert ids == [k for k, _ in want], text
        assert values == [v for _, v in want], text


# Lines of every kind in one batch: empty, shorter than an n-gram, with a
# newline inside, non-ASCII after accent stripping, and ASCII around them.
MIXED = ["", "zq", "1 cp matin et soir", "œdème 5 µg/kg à 37°", "a", "ab\ncd ef", "\n", "doliprane 1000 mg",
         "è", "x y", "abc\n", "pendant 10 jours"]
CONFIGS = [FeatureConfig(), FeatureConfig(hash_dim=97)]


class TestFeaturize:
    def test_empty_text_is_zero_vector(self):
        line, ids, values = featurize([""], FeatureConfig())
        assert len(line) == len(ids) == len(values) == 0
        assert all(len(a) == 0 for a in featurize([], FeatureConfig()))

    def test_deterministic(self):
        cfg = FeatureConfig()
        a = featurize(["doliprane 1000 mg", "1 cp"], cfg)
        b = featurize(["doliprane 1000 mg", "1 cp"], cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_shared_ngrams_between_variants(self):
        (a, _), (b, _) = split_lines(2, *featurize(["doliprane 1000 mg", "doliprane 500 mg"], FeatureConfig()))
        assert set(a) & set(b)  # all the name n-grams coincide

    def test_l2_normalized(self):
        _, _, values = featurize(["1 cp matin et soir"], FeatureConfig())
        assert abs(float(values @ values) - 1.0) < 1e-9

    def test_equals_the_spelled_out_hash_with_keys_sorted(self, noisy_sentences):
        cfg = FeatureConfig()
        texts = [s.feature_text for s in noisy_sentences]
        assert len(texts) == 200
        assert_equals_oracle(texts, cfg)
        # a Sentence is hashed by its feature_text
        assert all(np.array_equal(x, y) for x, y in zip(featurize(noisy_sentences, cfg), featurize(texts, cfg)))

    @pytest.mark.parametrize("config", CONFIGS)
    def test_non_ascii_text_hashes_its_utf8_bytes(self, config):
        text = sent("œdème 5 µg/kg à 37°").feature_text
        assert not text.isascii()  # accent stripping keeps œ, µ and °
        assert_equals_oracle([text], config)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_mixed_batch_hashes_each_line_on_its_own(self, config):
        assert_equals_oracle(MIXED, config)
        for text in MIXED:
            assert_equals_oracle([text], config)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_no_window_crosses_a_line_boundary(self, config):
        # Joined, "ab" + "cd" would give the gram "abc"; apart neither line has one.
        (ids_ab, _), (ids_cd, _) = split_lines(2, *featurize(["ab", "cd"], config))
        alone = [featurize([t], config)[1].tolist() for t in ("ab", "cd")]
        assert [ids_ab, ids_cd] == alone

    def test_a_lone_line_equals_its_row_in_a_batch(self, noisy_sentences):
        cfg = FeatureConfig()
        batch = split_lines(len(noisy_sentences), *featurize(noisy_sentences, cfg))
        for sentence, (ids, values) in zip(noisy_sentences, batch):
            line, alone_ids, alone_values = featurize([sentence], cfg)
            assert not line.any()
            assert alone_ids.tolist() == ids and alone_values.tolist() == values

    def test_norm_is_the_python_float_power_not_sqrt(self):
        text = "abcd" * 166
        counts = {}
        for n in range(3, 6):
            for i in range(len(text) - n + 1):
                counts[text[i : i + n]] = counts.get(text[i : i + n], 0) + 1
        counts[text] = 1  # the one word
        sum_sq = sum(c * c for c in counts.values())
        assert sum_sq == 327_694 and math.sqrt(sum_sq) != sum_sq**0.5
        assert_equals_oracle([text], FeatureConfig())
        assert_equals_oracle([text, "1 cp"], FeatureConfig())


class TestTrain:
    def test_separable_toy_corpus_reaches_full_accuracy(self):
        corpus = toy_corpus()
        model = train(corpus, TOY_CONFIG)
        correct = sum(1 for s, label in corpus if predict(model, s).label == label)
        assert correct == len(corpus)

    def test_missing_class_raises(self):
        corpus = [(sent("doliprane 1000 mg"), "DRUG")] * 5
        with pytest.raises(DegenerateCorpus):
            train(corpus, TOY_CONFIG)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_fewer_than_one_epoch_raises(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=epochs)

    @pytest.mark.parametrize("learning_rate", [0.0, -5.0, math.nan, math.inf])
    def test_learning_rate_not_finite_and_positive_raises(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize("holdout_fraction", [-0.5, 1.0, 1.5, math.nan])
    def test_holdout_fraction_outside_zero_to_one_raises(self, holdout_fraction):
        with pytest.raises(ValueError, match="holdout_fraction"):
            TrainConfig(holdout_fraction=holdout_fraction)

    def test_stores_exactly_the_columns_its_features_touch(self):
        corpus = toy_corpus()
        model = train(corpus, TOY_CONFIG)
        touched = np.unique(featurize([s for s, _ in corpus], TOY_CONFIG.features)[1]).tolist()
        assert model.ids.dtype == np.int64 and model.ids.tolist() == touched
        assert model.weights.shape == (len(touched), len(CLASS_LABELS))

    def test_equals_the_spelled_out_descent_bit_for_bit(self, stopwords):
        spec = CorpusSpec(n_drug=20, n_posology=20, n_useless=20, seed=3, lexicon_path=default_lexicon_path())
        rows = [noisify(row, 0.1, 7_000 + i) for i, row in enumerate(generate(spec))]
        corpus = [(s, row.label) for row in rows if (s := sentence_from_text(row.text, stopwords)) is not None]
        assert len(corpus) == 60
        config = TrainConfig(epochs=4, features=FeatureConfig(hash_dim=2**10))
        model = train(corpus, config)
        ids, weights, bias = oracle_train(corpus, config)
        assert np.array_equal(model.ids, ids)
        assert np.array_equal(bits(model.weights), bits(weights))
        assert np.array_equal(bits(model.bias), bits(bias))
        assert np.any(weights != 0) and np.any(bias != 0)

    def test_empty_corpus_raises(self):
        with pytest.raises(DegenerateCorpus):
            train([], TOY_CONFIG)

    def test_unknown_label_raises(self):
        corpus = toy_corpus() + [(sent("x y"), "OTHER")]
        with pytest.raises(DegenerateCorpus):
            train(corpus, TOY_CONFIG)

    def test_deterministic_given_seed(self):
        a = train(toy_corpus(), TOY_CONFIG)
        b = train(toy_corpus(), TOY_CONFIG)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_label_permutation_symmetry(self):
        corpus = toy_corpus()
        perm = {"DRUG": "POSOLOGY", "POSOLOGY": "USELESS", "USELESS": "DRUG"}
        renamed = [(s, perm[label]) for s, label in corpus]
        m1 = train(corpus, TOY_CONFIG)
        m2 = train(renamed, TOY_CONFIG)
        for s, _ in corpus[:10]:
            assert perm[predict(m1, s).label] == predict(m2, s).label


class TestPredict:
    @pytest.fixture(scope="class")
    def model(self):
        return train(toy_corpus(), TOY_CONFIG)

    def test_scores_form_probability_simplex(self, model):
        for text in ["doliprane 1000 mg", "zzz qqq", ""]:
            s = sent(text) or sent("aa bb")
            p = predict(model, s)
            assert abs(sum(p.scores.values()) - 1.0) < 1e-6
            assert all(v >= 0 for v in p.scores.values())
            assert max(p.scores, key=p.scores.get) == p.label

    def test_no_known_feature_gives_the_softmax_of_the_bias(self, model):
        text = "zq"  # shorter than an n-gram: its only feature is the word
        (key,) = featurize([text], model.config)[1].tolist()
        assert key not in model.ids
        assert predict(model, text).scores == dict(zip(model.labels, softmax(model.bias).tolist()))

    def test_model_without_columns_gives_the_softmax_of_the_bias(self, model, tmp_path):
        empty = ClassifierModel(
            config=model.config,
            labels=model.labels,
            ids=np.empty(0, dtype=np.int64),
            weights=np.empty((0, len(model.labels))),
            bias=np.array([0.5, -1.0, 0.25]),
        )
        save_model(empty, tmp_path / "model.bin")
        loaded = load_model(tmp_path / "model.bin")
        assert loaded.ids.shape == (0,) and loaded.weights.shape == (0, 3)
        expected = dict(zip(model.labels, softmax(empty.bias).tolist()))
        for text in ["doliprane 1000 mg", ""]:
            assert predict(loaded, text).scores == expected


class TestTrainedPredictions:
    """Desk-scale model routes the three sentence families correctly."""

    def test_drug_line(self, trained_model):
        assert predict(trained_model, sent("doliprane 1000 mg comprime")).label == "DRUG"

    def test_posology_line(self, trained_model, stopwords):
        s = sentence_from_text("1 cp matin et soir pendant 5 jours", stopwords)
        assert predict(trained_model, s).label == "POSOLOGY"

    def test_useless_line(self, trained_model, stopwords):
        s = sentence_from_text("docteur jean dupont cardiologue", stopwords)
        assert predict(trained_model, s).label == "USELESS"

    def test_desk_scale_holdout_accuracy(self, trained_model):
        assert trained_model.holdout_accuracy is not None
        assert trained_model.holdout_accuracy >= 0.93

    def test_document_features_give_the_same_scores_bit_for_bit(self, trained_model, noisy_sentences):
        batch = LineBatch(noisy_sentences)
        for s in noisy_sentences:
            assert predict(trained_model, s, batch) == predict(trained_model, s)

    @given(st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_a_line_scores_the_same_in_any_batch(self, trained_model, noisy_sentences, data):
        # unique indices in drawn order: any subset, in any permutation
        picked = data.draw(st.lists(st.integers(0, len(noisy_sentences) - 1), min_size=1, max_size=40, unique=True))
        lines = [noisy_sentences[i] for i in picked]
        batch = LineBatch(lines)
        for s in reversed(lines):  # the first call on the batch scores it, whichever line asks
            assert predict(trained_model, s, batch) == predict(trained_model, s)

    def test_gathered_dot_product_matches_the_dense_oracle(self, trained_model, noisy_sentences):
        for s in noisy_sentences:
            got, want = predict(trained_model, s), oracle_predict(trained_model, s.feature_text)
            assert got.label == want.label
            assert got.scores == pytest.approx(want.scores, rel=0, abs=1e-12)


# A valid header with two columns, for the bad-file table.
_HEADER = {"magic": "ordonnance-classifier-2", "labels": list(CLASS_LABELS), "hash_dim": 16, "ngram_min": 3,
           "ngram_max": 5, "version": "fh1", "n_cols": 2}


def _header(drop=(), **changes) -> dict:
    header = {**_HEADER, **changes}
    for name in drop:
        del header[name]
    return header


def _model_file(header, ids, floats) -> bytes:
    """A model file: the header line, the ids, then ``floats`` zeros or the listed floats."""
    ids = np.asarray(ids, dtype="<i8").tobytes()
    payload = bytes(8 * floats) if isinstance(floats, int) else np.asarray(floats, dtype="<f8").tobytes()
    return json.dumps(header).encode("utf-8") + b"\n" + ids + payload


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        model = train(toy_corpus(), TOY_CONFIG)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.ids.dtype == np.int64 and np.array_equal(loaded.ids, model.ids)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.labels == model.labels
        assert loaded.config == model.config
        save_model(loaded, tmp_path / "model2.bin")
        assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "model2.bin").read_bytes()

    def test_retrain_same_seed_identical_file(self, tmp_path):
        for name in ("a.bin", "b.bin"):
            save_model(train(toy_corpus(), TOY_CONFIG), tmp_path / name)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_predictions_survive_round_trip(self, tmp_path):
        model = train(toy_corpus(), TOY_CONFIG)
        save_model(model, tmp_path / "model.bin")
        loaded = load_model(tmp_path / "model.bin")
        for s, _ in toy_corpus():
            assert predict(model, s) == predict(loaded, s)

    def test_stale_feature_version_is_refused_at_load(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(_model_file(_header(version="fh0"), [3, 7], 2 * 3 + 3))
        with pytest.raises(VersionMismatch, match="'fh0' != runtime 'fh1'"):
            load_model(path)

    def test_minimal_file_loads(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(_model_file(_HEADER, [3, 7], 2 * 3 + 3))
        model = load_model(path)
        assert model.ids.tolist() == [3, 7] and model.weights.shape == (2, 3) and model.bias.shape == (3,)

    # Each row breaks one thing in _HEADER or its payload (the n_cols ids, then
    # n_floats zeros, or the listed floats, for the weight block and bias) and
    # names the check that must reject it. Wherever it can, the rest is sized
    # and valued so that every other check passes.
    @pytest.mark.parametrize(
        "header, ids, n_floats, message",
        [
            (["ordonnance-classifier-2"], [3, 7], 9, "not a classifier model file"),
            (_header(drop=["labels"]), [3, 7], 9, "'labels' is missing"),
            (_header(labels="DRUG"), [3, 7], 2 * 4 + 4, "'labels' is missing or not a list"),
            (_header(labels=[]), [3, 7], 0, r"model labels must be \['DRUG', 'POSOLOGY', 'USELESS'\], got \[\]"),
            (_header(labels=["A", "B", "C"]), [3, 7], 9, "model labels must be"),
            (_header(labels=["DRUG", "DRUG", "USELESS"]), [3, 7], 9, "model labels must be"),
            (_header(hash_dim="16"), [3, 7], 9, "'hash_dim' is missing or not a int"),
            (_header(hash_dim=0, n_cols=0), [], 3, "hash_dim >= 1"),
            (_header(drop=["n_cols"]), [3, 7], 9, "'n_cols' is missing"),
            (_header(n_cols=-1), [], 0, "n_cols >= 0"),
            (_header(ngram_min=0), [3, 7], 9, r"needs ngram_min, ngram_max 3, 5, got \(0, 5\)"),
            (_header(ngram_min=6), [3, 7], 9, r"needs ngram_min, ngram_max 3, 5, got \(6, 5\)"),
            (_HEADER, [3, 7], 8, "payload has 80 bytes, expected 88"),
            (_HEADER, [7, 3], 9, "strictly increasing"),
            (_HEADER, [3, 3], 9, "strictly increasing"),
            (_HEADER, [-1, 3], 9, "strictly increasing"),
            (_HEADER, [3, 16], 9, "strictly increasing"),
            (_header(drop=["n_cols"], magic="ordonnance-classifier"), [], 3 * 16 + 3, "dense model file"),
            (_HEADER, [3, 7], [0.0] * 4 + [math.nan] + [0.0] * 4, "weights and bias must be finite"),
            (_HEADER, [3, 7], [0.0] * 8 + [-math.inf], "weights and bias must be finite"),
        ],
        ids=["not-an-object", "no-labels", "labels-not-a-list", "labels-empty", "labels-unknown",
             "labels-repeated", "hash-dim-a-string", "hash-dim-zero", "no-n-cols", "n-cols-negative", "ngram-min-zero",
             "ngram-min-above-max",
             "payload-one-float-short", "ids-decreasing", "ids-repeated", "id-negative", "id-at-hash-dim",
             "earlier-dense-format", "weight-nan", "bias-infinite"],
    )
    def test_bad_header_is_a_schema_error(self, tmp_path, header, ids, n_floats, message):
        path = tmp_path / "model.bin"
        path.write_bytes(_model_file(header, ids, n_floats))
        with pytest.raises(SchemaError, match=message):
            load_model(path)
