import json
import math

import numpy as np
import pytest

from ordonnance.classify import (
    CLASS_LABELS,
    ClassifierModel,
    FeatureConfig,
    TrainConfig,
    featurize,
    load_model,
    predict,
    save_model,
    train,
)
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


class TestFeaturize:
    def test_empty_text_is_zero_vector(self):
        assert featurize("", FeatureConfig()) == {}

    def test_deterministic(self):
        cfg = FeatureConfig()
        assert featurize("doliprane 1000 mg", cfg) == featurize("doliprane 1000 mg", cfg)

    def test_shared_ngrams_between_variants(self):
        cfg = FeatureConfig()
        a = featurize("doliprane 1000 mg", cfg)
        b = featurize("doliprane 500 mg", cfg)
        assert set(a) & set(b)  # all the name n-grams coincide

    def test_l2_normalized(self):
        vec = featurize("1 cp matin et soir", FeatureConfig())
        assert math.isqrt(1) and abs(sum(v * v for v in vec.values()) - 1.0) < 1e-9


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

    def test_version_mismatch(self, model):
        stale = ClassifierModel(
            config=model.config,
            labels=model.labels,
            weights=model.weights,
            bias=model.bias,
            version="fh0",
        )
        with pytest.raises(VersionMismatch):
            predict(stale, sent("doliprane 1000 mg"))


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


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        model = train(toy_corpus(), TOY_CONFIG)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
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

    # Each header comes with as many weights as the old loader's size check
    # asked for, so only the header's own check can reject it.
    @pytest.mark.parametrize(
        "header, n_weights",
        [
            (["ordonnance-classifier"], 0),
            ({"magic": "ordonnance-classifier", "hash_dim": 16, "ngram_min": 3, "ngram_max": 5, "version": "fh1"}, 0),
            ({"magic": "ordonnance-classifier", "labels": "DRUG", "hash_dim": 16, "ngram_min": 3,
              "ngram_max": 5, "version": "fh1"}, 4 * 16 + 4),
            ({"magic": "ordonnance-classifier", "labels": ["DRUG"], "hash_dim": "16", "ngram_min": 3,
              "ngram_max": 5, "version": "fh1"}, 16 + 1),
            ({"magic": "ordonnance-classifier", "labels": ["DRUG"], "hash_dim": 0, "ngram_min": 3,
              "ngram_max": 5, "version": "fh1"}, 1),
        ],
        ids=["not-an-object", "no-labels", "labels-not-a-list", "hash-dim-a-string", "hash-dim-zero"],
    )
    def test_bad_header_is_a_schema_error(self, tmp_path, header, n_weights):
        path = tmp_path / "model.bin"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + bytes(8 * n_weights))
        with pytest.raises(SchemaError):
            load_model(path)
