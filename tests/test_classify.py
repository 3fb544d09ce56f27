import dataclasses
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordonnance import classify
from ordonnance.classify import (
    CLASS_LABELS,
    FEATURE_VERSION,
    HASH_DIM,
    LEARNING_RATE,
    LR_DECAY,
    ClassifierModel,
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

from conftest import avx512_dispatch_names


def sent(text):
    return sentence_from_text(text)


def alone(model, sentence):
    """predict on a batch of the one sentence, as the pipeline scores bare text."""
    return predict(model, sentence, LineBatch([sentence]))


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


TOY_CONFIG = TrainConfig(epochs=300, holdout_fraction=0.0)


def oracle_featurize(text):
    """featurize as specified: each feature string built and hashed whole.

    An n-gram is a window of n bytes of the UTF-8 text, so a multi-byte
    character lies in several windows, some of them holding only part of it.
    """
    data = text.encode("utf-8")
    counts = {}
    for n in range(3, 6):  # 3- to 5-byte windows
        for i in range(len(data) - n + 1):
            idx = zlib.crc32(f"c{n}|".encode("utf-8") + data[i : i + n]) % HASH_DIM
            counts[idx] = counts.get(idx, 0.0) + 1.0
    for word in text.split():
        idx = zlib.crc32(f"w|{word}".encode("utf-8")) % HASH_DIM
        counts[idx] = counts.get(idx, 0.0) + 1.0
    norm = sum(v * v for v in counts.values()) ** 0.5
    return {k: v / norm for k, v in counts.items()} if norm > 0 else counts


def oracle_predict(model, text):
    """predict on the dense (labels, HASH_DIM) weights, one column at a time."""
    dense = np.zeros((len(CLASS_LABELS), HASH_DIM))
    dense[:, model.ids] = model.weights.T
    logits = model.bias.copy()
    for k, v in oracle_featurize(text).items():
        logits += dense[:, k] * v
    exp = np.exp(logits - logits.max())
    probs = exp / exp.sum()
    return SentenceClass(CLASS_LABELS[int(np.argmax(probs))], dict(zip(CLASS_LABELS, probs.tolist())))


def softmax(logits):
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


def oracle_train(corpus, config):
    """train spelled out: (ids, weights, bias), every sparse sum a Python loop.

    Each logit and each gradient entry starts at 0.0 and adds its terms in
    row order, each row's keys ascending. Only the softmax and the bias step
    are numpy, written as train writes them, except that each exp of the
    softmax is a ``math.exp`` call, as in train.
    """
    order = list(range(len(corpus)))
    random.Random(config.seed).shuffle(order)
    train_idx = order[: len(order) - int(len(corpus) * config.holdout_fraction)]
    rows = [sorted(oracle_featurize(corpus[i][0].feature_text).items()) for i in train_idx]
    y = np.array([[float(corpus[i][1] == label) for label in CLASS_LABELS] for i in train_idx])
    n = len(rows)
    weights = {key: [0.0] * len(CLASS_LABELS) for row in rows for key, _ in row}
    bias = np.zeros(len(CLASS_LABELS))
    for epoch in range(config.epochs):
        lr = LEARNING_RATE / (1.0 + LR_DECAY * epoch)
        logits = []
        for row in rows:
            sums = [0.0] * len(CLASS_LABELS)
            for key, value in row:
                for k in range(len(CLASS_LABELS)):
                    sums[k] += value * weights[key][k]
            logits.append(sums)
        logits = np.array(logits) + bias
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.array([[math.exp(v) for v in row] for row in shifted.tolist()])
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
    """The batch arrays cut into one (ids, values) list pair per line, after checking their order.

    The entries come sorted by id, then by line: ids ascending, and within
    one id the lines strictly ascending.
    """
    assert line.dtype == ids.dtype == np.int64 and values.dtype == np.float64
    assert len(line) == len(ids) == len(values)
    keys = list(zip(ids.tolist(), line.tolist()))
    assert all(a < b for a, b in zip(keys, keys[1:])) and all(0 <= k < n_lines for _, k in keys)
    out = []
    for k in range(n_lines):
        mine = line == k
        row_ids = ids[mine].tolist()
        assert all(a < b for a, b in zip(row_ids, row_ids[1:]))  # strictly increasing
        out.append((row_ids, values[mine].tolist()))
    return out


def assert_equals_oracle(texts):
    """Per line, the batch holds the oracle's features with their keys sorted, values bit for bit."""
    got = split_lines(len(texts), *featurize(texts))
    for text, (ids, values) in zip(texts, got):
        want = sorted(oracle_featurize(text).items())
        assert ids == [k for k, _ in want], text
        assert values == [v for _, v in want], text


# Lines of every kind in one batch: empty, shorter than an n-gram, with a
# newline inside, non-ASCII after accent stripping, a 2-, 3- and 4-byte
# character (µ, €, 𝄞) at the start or the end of a line, so that a line's
# windows must end at its last byte, and ASCII around them.
MIXED = ["", "zq", "1 cp matin et soir", "œdème 5 µg/kg à 37°", "a", "ab\ncd ef", "\n", "doliprane 1000 mg",
         "è", "x y", "abc\n", "pendant 10 jours", "µg 5", "5 µ", "€ 12", "12 €", "𝄞 do", "sol 𝄞", "µ", "€", "𝄞",
         "𝄞𝄞"]


class TestFeaturize:
    def test_empty_text_is_zero_vector(self):
        line, ids, values = featurize([""])
        assert len(line) == len(ids) == len(values) == 0
        assert all(len(a) == 0 for a in featurize([]))

    def test_deterministic(self):
        a = featurize(["doliprane 1000 mg", "1 cp"])
        b = featurize(["doliprane 1000 mg", "1 cp"])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_shared_ngrams_between_variants(self):
        (a, _), (b, _) = split_lines(2, *featurize(["doliprane 1000 mg", "doliprane 500 mg"]))
        assert set(a) & set(b)  # all the name n-grams coincide

    def test_l2_normalized(self):
        _, _, values = featurize(["1 cp matin et soir"])
        assert abs(float(values @ values) - 1.0) < 1e-9

    def test_equals_the_spelled_out_hash_with_keys_sorted(self, noisy_sentences):
        texts = [s.feature_text for s in noisy_sentences]
        assert len(texts) == 200
        assert_equals_oracle(texts)

    def test_non_ascii_text_hashes_its_utf8_bytes(self):
        text = sent("œdème 5 µg/kg à 37°").feature_text
        assert not text.isascii()  # accent stripping keeps œ, µ and °
        assert_equals_oracle([text])

    def test_mixed_batch_hashes_each_line_on_its_own(self):
        assert_equals_oracle(MIXED)
        for text in MIXED:
            assert_equals_oracle([text])

    def test_no_window_crosses_a_line_boundary(self):
        # Joined, "ab" + "cd" would give the gram "abc"; apart neither line has one.
        (ids_ab, _), (ids_cd, _) = split_lines(2, *featurize(["ab", "cd"]))
        alone = [featurize([t])[1].tolist() for t in ("ab", "cd")]
        assert [ids_ab, ids_cd] == alone

    def test_a_lone_line_equals_its_row_in_a_batch(self, noisy_sentences):
        texts = [s.feature_text for s in noisy_sentences]
        batch = split_lines(len(texts), *featurize(texts))
        for text, (ids, values) in zip(texts, batch):
            line, alone_ids, alone_values = featurize([text])
            assert not line.any()
            assert alone_ids.tolist() == ids and alone_values.tolist() == values

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 255, 256, 257])
    def test_equals_the_spelled_out_hash_where_the_key_shift_steps(self, noisy_sentences, size):
        # a key packs its line into (size - 1).bit_length() low bits: 0 at 1 line, 8 at 256, 9 at 257
        texts = list(itertools.islice(itertools.cycle(MIXED + [s.feature_text for s in noisy_sentences]), size))
        assert_equals_oracle(texts)

    def test_norm_is_the_python_float_power_not_sqrt(self):
        text = "abcd" * 166
        counts = {}
        for n in range(3, 6):
            for i in range(len(text) - n + 1):
                counts[text[i : i + n]] = counts.get(text[i : i + n], 0) + 1
        counts[text] = 1  # the one word
        sum_sq = sum(c * c for c in counts.values())
        assert sum_sq == 327_694 and math.sqrt(sum_sq) != sum_sq**0.5
        assert_equals_oracle([text])
        assert_equals_oracle([text, "1 cp"])


class TestTrain:
    def test_separable_toy_corpus_reaches_full_accuracy(self):
        corpus = toy_corpus()
        model = train(corpus, TOY_CONFIG)
        correct = sum(1 for s, label in corpus if alone(model, s).label == label)
        assert correct == len(corpus)

    def test_missing_class_raises(self):
        corpus = [(sent("doliprane 1000 mg"), "DRUG")] * 5
        with pytest.raises(DegenerateCorpus):
            train(corpus, TOY_CONFIG)

    # A float epoch count would fail inside train; a bool would train on its
    # value (epochs=True gives one epoch).
    @pytest.mark.parametrize("epochs", [0, -3, 2.5, True])
    def test_fewer_than_one_epoch_raises(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=epochs)

    @pytest.mark.parametrize("seed", [None, 1.5, True])
    def test_seed_not_an_int_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("holdout_fraction", [-0.5, 1.0, 1.5, math.nan, False])
    def test_holdout_fraction_outside_zero_to_one_raises(self, holdout_fraction):
        with pytest.raises(ValueError, match="holdout_fraction"):
            TrainConfig(holdout_fraction=holdout_fraction)

    def test_hash_width_is_not_a_setting(self):
        with pytest.raises(TypeError, match="hash_dim"):
            TrainConfig(hash_dim=64)

    def test_the_settings_are_the_descents_alone(self):
        # the featurizer and the step size are fixed; a TrainConfig sets how long and from where
        assert [f.name for f in dataclasses.fields(TrainConfig)] == ["epochs", "seed", "holdout_fraction"]

    def test_learning_rate_is_not_a_setting(self):
        # the step size is the constant LEARNING_RATE, decayed by LR_DECAY
        assert (LEARNING_RATE, LR_DECAY) == (5.0, 0.01)
        with pytest.raises(TypeError, match="learning_rate"):
            TrainConfig(learning_rate=5.0)

    def test_stores_exactly_the_columns_its_features_touch(self):
        corpus = toy_corpus()
        model = train(corpus, TOY_CONFIG)
        touched = np.unique(featurize([s.feature_text for s, _ in corpus])[1]).tolist()
        assert model.ids.dtype == np.int64 and model.ids.tolist() == touched
        assert model.weights.shape == (len(touched), len(CLASS_LABELS))

    def test_equals_the_spelled_out_descent_bit_for_bit(self, stopwords):
        spec = CorpusSpec(n_drug=20, n_posology=20, n_useless=20, seed=3, lexicon_path=default_lexicon_path())
        rows = [noisify(row, 0.1, 7_000 + i) for i, row in enumerate(generate(spec))]
        corpus = [(s, row.label) for row in rows if (s := sentence_from_text(row.text, stopwords)) is not None]
        assert len(corpus) == 60
        config = TrainConfig(epochs=4)
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
            assert perm[alone(m1, s).label] == alone(m2, s).label


def train_small_model(path) -> None:
    """Train and save a 300-sentence, 10-epoch model."""
    spec = CorpusSpec(n_drug=100, n_posology=100, n_useless=100, seed=42, lexicon_path=default_lexicon_path())
    corpus = [(s, row.label) for row in generate(spec) if (s := sentence_from_text(row.text)) is not None]
    save_model(train(corpus, TrainConfig(epochs=10)), path)


def test_a_model_trains_to_the_same_bytes_without_avx512(tmp_path):
    # numpy's exp kernels differ in the last bits between CPU dispatch levels,
    # so training takes every exp with math.exp and the file is the same on every CPU
    names = avx512_dispatch_names()
    if not names:
        pytest.skip("numpy dispatches no AVX-512 kernel on this CPU")
    train_small_model(tmp_path / "here.bin")
    paths = [str(pathlib.Path(classify.__file__).parents[1]), str(pathlib.Path(__file__).parent)]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")])),
        "NPY_DISABLE_CPU_FEATURES": " ".join(names),
    }
    code = "import sys; from test_classify import train_small_model; train_small_model(sys.argv[1])"
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "there.bin")], env=env, check=True)
    assert (tmp_path / "there.bin").read_bytes() == (tmp_path / "here.bin").read_bytes()


def write_score_bits(model_path, texts_path, out_path) -> None:
    """Write the float64 scores of ``_score`` on each line alone, then on all lines as one batch."""
    model = load_model(model_path)
    texts = json.loads(pathlib.Path(texts_path).read_text(encoding="utf-8"))
    classes = [c for text in texts for c in classify._score(model, [text])] + classify._score(model, texts)
    scores = np.array([[c.scores[label] for label in CLASS_LABELS] for c in classes], dtype="<f8")
    pathlib.Path(out_path).write_bytes(scores.tobytes())


def test_scores_are_the_same_bits_without_avx512(tmp_path, model_file, noisy_sentences):
    # the id lookup sorts keys and counts bits, and numpy dispatches both to
    # AVX-512 kernels where the CPU has them; the scores must not move
    names = avx512_dispatch_names()
    if not names:
        pytest.skip("numpy dispatches no AVX-512 kernel on this CPU")
    texts = tmp_path / "texts.json"
    texts.write_text(json.dumps([s.feature_text for s in noisy_sentences]), encoding="utf-8")
    write_score_bits(model_file, texts, tmp_path / "here.bin")
    paths = [str(pathlib.Path(classify.__file__).parents[1]), str(pathlib.Path(__file__).parent)]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")])),
        "NPY_DISABLE_CPU_FEATURES": " ".join(names),
    }
    code = "import sys; from test_classify import write_score_bits; write_score_bits(*sys.argv[1:])"
    subprocess.run([sys.executable, "-c", code, str(model_file), str(texts), str(tmp_path / "there.bin")],
                   env=env, check=True)
    here = (tmp_path / "here.bin").read_bytes()
    assert len(here) == 2 * len(noisy_sentences) * len(CLASS_LABELS) * 8
    assert (tmp_path / "there.bin").read_bytes() == here


class TestPredict:
    @pytest.fixture(scope="class")
    def model(self):
        return train(toy_corpus(), TOY_CONFIG)

    def test_scores_form_probability_simplex(self, model):
        for text in ["doliprane 1000 mg", "zzz qqq", ""]:
            s = sent(text) or sent("aa bb")
            p = alone(model, s)
            assert abs(sum(p.scores.values()) - 1.0) < 1e-6
            assert all(v >= 0 for v in p.scores.values())
            assert max(p.scores, key=p.scores.get) == p.label

    def test_no_known_feature_gives_the_softmax_of_the_bias(self, model):
        s = sent("zq")  # shorter than an n-gram: its only feature is the word
        (key,) = featurize([s.feature_text])[1].tolist()
        assert key not in model.ids
        assert alone(model, s).scores == dict(zip(CLASS_LABELS, softmax(model.bias).tolist()))

    def test_model_without_columns_gives_the_softmax_of_the_bias(self, model, tmp_path):
        empty = ClassifierModel(
            ids=np.empty(0, dtype=np.int64),
            weights=np.empty((0, len(CLASS_LABELS))),
            bias=np.array([0.5, -1.0, 0.25]),
        )
        save_model(empty, tmp_path / "model.bin")
        loaded = load_model(tmp_path / "model.bin")
        assert loaded.ids.shape == (0,) and loaded.weights.shape == (0, 3)
        expected = dict(zip(CLASS_LABELS, softmax(empty.bias).tolist()))
        for text in ["doliprane 1000 mg", "zq"]:
            assert alone(loaded, sent(text)).scores == expected


# One-letter lines: each has one feature, its word, of value 1.0, so a model
# whose weight row for that word is a drawn row scores the line on those logits.
LETTERS = "abcdefghijklmnopqrstuvwxyz"
_spread = st.tuples(st.floats(-50, 50), st.floats(700, 1000), st.floats(0, 1))
LOGIT_ROWS = st.one_of(
    st.tuples(*[st.floats(-10, 10)] * len(CLASS_LABELS)).map(list),  # every exp counts in the sum
    st.tuples(*[st.floats(-1e4, 1e4)] * len(CLASS_LABELS)).map(list),
    # ties, which the first maximum breaks
    st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)).flatmap(lambda t: st.permutations([t[0], t[0], t[1]])),
    st.floats(-1e4, 1e4).map(lambda x: [x] * len(CLASS_LABELS)),
    # a spread of 700 or more, where the smaller exps are subnormal or zero
    _spread.flatmap(lambda t: st.permutations([t[0], t[0] - t[1], t[0] - t[1] * t[2]])),
)


@given(st.lists(LOGIT_ROWS, min_size=1, max_size=len(LETTERS)))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_the_scorer_softmax_is_the_training_softmax_bit_for_bit(rows):
    texts = list(LETTERS[: len(rows)])
    line, ids, values = featurize(texts)
    assert len(set(ids.tolist())) == len(texts) and values.tolist() == [1.0] * len(texts)
    weights = np.array([rows[k] for k in line.tolist()])
    model = ClassifierModel(ids=ids, weights=weights, bias=np.zeros(len(CLASS_LABELS)))
    want = classify._softmax(np.array(rows) + 0.0)  # the logits _score sums: 0.0 + 1.0 * w, then + 0.0
    for got, probs in zip(classify._score(model, texts), want):
        assert got.label == CLASS_LABELS[int(np.argmax(probs))]
        assert bits([got.scores[k] for k in CLASS_LABELS]).tolist() == bits(probs).tolist()


def lookup_oracle(ids, keys):
    """Each key's row in the sorted ``ids`` by binary search, and whether ``ids`` holds it."""
    ids, keys = np.asarray(ids, dtype=np.int64), np.asarray(keys, dtype=np.int64)
    rows = ids.searchsorted(keys)
    return rows, np.array([row < len(ids) and ids[row] == key for row, key in zip(rows, keys)], dtype=bool)


def index_model(ids):
    ids = np.asarray(sorted(ids), dtype=np.int64)
    return ClassifierModel(ids=ids, weights=np.zeros((len(ids), len(CLASS_LABELS))), bias=np.zeros(len(CLASS_LABELS)))


class TestIdIndex:
    """The bitmap and rank directory that map a hashed id to its weight row."""

    EDGES = [0, 63, 64, 127, HASH_DIM - 1]  # first and last bit of the first two words, and the last id

    def test_hash_dim_is_a_power_of_two_of_whole_words(self):
        assert HASH_DIM & (HASH_DIM - 1) == 0 and HASH_DIM % 64 == 0

    def test_index_is_a_bitmap_and_an_int32_count_per_word(self):
        model = index_model(self.EDGES)
        assert model.bits.dtype == np.uint64 and model.bits.shape == (HASH_DIM // 64,)
        assert model.rank.dtype == np.int32 and model.rank.shape == (HASH_DIM // 64,)
        assert model.rank[0] == 2 and model.rank[1] == 4 and model.rank[-2] == 4 and model.rank[-1] == 5

    def test_word_edges_find_their_rows(self):
        model = index_model(self.EDGES)
        rows, hit = classify._lookup(model, np.array(self.EDGES, dtype=np.int64))
        assert rows.tolist() == [0, 1, 2, 3, 4] and hit.tolist() == [1] * 5
        assert model.ids.tolist() == self.EDGES

    def test_keys_the_model_lacks_miss_with_a_row_in_range(self):
        model = index_model(self.EDGES)
        absent = np.array([1, 62, 65, 126, 128, HASH_DIM - 2], dtype=np.int64)
        rows, hit = classify._lookup(model, absent)
        assert hit.tolist() == [0] * len(absent)
        assert ((rows >= 0) & (rows <= len(self.EDGES))).all()

    def test_empty_model_misses_every_key(self):
        model = index_model([])
        assert not model.bits.any() and not model.rank.any() and model.ids.tolist() == []
        rows, hit = classify._lookup(model, np.array(self.EDGES, dtype=np.int64))
        assert hit.tolist() == [0] * len(self.EDGES) and rows.tolist() == [0] * len(self.EDGES)

    @given(
        st.sets(st.integers(0, HASH_DIM - 1), max_size=300),
        st.lists(st.integers(0, HASH_DIM - 1), max_size=100),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_lookup_agrees_with_binary_search(self, ids, others):
        model = index_model(ids)
        keys = sorted(ids | set(others))
        rows, hit = classify._lookup(model, np.array(keys, dtype=np.int64))
        want_rows, want_hit = lookup_oracle(sorted(ids), keys)
        assert hit.astype(bool).tolist() == want_hit.tolist()
        assert rows[want_hit].tolist() == want_rows[want_hit].tolist()
        assert model.ids.tolist() == sorted(ids)

    def test_ids_round_trip_through_the_model_file(self, tmp_path):
        ids = self.EDGES + [1000, 4097]
        model = index_model(ids)
        save_model(model, tmp_path / "model.bin")
        payload = (tmp_path / "model.bin").read_bytes().partition(b"\n")[2]
        assert np.frombuffer(payload, dtype="<i8", count=len(ids)).tolist() == sorted(ids)
        loaded = load_model(tmp_path / "model.bin")
        assert loaded.ids.dtype == np.int64 and loaded.ids.tolist() == sorted(ids)
        assert np.array_equal(loaded.bits, model.bits) and np.array_equal(loaded.rank, model.rank)


class TestTrainedPredictions:
    """Desk-scale model routes the three sentence families correctly."""

    def test_drug_line(self, trained_model):
        assert alone(trained_model, sent("doliprane 1000 mg comprime")).label == "DRUG"

    def test_posology_line(self, trained_model, stopwords):
        s = sentence_from_text("1 cp matin et soir pendant 5 jours", stopwords)
        assert alone(trained_model, s).label == "POSOLOGY"

    def test_useless_line(self, trained_model, stopwords):
        s = sentence_from_text("docteur jean dupont cardiologue", stopwords)
        assert alone(trained_model, s).label == "USELESS"

    def test_desk_scale_holdout_accuracy(self, trained_model):
        assert trained_model.holdout_accuracy is not None
        assert trained_model.holdout_accuracy >= 0.93

    def test_document_features_give_the_same_scores_bit_for_bit(self, trained_model, noisy_sentences):
        batch = LineBatch(noisy_sentences)
        for s in noisy_sentences:
            assert predict(trained_model, s, batch) == alone(trained_model, s)

    @given(st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_a_line_scores_the_same_in_any_batch(self, trained_model, noisy_sentences, data):
        # unique indices in drawn order: any subset, in any permutation
        picked = data.draw(st.lists(st.integers(0, len(noisy_sentences) - 1), min_size=1, max_size=40, unique=True))
        lines = [noisy_sentences[i] for i in picked]
        batch = LineBatch(lines)
        for s in reversed(lines):  # the first call on the batch scores it, whichever line asks
            assert predict(trained_model, s, batch) == alone(trained_model, s)

    def test_multi_byte_characters_at_line_edges_score_the_same_alone_and_in_a_document(
        self, trained_model, noisy_sentences
    ):
        edged = [sent(t) for t in ["µg 5 matin et soir", "1 cp matin µ", "€ 12 doliprane", "doliprane 12 €",
                                   "𝄞 dafalgan 1 g", "smecta 3 g 𝄞"]]
        assert all(not s.feature_text.isascii() for s in edged)
        lines = [line for pair in zip(edged, noisy_sentences) for line in pair]
        batch = LineBatch(lines)
        for s in edged:
            assert predict(trained_model, s, batch) == alone(trained_model, s)

    def test_gathered_dot_product_matches_the_dense_oracle(self, trained_model, noisy_sentences):
        for s in noisy_sentences:
            got, want = alone(trained_model, s), oracle_predict(trained_model, s.feature_text)
            assert got.label == want.label
            assert got.scores == pytest.approx(want.scores, rel=0, abs=1e-12)


# A valid header with two columns, for the bad-file table.
_HEADER = {"magic": "ordonnance-classifier-2", "labels": list(CLASS_LABELS), "hash_dim": HASH_DIM, "ngram_min": 3,
           "ngram_max": 5, "version": FEATURE_VERSION, "n_cols": 2}


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
            assert alone(model, s) == alone(loaded, s)

    def test_header_holds_the_featurizer_constants(self, tmp_path):
        model = train(toy_corpus(), TOY_CONFIG)
        save_model(model, tmp_path / "model.bin")
        header = json.loads((tmp_path / "model.bin").read_bytes().partition(b"\n")[0])
        assert header == {"magic": "ordonnance-classifier-2", "version": FEATURE_VERSION,
                          "labels": ["DRUG", "POSOLOGY", "USELESS"], "hash_dim": 2**18, "ngram_min": 3,
                          "ngram_max": 5, "n_cols": len(model.ids), "holdout_accuracy": model.holdout_accuracy}

    def test_stale_feature_version_is_refused_at_load(self, tmp_path):
        # fh1 hashed character windows, whose ids differ on text with a non-ASCII character
        path = tmp_path / "model.bin"
        for stale in ("fh0", "fh1"):
            path.write_bytes(_model_file(_header(version=stale), [3, 7], 2 * 3 + 3))
            with pytest.raises(VersionMismatch, match=f"model featurizer '{stale}' != runtime 'fh2'"):
                load_model(path)

    def test_minimal_file_loads(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(_model_file(_HEADER, [3, 7], 2 * 3 + 3))
        model = load_model(path)
        assert model.ids.tolist() == [3, 7] and model.weights.shape == (2, 3) and model.bias.shape == (3,)

    @pytest.mark.parametrize("accuracy", [None, 0, 1, 0.5])
    def test_holdout_accuracy_null_or_in_unit_range_loads_and_saves_back(self, tmp_path, accuracy):
        path = tmp_path / "model.bin"
        path.write_bytes(_model_file(_header(holdout_accuracy=accuracy), [3, 7], 9))
        model = load_model(path)
        assert model.holdout_accuracy == accuracy and type(model.holdout_accuracy) is type(accuracy)
        save_model(model, tmp_path / "again.bin")
        header = json.loads((tmp_path / "again.bin").read_bytes().partition(b"\n")[0])
        assert header["holdout_accuracy"] == accuracy

    # Each row breaks one thing in _HEADER or its payload (the n_cols ids, then
    # n_floats zeros, or the listed floats, for the weight block and bias) and
    # names the check that must reject it. Wherever it can, the rest is sized
    # and valued so that every other check passes.
    @pytest.mark.parametrize(
        "header, ids, n_floats, message",
        [
            (["ordonnance-classifier-2"], [3, 7], 9, "not a classifier model file"),
            (_header(drop=["labels"]), [3, 7], 9, "'labels' must be .*, got None"),
            (_header(labels="DRUG"), [3, 7], 2 * 4 + 4, "'labels' must be .*, got 'DRUG'"),
            (_header(labels=[]), [3, 7], 0,
             r"'labels' must be \['DRUG', 'POSOLOGY', 'USELESS'\], got \[\]; retrain the model"),
            (_header(labels=["A", "B", "C"]), [3, 7], 9, "'labels' must be"),
            (_header(labels=["DRUG", "DRUG", "USELESS"]), [3, 7], 9, "'labels' must be"),
            (_header(hash_dim=str(HASH_DIM)), [3, 7], 9, "'hash_dim' must be 262144, got '262144'"),
            (_header(hash_dim=10**30), [3, 7], 9, "'hash_dim' must be 262144, got 1000000000000000000000000000000"),
            (_header(hash_dim=4096), [3, 7], 9, "'hash_dim' must be 262144, got 4096; retrain the model"),
            (_header(drop=["hash_dim"]), [3, 7], 9, "'hash_dim' must be 262144, got None"),
            (_header(drop=["n_cols"]), [3, 7], 9, "'n_cols' must be an int >= 0, got None"),
            (_header(n_cols=-1), [], 0, "'n_cols' must be an int >= 0, got -1"),
            (_header(ngram_min=0), [3, 7], 9, "'ngram_min' must be 3, got 0"),
            (_header(ngram_min=3.0), [3, 7], 9, r"'ngram_min' must be 3, got 3\.0"),
            (_header(ngram_min=6), [3, 7], 9, "'ngram_min' must be 3, got 6"),
            (_header(ngram_max=6), [3, 7], 9, "'ngram_max' must be 5, got 6"),
            (_HEADER, [3, 7], 8, "payload has 80 bytes, expected 88"),
            (_HEADER, [7, 3], 9, "strictly increasing"),
            (_HEADER, [3, 3], 9, "strictly increasing"),
            (_HEADER, [-1, 3], 9, "strictly increasing"),
            (_HEADER, [3, HASH_DIM], 9, "strictly increasing"),
            (_header(drop=["n_cols"], magic="ordonnance-classifier"), [], 3 * 16 + 3, "not a classifier model file"),
            (_HEADER, [3, 7], [0.0] * 4 + [math.nan] + [0.0] * 4, "weights and bias must be finite"),
            (_HEADER, [3, 7], [0.0] * 8 + [-math.inf], "weights and bias must be finite"),
            (_header(holdout_accuracy="lots"), [3, 7], 9,
             r"'holdout_accuracy' must be null or a number in \[0, 1\], got 'lots'"),
            (_header(holdout_accuracy=1.5), [3, 7], 9, r"'holdout_accuracy' .*, got 1\.5"),
            (_header(holdout_accuracy=True), [3, 7], 9, "'holdout_accuracy' .*, got True"),
        ],
        ids=["not-an-object", "no-labels", "labels-not-a-list", "labels-empty", "labels-unknown",
             "labels-repeated", "hash-dim-a-string", "hash-dim-beyond-int64", "hash-dim-another-width", "no-hash-dim",
             "no-n-cols", "n-cols-negative", "ngram-min-zero", "ngram-min-a-float", "ngram-min-above-max",
             "ngram-max-six", "payload-one-float-short", "ids-decreasing", "ids-repeated", "id-negative",
             "id-at-hash-dim", "earlier-dense-format", "weight-nan", "bias-infinite", "holdout-accuracy-a-string",
             "holdout-accuracy-above-one", "holdout-accuracy-a-bool"],
    )
    def test_bad_header_is_a_schema_error(self, tmp_path, header, ids, n_floats, message):
        path = tmp_path / "model.bin"
        path.write_bytes(_model_file(header, ids, n_floats))
        with pytest.raises(SchemaError, match=message):
            load_model(path)
