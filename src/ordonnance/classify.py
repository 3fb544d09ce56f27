"""Three-class sentence classifier: DRUG / POSOLOGY / USELESS.

A hashed character n-gram linear model trained by plain full-batch gradient
descent on cross-entropy. The decision the classifier makes is lexical
(drug-name lines vs posology phrasing vs boilerplate), so hashed n-grams of
the stopword-filtered text plus word unigrams carry the signal. Training is
deterministic for a fixed seed and epoch budget.

The model keeps only the weight columns of the hashed ids that training
features touched: no other column of the (labels, hash_dim) space ever
moves from zero. Training runs in that compact column space with numpy
alone, summing each logit and each gradient column with ``np.bincount`` in
row order. ``predict`` gathers the rows of a line's known ids and takes one
dot product.

Model file: one JSON header line (magic ``ordonnance-classifier-2``, the
labels, the feature config, ``n_cols``), then raw little-endian bytes: the
``n_cols`` sorted hashed ids as int64, the (n_cols, labels) weight block as
float64, and the bias as float64. It round-trips bit-exactly. The dense
format of earlier releases (magic ``ordonnance-classifier``) is refused
with ``SchemaError``; retrain to get a current model.
"""

from __future__ import annotations

import functools
import json
import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateCorpus, SchemaError, VersionMismatch
from .textnorm import Sentence

CLASS_LABELS = ("DRUG", "POSOLOGY", "USELESS")

# Bump when featurize() changes incompatibly; models remember the version
# they were trained with and refuse to run under a different one.
FEATURE_VERSION = "fh1"

_MODEL_MAGIC = "ordonnance-classifier-2"
_DENSE_MAGIC = "ordonnance-classifier"  # earlier releases' dense format, refused

# Model header fields load_model needs, with their JSON types.
_HEADER_FIELDS = {
    "labels": list, "hash_dim": int, "ngram_min": int, "ngram_max": int, "version": str, "n_cols": int,
}


@dataclass(frozen=True)
class FeatureConfig:
    ngram_min: int = 3
    ngram_max: int = 5
    hash_dim: int = 2**18
    version: str = FEATURE_VERSION


@dataclass(frozen=True)
class TrainConfig:
    # full-batch descent over L2-normalized features needs a large step to
    # reach the margin within the epoch budget
    epochs: int = 200
    learning_rate: float = 5.0
    lr_decay: float = 0.01
    seed: int = 42
    holdout_fraction: float = 0.1
    features: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        # a zero or negative step never leaves the untrained model; nan or inf ruins it
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class SentenceClass:
    label: str
    scores: dict[str, float]


@dataclass
class ClassifierModel:
    config: FeatureConfig
    labels: tuple[str, ...]
    ids: np.ndarray  # (n_cols,) int64 hashed feature ids, strictly increasing
    weights: np.ndarray  # (n_cols, n_labels): row r holds the weights of ids[r]
    bias: np.ndarray  # (n_labels,)
    version: str = FEATURE_VERSION
    holdout_accuracy: float | None = None


@functools.cache
def _seed(prefix: str) -> int:
    """CRC-32 of a feature prefix; chaining it hashes prefix + gram in one call."""
    return zlib.crc32(prefix.encode("utf-8"))


def featurize(sentence: Sentence | str, config: FeatureConfig) -> dict[int, float]:
    """Hashed feature vector: char n-grams plus word unigrams, L2-normalized.

    The n-gram ``g`` of length n hashes to ``crc32(f"c{n}|{g}".encode()) %
    hash_dim`` and the word ``w`` to ``crc32(f"w|{w}".encode()) % hash_dim``;
    the prefix's CRC seeds the gram's, so no feature string is built. ASCII
    text is sliced as bytes; other text is encoded gram by gram.
    """
    text = sentence.feature_text if isinstance(sentence, Sentence) else sentence
    dim = config.hash_dim
    crc32 = zlib.crc32
    counts: dict[int, float] = {}
    if text.isascii():
        data = text.encode("ascii")
        for n in range(config.ngram_min, config.ngram_max + 1):
            seed = _seed(f"c{n}|")
            for i in range(len(data) - n + 1):
                idx = crc32(data[i : i + n], seed) % dim
                counts[idx] = counts.get(idx, 0.0) + 1.0
    else:
        for n in range(config.ngram_min, config.ngram_max + 1):
            seed = _seed(f"c{n}|")
            for i in range(len(text) - n + 1):
                idx = crc32(text[i : i + n].encode("utf-8"), seed) % dim
                counts[idx] = counts.get(idx, 0.0) + 1.0
    seed = _seed("w|")
    for word in text.split():
        idx = crc32(word.encode("utf-8"), seed) % dim
        counts[idx] = counts.get(idx, 0.0) + 1.0
    norm = sum(v * v for v in counts.values()) ** 0.5
    if norm > 0:
        counts = {k: v / norm for k, v in counts.items()}
    return counts


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def train(corpus: Sequence[tuple[Sentence | str, str]], config: TrainConfig = TrainConfig()) -> ClassifierModel:
    """Fit the linear model; deterministic for a fixed config.

    The corpus is shuffled with the config seed and split; the tail
    ``holdout_fraction`` is held out and its accuracy stored on the model.
    Raises DegenerateCorpus when any of the three classes is absent.
    """
    if not corpus:
        raise DegenerateCorpus("empty corpus")
    labels = tuple(sorted({label for _, label in corpus}))
    missing = set(CLASS_LABELS) - set(labels)
    if missing:
        raise DegenerateCorpus(f"corpus lacks classes: {sorted(missing)}")
    unknown = set(labels) - set(CLASS_LABELS)
    if unknown:
        raise DegenerateCorpus(f"unknown labels in corpus: {sorted(unknown)}")

    order = list(range(len(corpus)))
    random.Random(config.seed).shuffle(order)
    n_holdout = int(len(corpus) * config.holdout_fraction)
    holdout_idx = order[len(order) - n_holdout :]
    train_idx = order[: len(order) - n_holdout]
    if not train_idx:
        raise DegenerateCorpus("holdout fraction leaves no training data")

    feats = config.features
    n = len(train_idx)
    # The nonzeros in row order, each row's keys sorted: the order in which
    # every logit and every gradient column is summed.
    vectors = [sorted(featurize(corpus[i][0], feats).items()) for i in train_idx]
    keys = np.array([k for vec in vectors for k, _ in vec], dtype=np.int64)
    vals = np.array([v for vec in vectors for _, v in vec], dtype=np.float64)
    rows = np.repeat(np.arange(n), [len(vec) for vec in vectors])
    # Only the columns a feature touches ever move from zero; train just those.
    ids, cols = np.unique(keys, return_inverse=True)
    label_pos = {label: j for j, label in enumerate(labels)}
    y = np.zeros((n, len(labels)))
    for row, i in enumerate(train_idx):
        y[row, label_pos[corpus[i][1]]] = 1.0

    # bincount adds its weights one by one in input order, so each sum is
    # the same sequence of float additions for any numpy build.
    weights = np.zeros((len(labels), len(ids)))  # row k: the weights of label k
    bias = np.zeros(len(labels))
    logits = np.empty((n, len(labels)))
    for epoch in range(config.epochs):
        lr = config.learning_rate / (1.0 + config.lr_decay * epoch)
        for k, w in enumerate(weights):
            logits[:, k] = np.bincount(rows, vals * w[cols], minlength=n)
        grad = (_softmax(logits + bias) - y) / n
        for k, g in enumerate(grad.T):
            weights[k] -= lr * np.bincount(cols, vals * g[rows], minlength=len(ids))
        bias -= lr * grad.sum(axis=0)

    model = ClassifierModel(config=feats, labels=labels, ids=ids, weights=np.ascontiguousarray(weights.T), bias=bias)
    if holdout_idx:
        correct = sum(
            1 for i in holdout_idx if predict(model, corpus[i][0]).label == corpus[i][1]
        )
        model.holdout_accuracy = correct / len(holdout_idx)
    return model


def predict(model: ClassifierModel, sentence: Sentence | str) -> SentenceClass:
    """Class scores for one sentence; a valid probability simplex always."""
    if model.version != FEATURE_VERSION:
        raise VersionMismatch(
            f"model featurizer {model.version!r} != runtime {FEATURE_VERSION!r}"
        )
    vec = featurize(sentence, model.config)
    logits = model.bias
    if len(model.ids):
        keys = np.fromiter(vec, dtype=np.int64, count=len(vec))
        values = np.fromiter(vec.values(), dtype=np.float64, count=len(vec))
        # A key the model lacks would add +0.0 to every logit: drop it.
        rows = model.ids.searchsorted(keys)
        known = model.ids.take(rows, mode="clip") == keys
        logits = values[known] @ model.weights[rows[known]] + logits
    probs = _softmax(logits)
    best = int(np.argmax(probs))
    return SentenceClass(label=model.labels[best], scores=dict(zip(model.labels, probs.tolist())))


def save_model(model: ClassifierModel, path) -> None:
    header = {
        "magic": _MODEL_MAGIC,
        "version": model.version,
        "labels": list(model.labels),
        "ngram_min": model.config.ngram_min,
        "ngram_max": model.config.ngram_max,
        "hash_dim": model.config.hash_dim,
        "n_cols": len(model.ids),
        "holdout_accuracy": model.holdout_accuracy,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(model.ids, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.bias, dtype="<f8").tobytes())


def load_model(path) -> ClassifierModel:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise SchemaError(f"{path}: bad model header: {exc}") from exc
    magic = header.get("magic") if isinstance(header, dict) else None
    if magic == _DENSE_MAGIC:
        raise SchemaError(f"{path}: dense model file of an earlier release; retrain the model")
    if magic != _MODEL_MAGIC:
        raise SchemaError(f"{path}: not a classifier model file")
    for name, kind in _HEADER_FIELDS.items():
        value = header.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SchemaError(f"{path}: model header field {name!r} is missing or not a {kind.__name__}")
    labels = tuple(header["labels"])
    if labels != CLASS_LABELS:  # train writes no other label list
        raise SchemaError(f"{path}: model labels must be {list(CLASS_LABELS)}, got {list(labels)}")
    dim = header["hash_dim"]
    n_cols = header["n_cols"]
    if dim < 1 or n_cols < 0:
        raise SchemaError(f"{path}: model header needs hash_dim >= 1 and n_cols >= 0")
    n_weights = n_cols * len(labels)
    expected = (n_cols + n_weights + len(labels)) * 8
    if len(blob) != expected:
        raise SchemaError(f"{path}: model payload has {len(blob)} bytes, expected {expected}")
    ids = np.frombuffer(blob, dtype="<i8", count=n_cols).astype(np.int64)
    if n_cols and (ids[0] < 0 or ids[-1] >= dim or not np.all(ids[1:] > ids[:-1])):
        raise SchemaError(f"{path}: model ids must be strictly increasing in [0, hash_dim)")
    flat = np.frombuffer(blob, dtype="<f8", offset=n_cols * 8).astype(np.float64)
    config = FeatureConfig(
        ngram_min=header["ngram_min"],
        ngram_max=header["ngram_max"],
        hash_dim=dim,
        version=header["version"],
    )
    return ClassifierModel(
        config=config,
        labels=labels,
        ids=ids,
        weights=flat[:n_weights].reshape(n_cols, len(labels)),
        bias=flat[n_weights:],
        version=header["version"],
        holdout_accuracy=header.get("holdout_accuracy"),
    )
