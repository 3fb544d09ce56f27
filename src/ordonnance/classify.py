"""Three-class sentence classifier: DRUG / POSOLOGY / USELESS.

A hashed character n-gram linear model trained by plain full-batch gradient
descent on cross-entropy. The decision the classifier makes is lexical
(drug-name lines vs posology phrasing vs boilerplate), so hashed n-grams of
the stopword-filtered text plus word unigrams carry the signal. Training is
deterministic for a fixed seed and epoch budget; the model file format is a
single JSON header line followed by raw little-endian float64 weight bytes,
which round-trips bit-exactly.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import DegenerateCorpus, SchemaError, VersionMismatch
from .textnorm import Sentence

CLASS_LABELS = ("DRUG", "POSOLOGY", "USELESS")

# Bump when featurize() changes incompatibly; models remember the version
# they were trained with and refuse to run under a different one.
FEATURE_VERSION = "fh1"

_MODEL_MAGIC = "ordonnance-classifier"

# Model header fields load_model needs, with their JSON types.
_HEADER_FIELDS = {"labels": list, "hash_dim": int, "ngram_min": int, "ngram_max": int, "version": str}


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


@dataclass(frozen=True)
class SentenceClass:
    label: str
    scores: dict[str, float]


@dataclass
class ClassifierModel:
    config: FeatureConfig
    labels: tuple[str, ...]
    weights: np.ndarray  # (n_labels, hash_dim)
    bias: np.ndarray  # (n_labels,)
    version: str = FEATURE_VERSION
    holdout_accuracy: float | None = None


def _hash(feature: str, dim: int) -> int:
    return zlib.crc32(feature.encode("utf-8")) % dim


def featurize(sentence: Sentence | str, config: FeatureConfig) -> dict[int, float]:
    """Hashed feature vector: char n-grams plus word unigrams, L2-normalized."""
    text = sentence.feature_text if isinstance(sentence, Sentence) else sentence
    counts: dict[int, float] = {}
    for n in range(config.ngram_min, config.ngram_max + 1):
        for i in range(len(text) - n + 1):
            idx = _hash(f"c{n}|{text[i : i + n]}", config.hash_dim)
            counts[idx] = counts.get(idx, 0.0) + 1.0
    for word in text.split():
        idx = _hash(f"w|{word}", config.hash_dim)
        counts[idx] = counts.get(idx, 0.0) + 1.0
    norm = sum(v * v for v in counts.values()) ** 0.5
    if norm > 0:
        counts = {k: v / norm for k, v in counts.items()}
    return counts


def _build_matrix(vectors: Sequence[dict[int, float]], dim: int) -> sparse.csr_matrix:
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for vec in vectors:
        for k in sorted(vec):
            indices.append(k)
            data.append(vec[k])
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(vectors), dim),
    )


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
    vectors = [featurize(corpus[i][0], feats) for i in train_idx]
    x = _build_matrix(vectors, feats.hash_dim)
    label_pos = {label: j for j, label in enumerate(labels)}
    y = np.zeros((len(train_idx), len(labels)))
    for row, i in enumerate(train_idx):
        y[row, label_pos[corpus[i][1]]] = 1.0

    weights = np.zeros((len(labels), feats.hash_dim))
    bias = np.zeros(len(labels))
    n = x.shape[0]
    for epoch in range(config.epochs):
        lr = config.learning_rate / (1.0 + config.lr_decay * epoch)
        probs = _softmax(x @ weights.T + bias)
        grad = (probs - y) / n
        weights -= lr * (x.T @ grad).T
        bias -= lr * grad.sum(axis=0)

    model = ClassifierModel(config=feats, labels=labels, weights=weights, bias=bias)
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
    logits = model.bias.copy()
    for k, v in vec.items():
        logits += model.weights[:, k] * v
    probs = _softmax(logits)
    best = int(np.argmax(probs))
    return SentenceClass(
        label=model.labels[best],
        scores={label: float(p) for label, p in zip(model.labels, probs)},
    )


def save_model(model: ClassifierModel, path) -> None:
    header = {
        "magic": _MODEL_MAGIC,
        "version": model.version,
        "labels": list(model.labels),
        "ngram_min": model.config.ngram_min,
        "ngram_max": model.config.ngram_max,
        "hash_dim": model.config.hash_dim,
        "holdout_accuracy": model.holdout_accuracy,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
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
    if not isinstance(header, dict) or header.get("magic") != _MODEL_MAGIC:
        raise SchemaError(f"{path}: not a classifier model file")
    for name, kind in _HEADER_FIELDS.items():
        value = header.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SchemaError(f"{path}: model header field {name!r} is missing or not a {kind.__name__}")
    labels = tuple(header["labels"])
    dim = header["hash_dim"]
    if dim < 1 or not all(isinstance(label, str) for label in labels):
        raise SchemaError(f"{path}: model header needs hash_dim >= 1 and string labels")
    expected = (len(labels) * dim + len(labels)) * 8
    if len(blob) != expected:
        raise SchemaError(f"{path}: weight payload has {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8")
    weights = flat[: len(labels) * dim].reshape(len(labels), dim).copy()
    bias = flat[len(labels) * dim :].copy()
    config = FeatureConfig(
        ngram_min=header["ngram_min"],
        ngram_max=header["ngram_max"],
        hash_dim=dim,
        version=header["version"],
    )
    return ClassifierModel(
        config=config,
        labels=labels,
        weights=weights,
        bias=bias,
        version=header["version"],
        holdout_accuracy=header.get("holdout_accuracy"),
    )
