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
row order. Scoring sums the same way: the lines of a batch are looked up in
the model's ids in one ``searchsorted``, each label's logits are one
``np.bincount`` over the batch's terms in row order, and one softmax runs
over the (lines, labels) block. A line's scores therefore depend neither on
the BLAS build nor on the other lines of its batch; a lone line is a batch
of one.

``predict`` stays a per-line call, because ``perfbench`` times this layer
by wrapping ``pipeline.predict`` once per line. A document's lines share a
``LineBatch``: the first ``predict`` on it scores them all, inside that
call's span, and later calls look their line up.

``featurize`` hashes a batch of lines (a document, a training corpus) at
once and returns three flat arrays ``(line, ids, values)``, sorted by line
and then by id. CRC-32 is affine over GF(2), so the CRC of a fixed-length
window is a constant XOR one table entry per byte (``_gram_table``): the
n-grams of every ASCII line cost one gather and one XOR per n over the
batch's bytes. Counts come from one ``np.unique``; each line's norm is the
Python float power ``sum_sq ** 0.5`` (``math.sqrt`` and ``np.sqrt``
differ from it at some integers), so every value equals the spelled-out
per-line ``count / norm`` bit for bit.

Model file: one JSON header line (magic ``ordonnance-classifier-2``, the
featurizer version, the labels, the feature config, ``n_cols``), then raw
little-endian bytes: the ``n_cols`` sorted hashed ids as int64, the
(n_cols, labels) weight block as float64, and the bias as float64. It
round-trips bit-exactly. The dense format of earlier releases (magic
``ordonnance-classifier``) is refused with ``SchemaError``; retrain to get a
current model. ``load_model`` is where a model file is checked: it compares
the header's version with ``FEATURE_VERSION`` once and refuses a stale model
with ``VersionMismatch``, and it refuses non-finite weights or bias with
``SchemaError``, so ``predict`` checks nothing at run time.
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

from .errors import DegenerateCorpus, SchemaError, VersionMismatch, decode_json
from .textnorm import Sentence

CLASS_LABELS = ("DRUG", "POSOLOGY", "USELESS")

# Bump when featurize() changes incompatibly. Each model file records the
# version it was trained with, and load_model refuses any other.
FEATURE_VERSION = "fh1"

# featurize hashes character n-grams of these lengths; load_model refuses other values.
NGRAM_MIN = 3
NGRAM_MAX = 5

# The learning rate at epoch e is learning_rate / (1 + LR_DECAY * e).
LR_DECAY = 0.01

_MODEL_MAGIC = "ordonnance-classifier-2"
_DENSE_MAGIC = "ordonnance-classifier"  # earlier releases' dense format, refused

# Model header fields load_model needs, with their JSON types.
_HEADER_FIELDS = {
    "labels": list, "hash_dim": int, "ngram_min": int, "ngram_max": int, "version": str, "n_cols": int,
}


@dataclass(frozen=True)
class FeatureConfig:
    hash_dim: int = 2**18

    def __post_init__(self):
        if self.hash_dim < 1:
            raise ValueError(f"need hash_dim >= 1, got {self.hash_dim}")


@dataclass(frozen=True)
class TrainConfig:
    # full-batch descent over L2-normalized features needs a large step to
    # reach the margin within the epoch budget
    epochs: int = 200
    learning_rate: float = 5.0
    seed: int = 42
    holdout_fraction: float = 0.1
    features: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        # a zero or negative step never leaves the untrained model; nan or inf ruins it
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        # written so that nan, for which every comparison is false, fails it
        if not 0 <= self.holdout_fraction < 1:
            raise ValueError(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")


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
    holdout_accuracy: float | None = None


@functools.cache
def _seed(prefix: str) -> int:
    """CRC-32 of a feature prefix; chaining it hashes prefix + gram in one call."""
    return zlib.crc32(prefix.encode("utf-8"))


@functools.cache
def _gram_table(n: int) -> np.ndarray:
    """The 256 int64 entries that extend an (n-1)-gram's CRC to the n-gram's.

    CRC-32 is affine over GF(2): for a fixed length its value is the CRC of
    zero bytes XOR one share per byte, ``G[t][b] = crc32(bytes([b]) +
    bytes(t)) ^ crc32(bytes(t + 1))`` for byte ``b`` with ``t`` bytes after
    it. With ``A_n = crc32(bytes(n), _seed(f"c{n}|"))`` the entry for byte
    ``b`` is ``G[n-1][b] ^ A_n ^ A_{n-1}`` (``A_0 = 0``), so that ``H_n[i] =
    table(n)[d[i]] ^ H_{n-1}[i+1]`` is the seeded CRC of the n-gram
    ``d[i:i+n]`` and the prefix costs nothing.
    """
    crc32 = zlib.crc32
    shift = crc32(bytes(n)) ^ crc32(bytes(n), _seed(f"c{n}|"))
    if n > 1:
        shift ^= crc32(bytes(n - 1), _seed(f"c{n - 1}|"))
    tail = bytes(n - 1)
    table = np.array([crc32(bytes((b,)) + tail) ^ shift for b in range(256)], dtype=np.int64)
    table.flags.writeable = False  # cached: every caller shares it
    return table


def featurize(lines: Sequence[Sentence | str], config: FeatureConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hashed feature vectors of many lines: char n-grams plus word unigrams, L2-normalized.

    Returns ``(line, ids, values)``: flat int64, int64 and float64 arrays
    sorted by line index, then by feature id, so line ``k``'s ids are
    strictly increasing and a line without features has no entries. The
    n-gram ``g`` of length n hashes to ``crc32(f"c{n}|{g}".encode()) %
    hash_dim`` and the word ``w`` to ``crc32(f"w|{w}".encode()) %
    hash_dim``; no window crosses from one line into the next. The ASCII
    lines are hashed together as one byte buffer; other lines are encoded
    gram by gram.
    """
    texts = [s.feature_text if isinstance(s, Sentence) else s for s in lines]
    dim = config.hash_dim
    stride = min(dim, 1 << 32)  # above every CRC-32 id: line * stride + id is unique
    one = len(texts) == 1  # a lone line needs no masks and no per-line norms
    parts = []
    ascii_rows = [k for k, text in enumerate(texts) if text.isascii()]
    if ascii_rows:
        data = np.frombuffer("".join([texts[k] for k in ascii_rows]).encode("ascii"), dtype=np.uint8)
        if not one:
            lengths = [len(texts[k]) for k in ascii_rows]
            base = np.repeat(np.array(ascii_rows, dtype=np.int64) * stride, lengths)
            left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(data))  # bytes to the line's end
        for n in range(1, min(NGRAM_MAX, len(data)) + 1):
            gathered = _gram_table(n).take(data[: len(data) - n + 1])
            crcs = gathered if n == 1 else gathered ^ crcs[1:]
            if n >= NGRAM_MIN:
                if one:
                    parts.append(crcs % dim)
                else:
                    inside = left[: len(crcs)] >= n
                    parts.append(base[: len(crcs)][inside] + crcs[inside] % dim)
    keys = []
    crc32 = zlib.crc32
    word_seed = _seed("w|")
    for k, text in enumerate(texts):
        row = k * stride
        if not text.isascii():
            for n in range(NGRAM_MIN, min(NGRAM_MAX, len(text)) + 1):
                seed = _seed(f"c{n}|")
                for i in range(len(text) - n + 1):
                    keys.append(row + crc32(text[i : i + n].encode("utf-8"), seed) % dim)
        for word in text.split():
            keys.append(row + crc32(word.encode("utf-8"), word_seed) % dim)
    parts.append(np.array(keys, dtype=np.int64))
    unique, counts = np.unique(np.concatenate(parts), return_counts=True)
    if one:
        line = np.zeros(len(unique), dtype=np.int64)
        ids = unique
        norm = float(counts @ counts) ** 0.5
    else:
        line, ids = np.divmod(unique, stride)
        sum_sq = np.bincount(line, counts * counts, minlength=len(texts))
        norm = np.array([s**0.5 for s in sum_sq.tolist()])[line]
    return line, ids, counts / norm


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
    rows, keys, vals = featurize([corpus[i][0] for i in train_idx], feats)
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
        lr = config.learning_rate / (1.0 + LR_DECAY * epoch)
        for k, w in enumerate(weights):
            logits[:, k] = np.bincount(rows, vals * w[cols], minlength=n)
        grad = (_softmax(logits + bias) - y) / n
        for k, g in enumerate(grad.T):
            weights[k] -= lr * np.bincount(cols, vals * g[rows], minlength=len(ids))
        bias -= lr * grad.sum(axis=0)

    model = ClassifierModel(config=feats, labels=labels, ids=ids, weights=np.ascontiguousarray(weights.T), bias=bias)
    if holdout_idx:
        classes = _score(model, [corpus[i][0] for i in holdout_idx])
        correct = sum(1 for i, c in zip(holdout_idx, classes) if c.label == corpus[i][1])
        model.holdout_accuracy = correct / len(holdout_idx)
    return model


class LineBatch:
    """The lines of one document, scored together by the first ``predict`` on any of them."""

    __slots__ = ("sentences", "_classes")

    def __init__(self, sentences: Sequence[Sentence]):
        self.sentences = sentences
        self._classes: dict[int, SentenceClass] | None = None  # by id() of the sentence


def predict(model: ClassifierModel, sentence: Sentence | str, batch: LineBatch | None = None) -> SentenceClass:
    """Class scores for one sentence; a valid probability simplex always.

    ``batch`` is the sentence's document: the first call on it scores every
    line of the batch, later calls return their own line's result. Without
    it the sentence is scored as a batch of one, with the same result bit
    for bit.
    """
    if batch is None:
        return _score(model, (sentence,))[0]
    if batch._classes is None:
        batch._classes = dict(zip(map(id, batch.sentences), _score(model, batch.sentences)))
    return batch._classes[id(sentence)]


def _score(model: ClassifierModel, lines: Sequence[Sentence | str]) -> list[SentenceClass]:
    """Each line's class scores: one featurize, one id lookup, a bincount per label, one softmax."""
    line, keys, values = featurize(lines, model.config)
    n = len(lines)
    logits = np.zeros((n, len(model.labels)))
    if len(model.ids):
        rows = model.ids.searchsorted(keys)
        # A key the model lacks has weight zero: with the finite weights
        # load_model admits, its terms are +-0.0, which leave a bincount sum
        # (never -0.0) exactly as it was.
        values = values * (model.ids.take(rows, mode="clip") == keys)
        terms = model.weights.take(rows, axis=0, mode="clip") * values[:, None]
        for k in range(len(model.labels)):
            logits[:, k] = np.bincount(line, terms[:, k], minlength=n)
    probs = _softmax(logits + model.bias)
    labels = model.labels
    return [
        SentenceClass(label=labels[best], scores=dict(zip(labels, p)))
        for best, p in zip(probs.argmax(axis=1).tolist(), probs.tolist())
    ]


def save_model(model: ClassifierModel, path) -> None:
    header = {
        "magic": _MODEL_MAGIC,
        "version": FEATURE_VERSION,
        "labels": list(model.labels),
        "ngram_min": NGRAM_MIN,
        "ngram_max": NGRAM_MAX,
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
    header = decode_json(header_line, f"{path}: model header", SchemaError)
    magic = header.get("magic") if isinstance(header, dict) else None
    if magic == _DENSE_MAGIC:
        raise SchemaError(f"{path}: dense model file of an earlier release; retrain the model")
    if magic != _MODEL_MAGIC:
        raise SchemaError(f"{path}: not a classifier model file")
    for name, kind in _HEADER_FIELDS.items():
        value = header.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SchemaError(f"{path}: model header field {name!r} is missing or not a {kind.__name__}")
    if header["version"] != FEATURE_VERSION:
        raise VersionMismatch(f"{path}: model featurizer {header['version']!r} != runtime {FEATURE_VERSION!r}")
    labels = tuple(header["labels"])
    if labels != CLASS_LABELS:  # train writes no other label list
        raise SchemaError(f"{path}: model labels must be {list(CLASS_LABELS)}, got {list(labels)}")
    if (ngrams := (header["ngram_min"], header["ngram_max"])) != (NGRAM_MIN, NGRAM_MAX):
        raise SchemaError(f"{path}: model header needs ngram_min, ngram_max {NGRAM_MIN}, {NGRAM_MAX}, got {ngrams}")
    try:
        config = FeatureConfig(hash_dim=header["hash_dim"])
    except ValueError as exc:
        raise SchemaError(f"{path}: model header: {exc}") from exc
    n_cols = header["n_cols"]
    if n_cols < 0:
        raise SchemaError(f"{path}: model header needs n_cols >= 0, got {n_cols}")
    n_weights = n_cols * len(labels)
    expected = (n_cols + n_weights + len(labels)) * 8
    if len(blob) != expected:
        raise SchemaError(f"{path}: model payload has {len(blob)} bytes, expected {expected}")
    ids = np.frombuffer(blob, dtype="<i8", count=n_cols).astype(np.int64)
    if n_cols and (ids[0] < 0 or ids[-1] >= config.hash_dim or not np.all(ids[1:] > ids[:-1])):
        raise SchemaError(f"{path}: model ids must be strictly increasing in [0, hash_dim)")
    flat = np.frombuffer(blob, dtype="<f8", offset=n_cols * 8).astype(np.float64)
    if not np.isfinite(flat).all():
        raise SchemaError(f"{path}: model weights and bias must be finite numbers")
    return ClassifierModel(
        config=config,
        labels=labels,
        ids=ids,
        weights=flat[:n_weights].reshape(n_cols, len(labels)),
        bias=flat[n_weights:],
        holdout_accuracy=header.get("holdout_accuracy"),
    )
