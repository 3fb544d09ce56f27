"""Three-class sentence classifier: DRUG / POSOLOGY / USELESS.

A hashed byte n-gram linear model trained by plain full-batch gradient
descent on cross-entropy. The decision the classifier makes is lexical
(drug-name lines vs posology phrasing vs boilerplate), so hashed n-grams of
the stopword-filtered text plus word unigrams carry the signal. Training is
deterministic for a fixed seed and epoch budget.

The featurizer is fixed: its labels, n-gram bounds and hash width are the
constants ``CLASS_LABELS``, ``NGRAM_MIN``/``NGRAM_MAX`` and ``HASH_DIM``, so
the model holds only what training learned. It keeps only the weight columns
of the hashed ids that training features touched: no other column of the
(labels, HASH_DIM) space ever moves from zero. Training runs in that compact
column space with numpy alone, summing each logit and each gradient column
with ``np.bincount`` in row order. Scoring sums the same way: the model's
ids are indexed once, when it is built, as a ``HASH_DIM``-bit bitmap with
the count of ids up to each 64-bit word (a rank directory, see
``ClassifierModel``), so the keys of a batch find their weight rows with a
few shifts, gathers and popcounts (``_lookup``) rather than a binary search
each; the logits of all lines and labels are one ``np.bincount`` over the
batch's terms, each (line, label) bin adding its terms in entry order. Each
line's softmax is then a few Python float operations on its row: the row
max, ``math.exp`` of each logit less it, their sum ``(e0 + e1) + e2`` (the
order numpy sums a 3-wide row in), each exp over that sum, and the label of
the first maximal probability, so the scores are those of the array
``_softmax`` that training runs, bit for bit, without its fixed numpy cost.
Sorting and popcounts are exact on every kernel, so a line's scores and a
trained model's bytes depend neither on the BLAS build nor on numpy's CPU
dispatch, and a line's scores not on the other lines of its batch; a lone
line is a batch of one.

``predict`` stays a per-line call, because ``perfbench`` times this layer
by wrapping ``pipeline.predict`` once per line. Every line, bare text too,
is scored in a ``LineBatch``: the first ``predict`` on it scores them all,
inside that call's span, and later calls look their line up.

``featurize`` hashes the feature texts of a batch of lines (a document, a
training corpus) at once and returns three flat arrays ``(line, ids,
values)``, sorted by id and then by line, as the sort that counts them
leaves them; each line's entries, in increasing id order, add up in every
``bincount`` sum. An entry's key packs its id and its line into one int64,
``id << shift | line`` with ``shift = (n_lines - 1).bit_length()``, which
sorts as ``id * n_lines + line`` does and unpacks with one ``>>`` and one
``&``; a lone line's shift is 0, so its keys are its ids.
A line's n-grams are the ``NGRAM_MIN``- to ``NGRAM_MAX``-byte windows of its
UTF-8 feature text, none crossing into the next line; in ASCII text, which
is nearly all of it after accent stripping, a byte is a character. CRC-32 is
affine over GF(2), so the CRC of a fixed-length window is a constant XOR one
table entry per byte. The entries of every n-gram length are one stacked
``(NGRAM_MAX, 256)`` table (``_gram_table``), masked to ``HASH_DIM - 1`` so
the XOR is the hashed id itself: one gather of the batch's bytes, taken
along the table's columns, gives every byte's entry at every length, and
the n-grams of every line then cost one XOR per n. Counts come from an
in-place sort of the keys and one mask of where each run of equal keys
starts; each line's norm is the Python float power ``sum_sq ** 0.5``
(``math.sqrt`` and ``np.sqrt`` differ from it at some integers), so every
value equals the spelled-out per-line ``count / norm`` bit for bit.

Model file: one JSON header line (magic ``ordonnance-classifier-2``, the
featurizer version, the featurizer's fixed values ``labels``, ``hash_dim``,
``ngram_min`` and ``ngram_max``, ``n_cols``, the holdout accuracy), then raw
little-endian bytes: the ``n_cols`` sorted hashed ids as int64, the
(n_cols, labels) weight block as float64, and the bias as float64. It
round-trips bit-exactly. ``load_model`` is where a model file is checked:
it refuses a header whose version is not ``FEATURE_VERSION`` with
``VersionMismatch``, and with ``SchemaError`` a file without the magic (the
dense format of earlier releases too), one whose featurizer fields are not
the constants (``_FEATURIZER``: a model hashed at another width too), a
holdout accuracy that is neither null nor a number in [0, 1], and non-finite
weights or bias; retrain to get a current model. So ``predict``
checks nothing at run time.
"""

from __future__ import annotations

import functools
import json
import math
import random
import zlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateCorpus, SchemaError, VersionMismatch, check_int, check_number, decode_json
from .textnorm import Sentence

CLASS_LABELS = ("DRUG", "POSOLOGY", "USELESS")

# Bump when featurize() changes incompatibly. Each model file records the
# version it was trained with, and load_model refuses any other. fh2 hashes
# windows of a line's UTF-8 bytes; fh1 hashed windows of its characters,
# which differ only on text that keeps a non-ASCII character.
FEATURE_VERSION = "fh2"

# featurize hashes byte n-grams of these lengths, and words, into HASH_DIM buckets.
NGRAM_MIN = 3
NGRAM_MAX = 5
HASH_DIM = 2**18

# The step size at epoch e is LEARNING_RATE / (1 + LR_DECAY * e). Full-batch
# descent over L2-normalized features needs a large step to reach the margin
# within the epoch budget.
LEARNING_RATE = 5.0
LR_DECAY = 0.01

_MODEL_MAGIC = "ordonnance-classifier-2"

# The featurizer's fixed values: save_model writes them into the model
# header, and load_model refuses a header that differs in any of them.
_FEATURIZER = {"labels": list(CLASS_LABELS), "hash_dim": HASH_DIM, "ngram_min": NGRAM_MIN, "ngram_max": NGRAM_MAX}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    seed: int = 42
    holdout_fraction: float = 0.1

    def __post_init__(self):
        check_int("epochs", self.epochs, 1)
        # random.Random(None) would seed from the system and train differently each time
        check_int("seed", self.seed)
        check_number("holdout_fraction", self.holdout_fraction, 0, 1, open_high=True)


class SentenceClass(NamedTuple):
    """A line's label and its score per label; a named tuple, as one is built per line (see the package docstring)."""

    label: str
    scores: dict[str, float]


class ClassifierModel:
    """The trained columns: their hashed ids, held as a rank index, their weights and the bias.

    The ids (strictly increasing, in ``[0, HASH_DIM)``) are indexed once, when
    the model is built: ``bits`` is a ``HASH_DIM``-bit bitmap of them in 64-bit
    words, most significant bit first (as ``np.packbits`` packs), and
    ``rank[w]`` counts the ids in words ``0..w``. ``bits[i >> 6] << (i & 63)``
    has id ``i``'s bit on top and the ids of its word above ``i`` under it, so
    ``i`` is an id iff that top bit is set, and then its row is ``rank[i >> 6]``
    less the set bits of that shifted word.
    """

    __slots__ = ("bits", "rank", "weights", "bias", "holdout_accuracy")

    def __init__(self, ids: np.ndarray, weights: np.ndarray, bias: np.ndarray, holdout_accuracy: float | None = None):
        present = np.zeros(HASH_DIM, dtype=bool)
        present[ids] = True
        self.bits = np.packbits(present).view(">u8").astype(np.uint64)  # (HASH_DIM // 64,)
        self.rank = np.cumsum(np.bitwise_count(self.bits), dtype=np.int32)  # (HASH_DIM // 64,)
        self.weights = weights  # (n_cols, n_labels): row r holds the weights of the r-th smallest id
        self.bias = bias  # (n_labels,)
        self.holdout_accuracy = holdout_accuracy

    @property
    def ids(self) -> np.ndarray:
        """The (n_cols,) int64 hashed feature ids, strictly increasing, read back from ``bits``."""
        return np.flatnonzero(np.unpackbits(self.bits.astype(">u8").view(np.uint8))).astype(np.int64, copy=False)


@functools.cache
def _seed(prefix: str) -> int:
    """CRC-32 of a feature prefix; chaining it hashes prefix + gram in one call."""
    return zlib.crc32(prefix.encode("utf-8"))


@functools.cache
def _gram_table() -> np.ndarray:
    """The (NGRAM_MAX, 256) int64 entries whose row n - 1 extends an (n-1)-gram's hashed id to the n-gram's.

    CRC-32 is affine over GF(2): for a fixed length its value is the CRC of
    zero bytes XOR one share per byte, ``G[t][b] = crc32(bytes([b]) +
    bytes(t)) ^ crc32(bytes(t + 1))`` for byte ``b`` with ``t`` bytes after
    it. With ``A_n = crc32(bytes(n), _seed(f"c{n}|"))`` the entry of row
    n - 1 for byte ``b`` is ``G[n-1][b] ^ A_n ^ A_{n-1}`` (``A_0 = 0``), so
    that ``H_n[i] = table[n - 1][d[i]] ^ H_{n-1}[i+1]`` is the seeded CRC of
    the n-gram ``d[i:i+n]`` and the prefix costs nothing. Each entry is
    masked to ``HASH_DIM - 1``: the mask commutes with XOR and ``HASH_DIM``
    is a power of two, so ``H_n[i]`` is the n-gram's id ``crc % HASH_DIM``
    itself.
    """
    crc32 = zlib.crc32
    table = np.empty((NGRAM_MAX, 256), dtype=np.int64)
    below = 0  # A_{n-1}
    for n in range(1, NGRAM_MAX + 1):
        here = crc32(bytes(n), _seed(f"c{n}|"))
        offset = crc32(bytes(n)) ^ here ^ below
        tail = bytes(n - 1)
        table[n - 1] = [(crc32(bytes((b,)) + tail) ^ offset) & (HASH_DIM - 1) for b in range(256)]
        below = here
    table.flags.writeable = False  # cached: every caller shares it
    return table


def featurize(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hashed feature vectors of many feature texts: byte n-grams plus word unigrams, L2-normalized.

    Returns ``(line, ids, values)``: flat int64, int64 and float64 arrays
    sorted by feature id, then by line index, so ``ids`` never decreases,
    line ``k``'s ids are strictly increasing and a line without features
    has no entries. The n-gram ``g``, the n bytes ``text.encode()[i:i + n]``,
    hashes to ``crc32(b"c%d|" % n + g) % HASH_DIM`` and the word ``w`` to
    ``crc32(f"w|{w}".encode()) % HASH_DIM``; no window crosses from one line
    into the next. The lines are hashed together as one UTF-8 byte buffer,
    all n-gram lengths from one gather of the stacked ``_gram_table``.
    Entries are counted by sorting keys ``id << shift | line``, where
    ``shift = (len(texts) - 1).bit_length()`` leaves room for every line
    index, so the keys are unique per (id, line) and sort by id, then line.
    """
    n_lines = len(texts)
    shift = (n_lines - 1).bit_length()  # an entry's key is id << shift | line: unique, and in id order
    one = n_lines == 1  # a lone line needs no masks and no per-line norms; its key is its id
    encoded = [text.encode("utf-8") for text in texts]
    data = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    if not one:
        lengths = [len(b) for b in encoded]
        rows = np.repeat(np.arange(n_lines), lengths)
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(data))  # bytes to the line's end
    gathered = _gram_table().take(data, axis=1)  # row n - 1: each byte's share of the n-gram it starts
    parts = []
    for n in range(1, min(NGRAM_MAX, len(data)) + 1):
        share = gathered[n - 1, : len(data) - n + 1]
        crcs = share if n == 1 else share ^ crcs[1:]
        if n >= NGRAM_MIN:
            if one:
                parts.append(crcs)
            else:
                inside = left[: len(crcs)] >= n
                parts.append(crcs[inside] << shift | rows[: len(crcs)][inside])
    keys = []
    crc32 = zlib.crc32
    word_seed = _seed("w|")
    for k, text in enumerate(texts):
        for word in text.split():
            keys.append(crc32(word.encode("utf-8"), word_seed) % HASH_DIM << shift | k)
    parts.append(np.array(keys, dtype=np.int64))
    keys = np.concatenate(parts)
    keys.sort()
    edge = np.empty(len(keys) + 1, dtype=bool)  # edge[i]: a run of equal keys starts at i, or i is the end
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    unique = keys.take(bounds[:-1])
    counts = bounds[1:] - bounds[:-1]
    if one:
        line = np.zeros(len(unique), dtype=np.int64)
        ids = unique
        norm = float(counts @ counts) ** 0.5
    else:
        ids = unique >> shift
        line = unique & ((1 << shift) - 1)
        sum_sq = np.bincount(line, counts * counts, minlength=n_lines)
        norm = np.array([s**0.5 for s in sum_sq.tolist()])[line]
    return line, ids, counts / norm


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax whose every exp is ``math.exp``, so it is the same on every CPU.

    ``np.exp`` picks a kernel for the CPU at run time (AVX-512 or not), and
    the kernels differ in the last bits, which would train a different model
    file on each. The max, the sums and the division are exact or summed in
    a fixed order, so they stay numpy. ``train`` runs it on its whole
    (rows, labels) block; ``_score`` repeats it row by row in Python floats.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.fromiter(map(math.exp, shifted.ravel().tolist()), dtype=np.float64, count=shifted.size)
    exp = exp.reshape(shifted.shape)
    return exp / exp.sum(axis=-1, keepdims=True)


def train(corpus: Sequence[tuple[Sentence, str]], config: TrainConfig = TrainConfig()) -> ClassifierModel:
    """Fit the linear model; deterministic for a fixed config.

    The corpus is shuffled with the config seed and split; the tail
    ``holdout_fraction`` is held out and its accuracy stored on the model.
    Raises DegenerateCorpus when any of the three classes is absent.
    """
    if not corpus:
        raise DegenerateCorpus("empty corpus")
    labels = {label for _, label in corpus}
    missing = set(CLASS_LABELS) - labels
    if missing:
        raise DegenerateCorpus(f"corpus lacks classes: {sorted(missing)}")
    unknown = labels - set(CLASS_LABELS)
    if unknown:
        raise DegenerateCorpus(f"unknown labels in corpus: {sorted(unknown)}")

    order = list(range(len(corpus)))
    random.Random(config.seed).shuffle(order)
    n_holdout = int(len(corpus) * config.holdout_fraction)
    holdout_idx = order[len(order) - n_holdout :]
    train_idx = order[: len(order) - n_holdout]
    if not train_idx:
        raise DegenerateCorpus("holdout fraction leaves no training data")

    n = len(train_idx)
    # The nonzeros in key order, each row's keys sorted and each key's rows
    # sorted: the order in which every logit and every gradient column is summed.
    rows, keys, vals = featurize([corpus[i][0].feature_text for i in train_idx])
    # Only the columns a feature touches ever move from zero; train just those.
    ids, cols = np.unique(keys, return_inverse=True)
    label_pos = {label: j for j, label in enumerate(CLASS_LABELS)}
    y = np.zeros((n, len(CLASS_LABELS)))
    for row, i in enumerate(train_idx):
        y[row, label_pos[corpus[i][1]]] = 1.0

    # bincount adds its weights one by one in input order, so each sum is
    # the same sequence of float additions for any numpy build.
    weights = np.zeros((len(CLASS_LABELS), len(ids)))  # row k: the weights of label k
    bias = np.zeros(len(CLASS_LABELS))
    logits = np.empty((n, len(CLASS_LABELS)))
    for epoch in range(config.epochs):
        lr = LEARNING_RATE / (1.0 + LR_DECAY * epoch)
        for k, w in enumerate(weights):
            logits[:, k] = np.bincount(rows, vals * w[cols], minlength=n)
        grad = (_softmax(logits + bias) - y) / n
        for k, g in enumerate(grad.T):
            weights[k] -= lr * np.bincount(cols, vals * g[rows], minlength=len(ids))
        bias -= lr * grad.sum(axis=0)

    model = ClassifierModel(ids=ids, weights=np.ascontiguousarray(weights.T), bias=bias)
    if holdout_idx:
        classes = _score(model, [corpus[i][0].feature_text for i in holdout_idx])
        correct = sum(1 for i, c in zip(holdout_idx, classes) if c.label == corpus[i][1])
        model.holdout_accuracy = correct / len(holdout_idx)
    return model


class LineBatch:
    """The lines of one document, scored together by the first ``predict`` on any of them."""

    __slots__ = ("sentences", "_classes")

    def __init__(self, sentences: Sequence[Sentence]):
        self.sentences = sentences
        self._classes: dict[int, SentenceClass] | None = None  # by id() of the sentence


def predict(model: ClassifierModel, sentence: Sentence, batch: LineBatch) -> SentenceClass:
    """Class scores for one sentence of ``batch``; a valid probability simplex always.

    The first call on the batch scores every line of it, later calls return
    their own line's result.
    """
    if batch._classes is None:
        texts = [s.feature_text for s in batch.sentences]
        batch._classes = dict(zip(map(id, batch.sentences), _score(model, texts)))
    return batch._classes[id(sentence)]


def _lookup(model: ClassifierModel, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weight row of each hashed id in ``keys``, and 1 where the model has the id, 0 where not.

    A row is in ``[0, n_cols]``, and means nothing where the hit is 0.
    """
    key = keys.view(np.uint64)  # int64 keys against uint64 words would promote to float64 (NEP 50)
    word_at = key >> 6
    top = model.bits.take(word_at) << (key & 63)
    return model.rank.take(word_at) - np.bitwise_count(top), top >> 63


def _score(model: ClassifierModel, texts: Sequence[str]) -> list[SentenceClass]:
    """Each feature text's class scores: one featurize, one id lookup, one bincount, then a softmax per row."""
    line, keys, values = featurize(texts)
    n = len(texts)
    n_labels = len(CLASS_LABELS)
    if len(model.weights):
        rows, hit = _lookup(model, keys)
        # A key the model lacks has weight zero: with the finite weights
        # load_model admits, its terms are +-0.0, which leave a bincount sum
        # (never -0.0) exactly as it was.
        terms = model.weights.take(rows, axis=0, mode="clip") * (values * hit)[:, None]
        # Bin (line, k) adds its line's label-k terms in entry order.
        cells = (line * n_labels)[:, None] + np.arange(n_labels)
        logits = np.bincount(cells.ravel(), terms.ravel(), minlength=n * n_labels).reshape(n, n_labels)
    else:
        logits = np.zeros((n, n_labels))
    classes = []
    exp = math.exp
    for a, b, c in (logits + model.bias).tolist():
        # _softmax on one row, bit for bit: numpy sums a 3-wide row left to right
        top = max(a, b, c)
        ea, eb, ec = exp(a - top), exp(b - top), exp(c - top)
        total = ea + eb + ec
        pa, pb, pc = ea / total, eb / total, ec / total
        best = 0 if pa >= pb and pa >= pc else 1 if pb >= pc else 2  # the first maximum, as argmax picks
        classes.append(SentenceClass(CLASS_LABELS[best], dict(zip(CLASS_LABELS, (pa, pb, pc)))))
    return classes


def save_model(model: ClassifierModel, path) -> None:
    header = {
        "magic": _MODEL_MAGIC,
        "version": FEATURE_VERSION,
        **_FEATURIZER,
        "n_cols": len(model.weights),
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
    if not isinstance(header, dict) or header.get("magic") != _MODEL_MAGIC:
        raise SchemaError(f"{path}: not a classifier model file")
    if (version := header.get("version")) != FEATURE_VERSION:
        raise VersionMismatch(f"{path}: model featurizer {version!r} != runtime {FEATURE_VERSION!r}")
    for name, fixed in _FEATURIZER.items():
        value = header.get(name)
        if type(value) is not type(fixed) or value != fixed:  # a float 3.0 would compare equal to 3
            raise SchemaError(
                f"{path}: model header field {name!r} must be {fixed!r}, got {value!r}; retrain the model"
            )
    n_cols = header.get("n_cols")
    if type(n_cols) is not int or n_cols < 0:
        raise SchemaError(f"{path}: model header field 'n_cols' must be an int >= 0, got {n_cols!r}")
    accuracy = header.get("holdout_accuracy")
    if accuracy is not None:
        try:
            check_number("holdout_accuracy", accuracy, 0, 1)
        except ValueError:
            raise SchemaError(
                f"{path}: model header field 'holdout_accuracy' must be null or a number in [0, 1], got {accuracy!r}"
            ) from None
    n_weights = n_cols * len(CLASS_LABELS)
    expected = (n_cols + n_weights + len(CLASS_LABELS)) * 8
    if len(blob) != expected:
        raise SchemaError(f"{path}: model payload has {len(blob)} bytes, expected {expected}")
    ids = np.frombuffer(blob, dtype="<i8", count=n_cols).astype(np.int64)
    if n_cols and (ids[0] < 0 or ids[-1] >= HASH_DIM or not np.all(ids[1:] > ids[:-1])):
        raise SchemaError(f"{path}: model ids must be strictly increasing in [0, {HASH_DIM})")
    flat = np.frombuffer(blob, dtype="<f8", offset=n_cols * 8).astype(np.float64)
    if not np.isfinite(flat).all():
        raise SchemaError(f"{path}: model weights and bias must be finite numbers")
    return ClassifierModel(
        ids=ids,
        weights=flat[:n_weights].reshape(n_cols, len(CLASS_LABELS)),
        bias=flat[n_weights:],
        holdout_accuracy=accuracy,
    )
