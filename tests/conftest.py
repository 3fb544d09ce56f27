import csv
import pathlib

import pytest

from ordonnance.classify import TrainConfig, save_model, train
from ordonnance.corpus import AnnotatedSentence, CorpusSpec, generate, noisify
from ordonnance.druglink import build_lexicon, default_lexicon_path
from ordonnance.errors import data_path
from ordonnance.patterns import load_patterns
from ordonnance.pipeline import Runtime
from ordonnance.textnorm import load_stopwords, sentence_from_text

DATA_DIR = pathlib.Path(__file__).parent / "data"

# Desk-scale training setup shared by the acceptance suite and CLI tests.
DESK_SPEC = dict(n_drug=1500, n_posology=1500, n_useless=1500, seed=42)

# The big lexicon: every first name token of the demo lexicon (its stem),
# with each lab, dose and form; 174 x 6 x 3 x 3 = 9,396 entries.
BIG_LABS = ("ARROW", "BIOGARAN", "CRISTERS", "EG", "SANDOZ", "TEVA")
BIG_DOSES = ("5 mg", "100 mg", "1 g")
BIG_FORMS = ("comprimé", "gélule", "solution buvable")


def big_lexicon_rows() -> list[tuple[str, str]]:
    """(id, name) rows of a deterministic lexicon of about 9k entries, built without a download."""
    stems = sorted(build_lexicon(default_lexicon_path()).first_token_index)
    names = [
        f"{stem.upper()} {lab} {dose}, {form}"
        for stem in stems
        for lab in BIG_LABS
        for dose in BIG_DOSES
        for form in BIG_FORMS
    ]
    return [(f"BIG{n:05d}", name) for n, name in enumerate(names)]


def write_big_lexicon(path) -> pathlib.Path:
    """Write the big lexicon as a lexicon CSV; also run from CI to feed the CLI."""
    path = pathlib.Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name"])
        writer.writerows(big_lexicon_rows())
    return path


def combined_gold(n: int, seed: int, noise: float) -> list[AnnotatedSentence]:
    """n gold combined lines, each a drug line and a posology line on one line; also run from CI.

    Line i joins generated drug sentence i and posology sentence i with one
    of four separators in turn, shifts the posology spans past the join, and
    at ``noise > 0`` is noised as ``gen-corpus --noise`` noises a sentence.
    """
    rows = generate(CorpusSpec(n_drug=n, n_posology=n, n_useless=0, seed=seed, lexicon_path=default_lexicon_path()))
    lines = []
    for i, (drug, posology) in enumerate(zip(rows[:n], rows[n:])):
        head = drug.text + (" ", " : ", " - ", ", ")[i % 4]
        shifted = tuple((kind, start + len(head), end + len(head)) for kind, start, end in posology.spans)
        line = AnnotatedSentence(text=head + posology.text, label="DRUG", spans=drug.spans + shifted)
        lines.append(noisify(line, noise, seed * 1_000_003 + i) if noise > 0 else line)
    return lines


def posology_line_texts(seed: int) -> list[str]:
    """The digest's posology-lines pool: 1,500 posology and 500 boilerplate lines, clean, then at noise 0.1."""
    lines = generate(CorpusSpec(0, 1500, 500, seed=seed, lexicon_path=default_lexicon_path()))
    return [s.text for s in lines] + [noisify(s, 0.1, seed * 1_000_003 + i).text for i, s in enumerate(lines)]


def avx512_dispatch_names() -> list[str]:
    """numpy's AVX-512 dispatch targets that this CPU has; also run from CI.

    They are the names in numpy's dispatch list that contain "512" or equal
    "X86_V4" and that its CPU feature map marks available. Naming them in
    ``NPY_DISABLE_CPU_FEATURES`` makes numpy run its AVX2 or baseline kernels.
    """
    from numpy._core import _multiarray_umath as umath
    available = umath.__cpu_features__
    return [name for name in umath.__cpu_dispatch__ if ("512" in name or name == "X86_V4") and available.get(name)]


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords(data_path("stopwords_fr.txt"))


@pytest.fixture(scope="session")
def patterns():
    return load_patterns(data_path("patterns_fr.json"))


@pytest.fixture(scope="session")
def lexicon():
    return build_lexicon(default_lexicon_path())


@pytest.fixture(scope="session")
def big_lexicon_path(tmp_path_factory):
    return write_big_lexicon(tmp_path_factory.mktemp("lexicon") / "big.csv")


@pytest.fixture(scope="session")
def big_lexicon(big_lexicon_path):
    return build_lexicon(big_lexicon_path)


@pytest.fixture(scope="session")
def desk_corpus():
    spec = CorpusSpec(lexicon_path=default_lexicon_path(), **DESK_SPEC)
    return generate(spec)


@pytest.fixture(scope="session")
def trained_model(desk_corpus, stopwords):
    pairs = []
    for row in desk_corpus:
        sentence = sentence_from_text(row.text, stopwords)
        if sentence is not None:
            pairs.append((sentence, row.label))
    return train(pairs, TrainConfig())


@pytest.fixture(scope="session")
def model_file(trained_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "classifier.bin"
    save_model(trained_model, path)
    return path


@pytest.fixture(scope="session")
def runtime(trained_model, lexicon, patterns, stopwords):
    return Runtime(model=trained_model, lexicon=lexicon, patterns=patterns, stopwords=stopwords)


@pytest.fixture(scope="session")
def noisy_texts():
    """1,000 generated sentences of every class at OCR noise 0.1."""
    spec = CorpusSpec(n_drug=400, n_posology=300, n_useless=300, seed=3, lexicon_path=default_lexicon_path())
    return [noisify(s, 0.1, 3_000 + i).text for i, s in enumerate(generate(spec))]
