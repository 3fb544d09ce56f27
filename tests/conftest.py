import pathlib

import pytest

from ordonnance.classify import TrainConfig, save_model, train
from ordonnance.corpus import CorpusSpec, generate, noisify
from ordonnance.druglink import build_lexicon, default_lexicon_path
from ordonnance.patterns import default_patterns
from ordonnance.pipeline import Runtime
from ordonnance.textnorm import load_stopwords, sentence_from_text

DATA_DIR = pathlib.Path(__file__).parent / "data"

# Desk-scale training setup shared by the acceptance suite and CLI tests.
DESK_SPEC = dict(n_drug=1500, n_posology=1500, n_useless=1500, seed=42)


@pytest.fixture(scope="session")
def stopwords():
    from importlib import resources

    return load_stopwords(str(resources.files("ordonnance.data").joinpath("stopwords_fr.txt")))


@pytest.fixture(scope="session")
def patterns():
    return default_patterns()


@pytest.fixture(scope="session")
def lexicon():
    return build_lexicon(default_lexicon_path())


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
