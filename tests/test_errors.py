"""The one JSON-decode rule, as every loader of a JSON input applies it.

Each loader turns a file or payload that does not decode into its own typed
error, worded ``<where>: not valid JSON: <reason>`` or ``<where>: JSON nests
too deeply to decode``, whatever the reason: invalid UTF-8, an integer
literal too long to convert, nesting deeper than the decoder recurses, or
truncated JSON. The files shipped with the package go through the same
loaders as user files. Every numeric setting is checked by `check_int` or
`check_number`, and refuses a value with a ``ValueError`` naming the setting,
its rule and the value.
"""

import json
import math
import sys
from importlib import resources

import pytest

from ordonnance.classify import TrainConfig, load_model
from ordonnance.corpus import AnnotatedSentence, CorpusSpec, default_templates, noisify, read_jsonl
from ordonnance.druglink import default_equivalence_markers, default_lexicon_path
from ordonnance.errors import FileError, PatternError, SchemaError, check_int, check_number, data_path, read_utf8
from ordonnance.linking import LinkConfig
from ordonnance.ocr import parse_ocr_document
from ordonnance.patterns import load_patterns
from ordonnance.textnorm import read_word_list

LOADERS = [
    pytest.param(lambda path: parse_ocr_document(path.read_bytes()), SchemaError, id="ocr-payload"),
    pytest.param(load_patterns, PatternError, id="patterns"),
    pytest.param(read_jsonl, SchemaError, id="corpus"),
    pytest.param(load_model, SchemaError, id="model"),
]

_DEPTH = 200_000

PAYLOADS = [
    pytest.param(b'{"text": "caf\xe9"}\n', id="invalid-utf-8"),
    pytest.param(b'{"text": ' + b"9" * 5000 + b"}\n", id="integer-too-long"),
    pytest.param(b'{"text": ' + b"[" * _DEPTH + b"]" * _DEPTH + b"}\n", id="nested-too-deeply"),
    pytest.param(b'{"text": "doli', id="truncated"),
]


@pytest.mark.parametrize("payload", PAYLOADS)
@pytest.mark.parametrize("load, error", LOADERS)
def test_undecodable_json_is_the_loaders_own_error(tmp_path, load, error, payload):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    with pytest.raises(error) as info:
        load(path)
    assert type(info.value) is error
    # Without an integer-digit limit (Python before 3.10.7) the long integer
    # decodes, and the loader refuses the record's shape instead.
    if b"9" * 5000 not in payload or hasattr(sys, "set_int_max_str_digits"):
        assert str(info.value).endswith(": JSON nests too deeply to decode") or ": not valid JSON: " in str(info.value)


def test_each_shipped_file_loads_as_its_text_read_on_its_own():
    def shipped(name):
        return resources.files("ordonnance.data").joinpath(name).read_text("utf-8")

    assert default_lexicon_path() == data_path("lexicon_demo.csv")
    assert default_templates() == json.loads(shipped("templates_fr.json"))
    assert default_equivalence_markers() == read_word_list(shipped("equivalence_markers.txt"), "markers")


# ---- the one rule for a plain-text file -----------------------------------------

@pytest.mark.parametrize("data, line, offset", [
    (b"le\npar\n\xe0\n", 3, 7),
    (b"le\r\npar\r\n\xe0\r\n", 3, 9),
    (b"le\rpar\r\xe0\r", 3, 7),
    (b"le\r\npar\rde\n\xe0\n", 4, 11),
    (b"\xef\xbb\xbfle\npar\n\xe0\n", 3, 10),
], ids=["lf", "crlf", "cr", "mixed", "after-a-bom"])
def test_invalid_utf8_names_its_line_whatever_ends_the_lines(tmp_path, data, line, offset):
    # a line ends at \n, \r\n or a lone \r; the byte offset counts from the start of the file
    path = tmp_path / "words.txt"
    path.write_bytes(data)
    with pytest.raises(FileError) as info:
        read_utf8(path)
    assert str(info.value) == f"{path}:{line}: not valid UTF-8: invalid continuation byte at byte {offset}"


# ---- the one rule for a numeric setting ---------------------------------------

# 10**400 and -10**400 are ints that no float can hold.
SETTING_GRID = (-1, 0, 0.3, 0.31, 0.5, 1, 1.5, 2, True, False, math.nan, math.inf, -math.inf, "1", None, 10**400, -10**400)

_SENTENCE = AnnotatedSentence("1 cp par jour", "POSOLOGY")


def _spec(**field):
    return CorpusSpec(**{"n_drug": 1, "n_posology": 1, "n_useless": 1, "seed": 0, "lexicon_path": "x", **field})


# Each setting's name, the call that takes it, and the grid values it accepts:
# exactly those that each record's own hand-written check accepted before
# `check_int` and `check_number` took over, less the ints no float can hold,
# which a number setting now refuses. An int setting still takes them.
SETTINGS = [
    pytest.param("epochs", lambda v: TrainConfig(epochs=v), [1, 2, 10**400], id="TrainConfig.epochs"),
    pytest.param("seed", lambda v: TrainConfig(seed=v), [-1, 0, 1, 2, 10**400, -10**400], id="TrainConfig.seed"),
    pytest.param("holdout_fraction", lambda v: TrainConfig(holdout_fraction=v), [0, 0.3, 0.31, 0.5],
                 id="TrainConfig.holdout_fraction"),
    pytest.param("section_gap_factor", lambda v: LinkConfig(section_gap_factor=v), [0.3, 0.31, 0.5, 1, 1.5, 2],
                 id="LinkConfig.section_gap_factor"),
    pytest.param("drug_gap_factor", lambda v: LinkConfig(drug_gap_factor=v), [0.3, 0.31, 0.5, 1, 1.5, 2],
                 id="LinkConfig.drug_gap_factor"),
    pytest.param("overlap_fraction", lambda v: LinkConfig(overlap_fraction=v), [0.3, 0.31, 0.5, 1],
                 id="LinkConfig.overlap_fraction"),
    pytest.param("n_drug", lambda v: _spec(n_drug=v), [0, 1, 2, 10**400], id="CorpusSpec.n_drug"),
    pytest.param("n_posology", lambda v: _spec(n_posology=v), [0, 1, 2, 10**400], id="CorpusSpec.n_posology"),
    pytest.param("n_useless", lambda v: _spec(n_useless=v), [0, 1, 2, 10**400], id="CorpusSpec.n_useless"),
    pytest.param("seed", lambda v: _spec(seed=v), [-1, 0, 1, 2, 10**400, -10**400], id="CorpusSpec.seed"),
    pytest.param("rate", lambda v: noisify(_SENTENCE, v, 0), [0, 0.3], id="noisify.rate"),
    pytest.param("seed", lambda v: noisify(_SENTENCE, 0.1, v), [-1, 0, 1, 2, 10**400, -10**400], id="noisify.seed"),
]


@pytest.mark.parametrize("name, make, accepted", SETTINGS)
def test_each_setting_accepts_the_grid_values_it_always_accepted(name, make, accepted):
    took = []
    for value in SETTING_GRID:
        try:
            make(value)
        except ValueError as exc:
            assert str(exc).startswith(f"{name} must be ") and str(exc).endswith(f", got {value!r}")
        else:
            took.append(value)
    # `==` would let True stand for 1 and False for 0
    assert [(type(v), v) for v in took] == [(type(v), v) for v in accepted]


@pytest.mark.parametrize("check, message", [
    (lambda: check_int("n", 0, 1), "n must be an int >= 1, got 0"),
    (lambda: check_int("n", 1.0), "n must be an int, got 1.0"),
    (lambda: check_number("x", 0, 0, math.inf, open_low=True, open_high=True), "x must be a number in (0, inf), got 0"),
    (lambda: check_number("x", 1, 0, 1, open_high=True), "x must be a number in [0, 1), got 1"),
    (lambda: check_number("x", 0, 0, 1, open_low=True), "x must be a number in (0, 1], got 0"),
    (lambda: check_number("x", math.nan, 0, 1), "x must be a number in [0, 1], got nan"),
    (lambda: check_number("x", 2**1024, 0, math.inf, open_low=True, open_high=True),
     f"x must be a number a float can hold, got {2**1024}"),
    (lambda: check_number("x", -(10**400), 0, 1), f"x must be a number a float can hold, got {-(10**400)}"),
])
def test_a_refused_setting_is_named_with_its_rule_and_value(check, message):
    with pytest.raises(ValueError) as info:
        check()
    assert str(info.value) == message


def test_the_largest_int_a_float_can_hold_is_a_number():
    largest = int(sys.float_info.max)
    check_number("x", largest, 0, math.inf, open_low=True, open_high=True)
    check_number("x", -largest, -math.inf, 0)
