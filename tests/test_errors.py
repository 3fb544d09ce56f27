"""The one JSON-decode rule, as every loader of a JSON input applies it.

Each loader turns a file or payload that does not decode into its own typed
error, worded ``<where>: not valid JSON: <reason>`` or ``<where>: JSON nests
too deeply to decode``, whatever the reason: invalid UTF-8, an integer
literal too long to convert, nesting deeper than the decoder recurses, or
truncated JSON. The files shipped with the package go through the same
loaders as user files.
"""

import json
import sys
from importlib import resources

import pytest

from ordonnance import cli
from ordonnance.classify import load_model
from ordonnance.corpus import default_templates, read_jsonl
from ordonnance.druglink import default_equivalence_markers, default_lexicon_path
from ordonnance.errors import PatternError, SchemaError, data_path
from ordonnance.ocr import parse_ocr_document
from ordonnance.patterns import default_patterns, load_patterns, parse_patterns
from ordonnance.textnorm import read_word_list

LOADERS = [
    pytest.param(lambda path: parse_ocr_document(path.read_bytes()), SchemaError, id="ocr-payload"),
    pytest.param(load_patterns, PatternError, id="patterns"),
    pytest.param(read_jsonl, SchemaError, id="corpus"),
    pytest.param(load_model, SchemaError, id="model"),
    pytest.param(cli._load_config, SchemaError, id="config"),
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
    assert default_patterns().patterns == parse_patterns(json.loads(shipped("patterns_fr.json"))).patterns
    assert default_equivalence_markers() == read_word_list(shipped("equivalence_markers.txt"))
