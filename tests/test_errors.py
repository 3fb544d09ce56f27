"""The one JSON-decode rule, as every loader of a JSON input applies it.

Each loader turns a file or payload that does not decode into its own typed
error, worded ``<where>: not valid JSON: <reason>`` or ``<where>: JSON nests
too deeply to decode``, whatever the reason: invalid UTF-8, an integer
literal too long to convert, nesting deeper than the decoder recurses, or
truncated JSON.
"""

import sys

import pytest

from ordonnance import cli
from ordonnance.classify import load_model
from ordonnance.corpus import read_jsonl
from ordonnance.errors import PatternError, SchemaError
from ordonnance.ocr import parse_ocr_document
from ordonnance.patterns import load_patterns

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
