"""CLI contract tests: records on stdout or in files, typed JSON errors on stderr.

Exit codes: 2 for a bad value in a file, flag or payload, 3 for a file that
cannot be read or written, 4 for anything else. Every error is one JSON line
on stderr, never a traceback.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

from ordonnance import cli
from ordonnance.cli import main
from ordonnance.classify import FEATURE_VERSION, TrainConfig, load_model, save_model, train
from ordonnance.corpus import read_jsonl
from ordonnance.druglink import default_lexicon_path
from ordonnance.errors import data_path
from ordonnance.linking import dumps_canonical, record_to_dict
from ordonnance.metrics import report_to_json, score
from ordonnance.ocr import parse_ocr_document
from ordonnance.pipeline import annotate_text, extract_document
from ordonnance.textnorm import load_stopwords, sentence_from_text

from conftest import DATA_DIR

FIXTURE = DATA_DIR / "ocr_fixture_7drugs.json"


@pytest.fixture
def run(model_file):
    def invoke(*args):
        return CliRunner().invoke(main, ["extract", "--model", str(model_file), *args])

    return invoke


def _error(result) -> list[dict]:
    lines = result.stderr.strip().splitlines()
    assert lines, "no error reported on stderr"
    return [json.loads(line)["error"] for line in lines]


def test_extract_fixture_to_stdout(run):
    result = run("--input", str(FIXTURE))
    assert result.exit_code == 0, result.stderr
    record = json.loads(result.stdout)
    assert len(record["drugs"]) == 7
    assert result.stderr == ""


def test_malformed_patterns_file_is_a_schema_error(run, tmp_path):
    bad = tmp_path / "patterns.json"
    bad.write_text('[{"id": "p1", "label": "DOSE"}]', encoding="utf-8")  # no specs
    result = run("--input", str(FIXTURE), "--patterns", str(bad))
    assert result.exit_code == 2
    assert [e["type"] for e in _error(result)] == ["patterns"]


def test_invalid_json_patterns_file_is_a_schema_error(run, tmp_path):
    bad = tmp_path / "patterns.json"
    bad.write_text("[{", encoding="utf-8")
    result = run("--input", str(FIXTURE), "--patterns", str(bad))
    assert result.exit_code == 2
    assert [e["type"] for e in _error(result)] == ["patterns"]


def test_patterns_file_with_an_over_long_pattern_is_a_schema_error(run, tmp_path):
    bad = tmp_path / "patterns.json"
    specs = [{"regex": "[0-9]+"}] * 17  # one more than patterns.MAX_SPECS
    bad.write_text(json.dumps([{"id": "long", "label": "DOSE", "specs": specs}]), encoding="utf-8")
    result = run("--input", str(FIXTURE), "--patterns", str(bad))
    assert result.exit_code == 2
    (error,) = _error(result)
    assert error["type"] == "patterns" and "'long' has 17 specs, more than 16" in error["message"], error


@pytest.mark.parametrize("data, message", [
    ([], "a pattern set holds no patterns"),
    ([{"id": "xs", "label": "DOSE", "specs": [{"lower": "x", "op": "+"}]}], "patterns[0].specs[0].op: '+' not one of 1 ?"),
    ([{"id": "xs", "label": "DOSE", "specs": [{"lower": "x", "op": "*"}]}], "patterns[0].specs[0].op: '*' not one of 1 ?"),
    ([{"id": "xs", "label": "DOSE", "lable": "DOSE", "specs": [{"lower": "x"}]}], "patterns[0]: unknown pattern fields ['lable']"),
], ids=["no-patterns", "plus-op", "star-op", "unknown-pattern-field"])
def test_patterns_file_refused_by_the_set_is_a_schema_error(run, tmp_path, data, message):
    bad = tmp_path / "patterns.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = run("--input", str(FIXTURE), "--patterns", str(bad))
    assert result.exit_code == 2 and result.stdout == ""
    (error,) = _error(result)
    assert error["type"] == "patterns" and message in error["message"], error


def test_missing_patterns_file_is_a_missing_file(run, tmp_path):
    result = run("--input", str(FIXTURE), "--patterns", str(tmp_path / "absent.json"))
    assert result.exit_code == 3
    assert [e["type"] for e in _error(result)] == ["patterns"]


def test_missing_input_is_a_missing_file(run, tmp_path):
    result = run("--input", str(tmp_path / "absent.json"))
    assert result.exit_code == 3
    assert [e["type"] for e in _error(result)] == ["input"]


def test_bad_document_does_not_sink_the_batch(run, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("not json", encoding="utf-8")
    absent = tmp_path / "absent.json"
    out = tmp_path / "out"
    result = run("--input", str(bad), "--input", str(FIXTURE), "--input", str(absent), "--out", str(out))
    # every input is processed; the exit code is that of the first failure
    assert result.exit_code == 2
    assert [e["type"] for e in _error(result)] == ["SchemaError", "input"]
    assert sorted(p.name for p in out.iterdir()) == ["ocr_fixture_7drugs.record.json"]
    record = json.loads((out / "ocr_fixture_7drugs.record.json").read_text(encoding="utf-8"))
    assert len(record["drugs"]) == 7


_TABLE_DRUG_RE = re.compile(r"  (?P<name>.+)  \[(?P<drug_id>[^\]]+)\]  score=(?P<score>\d\.\d{3})")


def test_extract_table_lists_the_json_record_of_the_same_run(run):
    record = json.loads(run("--input", str(FIXTURE)).stdout)
    result = run("--input", str(FIXTURE), "--format", "table")
    assert result.exit_code == 0, result.stderr
    document, *lines = result.stdout.splitlines()
    assert document == f"document: {record['doc_id']}"
    # the fixture's record has no orphan and no unlinked drug line
    expected = []
    for drug in record["drugs"]:
        expected.append(("drug", drug["name"], drug["drug_id"], f"{drug['score']:.3f}"))
        expected += [("entity", e["kind"], e["text"]) for p in drug["posologies"] for e in p["entities"]]
    got = []
    for line in lines:
        if line.startswith("      "):
            got.append(("entity", *line.split(None, 1)))
        else:
            m = _TABLE_DRUG_RE.fullmatch(line)
            assert m, line
            got.append(("drug", m["name"], m["drug_id"], m["score"]))
    assert got == expected
    assert sum(kind == "drug" for kind, *_ in got) == 7
    assert sum(kind == "entity" for kind, *_ in got) > 7


def test_two_inputs_in_table_format_write_one_record_txt_each(run, tmp_path):
    payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
    payload["lines"].reverse()
    second = _write(tmp_path / "second.json", json.dumps(payload))
    single = run("--input", str(FIXTURE), "--format", "table")
    assert single.exit_code == 0, single.stderr
    out = tmp_path / "out"
    result = run("--input", str(FIXTURE), "--input", second, "--out", str(out), "--format", "table")
    assert result.exit_code == 0, result.stderr
    assert result.stdout == ""
    assert sorted(p.name for p in out.iterdir()) == ["ocr_fixture_7drugs.record.txt", "second.record.txt"]
    for name in ("ocr_fixture_7drugs.record.txt", "second.record.txt"):
        assert (out / name).read_text(encoding="utf-8") == single.stdout


def test_several_inputs_need_an_out_directory(run):
    result = run("--input", str(FIXTURE), "--input", str(FIXTURE))
    assert result.exit_code == 2
    assert [e["type"] for e in _error(result)] == ["usage"]


@pytest.mark.parametrize("same_path", [False, True], ids=["same-stem", "same-path"])
def test_inputs_writing_the_same_record_are_refused_before_anything_is_written(run, tmp_path, same_path):
    first = tmp_path / "a" / "doc.json"
    second = first if same_path else tmp_path / "b" / "doc.json"
    for path in (first, second):
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(FIXTURE.read_bytes())
    out = tmp_path / "out"
    result = run("--input", str(first), "--input", str(FIXTURE), "--input", str(second), "--out", str(out))
    assert result.exit_code == 2
    (error,) = _error(result)
    assert error["type"] == "usage"
    assert str(first) in error["message"] and str(second) in error["message"]
    assert str(FIXTURE) not in error["message"]
    assert not out.exists()


# A small corpus with all three classes: enough for `train` to succeed.
_CORPUS = [
    {"text": "doliprane 1000 mg", "label": "DRUG"},
    {"text": "kardegic 75 mg", "label": "DRUG"},
    {"text": "1 cp matin et soir", "label": "POSOLOGY"},
    {"text": "pendant 10 jours", "label": "POSOLOGY"},
    {"text": "docteur jean dupont", "label": "USELESS"},
    {"text": "signature du medecin", "label": "USELESS"},
]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _corpus(tmp_path):
    return _write(tmp_path / "corpus.jsonl", "".join(json.dumps(row) + "\n" for row in _CORPUS))


def _extract(model_file, *args):
    return ["extract", "--model", str(model_file), "--input", str(FIXTURE), *args]


def _dense_model_file(path):
    """A model file in the dense format of earlier releases: (labels, hash_dim) weights."""
    header = {"magic": "ordonnance-classifier", "version": "fh1", "labels": ["DRUG", "POSOLOGY", "USELESS"],
              "ngram_min": 3, "ngram_max": 5, "hash_dim": 16, "holdout_accuracy": None}
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + bytes(8 * (3 * 16 + 3)))
    return str(path)


def _model_file_with_labels(path, labels):
    """A current-format model file without columns, with the given labels."""
    header = {"magic": "ordonnance-classifier-2", "version": FEATURE_VERSION, "labels": labels,
              "ngram_min": 3, "ngram_max": 5, "hash_dim": 2**18, "n_cols": 0, "holdout_accuracy": None}
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + bytes(8 * len(labels)))
    return str(path)


def _model_file_with(model_file, path, **fields):
    """The model file with the given header fields changed: an earlier featurizer, another hash width."""
    header, _, payload = model_file.read_bytes().partition(b"\n")
    path.write_bytes(json.dumps({**json.loads(header), **fields}).encode("utf-8") + b"\n" + payload)
    return str(path)


def _gold(path, record):
    return _write(path, json.dumps(record) + "\n")


# A predictions record whose span lies inside its own text but beyond the
# gold sentence it is aligned with (_CORPUS[0], 17 characters).
_BEYOND_GOLD = {"text": "doliprane 1000 mg, comprime secable", "label": "DRUG",
                "spans": [{"kind": "DRUG", "start": 20, "end": 30}]}


def _eval_predictions(d, prediction, *args):
    return ["eval", "--gold", _gold(d / "gold.jsonl", _CORPUS[0]),
            "--predictions", _gold(d / "pred.jsonl", prediction), *args]


def _latin1(path, text):
    path.write_bytes(text.encode("latin-1"))
    return str(path)


def _one_lower_pattern(word):
    return json.dumps([{"id": "p1", "label": "FREQUENCY", "specs": [{"lower": word}]}], ensure_ascii=False)


def _fixture_with_line_box(path, field, value):
    data = json.loads(FIXTURE.read_text(encoding="utf-8"))
    data["lines"][0]["bbox"][field] = value
    return _write(path, json.dumps(data))  # json writes the non-standard NaN token


def _deeply_nested(key, depth=200_000):
    """A JSON object whose one value nests lists deeper than the decoder recurses."""
    return '{"%s": %s%s}' % (key, "[" * depth, "]" * depth)


def _raise_runtime_error(text, runtime):
    raise RuntimeError("annotate_text broke")


# Each row: CLI arguments built from the model file and a scratch directory,
# the exit code, the reported error type, the attribute of ordonnance.cli
# broken for the run, and a pattern the error message must hold (every model
# row has one, so it fails on the check its id names) or None.
ERROR_CASES = [
    pytest.param(
        lambda m, d: _extract(m, "--lexicon", _write(d / "dup.csv", "id,name\nA,doliprane\nA,smecta\n")),
        2, "lexicon", None, None, id="duplicate-lexicon-id",
    ),
    pytest.param(
        lambda m, d: ["lexicon-check", "--lexicon", str(d / "absent.csv")],
        3, "lexicon", None, None, id="lexicon-check-absent-file",
    ),
    pytest.param(
        lambda m, d: ["lexicon-check", "--lexicon", _write(d / "extra.csv", "id,name\n1,DOLIPRANE 1000 mg, comprime\n")],
        2, "lexicon", None, None, id="lexicon-check-extra-cell",
    ),
    pytest.param(
        lambda m, d: ["gen-corpus", "--n-drug", "1", "--n-posology", "1", "--n-useless", "1",
                      "--out", str(d / "missing" / "corpus.jsonl")],
        3, "corpus", None, None, id="gen-corpus-out-in-missing-dir",
    ),
    pytest.param(
        lambda m, d: ["train", "--input", _corpus(d), "--model", str(d / "missing" / "m.bin"),
                      "--epochs", "2"],
        3, "model", None, "No such file or directory", id="train-model-in-missing-dir",
    ),
    pytest.param(lambda m, d: _extract(m, "--patterns", ""), 3, "patterns", None, None, id="patterns-flag-empty"),
    pytest.param(
        lambda m, d: _extract(m, "--patterns", _write(d / "patterns.json", _one_lower_pattern("Matin"))),
        2, "patterns", None, None, id="patterns-lower-word-with-a-capital",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--patterns", _write(d / "patterns.json", _one_lower_pattern("après"))),
        2, "patterns", None, None, id="patterns-lower-word-with-an-accent",
    ),
    pytest.param(
        lambda m, d: ["extract", "--model", str(m), "--input", _fixture_with_line_box(d / "nan.json", "top", float("nan"))],
        2, "GeometryError", None, None, id="line-box-top-nan",
    ),
    pytest.param(
        lambda m, d: ["extract", "--model", str(m), "--input", _fixture_with_line_box(d / "big.json", "left", 10**400)],
        2, "GeometryError", None, None, id="line-box-left-beyond-the-float-range",
    ),
    pytest.param(
        lambda m, d: ["extract", "--model", str(m), "--input", _write(d / "deep.json", _deeply_nested("doc_id"))],
        2, "SchemaError", None, None, id="payload-nested-too-deeply",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--patterns", _write(d / "patterns.json", _deeply_nested("id"))),
        2, "patterns", None, None, id="patterns-nested-too-deeply",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _write(d / "gold.jsonl", _deeply_nested("text") + "\n")],
        2, "gold", None, None, id="gold-line-nested-too-deeply",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE), "--model", _write(d / "m.bin", _deeply_nested("magic") + "\n")],
        2, "model", None, "model header: JSON nests too deeply", id="model-header-nested-too-deeply",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--out", str(d / "missing" / "record.json")),
        3, "output", None, None, id="extract-out-in-missing-dir",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE),
                      "--model", _write(d / "m.bin", json.dumps({"magic": "ordonnance-classifier-2",
                                                                 "version": FEATURE_VERSION}) + "\n")],
        2, "model", None, "model header field 'labels' must be .*, got None", id="model-header-without-labels",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE), "--model", _dense_model_file(d / "dense.bin")],
        2, "model", None, "dense.bin: not a classifier model file", id="model-file-in-the-earlier-dense-format",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE),
                      "--model", _model_file_with_labels(d / "m.bin", ["A", "B", "C"])],
        2, "model", None, r"'labels' must be .*, got \['A', 'B', 'C'\]", id="model-labels-not-the-three-classes",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _write(d / "gold.jsonl", '"doliprane 1000 mg"\n')],
        2, "gold", None, None, id="gold-line-is-a-json-string",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _gold(d / "gold.jsonl", {"text": 5, "label": "DRUG"})],
        2, "gold", None, None, id="gold-text-a-number",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _gold(d / "gold.jsonl", {**_CORPUS[0], "spans": [
            {"kind": "DRUG", "start": 0.9, "end": 9.0}]})],
        2, "gold", None, None, id="gold-span-float-offsets",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _gold(d / "gold.jsonl", {**_CORPUS[0], "spans": [
            {"kind": "DRUG", "start": "0", "end": "9"}]})],
        2, "gold", None, None, id="gold-span-string-offsets",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE), "--model", _model_file_with(m, d / "stale.bin", version="fh0")],
        2, "model", None, f"model featurizer 'fh0' != runtime '{FEATURE_VERSION}'", id="extract-stale-model",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _gold(d / "gold.jsonl", _CORPUS[0]),
                      "--model", _model_file_with(m, d / "stale.bin", version="fh0")],
        2, "model", None, f"model featurizer 'fh0' != runtime '{FEATURE_VERSION}'", id="eval-stale-model",
    ),
    # fh1 hashed character windows, which differ from byte windows on non-ASCII text
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE), "--model", _model_file_with(m, d / "fh1.bin", version="fh1")],
        2, "model", None, f"model featurizer 'fh1' != runtime '{FEATURE_VERSION}'", id="extract-character-n-gram-model",
    ),
    # A model hashed at another width is refused before any input is read
    # (the input file does not exist); 10**30 once failed each line with an OverflowError.
    pytest.param(
        lambda m, d: ["extract", "--input", str(d / "absent.json"),
                      "--model", _model_file_with(m, d / "wide.bin", hash_dim=10**30)],
        2, "model", None, "'hash_dim' must be 262144, got 10{30}", id="extract-model-hash-dim-beyond-int64",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE),
                      "--model", _model_file_with(m, d / "lots.bin", holdout_accuracy="lots")],
        2, "model", None, r"'holdout_accuracy' must be null or a number in \[0, 1\], got 'lots'",
        id="extract-model-holdout-accuracy-a-string",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _gold(d / "gold.jsonl", _CORPUS[0]),
                      "--model", _model_file_with(m, d / "wide.bin", hash_dim=10**30)],
        2, "model", None, "'hash_dim' must be 262144, got 10{30}", id="eval-model-hash-dim-beyond-int64",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(d / "absent.json"),
                      "--model", _model_file_with(m, d / "narrow.bin", hash_dim=64)],
        2, "model", None, "'hash_dim' must be 262144, got 64;", id="extract-model-another-hash-width",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _gold(d / "gold.jsonl", _CORPUS[0]),
                      "--model", _model_file_with(m, d / "narrow.bin", hash_dim=64)],
        2, "model", None, "'hash_dim' must be 262144, got 64;", id="eval-model-another-hash-width",
    ),
    pytest.param(
        lambda m, d: ["train", "--input", _corpus(d), "--model", str(d / "m.bin"), "--epochs", "2", "--holdout", "nan"],
        2, "config", None, None, id="train-holdout-nan",
    ),
    pytest.param(
        lambda m, d: ["eval", "--model", str(m), "--gold", _write(d / "gold.jsonl", json.dumps(_CORPUS[0]) + "\n")],
        4, "internal", "annotate_text", None, id="eval-internal-error",
    ),
    pytest.param(
        lambda m, d: _eval_predictions(d, _BEYOND_GOLD), 2, "predictions", None, None,
        id="prediction-span-beyond-gold-text",
    ),
    pytest.param(
        lambda m, d: ["lexicon-check", "--lexicon", _latin1(d / "lex.csv", "id,name\nA1,Paracétamol\n")],
        2, "lexicon", None, None, id="lexicon-not-utf8",
    ),
]


@pytest.mark.parametrize("make_args, code, kind, broken, message", ERROR_CASES)
def test_every_error_exits_with_its_code_and_one_json_line(
    model_file, tmp_path, monkeypatch, make_args, code, kind, broken, message
):
    if broken is not None:
        monkeypatch.setattr(cli, broken, _raise_runtime_error)
    result = CliRunner().invoke(main, make_args(model_file, tmp_path))
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == code, result.stderr
    assert [e["type"] for e in _error(result)] == [kind]
    if message is not None:
        assert re.search(message, _error(result)[0]["message"]), _error(result)[0]["message"]


def test_prediction_span_beyond_its_gold_text_names_its_line(tmp_path):
    gold = _write(tmp_path / "gold.jsonl", "".join(json.dumps(row) + "\n" for row in _CORPUS[:2]))
    pred = _write(tmp_path / "pred.jsonl", json.dumps(_CORPUS[0]) + "\n\n" + json.dumps(_BEYOND_GOLD) + "\n")
    result = CliRunner().invoke(main, ["eval", "--gold", gold, "--predictions", pred])
    assert result.exit_code == 2, result.stderr
    (error,) = _error(result)
    assert error["message"] == f"{pred}:3: spans[0] ends at 30, beyond its gold text of 14 characters"


@pytest.mark.parametrize("mode", ["token", "exact-span"])
def test_gold_scored_against_itself_ends_the_table_with_a_perfect_total(tmp_path, mode):
    spans = [{"kind": "DOSE", "start": 0, "end": 10}, {"kind": "FREQUENCY", "start": 11, "end": 16}]
    record = _gold(tmp_path / "gold.jsonl", {"text": "1 comprime matin", "label": "POSOLOGY", "spans": spans})
    result = CliRunner().invoke(main, ["eval", "--gold", record, "--predictions", record, "--mode", mode,
                                       "--format", "table"])
    assert result.exit_code == 0, result.stderr
    assert result.stdout.splitlines() == [
        "Label      F-measure  Precision  Recall",
        "Dose       100.00     100.00     100.00",
        "Frequency  100.00     100.00     100.00",
        "TOTAL      100.00     100.00     100.00",
    ]


@pytest.mark.parametrize("flag, value", [
    ("--model", "model.bin"), ("--lexicon", "lex.csv"), ("--patterns", "patterns.json"),
])
def test_pipeline_flags_are_refused_next_to_predictions(tmp_path, flag, value):
    # --predictions runs no pipeline: a pipeline flag would be silently ignored
    result = CliRunner().invoke(main, _eval_predictions(tmp_path, _CORPUS[0], flag, value))
    assert result.exit_code == 2, result.stderr
    (error,) = _error(result)
    assert error == {"type": "usage", "message": f"{flag} cannot be used with --predictions, which runs no pipeline"}


@pytest.mark.parametrize("which, entries, bucket, name_tokens", [("demo", 217, 4, 13), ("big", 9_396, 54, 7)])
def test_lexicon_check_reports_the_largest_first_token_bucket(big_lexicon_path, which, entries, bucket, name_tokens):
    # the most names one first token holds, which sets the cost of detect_drug
    args = ["lexicon-check"] + (["--lexicon", str(big_lexicon_path)] if which == "big" else [])
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.stderr
    stats = json.loads(result.stdout)
    assert (stats["entries"], stats["max_first_token_bucket"]) == (entries, bucket), stats
    assert stats["max_name_tokens"] == name_tokens, stats  # the longest sentence window detect_drug scores


def test_importing_the_cli_loads_no_scipy():
    src = pathlib.Path(cli.__file__).parents[1]
    code = "import sys, ordonnance.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "flag, value",
    [("--holdout", "1.5"), ("--holdout", "1"), ("--holdout", "-0.1"), ("--holdout", "inf"), ("--epochs", "0"),
     ("--epochs", "-3")],
)
def test_out_of_range_train_flag_is_a_config_error(tmp_path, flag, value):
    # the CLI states no range: TrainConfig checks each, and reports it as JSON
    args = ["train", "--input", _corpus(tmp_path), "--model", str(tmp_path / "m.bin"), "--epochs", "2", flag, value]
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 2
    assert [e["type"] for e in _error(result)] == ["config"]
    assert flag[2:].replace("-", "_") in _error(result)[0]["message"]  # names the setting
    assert not (tmp_path / "m.bin").exists()


def _gen_corpus(out, *args):
    return ["gen-corpus", "--n-drug", "2", "--n-posology", "2", "--n-useless", "2", "--out", str(out), *args]


@pytest.mark.parametrize("noise", ["-1", "0.31", "nan"])
def test_out_of_range_noise_is_a_corpus_error(tmp_path, noise):
    # noisify checks the rate, and the error is reported as JSON
    result = CliRunner().invoke(main, _gen_corpus(tmp_path / "corpus.jsonl", "--noise", noise))
    assert result.exit_code == 2
    assert [e["type"] for e in _error(result)] == ["corpus"]
    assert "rate" in _error(result)[0]["message"]
    assert not (tmp_path / "corpus.jsonl").exists()


@pytest.mark.parametrize("flag", ["--n-drug", "--n-posology", "--n-useless"])
def test_a_negative_count_is_a_corpus_error(tmp_path, flag):
    # CorpusSpec checks each count, and the error is reported as JSON
    args = _gen_corpus(tmp_path / "corpus.jsonl")
    args[args.index(flag) + 1] = "-1"
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    (error,) = _error(result)
    assert error == {"type": "corpus", "message": f"{flag[2:].replace('-', '_')} must be an int >= 0, got -1"}
    assert not (tmp_path / "corpus.jsonl").exists()


@pytest.mark.parametrize("noise", ["0", "0.1", "0.3"])
def test_generated_corpus_reads_back(tmp_path, noise):
    path = tmp_path / "corpus.jsonl"
    args = ["gen-corpus", "--n-drug", "200", "--n-posology", "200", "--n-useless", "200", "--out", str(path)]
    assert CliRunner().invoke(main, [*args, "--noise", noise]).exit_code == 0
    rows = read_jsonl(path)
    assert len(rows) == 600 and sum(len(row.spans) for row in rows) >= 400


def test_zero_noise_writes_the_clean_corpus(tmp_path):
    clean, zero = tmp_path / "clean.jsonl", tmp_path / "zero.jsonl"
    assert CliRunner().invoke(main, _gen_corpus(clean)).exit_code == 0
    result = CliRunner().invoke(main, _gen_corpus(zero, "--noise", "0"))
    assert result.exit_code == 0, result.stderr
    assert zero.read_bytes() == clean.read_bytes()


# ---- missing model, table rows, train output, empty gold


def test_extract_without_a_model_is_a_missing_model():
    result = CliRunner().invoke(main, ["extract", "--input", str(FIXTURE)])
    assert result.exit_code == 3
    (error,) = _error(result)
    assert error == {"type": "model", "message": "no model file given (--model)"}


def test_extract_table_lists_orphans_and_unlinked_drug_lines(run, tmp_path):
    # Without TAHOR in the lexicon its drug line links to nothing, and a
    # posology line above every drug line has no drug to attach to.
    with open(default_lexicon_path(), encoding="utf-8") as fh:
        lexicon = _write(tmp_path / "lexicon.csv", "".join(row for row in fh if "TAHOR" not in row))
    payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
    for k, line in enumerate(line for line in payload["lines"] if line["id"].startswith("pos-")):
        line["bbox"]["top"] = 0.1 + 0.025 * k  # the first drug line's top is 0.2
    raised = _write(tmp_path / "raised.json", json.dumps(payload))
    record = json.loads(run("--input", raised, "--lexicon", lexicon).stdout)
    assert record["unmatched_drug_lines"] == ["drug-5"] and len(record["orphans"]) == 4
    result = run("--input", raised, "--lexicon", lexicon, "--format", "table")
    assert result.exit_code == 0, result.stderr
    lines = result.stdout.splitlines()
    orphan_rows = [f"      {e['kind']:<10} {e['text']}" for p in record["orphans"] for e in p["entities"]]
    start = lines.index("  (unattached posology)")
    assert lines[start + 1:] == [*orphan_rows, "  unlinked drug lines: drug-5"]


def test_train_reports_one_json_line_and_writes_a_model_that_loads(tmp_path):
    path = tmp_path / "m.bin"
    args = ["train", "--input", _corpus(tmp_path), "--model", str(path), "--epochs", "3", "--seed", "5"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.stderr
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert json.loads(line) == {"sentences": len(_CORPUS), "holdout_accuracy": load_model(path).holdout_accuracy,
                                "epochs": 3, "seed": 5}


def test_train_without_tuning_flags_trains_by_the_default_config(tmp_path, stopwords):
    # --seed, --epochs and --holdout default to TrainConfig's fields, and the
    # sentences are read with the shipped stopword list
    corpus, path, expected = tmp_path / "corpus.jsonl", tmp_path / "m.bin", tmp_path / "expected.bin"
    args = ["gen-corpus", "--n-drug", "20", "--n-posology", "20", "--n-useless", "20", "--out", str(corpus)]
    assert CliRunner().invoke(main, args).exit_code == 0
    result = CliRunner().invoke(main, ["train", "--input", str(corpus), "--model", str(path)])
    assert result.exit_code == 0, result.stderr
    pairs = [(s, row.label) for row in read_jsonl(corpus) if (s := sentence_from_text(row.text, stopwords)) is not None]
    save_model(train(pairs, TrainConfig()), expected)
    assert path.read_bytes() == expected.read_bytes()


def test_train_has_no_hash_dim_flag(tmp_path):
    # the featurizer's hash width is fixed, so the flag is Click's unknown-option usage error
    assert "--hash-dim" not in CliRunner().invoke(main, ["train", "--help"]).stdout
    args = ["train", "--input", _corpus(tmp_path), "--model", str(tmp_path / "m.bin"), "--hash-dim", "64"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert "No such option" in result.stderr and "--hash-dim" in result.stderr  # worded by Click's version
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("mode", ["pipeline", "predictions"])
def test_a_gold_file_with_no_records_is_a_gold_error(tmp_path, mode):
    # score counts 0 of 0 as F1 1.0, so an empty gold file would pass as perfect
    gold = _write(tmp_path / "gold.jsonl", "\n  \n\n")
    rest = ["--model", str(tmp_path / "absent.bin")] if mode == "pipeline" else ["--predictions", gold]
    result = CliRunner().invoke(main, ["eval", "--gold", gold, *rest])
    assert result.exit_code == 2, result.stderr
    (error,) = _error(result)
    assert error == {"type": "gold", "message": f"{gold}: no records to score"}  # before any model is read


# ---- the flags extract and eval share: files, not tuning -------------------------

SHARED_FLAGS = ("model", "lexicon", "patterns")


def test_extract_and_eval_declare_the_shared_flags_alike():
    def help_records(name):
        command = main.commands[name]
        ctx = click.Context(command)
        return {p.name: p.get_help_record(ctx) for p in command.params if p.name in SHARED_FLAGS}

    assert help_records("extract") == help_records("eval")
    assert sorted(help_records("eval")) == sorted(SHARED_FLAGS)
    assert all(text for _, text in help_records("eval").values())


@pytest.mark.parametrize("command, options", [
    ("extract", ["--input", "--out", "--model", "--lexicon", "--patterns", "--format"]),
    ("eval", ["--gold", "--predictions", "--model", "--lexicon", "--patterns", "--mode", "--format"]),
    ("train", ["--input", "--model", "--seed", "--epochs", "--holdout"]),
    ("gen-corpus", ["--n-drug", "--n-posology", "--n-useless", "--seed", "--lexicon", "--noise", "--out"]),
    ("lexicon-check", ["--lexicon"]),
])
def test_each_help_lists_exactly_its_options(command, options):
    result = CliRunner().invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.stderr
    assert re.findall(r"^  (--[a-z-]+)", result.stdout, flags=re.M) == [*options, "--help"]


@pytest.mark.parametrize("args", [
    ["extract", "--input", str(FIXTURE), "--model", "m.bin", "--config", "config.json"],
    ["extract", "--input", str(FIXTURE), "--model", "m.bin", "--threshold", "0.9"],
    ["eval", "--gold", "gold.jsonl", "--model", "m.bin", "--config", "config.json"],
    ["eval", "--gold", "gold.jsonl", "--model", "m.bin", "--threshold", "0.9"],
    ["train", "--input", "corpus.jsonl", "--model", "m.bin", "--learning-rate", "5"],
    ["extract", "--input", str(FIXTURE), "--model", "m.bin", "--stopwords", "stop.txt"],
    ["eval", "--gold", "gold.jsonl", "--model", "m.bin", "--stopwords", "stop.txt"],
    ["train", "--input", "corpus.jsonl", "--model", "m.bin", "--stopwords", "stop.txt"],
], ids=["extract-config", "extract-threshold", "eval-config", "eval-threshold", "train-learning-rate",
        "extract-stopwords", "eval-stopwords", "train-stopwords"])
def test_tuning_is_not_a_setting(args):
    # the link threshold, the link rules, the step size and the stopword list are
    # fixed: each removed flag is Click's unknown-option usage error, before any
    # file is read
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit), result.exception
    assert "No such option" in result.stderr and args[-2] in result.stderr  # worded by Click's version
    assert "Traceback" not in result.stderr


# ---- the CLI gives the library's default outputs --------------------------------


def test_extract_writes_the_librarys_record(model_file, runtime):
    # runtime holds the model saved in model_file, and the shipped files. The CLI links at
    # DEFAULT_THRESHOLD and by LinkConfig(), as a Runtime does by default.
    result = CliRunner().invoke(main, ["extract", "--model", str(model_file), "--input", str(FIXTURE)])
    assert result.exit_code == 0, result.stderr
    record = extract_document(parse_ocr_document(FIXTURE.read_bytes()), runtime)
    assert result.stdout_bytes == dumps_canonical(record_to_dict(record))


@pytest.mark.parametrize("mode, mode_name", [("token", "TOKEN"), ("exact-span", "EXACT_SPAN")])
def test_eval_writes_the_librarys_report(model_file, runtime, tmp_path, mode, mode_name):
    gold = tmp_path / "gold.jsonl"
    noisy = ["--n-drug", "20", "--n-posology", "20", "--n-useless", "20", "--seed", "7", "--noise", "0.1"]
    assert CliRunner().invoke(main, ["gen-corpus", *noisy, "--out", str(gold)]).exit_code == 0
    result = CliRunner().invoke(main, ["eval", "--model", str(model_file), "--gold", str(gold), "--mode", mode])
    assert result.exit_code == 0, result.stderr
    rows = read_jsonl(gold)
    report = score(rows, [annotate_text(row.text, runtime) for row in rows], mode=mode_name)
    assert result.stdout_bytes == report_to_json(report)


# ---- each file flag not given takes the shipped file -----------------------------


def _shipped_setting(key, model_file):
    """The file ``key`` names when no flag sets it; the model, which has none, is the trained one."""
    return {
        "model": str(model_file), "lexicon": default_lexicon_path(), "patterns": data_path("patterns_fr.json"),
    }[key]


def _runtime_args(command, model_file, tmp_path, key=None):
    """``command`` over the fixture or a small gold file, with the trained model unless ``key`` is the model."""
    model = [] if key == "model" else ["--model", str(model_file)]
    if command == "extract":
        return ["extract", "--input", str(FIXTURE), *model]
    return ["eval", "--gold", _corpus(tmp_path), *model]


@pytest.mark.parametrize("key", SHARED_FLAGS)
@pytest.mark.parametrize("command", ["extract", "eval"])
def test_a_key_set_nowhere_takes_the_shipped_default(model_file, tmp_path, command, key):
    args = _runtime_args(command, model_file, tmp_path, key)
    result = CliRunner().invoke(main, args)
    if key == "model":
        assert result.exit_code == 3
        assert _error(result) == [{"type": "model", "message": "no model file given (--model)"}]
        return
    assert result.exit_code == 0, result.stderr
    explicit = CliRunner().invoke(main, args + [f"--{key}", str(_shipped_setting(key, model_file))])
    assert result.stdout == explicit.stdout


_ALL_PIPELINE_FLAGS = {"--model": "m", "--lexicon": "l", "--patterns": "p"}


@pytest.mark.parametrize("typed, listed", [
    (("--patterns", "--model"), "--model, --patterns"),
    (("--model", "--patterns"), "--model, --patterns"),
    (tuple(reversed(_ALL_PIPELINE_FLAGS)), ", ".join(_ALL_PIPELINE_FLAGS)),
    (("--patterns", "--model", "--lexicon"), ", ".join(_ALL_PIPELINE_FLAGS)),
])
def test_the_predictions_conflict_lists_the_flags_in_declaration_order(tmp_path, typed, listed):
    args = [arg for flag in typed for arg in (flag, _ALL_PIPELINE_FLAGS[flag])]
    result = CliRunner().invoke(main, _eval_predictions(tmp_path, _CORPUS[0], *args))
    assert result.exit_code == 2, result.stderr
    assert _error(result) == [
        {"type": "usage", "message": f"{listed} cannot be used with --predictions, which runs no pipeline"}
    ]


# ---- each file flag given is the file read, and its errors are its own ----------

# The loader of ordonnance.cli that reads each flag's file.
_LOADERS = {"model": "load_model", "lexicon": "build_lexicon", "patterns": "load_patterns"}


@pytest.mark.parametrize("key", SHARED_FLAGS)
@pytest.mark.parametrize("command", ["extract", "eval"])
def test_a_flag_given_is_the_file_read(model_file, tmp_path, monkeypatch, command, key):
    # a copy of the shipped file, given by its flag, is the one loaded and gives the same output
    copy = tmp_path / f"copy-{key}"
    copy.write_bytes(pathlib.Path(_shipped_setting(key, model_file)).read_bytes())
    shipped = CliRunner().invoke(main, _runtime_args(command, model_file, tmp_path))
    assert shipped.exit_code == 0, shipped.stderr
    read = []
    load = getattr(cli, _LOADERS[key])
    monkeypatch.setattr(cli, _LOADERS[key], lambda path: read.append(path) or load(path))
    result = CliRunner().invoke(main, _runtime_args(command, model_file, tmp_path, key) + [f"--{key}", str(copy)])
    assert result.exit_code == 0, result.stderr
    assert read == [str(copy)]
    assert result.stdout == shipped.stdout


# A file of each kind that its loader refuses as a bad value: not valid UTF-8.
_LATIN1_FILES = {
    "model": '{"magic": "ordonnance-classifier-2", "labels": ["é"]}\n',
    "lexicon": "id,name\nA1,Paracétamol\n",
    "patterns": _one_lower_pattern("après"),
}


def _bad_file(defect, key, d):
    if defect == "absent":
        return str(d / "absent")
    if defect == "a-directory":
        (d / "dir").mkdir()
        return str(d / "dir")
    return _latin1(d / f"bad-{key}", _LATIN1_FILES[key])


@pytest.mark.parametrize("defect, code", [("absent", 3), ("a-directory", 3), ("not-utf8", 2)])
@pytest.mark.parametrize("key", SHARED_FLAGS)
@pytest.mark.parametrize("command", ["extract", "eval"])
def test_a_bad_file_flag_is_that_files_error(model_file, tmp_path, command, key, defect, code):
    bad = _bad_file(defect, key, tmp_path)
    result = CliRunner().invoke(main, _runtime_args(command, model_file, tmp_path, key) + [f"--{key}", bad])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == code, result.stderr
    (error,) = _error(result)
    assert error["type"] == key and bad in error["message"], error


# ---- the stopword list is the shipped one, and its errors are its own ------------


def _stopword_args(command, model_file, tmp_path):
    if command == "train":
        return ["train", "--input", _corpus(tmp_path), "--model", str(tmp_path / "m.bin")]
    return _runtime_args(command, model_file, tmp_path)


@pytest.mark.parametrize("command", ["extract", "eval", "train"])
def test_each_command_reads_the_shipped_stopword_list(model_file, tmp_path, monkeypatch, command):
    # no flag names the list: extract and eval classify with the one train used
    read = []
    monkeypatch.setattr(cli, "load_stopwords", lambda path: read.append(path) or load_stopwords(path))
    result = CliRunner().invoke(main, _stopword_args(command, model_file, tmp_path))
    assert result.exit_code == 0, result.stderr
    assert read == [data_path("stopwords_fr.txt")]


@pytest.mark.parametrize("defect, code", [("absent", 3), ("two-words", 2)])
@pytest.mark.parametrize("command", ["extract", "eval", "train"])
def test_a_bad_shipped_stopword_list_is_a_stopwords_error(model_file, tmp_path, monkeypatch, command, defect, code):
    bad = str(tmp_path / "absent.txt") if defect == "absent" else _write(tmp_path / "stop.txt", "le\npar jour\n")
    shipped = cli.data_path
    monkeypatch.setattr(cli, "data_path", lambda name: bad if name == "stopwords_fr.txt" else shipped(name))
    result = CliRunner().invoke(main, _stopword_args(command, model_file, tmp_path))
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == code, result.stderr
    (error,) = _error(result)
    assert error["type"] == "stopwords" and bad in error["message"], error
    if defect == "two-words":
        assert error["message"].startswith(f"{bad}:2: 'par jour' is not one token"), error
