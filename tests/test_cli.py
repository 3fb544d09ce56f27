"""CLI contract tests: records on stdout or in files, typed JSON errors on stderr.

Exit codes: 2 for a bad value in a file, flag or payload, 3 for a file that
cannot be read or written, 4 for anything else. Every error is one JSON line
on stderr, never a traceback.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

from ordonnance import cli
from ordonnance.cli import main
from ordonnance.corpus import read_jsonl

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
    specs = [{"like_num": True}] * 17  # one more than patterns.MAX_SPECS
    bad.write_text(json.dumps([{"id": "long", "label": "DOSE", "specs": specs}]), encoding="utf-8")
    result = run("--input", str(FIXTURE), "--patterns", str(bad))
    assert result.exit_code == 2
    (error,) = _error(result)
    assert error["type"] == "patterns" and "'long' has 17 specs" in error["message"], error


def test_missing_patterns_file_is_a_missing_file(run, tmp_path):
    result = run("--input", str(FIXTURE), "--patterns", str(tmp_path / "absent.json"))
    assert result.exit_code == 3
    assert [e["type"] for e in _error(result)] == ["patterns"]


@pytest.mark.parametrize(
    "config",
    [{"section_gap_factor": -1}, {"overlap_fraction": 2}, {"drug_gap_factor": "wide"}],
    ids=["negative", "above-one", "wrong-type"],
)
def test_out_of_range_link_config_is_a_schema_error(run, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = run("--input", str(FIXTURE), "--config", str(path))
    assert result.exit_code == 2
    assert [e["type"] for e in _error(result)] == ["config"]


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


@pytest.mark.parametrize("config, orphans", [({}, 0), ({"drug_gap_factor": 0.01}, 4)], ids=["defaults", "tight-drug-gap"])
def test_link_config_keys_are_honoured_and_unset_ones_keep_the_defaults(run, tmp_path, config, orphans):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = run("--input", str(FIXTURE), "--config", str(path))
    assert result.exit_code == 0, result.stderr
    record = json.loads(result.stdout)
    attached = sum(len(d["posologies"]) for d in record["drugs"])
    # the fixture's 4 posology lines: within the default section and drug gaps
    # every one is attached, and none is once the first gap must be tiny
    assert (attached, len(record["orphans"])) == (4 - orphans, orphans)


def test_threshold_of_one_is_accepted(run):
    result = run("--input", str(FIXTURE), "--threshold", "1.0")
    assert result.exit_code == 0, result.stderr
    assert result.stderr == ""


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
    header = {"magic": "ordonnance-classifier-2", "version": "fh1", "labels": labels,
              "ngram_min": 3, "ngram_max": 5, "hash_dim": 16, "n_cols": 0, "holdout_accuracy": None}
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + bytes(8 * len(labels)))
    return str(path)


def _stale_model_file(model_file, path):
    """The model file with the header of a model trained by an earlier featurizer."""
    header, _, payload = model_file.read_bytes().partition(b"\n")
    path.write_bytes(json.dumps({**json.loads(header), "version": "fh0"}).encode("utf-8") + b"\n" + payload)
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
# the exit code, the reported error type, and the attribute of ordonnance.cli
# broken for the run.
ERROR_CASES = [
    pytest.param(
        lambda m, d: _extract(m, "--lexicon", _write(d / "dup.csv", "id,name\nA,doliprane\nA,smecta\n")),
        2, "lexicon", None, id="duplicate-lexicon-id",
    ),
    pytest.param(
        lambda m, d: ["lexicon-check", "--lexicon", str(d / "absent.csv")],
        3, "lexicon", None, id="lexicon-check-absent-file",
    ),
    pytest.param(
        lambda m, d: ["train", "--input", _corpus(d), "--model", str(d / "m.bin"), "--stopwords", str(d / "absent.txt")],
        3, "stopwords", None, id="train-absent-stopwords",
    ),
    pytest.param(
        lambda m, d: ["gen-corpus", "--n-drug", "1", "--n-posology", "1", "--n-useless", "1",
                      "--out", str(d / "missing" / "corpus.jsonl")],
        3, "corpus", None, id="gen-corpus-out-in-missing-dir",
    ),
    pytest.param(
        lambda m, d: ["train", "--input", _corpus(d), "--model", str(d / "missing" / "m.bin"),
                      "--epochs", "2", "--hash-dim", "64"],
        3, "model", None, id="train-model-in-missing-dir",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--config", _write(d / "config.json", '{"threshold": "x"}')),
        2, "config", None, id="config-threshold-not-a-number",
    ),
    pytest.param(lambda m, d: _extract(m, "--threshold", "7"), 2, "config", None, id="threshold-above-one"),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE), "--config", _write(d / "config.json", '{"model": 0}')],
        2, "config", None, id="config-model-an-integer",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--config", _write(d / "config.json", '{"lexicon": 5}')),
        2, "config", None, id="config-lexicon-an-integer",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--config", _write(d / "config.json", '{"patterns": 0}')),
        2, "config", None, id="config-patterns-zero",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--config", _write(d / "config.json", '{"patterns": ""}')),
        2, "config", None, id="config-patterns-empty",
    ),
    pytest.param(lambda m, d: _extract(m, "--patterns", ""), 3, "patterns", None, id="patterns-flag-empty"),
    pytest.param(
        lambda m, d: _extract(m, "--patterns", _write(d / "patterns.json", _one_lower_pattern("Matin"))),
        2, "patterns", None, id="patterns-lower-word-with-a-capital",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--patterns", _write(d / "patterns.json", _one_lower_pattern("après"))),
        2, "patterns", None, id="patterns-lower-word-with-an-accent",
    ),
    pytest.param(
        lambda m, d: ["eval", "--model", str(m), "--gold", _write(d / "gold.jsonl", json.dumps(_CORPUS[0]) + "\n"),
                      "--config", _write(d / "config.json", '{"stopwords": null}')],
        2, "config", None, id="config-stopwords-null",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--config", _write(d / "config.json", '{"drug_gap_factor": NaN}')),
        2, "config", None, id="config-gap-factor-nan",
    ),
    pytest.param(
        lambda m, d: ["extract", "--model", str(m), "--input", _fixture_with_line_box(d / "nan.json", "top", float("nan"))],
        2, "GeometryError", None, id="line-box-top-nan",
    ),
    pytest.param(
        lambda m, d: ["extract", "--model", str(m), "--input", _fixture_with_line_box(d / "big.json", "left", 10**400)],
        2, "GeometryError", None, id="line-box-left-beyond-the-float-range",
    ),
    pytest.param(
        lambda m, d: ["extract", "--model", str(m), "--input", _write(d / "deep.json", _deeply_nested("doc_id"))],
        2, "SchemaError", None, id="payload-nested-too-deeply",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--config", _write(d / "config.json", _deeply_nested("threshold"))),
        2, "config", None, id="config-nested-too-deeply",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--patterns", _write(d / "patterns.json", _deeply_nested("id"))),
        2, "patterns", None, id="patterns-nested-too-deeply",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _write(d / "gold.jsonl", _deeply_nested("text") + "\n")],
        2, "gold", None, id="gold-line-nested-too-deeply",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE), "--model", _write(d / "m.bin", _deeply_nested("magic") + "\n")],
        2, "model", None, id="model-header-nested-too-deeply",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--out", str(d / "missing" / "record.json")),
        3, "output", None, id="extract-out-in-missing-dir",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE),
                      "--model", _write(d / "m.bin", '{"magic": "ordonnance-classifier-2"}\n')],
        2, "model", None, id="model-header-without-labels",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE), "--model", _dense_model_file(d / "dense.bin")],
        2, "model", None, id="model-file-in-the-earlier-dense-format",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE),
                      "--model", _model_file_with_labels(d / "m.bin", ["A", "B", "C"])],
        2, "model", None, id="model-labels-not-the-three-classes",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _write(d / "gold.jsonl", '"doliprane 1000 mg"\n')],
        2, "gold", None, id="gold-line-is-a-json-string",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _gold(d / "gold.jsonl", {"text": 5, "label": "DRUG"})],
        2, "gold", None, id="gold-text-a-number",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _gold(d / "gold.jsonl", {**_CORPUS[0], "spans": [
            {"kind": "DRUG", "start": 0.9, "end": 9.0}]})],
        2, "gold", None, id="gold-span-float-offsets",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _gold(d / "gold.jsonl", {**_CORPUS[0], "spans": [
            {"kind": "DRUG", "start": "0", "end": "9"}]})],
        2, "gold", None, id="gold-span-string-offsets",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--config", _write(d / "config.json", '{"treshold": 0.99, "drug_gap_factr": 9}')),
        2, "config", None, id="config-unknown-keys",
    ),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE), "--model", _stale_model_file(m, d / "stale.bin")],
        2, "model", None, id="extract-stale-model",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _gold(d / "gold.jsonl", _CORPUS[0]), "--model", _stale_model_file(m, d / "stale.bin")],
        2, "model", None, id="eval-stale-model",
    ),
    pytest.param(
        lambda m, d: ["train", "--input", _corpus(d), "--model", str(d / "m.bin"), "--epochs", "2", "--holdout", "nan"],
        2, "config", None, id="train-holdout-nan",
    ),
    pytest.param(
        lambda m, d: ["eval", "--model", str(m), "--gold", _write(d / "gold.jsonl", json.dumps(_CORPUS[0]) + "\n")],
        4, "internal", "annotate_text", id="eval-internal-error",
    ),
    pytest.param(
        lambda m, d: _eval_predictions(d, _BEYOND_GOLD), 2, "predictions", None, id="prediction-span-beyond-gold-text",
    ),
    pytest.param(
        lambda m, d: _eval_predictions(d, _CORPUS[0], "--config", _write(d / "config.json", '{"treshold": 1}')),
        2, "config", None, id="eval-predictions-unknown-config-key",
    ),
    pytest.param(
        lambda m, d: ["lexicon-check", "--lexicon", _latin1(d / "lex.csv", "id,name\nA1,Paracétamol\n")],
        2, "lexicon", None, id="lexicon-not-utf8",
    ),
    pytest.param(
        lambda m, d: ["train", "--input", _corpus(d), "--model", str(d / "m.bin"),
                      "--stopwords", _latin1(d / "stop.txt", "le\nà\n")],
        2, "stopwords", None, id="stopwords-not-utf8",
    ),
]


@pytest.mark.parametrize("make_args, code, kind, broken", ERROR_CASES)
def test_every_error_exits_with_its_code_and_one_json_line(
    model_file, tmp_path, monkeypatch, make_args, code, kind, broken
):
    if broken is not None:
        monkeypatch.setattr(cli, broken, _raise_runtime_error)
    result = CliRunner().invoke(main, make_args(model_file, tmp_path))
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == code, result.stderr
    assert [e["type"] for e in _error(result)] == [kind]


def test_prediction_span_beyond_its_gold_text_names_its_line(tmp_path):
    gold = _write(tmp_path / "gold.jsonl", "".join(json.dumps(row) + "\n" for row in _CORPUS[:2]))
    pred = _write(tmp_path / "pred.jsonl", json.dumps(_CORPUS[0]) + "\n\n" + json.dumps(_BEYOND_GOLD) + "\n")
    result = CliRunner().invoke(main, ["eval", "--gold", gold, "--predictions", pred])
    assert result.exit_code == 2, result.stderr
    (error,) = _error(result)
    assert error["message"] == f"{pred}:3: spans[0] ends at 30, beyond its gold text of 14 characters"


def test_predictions_are_scored_with_a_valid_config(tmp_path):
    record = _gold(tmp_path / "gold.jsonl", {**_CORPUS[0], "spans": [{"kind": "DRUG", "start": 0, "end": 9}]})
    config = _write(tmp_path / "config.json", '{"threshold": 0.9}')
    args = ["eval", "--gold", record, "--predictions", record, "--mode", "exact-span", "--config", config]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout)["totals"]["recall"] == 1.0


@pytest.mark.parametrize("flag, value", [
    ("--model", "model.bin"), ("--lexicon", "lex.csv"), ("--patterns", "patterns.json"),
    ("--stopwords", "stop.txt"), ("--threshold", "0.9"),
])
def test_pipeline_flags_are_refused_next_to_predictions(tmp_path, flag, value):
    # --predictions runs no pipeline: a pipeline flag would be silently ignored
    result = CliRunner().invoke(main, _eval_predictions(tmp_path, _CORPUS[0], flag, value))
    assert result.exit_code == 2, result.stderr
    (error,) = _error(result)
    assert error == {"type": "usage", "message": f"{flag} cannot be used with --predictions, which runs no pipeline"}


def test_unknown_config_keys_are_named(run, tmp_path):
    path = _write(tmp_path / "config.json", '{"treshold": 0.99, "drug_gap_factr": 9, "threshold": 0.9}')
    (error,) = _error(run("--input", str(FIXTURE), "--config", path))
    assert "['drug_gap_factr', 'treshold']" in error["message"]


def test_importing_the_cli_loads_no_scipy():
    src = pathlib.Path(cli.__file__).parents[1]
    code = "import sys, ordonnance.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "flag, value",
    [("--hash-dim", "0"), ("--holdout", "1.5"), ("--holdout", "1"), ("--epochs", "0"), ("--epochs", "-3"),
     ("--learning-rate", "0"), ("--learning-rate", "-5"), ("--learning-rate", "nan"), ("--learning-rate", "inf")],
)
def test_out_of_range_train_flag_is_a_usage_error(tmp_path, flag, value):
    args = ["train", "--input", _corpus(tmp_path), "--model", str(tmp_path / "m.bin"), "--epochs", "2", flag, value]
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 2
    if value in ("nan", "inf"):  # FloatRange lets them through; TrainConfig refuses them
        assert [e["type"] for e in _error(result)] == ["config"]
    else:
        assert "Invalid value" in result.stderr
    assert not (tmp_path / "m.bin").exists()


def _gen_corpus(out, *args):
    return ["gen-corpus", "--n-drug", "2", "--n-posology", "2", "--n-useless", "2", "--out", str(out), *args]


@pytest.mark.parametrize("noise", ["-1", "0.31"])
def test_out_of_range_noise_is_a_usage_error(tmp_path, noise):
    result = CliRunner().invoke(main, _gen_corpus(tmp_path / "corpus.jsonl", "--noise", noise))
    assert result.exit_code == 2
    assert "Invalid value" in result.stderr
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
