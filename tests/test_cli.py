"""CLI contract tests: records on stdout or in files, typed JSON errors on stderr.

Exit codes: 2 for a bad value in a file, flag or payload, 3 for a file that
cannot be read or written, 4 for anything else. Every error is one JSON line
on stderr, never a traceback.
"""

import json

import pytest
from click.testing import CliRunner

from ordonnance import cli
from ordonnance.cli import main

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


def _raise_runtime_error(text, runtime):
    raise RuntimeError("annotate_text broke")


# Each row: CLI arguments built from the model file and a scratch directory,
# the exit code, and the attribute of ordonnance.cli broken for the run.
ERROR_CASES = [
    pytest.param(
        lambda m, d: _extract(m, "--lexicon", _write(d / "dup.csv", "id,name\nA,doliprane\nA,smecta\n")),
        2, None, id="duplicate-lexicon-id",
    ),
    pytest.param(
        lambda m, d: ["lexicon-check", "--lexicon", str(d / "absent.csv")],
        3, None, id="lexicon-check-absent-file",
    ),
    pytest.param(
        lambda m, d: ["train", "--input", _corpus(d), "--model", str(d / "m.bin"), "--stopwords", str(d / "absent.txt")],
        3, None, id="train-absent-stopwords",
    ),
    pytest.param(
        lambda m, d: ["gen-corpus", "--n-drug", "1", "--n-posology", "1", "--n-useless", "1",
                      "--out", str(d / "missing" / "corpus.jsonl")],
        3, None, id="gen-corpus-out-in-missing-dir",
    ),
    pytest.param(
        lambda m, d: ["train", "--input", _corpus(d), "--model", str(d / "missing" / "m.bin"),
                      "--epochs", "2", "--hash-dim", "64"],
        3, None, id="train-model-in-missing-dir",
    ),
    pytest.param(
        lambda m, d: _extract(m, "--config", _write(d / "config.json", '{"threshold": "x"}')),
        2, None, id="config-threshold-not-a-number",
    ),
    pytest.param(lambda m, d: _extract(m, "--threshold", "7"), 2, None, id="threshold-above-one"),
    pytest.param(
        lambda m, d: ["extract", "--input", str(FIXTURE),
                      "--model", _write(d / "m.bin", '{"magic": "ordonnance-classifier"}\n')],
        2, None, id="model-header-without-labels",
    ),
    pytest.param(
        lambda m, d: ["eval", "--gold", _write(d / "gold.jsonl", '"doliprane 1000 mg"\n')],
        2, None, id="gold-line-is-a-json-string",
    ),
    pytest.param(
        lambda m, d: ["eval", "--model", str(m), "--gold", _write(d / "gold.jsonl", json.dumps(_CORPUS[0]) + "\n")],
        4, "annotate_text", id="eval-internal-error",
    ),
]


@pytest.mark.parametrize("make_args, code, broken", ERROR_CASES)
def test_every_error_exits_with_its_code_and_one_json_line(model_file, tmp_path, monkeypatch, make_args, code, broken):
    if broken is not None:
        monkeypatch.setattr(cli, broken, _raise_runtime_error)
    result = CliRunner().invoke(main, make_args(model_file, tmp_path))
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == code, result.stderr
    assert len(_error(result)) == 1


@pytest.mark.parametrize("flag, value", [("--hash-dim", "0"), ("--holdout", "1.5"), ("--holdout", "1")])
def test_out_of_range_train_flag_is_a_usage_error(tmp_path, flag, value):
    args = ["train", "--input", _corpus(tmp_path), "--model", str(tmp_path / "m.bin"), "--epochs", "2", flag, value]
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 2
    assert "Invalid value" in result.stderr
    assert not (tmp_path / "m.bin").exists()
