"""CLI contract tests: records on stdout or in files, typed JSON errors on stderr.

Exit codes: 2 input/schema problem, 3 missing model or data file.
"""

import json

import pytest
from click.testing import CliRunner

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
