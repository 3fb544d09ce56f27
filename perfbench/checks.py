"""Output checks and quality scores for the pipeline benchmark.

Each ``*_errors`` function returns a list of readable problems, empty when
the output is correct, so that the benchmark can count and print them and
the tests can feed it deliberately broken records.
"""

from __future__ import annotations

import json
from collections import Counter

from ordonnance.linking import ClassifiedLine, PrescriptionRecord, dumps_canonical

# tests/data/ocr_fixture_7drugs.json: drug line -> name prefix, and the
# posology lines each drug must carry (the others carry none).
FIXTURE_DRUGS = {
    "drug-1": "DOLIPRANE",
    "drug-2": "MOPRAL",
    "drug-3": "KARDEGIC",
    "drug-4": "SMECTA",
    "drug-5": "TAHOR",
    "drug-6": "SPASFON",
    "drug-7": "FORLAX",
}
FIXTURE_POSOLOGY = {"drug-1": ["pos-1"], "drug-2": ["pos-2"], "drug-4": ["pos-3"], "drug-6": ["pos-4"]}


def landing_errors(lines: list[ClassifiedLine], record: PrescriptionRecord) -> list[str]:
    """Every posology extraction of ``lines`` lands exactly once: under a drug or in orphans."""
    produced = {id(ln.extraction): ln.line_id for ln in lines if ln.extraction is not None}
    landed = Counter(id(e) for _, extractions in record.drugs for e in extractions)
    landed.update(id(e) for e in record.orphans)
    errors = [
        f"{record.doc_id}: extraction of line {line_id} landed {landed[key]} times"
        for key, line_id in produced.items()
        if landed[key] != 1
    ]
    errors.extend(
        f"{record.doc_id}: a landed extraction was never produced" for key in landed if key not in produced
    )
    return errors


def fixture_errors(record: dict) -> list[str]:
    """The 7-drug fixture links all 7 drugs and attaches its 4 posology lines."""
    errors = []
    by_line = {drug["line_id"]: drug for drug in record["drugs"]}
    if sorted(by_line) != sorted(FIXTURE_DRUGS):
        errors.append(f"fixture: drug lines {sorted(by_line)}, expected {sorted(FIXTURE_DRUGS)}")
    for line_id, prefix in FIXTURE_DRUGS.items():
        drug = by_line.get(line_id)
        if drug is None:
            continue
        if not drug["name"].startswith(prefix):
            errors.append(f"fixture: {line_id} linked to {drug['name']!r}, expected {prefix}")
        got = [p["line_id"] for p in drug["posologies"]]
        if got != FIXTURE_POSOLOGY.get(line_id, []):
            errors.append(f"fixture: {prefix} carries {got}, expected {FIXTURE_POSOLOGY.get(line_id, [])}")
    if record["orphans"] or record["unmatched_drug_lines"]:
        errors.append("fixture: orphans or unmatched drug lines present")
    return errors


def canonical_errors(blob: bytes) -> list[str]:
    """Canonical JSON re-serializes to the same bytes."""
    if dumps_canonical(json.loads(blob)) != blob:
        return ["record bytes are not canonical JSON"]
    return []


def repeat_errors(name: str, first, again) -> list[str]:
    """Two passes over the same input give identical output."""
    if first != again:
        return [f"{name}: a second pass gave different output"]
    return []


def drug_link_hits(record: dict, drug_ids: dict[str, str]) -> int:
    """Gold drug lines linked to their gold drug_id."""
    linked = {drug["line_id"]: drug["drug_id"] for drug in record["drugs"]}
    return sum(1 for line_id, drug_id in drug_ids.items() if linked.get(line_id) == drug_id)


def attach_hits(record: dict, owners: dict[str, str]) -> int:
    """Gold posology lines that landed under the drug line that owns them."""
    under = {
        posology["line_id"]: drug["line_id"]
        for drug in record["drugs"]
        for posology in drug["posologies"]
        if posology["line_id"] != drug["line_id"]  # a combined line's own remainder
    }
    return sum(1 for line_id, owner in owners.items() if under.get(line_id) == owner)


def quality_errors(values: dict[str, float], gates: dict[str, float]) -> list[str]:
    """Quality figures below their gate."""
    return [
        f"{name} = {values.get(name)} is below the gate {floor}"
        for name, floor in gates.items()
        if values.get(name, 0.0) < floor
    ]
