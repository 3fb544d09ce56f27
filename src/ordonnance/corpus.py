"""Synthetic labeled corpus generation.

Builds the three sentence families the classifier needs: drug lines sampled
from the lexicon (rendered with the case/numbering/truncation variety seen
on real prescriptions), posology lines filled from slot phrase pools with
gold entity spans recorded during the fill, and boilerplate lines (doctor
headers, addresses, patient identity, dates) carrying no entities.

``noisify`` simulates OCR degradation: accent loss, 0/O and 1/l confusions,
spaces inserted inside digit runs, dropped punctuation. The first and last
character of every gold span are left untouched so spans stay anchored;
offsets are adjusted for the length changes noise introduces.
"""

from __future__ import annotations

import json
import random
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache

from .druglink import build_lexicon
from .errors import SchemaError, TemplateError, check_int, check_number, check_utf8, data_path, decode_json

POSOLOGY_SLOTS = ("dose", "frequency", "duration", "comment")

_SLOT_KIND = {"dose": "DOSE", "frequency": "FREQUENCY", "duration": "DURATION", "comment": "COMMENT"}

_NUMBER_CLASSES = {
    "n2p": ["2", "3", "4", "5", "6"],
    "mass": ["100", "200", "250", "500", "1000"],
    "vol": ["5", "10", "15", "20", "25"],
    "days": ["3", "5", "6", "7", "8", "10", "12", "14", "15", "21", "28", "30"],
    "weeks": ["1", "2", "3", "4", "6"],
    "months": ["1", "2", "3", "6"],
    "hours": ["4", "6", "8", "12", "24"],
}

_CONFUSION = {"0": "O", "O": "0", "o": "0", "1": "l", "l": "1"}

_DIGITS = "0123456789"


@dataclass(frozen=True)
class CorpusSpec:
    n_drug: int
    n_posology: int
    n_useless: int
    seed: int
    lexicon_path: str

    def __post_init__(self):
        for name in ("n_drug", "n_posology", "n_useless"):
            check_int(name, getattr(self, name), 0)
        # random.Random(None) would seed from the system and give a different text each time
        check_int("seed", self.seed)
        if self.n_drug + self.n_posology + self.n_useless < 1:
            raise ValueError("at least one sentence must be requested")


@dataclass(frozen=True)
class AnnotatedSentence:
    text: str
    label: str
    spans: tuple[tuple[str, int, int], ...] = field(default=())


@lru_cache(maxsize=1)
def default_templates() -> dict:
    """The sentence templates shipped with the package (data/templates_fr.json), read once."""
    path = data_path("templates_fr.json")
    with open(path, "rb") as fh:
        return decode_json(fh.read(), path, TemplateError)


def _fill(template: str, rng: random.Random, pools: dict) -> str:
    out = template
    guard = 0
    while "{" in out:
        guard += 1
        if guard > 20:
            raise TemplateError(f"unresolvable template {template!r}")
        start = out.index("{")
        end = out.find("}", start)
        if end < 0:
            raise TemplateError(f"unbalanced brace in template {template!r}")
        key = out[start + 1 : end]
        if key in _NUMBER_CLASSES:
            value = rng.choice(_NUMBER_CLASSES[key])
        elif key in pools:
            value = rng.choice(pools[key])
        else:
            raise TemplateError(f"unknown slot {key!r} in template {template!r}")
        out = out[:start] + value + out[end + 1 :]
    return out


def _gen_drug(rng: random.Random, names: list[str], markers: list[str]) -> AnnotatedSentence:
    name = rng.choice(names)
    mode = rng.choice(["plain", "plain", "upper", "title", "lower", "truncate", "numbered", "suffixed"])
    rendered = name
    if mode == "upper":
        rendered = name.upper()
    elif mode == "title":
        rendered = name.title()
    elif mode == "lower":
        rendered = name.lower()
    elif mode == "truncate":
        # prescriptions often drop the pharmaceutical-form clause; keep the
        # head only when it retains most of the name, as a heavily shortened
        # rendering would no longer be linkable
        head = name.split(",")[0].strip()
        if len(head) >= 0.62 * len(name):
            rendered = head
    prefix = ""
    suffix = ""
    if mode == "numbered":
        prefix = f"{rng.randint(1, 9)}{rng.choice(['.', ' -', ')'])} "
    elif mode == "suffixed":
        suffix = " " + rng.choice(markers)
    text = prefix + rendered + suffix
    start = len(prefix)
    return AnnotatedSentence(
        text=text,
        label="DRUG",
        spans=(("DRUG", start, start + len(rendered)),),
    )


def _gen_posology(rng: random.Random, templates: dict) -> AnnotatedSentence:
    pools = templates["posology"]
    presence = {
        "dose": rng.random() < 0.92,
        "frequency": rng.random() < 0.78,
        "duration": rng.random() < 0.45,
        "comment": rng.random() < 0.35,
    }
    if not any(presence.values()):
        presence["dose"] = True
    parts: list[str] = []
    spans: list[tuple[str, int, int]] = []
    if rng.random() < 0.30:
        parts.append(rng.choice(pools["intros"]))
    for slot in POSOLOGY_SLOTS:
        if not presence[slot]:
            continue
        phrase = _fill(rng.choice(pools[slot]), rng, pools)
        sep = ", " if parts and rng.random() < 0.12 else " "
        prefix = (sep if parts else "")
        start = sum(len(p) for p in parts) + len(prefix)
        parts.append(prefix + phrase)
        spans.append((_SLOT_KIND[slot], start, start + len(phrase)))
    text = "".join(parts)
    return AnnotatedSentence(text=text, label="POSOLOGY", spans=tuple(spans))


def _gen_useless(rng: random.Random, templates: dict) -> AnnotatedSentence:
    pools = templates["useless"]
    template = rng.choice(pools["templates"])
    text = _fill(template, rng, pools)
    return AnnotatedSentence(text=text, label="USELESS")


def generate(spec: CorpusSpec) -> list[AnnotatedSentence]:
    """Deterministic corpus for a spec, from the shipped templates: exact class counts, gold spans recorded."""
    templates = default_templates()
    lexicon = build_lexicon(spec.lexicon_path)
    names = [e.name for e in lexicon.entries]
    markers = templates["drug"]["suffix_markers"]
    rng = random.Random(spec.seed)
    out: list[AnnotatedSentence] = []
    for _ in range(spec.n_drug):
        out.append(_gen_drug(rng, names, markers))
    for _ in range(spec.n_posology):
        out.append(_gen_posology(rng, templates))
    for _ in range(spec.n_useless):
        out.append(_gen_useless(rng, templates))
    return out


def _strip_accent_char(ch: str) -> str:
    base = "".join(c for c in unicodedata.normalize("NFD", ch) if not unicodedata.combining(c))
    return base if base else ch


def noisify(sentence: AnnotatedSentence, rate: float, seed: int) -> AnnotatedSentence:
    """Apply OCR-like noise outside gold span boundary characters.

    Each character position is considered independently at the given rate;
    an eligible position receives the one edit that applies to it (accent
    loss, 0/O or 1/l confusion, a space inserted between two digits, or a
    dropped comma/period). Span offsets are corrected for length changes.
    """
    check_number("rate", rate, 0, 0.3)
    check_int("seed", seed)
    rng = random.Random(seed)
    text = sentence.text
    protected = set()
    for _, start, end in sentence.spans:
        protected.add(start)
        protected.add(end - 1)

    out: list[str] = []
    old_to_new = [0] * (len(text) + 1)
    for i, ch in enumerate(text):
        old_to_new[i] = len(out)
        if i in protected or rng.random() >= rate:
            out.append(ch)
            continue
        ops = []
        stripped = _strip_accent_char(ch)
        if stripped != ch:
            ops.append("accent")
        if ch in _CONFUSION:
            ops.append("confuse")
        if ch in _DIGITS and i + 1 < len(text) and text[i + 1] in _DIGITS:
            ops.append("split")
        if ch in ",.":
            ops.append("drop")
        if not ops:
            out.append(ch)
            continue
        op = rng.choice(ops)
        if op == "accent":
            out.append(stripped)
        elif op == "confuse":
            out.append(_CONFUSION[ch])
        elif op == "split":
            out.append(ch)
            out.append(" ")
        # "drop": emit nothing
    old_to_new[len(text)] = len(out)

    spans = tuple(
        (kind, old_to_new[start], old_to_new[end]) for kind, start, end in sentence.spans
    )
    return AnnotatedSentence(text="".join(out), label=sentence.label, spans=spans)


def write_jsonl(sentences, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            fh.write(
                json.dumps(
                    {
                        "text": s.text,
                        "label": s.label,
                        "spans": [{"kind": k, "start": a, "end": b} for k, a, b in s.spans],
                    },
                    ensure_ascii=False,
                )
            )
            fh.write("\n")


def _span(obj, text: str, where: str) -> tuple[str, int, int]:
    """A span of ``text``: a string kind and int offsets with 0 <= start < end <= len(text)."""
    if isinstance(obj, dict):
        kind, start, end = obj.get("kind"), obj.get("start"), obj.get("end")
        # `type(...) is int` refuses a bool, a float and a string offset alike
        if isinstance(kind, str) and type(start) is int and type(end) is int and 0 <= start < end <= len(text):
            return kind, start, end
    raise SchemaError(f"{where}: needs a string 'kind' and integers 0 <= 'start' < 'end' <= {len(text)}")


def read_jsonl(path) -> list[AnnotatedSentence]:
    """The records of a corpus, gold or predictions file, each checked against the schema."""
    return [record for _, record in read_jsonl_lines(path)]


def read_jsonl_lines(path) -> list[tuple[str, AnnotatedSentence]]:
    """``(path:line, record)`` for each record of a JSONL file, checked against the schema.

    A record is an object with string ``text`` and ``label`` and an optional
    list of ``spans``, its text free of lone surrogates (which no UTF-8
    encodes); any other line is a SchemaError naming ``path:line``.
    Blank lines are skipped.
    """
    out: list[tuple[str, AnnotatedSentence]] = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            obj = decode_json(line, where, SchemaError)
            if not isinstance(obj, dict):
                raise SchemaError(f"{where}: expected a JSON object")
            text, label, spans = obj.get("text"), obj.get("label"), obj.get("spans", [])
            if not (isinstance(text, str) and isinstance(label, str) and isinstance(spans, list)):
                raise SchemaError(f"{where}: needs a string 'text', a string 'label' and a list of 'spans'")
            check_utf8(text, f"{where}: text", SchemaError)
            checked = tuple(_span(s, text, f"{where}: spans[{j}]") for j, s in enumerate(spans))
            out.append((where, AnnotatedSentence(text=text, label=label, spans=checked)))
    return out
