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
from importlib import resources

from .druglink import build_lexicon
from .errors import SchemaError, TemplateError

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
        if min(self.n_drug, self.n_posology, self.n_useless) < 0:
            raise ValueError("counts must be non-negative")
        if self.n_drug + self.n_posology + self.n_useless < 1:
            raise ValueError("at least one sentence must be requested")


@dataclass(frozen=True)
class AnnotatedSentence:
    text: str
    label: str
    spans: tuple[tuple[str, int, int], ...] = field(default=())


@lru_cache(maxsize=1)
def default_templates() -> dict:
    text = resources.files("ordonnance.data").joinpath("templates_fr.json").read_text("utf-8")
    return json.loads(text)


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


def generate(spec: CorpusSpec, templates: dict | None = None) -> list[AnnotatedSentence]:
    """Deterministic corpus for a spec: exact class counts, gold spans recorded."""
    templates = templates if templates is not None else default_templates()
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
    if not 0 <= rate <= 0.3:
        raise ValueError(f"rate {rate} outside [0, 0.3]")
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


def read_jsonl(path) -> list[AnnotatedSentence]:
    out: list[AnnotatedSentence] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{line_no}: not valid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise SchemaError(f"{path}:{line_no}: expected a JSON object")
            try:
                spans = tuple((s["kind"], int(s["start"]), int(s["end"])) for s in obj.get("spans", []))
                out.append(AnnotatedSentence(text=obj["text"], label=obj["label"], spans=spans))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"{path}:{line_no}: bad record: {exc}") from exc
    return out
