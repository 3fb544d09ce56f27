"""Seeded OCR prescriptions with gold, built from the package's own corpus generator.

Every line of text comes from ``ordonnance.corpus.generate`` (and ``noisify``
for noisy workloads); this module adds no templates. It only lays the
sentences out as an OCR payload, one block per drug (the drug line, then its
posology lines), stacked top to bottom in reading order, with a block moved
to the next page when it would cross the bottom margin.

Gold is recorded while the document is built, never recovered from the text:
each drug line is rendered by ``generate`` from a one-row lexicon holding the
drug chosen for it, so its gold ``drug_id`` is known, and each posology line
is owned by the drug line that opens its block. The pipeline sees only
``GenDoc.payload``.
"""

from __future__ import annotations

import csv
import json
import pathlib
import random
from collections import defaultdict
from dataclasses import dataclass

from ordonnance.corpus import AnnotatedSentence, CorpusSpec, generate, noisify
from ordonnance.druglink import DrugLexicon, build_lexicon, default_lexicon_path

PAGE_TOP = 0.05
PAGE_BOTTOM = 0.92  # no line extends below this margin
LINE_HEIGHT = 0.02
LINE_GAP = 0.006  # between the lines of one block
BLOCK_GAP = 0.02  # between blocks
CHAR_WIDTH = 0.011
DRUG_LEFT = 0.10
POSOLOGY_LEFT = 0.14
BOILERPLATE_LEFT = 0.08

# The dedup marker a substitute drug line opens with ("ou <drug>").
EQUIVALENCE_MARKER = "ou"

MALFORMED_KINDS = ("missing-field", "bbox-out-of-range", "words-mismatch")


@dataclass(frozen=True)
class DocSpec:
    """Shape of the documents of one workload."""

    boilerplate: int  # all but one go above the drugs, the last is a footer
    drugs: int
    posology_per_drug: tuple[int, int]  # inclusive range; (0, 0) for none
    noise: float = 0.0
    word_boxes: bool = False
    equivalents: int = 0  # "ou <other drug>" lines, each right under a drug line
    malformed_share: float = 0.0


@dataclass(frozen=True)
class GenDoc:
    doc_id: str
    payload: bytes
    malformed: str | None  # defect planted in the payload, None for a valid one
    labels: dict[str, str]  # line id -> gold class (DRUG / POSOLOGY / USELESS)
    drug_ids: dict[str, str]  # primary drug line id -> gold drug_id
    owners: dict[str, str]  # posology line id -> line id of its drug


@dataclass
class _Line:
    text: str
    left: float
    label: str
    drug_id: str | None = None
    owner: int | None = None  # index of the owning drug line in the document


class DocGenerator:
    """Builds documents for one spec; one-row lexicon files live in ``work_dir``."""

    def __init__(self, work_dir: pathlib.Path, lexicon_path: str | None = None):
        self.lexicon_path = lexicon_path or default_lexicon_path()
        self.lexicon: DrugLexicon = build_lexicon(self.lexicon_path)
        self.work_dir = pathlib.Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self._single: dict[int, str] = {}

    def _single_lexicon(self, index: int) -> str:
        path = self._single.get(index)
        if path is None:
            entry = self.lexicon.entries[index]
            path = str(self.work_dir / f"lexicon-{index}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["id", "name"])
                writer.writerow([entry.drug_id, entry.name])
            self._single[index] = path
        return path

    def _render_drugs(self, picks: list[int], seed: int) -> list[AnnotatedSentence]:
        """One rendered drug sentence per pick, each naming exactly the picked entry."""
        slots: dict[int, list[int]] = defaultdict(list)
        for position, index in enumerate(picks):
            slots[index].append(position)
        out: list[AnnotatedSentence | None] = [None] * len(picks)
        for index in sorted(slots):
            positions = slots[index]
            spec = CorpusSpec(
                n_drug=len(positions),
                n_posology=0,
                n_useless=0,
                seed=seed * 1_000_003 + index,
                lexicon_path=self._single_lexicon(index),
            )
            for position, sentence in zip(positions, generate(spec)):
                out[position] = sentence
        return out  # type: ignore[return-value]

    def documents(self, spec: DocSpec, count: int, seed: int, prefix: str) -> list[GenDoc]:
        """``count`` documents for ``seed``; the same arguments give the same bytes."""
        rng = random.Random(seed)
        n_entries = len(self.lexicon.entries)
        plans = []
        for _ in range(count):
            picks = [rng.randrange(n_entries) for _ in range(spec.drugs)]
            posology = [rng.randint(*spec.posology_per_drug) for _ in range(spec.drugs)]
            anchors = sorted(rng.sample(range(spec.drugs), spec.equivalents))
            substitutes = [(picks[a] + rng.randrange(1, n_entries)) % n_entries for a in anchors]
            plans.append((picks, posology, dict(zip(anchors, substitutes))))

        # in the order the document loop below consumes them
        drug_picks = [
            i
            for picks, _, subs in plans
            for k, pick in enumerate(picks)
            for i in ([pick, subs[k]] if k in subs else [pick])
        ]
        drugs = iter(self._render_drugs(drug_picks, rng.getrandbits(32)))
        n_pos = sum(sum(p) for _, p, _ in plans)
        n_useless = spec.boilerplate * count
        filler = generate(
            CorpusSpec(
                n_drug=0,
                n_posology=n_pos,
                n_useless=n_useless,
                seed=rng.getrandbits(32),
                lexicon_path=self.lexicon_path,
            )
        ) if n_pos + n_useless else []
        posologies = iter(filler[:n_pos])
        useless = iter(filler[n_pos:])

        n_bad = round(spec.malformed_share * count)
        bad = dict(zip(sorted(rng.sample(range(count), n_bad)), MALFORMED_KINDS * count))

        docs = []
        for d, (picks, posology, subs) in enumerate(plans):
            texts: list[_Line] = []

            def add(sentence: AnnotatedSentence, left: float, **gold) -> int:
                text = sentence.text
                if spec.noise > 0:
                    text = noisify(sentence, spec.noise, rng.getrandbits(32)).text
                texts.append(_Line(text=text, left=left, label=sentence.label, **gold))
                return len(texts) - 1

            blocks: list[list[int]] = [
                [add(next(useless), BOILERPLATE_LEFT) for _ in range(spec.boilerplate - 1)]
            ]
            for k, index in enumerate(picks):
                sentence = next(drugs)
                own = add(sentence, DRUG_LEFT, drug_id=self.lexicon.entries[index].drug_id)
                block = [own]
                if k in subs:
                    sub = next(drugs)
                    marked = AnnotatedSentence(
                        text=f"{EQUIVALENCE_MARKER} {sub.text}", label=sub.label, spans=()
                    )
                    block.append(add(marked, DRUG_LEFT))
                block.extend(
                    add(next(posologies), POSOLOGY_LEFT, owner=own) for _ in range(posology[k])
                )
                blocks.append(block)
            if spec.boilerplate > 0:
                blocks.append([add(next(useless), BOILERPLATE_LEFT)])
            blocks = [b for b in blocks if b]
            docs.append(self._assemble(f"{prefix}-{d:04d}", texts, blocks, spec, bad.get(d), rng))
        return docs

    def _assemble(self, doc_id, texts, blocks, spec, defect, rng) -> GenDoc:
        ids = [f"L{i:03d}" for i in range(len(texts))]
        tops: dict[int, tuple[int, float]] = {}
        page, y = 1, PAGE_TOP
        for block in blocks:
            height = len(block) * LINE_HEIGHT + (len(block) - 1) * LINE_GAP
            if y + height > PAGE_BOTTOM and y > PAGE_TOP:
                page, y = page + 1, PAGE_TOP
            for k, i in enumerate(block):
                tops[i] = (page, y + k * (LINE_HEIGHT + LINE_GAP))
            y += height + BLOCK_GAP

        lines = []
        for i in sorted(tops, key=lambda i: tops[i]):
            ln = texts[i]
            line_page, top = tops[i]
            obj = {
                "id": ids[i],
                "page": line_page,
                "text": ln.text,
                "bbox": _box(ln.left, top, len(ln.text)),
            }
            if spec.word_boxes:
                obj["words"] = _word_boxes(ln.text, ln.left, top)
            lines.append(obj)
        payload = {"doc_id": doc_id, "pages": page, "lines": lines}
        if defect is not None:
            _plant_defect(payload, defect, rng)
        return GenDoc(
            doc_id=doc_id,
            payload=json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode("utf-8"),
            malformed=defect,
            labels={ids[i]: ln.label for i, ln in enumerate(texts)},
            drug_ids={ids[i]: ln.drug_id for i, ln in enumerate(texts) if ln.drug_id is not None},
            owners={ids[i]: ids[ln.owner] for i, ln in enumerate(texts) if ln.owner is not None},
        )


def _box(left: float, top: float, n_chars: int) -> dict:
    width = min(0.98 - left, 0.04 + CHAR_WIDTH * n_chars)
    return {"left": round(left, 4), "top": round(top, 4), "width": round(width, 4), "height": LINE_HEIGHT}


def _word_boxes(text: str, left: float, top: float) -> list[dict]:
    """One box per whitespace-separated word, spaced in proportion to its characters."""
    line = _box(left, top, len(text))
    scale = line["width"] / len(text)
    words, pos = [], 0
    for word in text.split():
        start = text.index(word, pos)
        pos = start + len(word)
        box = {
            "left": round(left + start * scale, 4),
            "top": line["top"],
            "width": round(max(len(word) * scale, 0.001), 4),
            "height": LINE_HEIGHT,
        }
        words.append({"text": word, "bbox": box})
    return words


def _plant_defect(payload: dict, kind: str, rng: random.Random) -> None:
    """Break one line so that parsing must fail with a typed error."""
    lines = payload["lines"]
    line = lines[rng.randrange(len(lines))]
    if kind == "words-mismatch" and line.get("words"):
        line["words"][0]["text"] += "x"
    elif kind == "bbox-out-of-range":
        line["bbox"]["left"] = 1.25
    else:
        del line["bbox"]


def eval_sentences(per_class: int, seed: int, noise: float = 0.1) -> list[AnnotatedSentence]:
    """A ``gen-corpus`` evaluation set, noised as the CLI does."""
    spec = CorpusSpec(
        n_drug=per_class, n_posology=per_class, n_useless=per_class, seed=seed,
        lexicon_path=default_lexicon_path(),
    )
    return [noisify(s, noise, seed * 1_000_003 + i) for i, s in enumerate(generate(spec))]
