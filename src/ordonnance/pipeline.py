"""End-to-end extraction pipeline.

ingest -> normalize -> classify -> (drug link | posology extract) ->
geometric link -> record. Also provides the sentence-level annotation used
by the evaluation harness, with predicted spans projected back into the raw
text's character space so they are directly comparable to gold spans.

``predict`` runs once per line. A document's lines share one
``classify.LineBatch``, so the first line's ``predict`` featurizes and
scores the whole document in one pass and the others look their result
up; bare text is a batch of one. ``predict`` and ``classify.featurize``
are looked up at call time (``featurize`` through its module), so wrappers
installed on ``classify.featurize`` or on this module's ``predict`` see
every call, and the scoring happens inside a ``predict`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import ClassifierModel, LineBatch, predict
from .druglink import (
    DEFAULT_THRESHOLD,
    DrugLexicon,
    detect_drug,
    mention_token_window,
    split_combined_line,
    starts_with_equivalence_marker,
)
from .linking import ClassifiedLine, LinkConfig, PrescriptionRecord, link
from .ocr import OcrDocument
from .patterns import PatternSet
from .posology import extract_posology
from .textnorm import NormalizedText, Sentence, make_sentence, sentence_from_text

# Not called here. It stays bound because perfbench/spans.py wraps the
# textnorm layer functions by their names in this module.
from .textnorm import normalize_text  # noqa: F401

# (kind, char_start, char_end) in the coordinates of the text that was annotated
Span = tuple[str, int, int]


@dataclass
class Runtime:
    """Loaded artifacts the pipeline needs: model, lexicon, patterns, stopwords."""

    model: ClassifierModel
    lexicon: DrugLexicon
    patterns: PatternSet
    stopwords: frozenset[str] = frozenset()
    threshold: float = DEFAULT_THRESHOLD
    link_config: LinkConfig = field(default_factory=LinkConfig)

    def __post_init__(self):
        t = self.threshold
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0 <= t <= 1:
            raise ValueError(f"threshold must be a number in [0, 1], got {t!r}")


def classify_sentence(sentence: Sentence, runtime: Runtime, batch: LineBatch | None = None) -> ClassifiedLine:
    """Classify one line and run drug linking or posology extraction on it.

    ``batch`` holds the line among the other lines of its document (see
    ``classify.predict``); the line is scored alone without it. A DRUG line
    that links carries its mention; when posology follows the name on the
    same line (a combined line), the remainder's extraction is kept if it
    found entities. A POSOLOGY line carries its extraction.
    """
    label = predict(runtime.model, sentence, batch).label
    mention = None
    extraction = None
    if label == "DRUG":
        mention = detect_drug(sentence, runtime.lexicon, runtime.threshold)
        if mention is not None:
            remainder = split_combined_line(sentence, mention)
            if remainder.tokens:
                combined = extract_posology(remainder, runtime.patterns)
                if combined.entities:
                    extraction = combined
    elif label == "POSOLOGY":
        extraction = extract_posology(sentence, runtime.patterns)
    return ClassifiedLine(
        line_id=sentence.line_id,
        page=sentence.page,
        bbox=sentence.bbox,
        label=label,
        mention=mention,
        extraction=extraction,
    )


def annotate_text(raw_text: str, runtime: Runtime) -> list[Span]:
    """Classify and annotate bare text; spans come back in raw-text coordinates."""
    sentence = sentence_from_text(raw_text, runtime.stopwords)
    if sentence is None:
        return []
    line = classify_sentence(sentence, runtime)
    tokens = sentence.tokens
    spans: list[Span] = []
    base = 0  # offset of the extraction's text in the sentence's match_text
    if line.mention is not None:
        w0, w1 = mention_token_window(sentence, line.mention)
        spans.append(("DRUG", tokens[w0].start, tokens[w1 - 1].end))
        if line.extraction is not None:
            base = tokens[w1].start
    if line.extraction is not None:
        spans.extend(
            (e.kind, base + e.char_start, base + e.char_end) for e in line.extraction.entities
        )
    norm = NormalizedText(sentence.match_text, sentence.origins)
    return [(kind, *norm.to_raw_span(start, end)) for kind, start, end in spans]


def classify_lines(doc: OcrDocument, runtime: Runtime) -> list[ClassifiedLine]:
    """Per-line classification and extraction, before geometric linking.

    A linked drug line that opens with an equivalence marker ("ou ...")
    right below another linked drug line names a substitute, so it becomes
    EQUIVALENT and only the first drug of the pair is kept.
    """
    sentences: list[Sentence] = []
    for line in doc.lines:
        sentence = make_sentence(line, runtime.stopwords)
        if sentence is not None:  # None: single-character OCR debris
            sentences.append(sentence)
    batch = LineBatch(sentences)
    classified = [classify_sentence(sentence, runtime, batch) for sentence in sentences]

    for i in range(1, len(classified)):
        cur, prev = classified[i], classified[i - 1]
        if (
            cur.mention is not None
            and prev.mention is not None
            and cur.mention.drug_id != prev.mention.drug_id
            and starts_with_equivalence_marker(sentences[i])
        ):
            classified[i] = ClassifiedLine(
                line_id=cur.line_id,
                page=cur.page,
                bbox=cur.bbox,
                label="EQUIVALENT",
            )
    return classified


def extract_document(doc: OcrDocument, runtime: Runtime) -> PrescriptionRecord:
    """Full pipeline for one parsed OCR document."""
    return link(doc.doc_id, classify_lines(doc, runtime), runtime.link_config)
