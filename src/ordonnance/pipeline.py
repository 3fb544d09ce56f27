"""End-to-end extraction pipeline.

ingest -> normalize -> classify -> (drug link | posology extract) ->
geometric link -> record. Also provides the sentence-level annotation used
by the evaluation harness, with predicted spans projected back into the raw
text's character space so they are directly comparable to gold spans.

Every line goes through ``classify_sentences``, which builds one
``classify.LineBatch`` of a document's kept lines, or of bare text's one
line, and runs ``predict`` and the linking or posology stages per line:
the first ``predict`` featurizes and scores the whole batch, and the others
look their result up. The stages and ``classify.featurize`` are looked up
at call time, so wrappers installed on them here (``featurize`` on its
module) see every call, and the scoring happens inside a ``predict`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import ClassifierModel, LineBatch, predict
from .druglink import (
    DrugLexicon,
    DrugMention,
    detect_drug,
    mention_token_window,
    split_combined_line,
    starts_with_equivalence_marker,
)
from .linking import ClassifiedLine, LinkConfig, PrescriptionRecord, link
from .ocr import OcrDocument
from .patterns import PatternSet
from .posology import PosologyExtraction, extract_posology
from .textnorm import Sentence, make_sentence, sentence_from_text

# Not called here. It stays bound because perfbench/spans.py wraps the
# textnorm layer functions by their names in this module.
from .textnorm import normalize_text  # noqa: F401

# (kind, char_start, char_end) in the coordinates of the text that was annotated
Span = tuple[str, int, int]


@dataclass
class Runtime:
    """Loaded artifacts the pipeline needs: model, lexicon, patterns, stopwords.

    ``stopwords`` must be the list the model was trained with. Drugs link at
    ``druglink.DEFAULT_THRESHOLD``, and every Runtime the package builds has
    ``link_config`` ``LinkConfig()``.
    """

    model: ClassifierModel
    lexicon: DrugLexicon
    patterns: PatternSet
    stopwords: frozenset[str]
    link_config: LinkConfig = field(default_factory=LinkConfig)


def classify_sentences(
    sentences: list[Sentence], runtime: Runtime
) -> list[tuple[str, DrugMention | None, PosologyExtraction | None]]:
    """Classify lines in one batch and run drug linking or posology extraction on each.

    Returns each line's ``(label, mention, extraction)``. A DRUG line that
    links carries its mention; when posology follows the name on the same
    line (a combined line), the remainder's extraction is kept if it found
    entities. A POSOLOGY line carries its extraction.
    """
    batch = LineBatch(sentences)
    results = []
    for sentence in sentences:
        label = predict(runtime.model, sentence, batch).label
        mention = None
        extraction = None
        if label == "DRUG":
            mention = detect_drug(sentence, runtime.lexicon)
            if mention is not None:
                remainder = split_combined_line(sentence, mention)
                if remainder.tokens:
                    combined = extract_posology(remainder, runtime.patterns)
                    if combined.entities:
                        extraction = combined
        elif label == "POSOLOGY":
            extraction = extract_posology(sentence, runtime.patterns)
        results.append((label, mention, extraction))
    return results


def annotate_text(raw_text: str, runtime: Runtime) -> list[Span]:
    """Classify and annotate bare text; spans come back in raw-text coordinates."""
    sentence = sentence_from_text(raw_text, runtime.stopwords)
    if sentence is None:
        return []
    [(_, mention, extraction)] = classify_sentences([sentence], runtime)
    spans: list[Span] = []
    if mention is not None:
        spans.append(("DRUG", *sentence.char_span(*mention_token_window(sentence, mention))))
    if extraction is not None:
        spans.extend((e.label, e.char_start, e.char_end) for e in extraction.entities)
    return [(kind, *sentence.to_raw_span(start, end)) for kind, start, end in spans]


def classify_lines(doc: OcrDocument, runtime: Runtime) -> list[ClassifiedLine]:
    """Per-line classification and extraction, before geometric linking.

    Each line keeps its ``OcrLine``'s id, page and box. A linked drug line
    that opens with an equivalence marker ("ou ...") right below another
    linked drug line names a substitute, so it becomes EQUIVALENT, with no
    mention or extraction, and only the first drug of the pair is kept. The
    line above is compared as relabelled: an EQUIVALENT line has no mention.
    """
    # make_sentence gives None for single-character OCR debris
    kept = [(line, s) for line in doc.lines if (s := make_sentence(line, runtime.stopwords)) is not None]
    results = classify_sentences([sentence for _, sentence in kept], runtime)
    classified = []
    above = None  # the previous line's mention, after relabelling
    for (line, sentence), (label, mention, extraction) in zip(kept, results):
        if (
            mention is not None
            and above is not None
            and mention.drug_id != above.drug_id
            and starts_with_equivalence_marker(sentence)
        ):
            label, mention, extraction = "EQUIVALENT", None, None
        classified.append(ClassifiedLine(line.line_id, line.page, line.bbox, label, mention, extraction))
        above = mention
    return classified


def extract_document(doc: OcrDocument, runtime: Runtime) -> PrescriptionRecord:
    """Full pipeline for one parsed OCR document."""
    return link(doc.doc_id, classify_lines(doc, runtime), runtime.link_config)
