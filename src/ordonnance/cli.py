"""Command line interface.

Subcommands: extract, gen-corpus, train, eval, lexicon-check. stdout carries
only the data artifact; diagnostics go to stderr. ``extract`` and ``eval``
take files, not tuning: the model (--model, required) and the lexicon,
pattern and stopword files (--lexicon, --patterns, --stopwords), which
default to the shipped files. They link drugs at
``druglink.DEFAULT_THRESHOLD`` and lines by ``linking.LinkConfig()``, as the
library's ``Runtime`` does by default. The stopword list changes the
classifier's features, and a model file does not record the list it was
trained with: ``extract`` and ``eval`` must be given the list that ``train``
used. ``eval --predictions`` runs no pipeline, so it refuses the pipeline's
flags as a usage error. ``train`` sets only the descent (--seed, --epochs,
--holdout): the featurizer, its hash width included, and the step size are
fixed (see ``classify``). A model file is loaded before the pipeline runs on
any input, so one that ``load_model`` refuses (another featurizer version or
hash width) is a ``model`` error with exit 2.

Each input is checked where it enters, by the loader that reads it; a loader
raises an ``OrdonnanceError`` for a bad value, and lets the ``OSError`` of a
file it cannot open escape. One rule (`_exit_code`) then gives every error
its exit code: 3 for an ``OSError`` (a file that cannot be read or written),
2 for a bad value in a file, flag or payload (an ``OrdonnanceError``,
``ValueError`` or ``TypeError``), 4 for anything else. Each error is
reported as one JSON line on stderr, ``{"error": {"type": ..., "message":
...}}``, never as a traceback. Click's own usage errors (an unknown option,
a value of the wrong type) keep Click's message and exit 2. The CLI states
no range of its own: a flag's help gives its range, and the record or
function that takes the value checks it, so a value out of range is that
record's JSON error (``config`` for ``train``, ``corpus`` for
``gen-corpus``).
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import sys

import click

from . import __version__
from .classify import TrainConfig, load_model, save_model, train
from .corpus import CorpusSpec, generate, noisify, read_jsonl, read_jsonl_lines, write_jsonl
from .druglink import build_lexicon, default_lexicon_path
from .errors import AlignmentError, OrdonnanceError, SchemaError, data_path
from .linking import record_to_dict, dumps_canonical
from .metrics import format_table, report_to_json, score
from .ocr import parse_ocr_document
from .patterns import load_patterns
from .pipeline import Runtime, annotate_text, extract_document
from .textnorm import load_stopwords, sentence_from_text

_EXIT_SCHEMA = 2
_EXIT_MISSING = 3
_EXIT_INTERNAL = 4

# Click signals usage errors and ctx.exit() with these; Exit and Abort are
# RuntimeErrors, so they must be let through before any `except Exception`.
_CLICK_EXCEPTIONS = (click.ClickException, click.exceptions.Exit, click.Abort)


def _exit_code(exc: BaseException) -> int:
    """3 when a file could not be read or written, 2 for a bad value, else 4."""
    if isinstance(exc, OSError):
        return _EXIT_MISSING
    if isinstance(exc, (OrdonnanceError, ValueError, TypeError)):
        return _EXIT_SCHEMA
    return _EXIT_INTERNAL


def _report(kind: str, message: str) -> None:
    click.echo(json.dumps({"error": {"type": kind, "message": message}}), err=True)


def _fail(code: int, kind: str, message: str):
    _report(kind, message)
    sys.exit(code)


@contextlib.contextmanager
def _failing_as(kind: str):
    """Report an error escaping the block as ``kind`` and exit with its code."""
    try:
        yield
    except _CLICK_EXCEPTIONS:
        raise
    except Exception as exc:
        _fail(_exit_code(exc), kind, str(exc))


# The flags naming the files a Runtime is built from, in declaration order.
_RUNTIME_FLAGS = ("model", "lexicon", "patterns", "stopwords")


def _build_runtime(model, lexicon, patterns, stopwords) -> Runtime:
    """The Runtime of the given files; a file not given is the shipped one, except the model."""
    if model is None:
        _fail(_EXIT_MISSING, "model", "no model file given (--model)")
    with _failing_as("model"):
        clf = load_model(model)
    with _failing_as("lexicon"):
        lex = build_lexicon(default_lexicon_path() if lexicon is None else lexicon)
    with _failing_as("patterns"):
        pats = load_patterns(data_path("patterns_fr.json") if patterns is None else patterns)
    with _failing_as("stopwords"):
        stops = load_stopwords(data_path("stopwords_fr.txt") if stopwords is None else stopwords)
    return Runtime(model=clf, lexicon=lex, patterns=pats, stopwords=stops)


def _record_table(record_dict: dict) -> str:
    lines = [f"document: {record_dict['doc_id']}"]
    for drug in record_dict["drugs"]:
        lines.append(f"  {drug['name']}  [{drug['drug_id']}]  score={drug['score']:.3f}")
        for pos in drug["posologies"]:
            for ent in pos["entities"]:
                lines.append(f"      {ent['kind']:<10} {ent['text']}")
    if record_dict["orphans"]:
        lines.append("  (unattached posology)")
        for pos in record_dict["orphans"]:
            for ent in pos["entities"]:
                lines.append(f"      {ent['kind']:<10} {ent['text']}")
    if record_dict["unmatched_drug_lines"]:
        lines.append(f"  unlinked drug lines: {', '.join(record_dict['unmatched_drug_lines'])}")
    return "\n".join(lines) + "\n"


def _runtime_options(command):
    """The flags ``extract`` and ``eval`` share: the files a Runtime is built from."""
    for decorate in reversed((
        click.option("--model", default=None, help="Trained classifier model file."),
        click.option("--lexicon", default=None, help="Drug lexicon CSV (id,name)."),
        click.option("--patterns", default=None, help="Posology pattern file (JSON)."),
        click.option("--stopwords", default=None,
                     help="Stopword list file (default: the shipped list); must be the one train used, "
                          "as it changes the classifier's features."),
    )):
        command = decorate(command)
    return command


class _Main(click.Group):
    """Group that reports an error no command caught as JSON, never a traceback."""

    def invoke(self, ctx):
        with _failing_as("internal"):
            return super().invoke(ctx)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="ordonnance")
def main():
    """Structure OCR'd French prescriptions into drugs and posologies."""


@main.command("extract")
@click.option("--input", "inputs", multiple=True, required=True, help="OCR JSON payload(s).")
@click.option("--out", default=None, help="Output file, or directory with several inputs.")
@_runtime_options
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json", show_default=True)
def cmd_extract(inputs, out, fmt, **flags):
    """Run the full pipeline over OCR JSON and emit prescription records.

    Every input is processed: a failing one is reported on stderr and the
    others are still written. The exit code is that of the first failure.
    Several inputs each write ``<stem>.record.json`` (or ``.record.txt``) in
    --out; inputs whose file names would collide are refused before
    anything is read or written.
    """
    runtime = _build_runtime(**flags)
    if len(inputs) > 1:
        if not out:
            _fail(_EXIT_SCHEMA, "usage", "--out directory is required with several inputs")
        suffix = ".record.json" if fmt == "json" else ".record.txt"
        names = [pathlib.Path(path).stem + suffix for path in inputs]
        clashing = [path for path, name in zip(inputs, names) if names.count(name) > 1]
        if clashing:
            _fail(_EXIT_SCHEMA, "usage", f"inputs would overwrite each other's record: {', '.join(clashing)}")
        out_dir = pathlib.Path(out)
        with _failing_as("output"):
            out_dir.mkdir(parents=True, exist_ok=True)

    first_code = 0
    for i, path in enumerate(inputs):
        kind = "input"  # what an OSError failed on
        try:
            with open(path, "rb") as fh:
                payload = fh.read()
            rd = record_to_dict(extract_document(parse_ocr_document(payload), runtime))
            blob = _record_table(rd).encode("utf-8") if fmt == "table" else dumps_canonical(rd)
            kind = "output"
            if len(inputs) > 1:
                (out_dir / names[i]).write_bytes(blob)
            elif out:
                pathlib.Path(out).write_bytes(blob)
            else:
                sys.stdout.buffer.write(blob)
        except Exception as exc:
            _report(kind if isinstance(exc, OSError) else type(exc).__name__, str(exc))
            first_code = first_code or _exit_code(exc)
    if first_code:
        sys.exit(first_code)


@main.command("gen-corpus")
@click.option("--n-drug", type=int, required=True)
@click.option("--n-posology", type=int, required=True)
@click.option("--n-useless", type=int, required=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--lexicon", default=None, help="Drug lexicon CSV (default: bundled demo lexicon).")
@click.option("--noise", type=float, default=0.0, show_default=True, help="OCR noise rate in [0, 0.3].")
@click.option("--out", required=True, help="Output JSONL path.")
def cmd_gen_corpus(n_drug, n_posology, n_useless, seed, lexicon, noise, out):
    """Generate a labeled synthetic corpus (JSON Lines)."""
    with _failing_as("corpus"):
        spec = CorpusSpec(
            n_drug=n_drug,
            n_posology=n_posology,
            n_useless=n_useless,
            seed=seed,
            lexicon_path=lexicon or default_lexicon_path(),
        )
        sentences = generate(spec)
        if noise:  # noisify refuses a rate outside [0, 0.3]
            sentences = [noisify(s, noise, seed * 1_000_003 + i) for i, s in enumerate(sentences)]
        write_jsonl(sentences, out)
    click.echo(f"wrote {n_drug + n_posology + n_useless} sentences to {out}", err=True)


@main.command("train")
@click.option("--input", "corpus_path", required=True, help="Training corpus JSONL.")
@click.option("--model", "model_path", required=True, help="Where to write the model file.")
@click.option("--stopwords", default=None,
              help="Stopword list file (default: the shipped list); extract and eval must be given the same "
                   "one, as it changes the classifier's features.")
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--epochs", type=int, default=200, show_default=True, help="Training epochs, at least 1.")
@click.option("--holdout", type=float, default=0.1, show_default=True, help="Held-out fraction in [0, 1).")
def cmd_train(corpus_path, model_path, stopwords, seed, epochs, holdout):
    """Train the sentence classifier on a JSONL corpus."""
    # TrainConfig checks every setting's range.
    with _failing_as("config"):
        config = TrainConfig(epochs=epochs, seed=seed, holdout_fraction=holdout)
    with _failing_as("corpus"):
        rows = read_jsonl(corpus_path)
    with _failing_as("stopwords"):
        stops = load_stopwords(stopwords or data_path("stopwords_fr.txt"))
    corpus = []
    for row in rows:
        sentence = sentence_from_text(row.text, stops)
        if sentence is not None:
            corpus.append((sentence, row.label))
    with _failing_as("corpus"):
        model = train(corpus, config)
    with _failing_as("model"):
        save_model(model, model_path)
    metrics = {
        "sentences": len(corpus),
        "holdout_accuracy": model.holdout_accuracy,
        "epochs": epochs,
        "seed": seed,
    }
    click.echo(json.dumps(metrics), err=True)


def _read_predictions(path, gold_rows) -> list[list]:
    """Each predictions record's spans, checked against the gold text the record is aligned with.

    Records align with the gold sentences by position; ``score`` refuses
    files of different lengths.
    """
    records = read_jsonl_lines(path)
    for (where, record), row in zip(records, gold_rows):
        for j, (_, _, end) in enumerate(record.spans):
            if end > len(row.text):
                raise AlignmentError(
                    f"{where}: spans[{j}] ends at {end}, beyond its gold text of {len(row.text)} characters"
                )
    return [list(record.spans) for _, record in records]


@main.command("eval")
@click.option("--gold", required=True, help="Gold JSONL with entity spans.")
@click.option("--predictions", default=None,
              help="Predicted JSONL to score instead of running the pipeline.")
@_runtime_options
@click.option("--mode", type=click.Choice(["token", "exact-span"]), default="token", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json", show_default=True)
def cmd_eval(gold, predictions, mode, fmt, **flags):
    """Score extraction quality against a gold corpus.

    A gold file with no records is refused: with nothing to score, every
    figure would read 1.0.
    """
    ignored = [f"--{key}" for key in _RUNTIME_FLAGS if flags[key] is not None]
    if predictions is not None and ignored:
        _fail(_EXIT_SCHEMA, "usage", f"{', '.join(ignored)} cannot be used with --predictions, which runs no pipeline")
    with _failing_as("gold"):
        gold_rows = read_jsonl(gold)
        if not gold_rows:
            raise SchemaError(f"{gold}: no records to score")

    if predictions is not None:
        with _failing_as("predictions"):
            pred_spans = _read_predictions(predictions, gold_rows)
    else:
        runtime = _build_runtime(**flags)
        pred_spans = [annotate_text(row.text, runtime) for row in gold_rows]

    mode_name = "TOKEN" if mode == "token" else "EXACT_SPAN"
    with _failing_as("predictions"):
        report = score(gold_rows, pred_spans, mode=mode_name)
    if fmt == "table":
        click.echo(format_table(report))
    else:
        sys.stdout.buffer.write(report_to_json(report))


@main.command("lexicon-check")
@click.option("--lexicon", default=None, help="Drug lexicon CSV (default: bundled demo lexicon).")
def cmd_lexicon_check(lexicon):
    """Validate a lexicon file and print basic statistics."""
    path = lexicon or default_lexicon_path()
    with _failing_as("lexicon"):
        lex = build_lexicon(path)
    stats = {
        "path": str(path),
        "entries": len(lex.entries),
        "first_token_keys": len(lex.first_token_index),
        "max_first_token_bucket": max(map(len, lex.first_token_index.values())),
        "max_name_tokens": max(e.n_tokens for e in lex.entries),
    }
    click.echo(json.dumps(stats, indent=2))


if __name__ == "__main__":
    main()
