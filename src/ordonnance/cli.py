"""Command line interface.

Subcommands: extract, gen-corpus, train, eval, lexicon-check. stdout carries
only the data artifact; diagnostics go to stderr. A JSON config file can
pre-set any option (--config); explicit flags win over the config file.

One rule (`_exit_code`) gives every error its exit code: 2 for a bad value
in a file, flag or payload, 3 for a file that cannot be read or written,
4 for anything else. Each error is reported as one JSON line on stderr,
``{"error": {"type": ..., "message": ...}}``, never as a traceback. Click's
own usage errors (an unknown option, a value out of its range) keep Click's
message and exit 2.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import sys

import click

from . import __version__
from .classify import TrainConfig, FeatureConfig, load_model, save_model, train
from .corpus import CorpusSpec, generate, noisify, read_jsonl, write_jsonl
from .druglink import DEFAULT_THRESHOLD, build_lexicon, default_lexicon_path
from .errors import OrdonnanceError, SchemaError
from .linking import LinkConfig, record_to_dict, dumps_canonical
from .metrics import format_table, report_to_json, score
from .ocr import parse_ocr_document
from .patterns import default_patterns, load_patterns
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
    if isinstance(exc, OSError) or isinstance(exc.__cause__, OSError):
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


def _resolve(ctx_config: dict, key: str, value, default):
    if value is not None:
        return value
    if key in ctx_config:
        return ctx_config[key]
    return default


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with _failing_as("config"):
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise SchemaError(f"{path}: expected a JSON object")
    return cfg


def _default_stopwords_path() -> str:
    from importlib import resources

    return str(resources.files("ordonnance.data").joinpath("stopwords_fr.txt"))


def _build_runtime(config, model, lexicon, patterns, stopwords, threshold) -> Runtime:
    model_path = _resolve(config, "model", model, None)
    if model_path is None:
        _fail(_EXIT_MISSING, "model", "no model file given (--model)")
    with _failing_as("model"):
        clf = load_model(model_path)
    with _failing_as("lexicon"):
        lex = build_lexicon(_resolve(config, "lexicon", lexicon, default_lexicon_path()))
    patterns_path = _resolve(config, "patterns", patterns, None)
    with _failing_as("patterns"):
        pats = load_patterns(patterns_path) if patterns_path else default_patterns()
    with _failing_as("stopwords"):
        stops = load_stopwords(_resolve(config, "stopwords", stopwords, _default_stopwords_path()))
    with _failing_as("config"):
        return Runtime(
            model=clf,
            lexicon=lex,
            patterns=pats,
            stopwords=stops,
            threshold=_resolve(config, "threshold", threshold, DEFAULT_THRESHOLD),
            link_config=LinkConfig(
                section_gap_factor=config.get("section_gap_factor", 1.5),
                drug_gap_factor=config.get("drug_gap_factor", 2.5),
                overlap_fraction=config.get("overlap_fraction", 0.5),
            ),
        )


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
@click.option("--model", default=None, help="Trained classifier model file.")
@click.option("--lexicon", default=None, help="Drug lexicon CSV (id,name).")
@click.option("--patterns", default=None, help="Posology pattern file (JSON).")
@click.option("--stopwords", default=None, help="Stopword list file.")
@click.option("--threshold", type=float, default=None, help="Drug link acceptance threshold.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json", show_default=True)
@click.option("--config", default=None, help="JSON config file with defaults for these options.")
def cmd_extract(inputs, out, model, lexicon, patterns, stopwords, threshold, fmt, config):
    """Run the full pipeline over OCR JSON and emit prescription records.

    Every input is processed: a failing one is reported on stderr and the
    others are still written. The exit code is that of the first failure.
    """
    cfg = _load_config(config)
    runtime = _build_runtime(cfg, model, lexicon, patterns, stopwords, threshold)
    if len(inputs) > 1:
        if not out:
            _fail(_EXIT_SCHEMA, "usage", "--out directory is required with several inputs")
        out_dir = pathlib.Path(out)
        with _failing_as("output"):
            out_dir.mkdir(parents=True, exist_ok=True)

    first_code = 0
    for path in inputs:
        try:
            with open(path, "rb") as fh:
                payload = fh.read()
            rd = record_to_dict(extract_document(parse_ocr_document(payload), runtime))
            blob = _record_table(rd).encode("utf-8") if fmt == "table" else dumps_canonical(rd)
            if len(inputs) > 1:
                suffix = ".record.json" if fmt == "json" else ".record.txt"
                (out_dir / (pathlib.Path(path).stem + suffix)).write_bytes(blob)
            elif out:
                pathlib.Path(out).write_bytes(blob)
            else:
                sys.stdout.buffer.write(blob)
        except Exception as exc:
            _report("input" if isinstance(exc, OSError) else type(exc).__name__, str(exc))
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
        if noise > 0:
            sentences = [noisify(s, noise, seed * 1_000_003 + i) for i, s in enumerate(sentences)]
        write_jsonl(sentences, out)
    click.echo(f"wrote {n_drug + n_posology + n_useless} sentences to {out}", err=True)


@main.command("train")
@click.option("--input", "corpus_path", required=True, help="Training corpus JSONL.")
@click.option("--model", "model_path", required=True, help="Where to write the model file.")
@click.option("--stopwords", default=None)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--epochs", type=int, default=200, show_default=True)
@click.option("--learning-rate", type=float, default=5.0, show_default=True)
@click.option("--hash-dim", type=click.IntRange(min=1), default=2**18, show_default=True)
@click.option("--holdout", type=click.FloatRange(0, 1, max_open=True), default=0.1, show_default=True)
def cmd_train(corpus_path, model_path, stopwords, seed, epochs, learning_rate, hash_dim, holdout):
    """Train the sentence classifier on a JSONL corpus."""
    with _failing_as("corpus"):
        rows = read_jsonl(corpus_path)
    with _failing_as("stopwords"):
        stops = load_stopwords(stopwords or _default_stopwords_path())
    corpus = []
    for row in rows:
        sentence = sentence_from_text(row.text, stops)
        if sentence is not None:
            corpus.append((sentence, row.label))
    config = TrainConfig(
        epochs=epochs,
        learning_rate=learning_rate,
        seed=seed,
        holdout_fraction=holdout,
        features=FeatureConfig(hash_dim=hash_dim),
    )
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


@main.command("eval")
@click.option("--gold", required=True, help="Gold JSONL with entity spans.")
@click.option("--predictions", default=None,
              help="Predicted JSONL to score instead of running the pipeline.")
@click.option("--model", default=None)
@click.option("--lexicon", default=None)
@click.option("--patterns", default=None)
@click.option("--stopwords", default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--mode", type=click.Choice(["token", "exact-span"]), default="token", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json", show_default=True)
@click.option("--config", default=None)
def cmd_eval(gold, predictions, model, lexicon, patterns, stopwords, threshold, mode, fmt, config):
    """Score extraction quality against a gold corpus."""
    with _failing_as("gold"):
        gold_rows = read_jsonl(gold)

    if predictions is not None:
        with _failing_as("predictions"):
            pred_spans = [list(r.spans) for r in read_jsonl(predictions)]
    else:
        cfg = _load_config(config)
        runtime = _build_runtime(cfg, model, lexicon, patterns, stopwords, threshold)
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
        "max_name_tokens": max(len(e.norm_tokens) for e in lex.entries),
    }
    click.echo(json.dumps(stats, indent=2))


if __name__ == "__main__":
    main()
