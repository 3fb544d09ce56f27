"""Workloads, timing loops and metrics of the pipeline benchmark (see run.py)."""

from __future__ import annotations

import gc
import json
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from importlib import resources

import checks
import spans
from docgen import DocGenerator, DocSpec, GenDoc, eval_sentences
from ordonnance import kernels
from ordonnance.classify import TrainConfig, load_model, save_model, train
from ordonnance.corpus import CorpusSpec, generate
from ordonnance.druglink import build_lexicon, default_lexicon_path
from ordonnance.errors import OrdonnanceError
from ordonnance.linking import dumps_canonical, link, record_to_dict
from ordonnance.metrics import score
from ordonnance.ocr import parse_ocr_document
from ordonnance.patterns import load_patterns
from ordonnance.pipeline import Runtime, annotate_text, classify_lines, extract_document
from ordonnance.textnorm import load_stopwords, sentence_from_text

DESK_SPEC = dict(n_drug=1500, n_posology=1500, n_useless=1500, seed=42)
EVAL_SEED = 7
SETUP_REPEATS = 5
SETUP_STEPS = ("model", "lexicon", "patterns", "stopwords")
# Throughput is counted per window of WINDOW_NS and the median over windows
# reported. Latency is taken per input as the median of its at least
# MIN_PASSES runs, then summarized over inputs.
WINDOW_NS = 1_000_000_000
MIN_PASSES = 2
# Every time is reported scaled to a reference machine, one on which
# reference_work() takes REFERENCE_NS. The speed of a shared machine drifts by
# up to 2x within minutes; the reference work, interleaved with the measured
# work (about CALIBRATION_SHARE of it), drifts with it, so the scaled figures
# stay comparable between runs while the raw ones, printed too, do not.
REFERENCE_NS = 1_000_000
CALIBRATION_SHARE = 0.1
RECHECK = 10  # pool items run again after the timed loop to compare outputs
OUT_DIR = ".perfbench-out"  # spans and work files, inside the source tree
FIXTURE_TRACED = 3  # traced passes over the fixture, so every layer has calls


@dataclass(frozen=True)
class Workload:
    pool: int  # distinct inputs; the timed loop cycles over them
    gates: dict[str, float]  # quality floor per metric; any lower fails the run
    docs: DocSpec | None = None  # None: the eval sentences through annotate_text


# Why each workload was chosen is in BENCHMARK.json and printed with every run.
WORKLOADS = {
    "rx-typical": Workload(
        pool=200,
        gates={"drug_link_acc": 0.95, "posology_attach_acc": 0.93},
        docs=DocSpec(boilerplate=5, drugs=4, posology_per_drug=(1, 3)),
    ),
    "rx-druglist-noisy": Workload(
        pool=220,
        gates={"drug_link_acc": 0.93},
        docs=DocSpec(
            boilerplate=8,
            drugs=30,
            posology_per_drug=(0, 0),
            noise=0.1,
            word_boxes=True,
            equivalents=2,
            malformed_share=0.05,
        ),
    ),
    # The re-anchor baseline of the seed-42 desk model on this set: TOKEN F1
    # 98.84 and EXACT_SPAN F1 98.26; no change may lower them.
    "eval-noisy": Workload(pool=1500, gates={"token_f1": 0.9884, "exact_span_f1": 0.9825}),
}


def _data(name: str) -> str:
    return str(resources.files("ordonnance.data").joinpath(name))


def _median_s(samples: list[tuple[int, float]], scaled: bool = True) -> float:
    """Median in seconds of (raw ns, scale) samples, scaled to the reference machine or raw."""
    return statistics.median(ns * scale if scaled else ns for ns, scale in samples) / 1e9


def build_runtime(model_path) -> tuple[Runtime, dict[str, int]]:
    """The Runtime the CLI builds from files, and the ns each step took."""
    marks = [time.perf_counter_ns()]
    model = load_model(model_path)
    marks.append(time.perf_counter_ns())
    lexicon = build_lexicon(default_lexicon_path())
    marks.append(time.perf_counter_ns())
    patterns = load_patterns(_data("patterns_fr.json"))
    marks.append(time.perf_counter_ns())
    stopwords = load_stopwords(_data("stopwords_fr.txt"))
    marks.append(time.perf_counter_ns())
    runtime = Runtime(model=model, lexicon=lexicon, patterns=patterns, stopwords=stopwords)
    marks.append(time.perf_counter_ns())
    steps = {key: b - a for key, (a, b) in zip(SETUP_STEPS, zip(marks, marks[1:]))}
    steps["total"] = marks[-1] - marks[0]
    return runtime, steps


def run_document(payload: bytes, runtime: Runtime) -> bytes:
    """One document operation: parse, extract, serialize."""
    return dumps_canonical(record_to_dict(extract_document(parse_ocr_document(payload), runtime)))


def reference_work() -> int:
    """Fixed pure-Python work (formatting, string methods, dict updates), like the pipeline's."""
    counts: dict[str, int] = {}
    for i in range(2_000):
        word = f"tok{i % 97} x"
        counts[word] = counts.get(word, 0) + len(word.upper().split()[0])
    return sum(counts.values())


class Calibrator:
    """Runs reference_work between measured operations and turns it into a scale."""

    def __init__(self):
        self.runs = 0
        self.ns = 0
        self.owed = 0  # measured ns not yet matched by reference work

    def run(self, times: int = 1) -> int:
        t0 = time.perf_counter_ns()
        for _ in range(times):
            reference_work()
        spent = time.perf_counter_ns() - t0
        self.runs += times
        self.ns += spent
        self.owed = 0
        return spent

    def due(self) -> bool:
        return self.owed * CALIBRATION_SHARE >= REFERENCE_NS

    def take(self) -> float:
        """Scale since the last take: reference-machine time per measured time."""
        if not self.runs:
            self.run()
        scale = self.runs * REFERENCE_NS / self.ns
        self.runs = self.ns = 0
        return scale


def _freeze_heap() -> None:
    """Keep collections from scanning the harness's own objects while timing.

    The harness holds the training corpus and every input; a process that
    only runs the pipeline has none of them, so full collections there scan
    far fewer objects.
    """
    gc.collect()
    gc.freeze()


def _comparable(out):
    """Outputs compare by value; an exception by its type and message."""
    return (type(out).__name__, str(out)) if isinstance(out, Exception) else out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Bench:
    def __init__(self, root: pathlib.Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.report: dict[str, tuple[float, str]] = {}
        self.errors: list[str] = []
        self.failed = 0
        self.declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.fixture = (root / "tests" / "data" / "ocr_fixture_7drugs.json").read_bytes()
        # (raw ns, machine scale next to it) per repeat; set-ups run in fresh processes
        self.train_ns: list[tuple[int, float]] = []
        self.setup_ns: dict[str, list[tuple[int, float]]] = {k: [] for k in SETUP_STEPS + ("total",)}

    # ---- set-up ---------------------------------------------------------

    def train_model(self, model_path: pathlib.Path) -> None:
        stops = load_stopwords(_data("stopwords_fr.txt"))
        corpus = generate(CorpusSpec(lexicon_path=default_lexicon_path(), **DESK_SPEC))
        self.train_pairs = [
            (s, row.label) for row in corpus if (s := sentence_from_text(row.text, stops)) is not None
        ]
        save_model(self.train_once(), model_path)

    def train_once(self):
        """Train the desk model, timed with reference work on either side."""
        calibrator = Calibrator()
        calibrator.run(10)
        t0 = time.perf_counter_ns()
        model = train(self.train_pairs, TrainConfig())
        ns = time.perf_counter_ns() - t0
        calibrator.run(10)
        self.train_ns.append((ns, calibrator.take()))
        return model

    def runtime_bytes(self, model_path) -> int:
        """Memory a freshly built Runtime holds, in an untimed pass under tracemalloc."""
        gc.collect()
        tracemalloc.start()
        try:
            runtime, _ = build_runtime(model_path)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del runtime
        return held

    def cold_setup(self, model_path) -> None:
        """Time one Runtime build in a fresh process, as a CLI run pays it.

        In this process the allocator has been shaped by all earlier work,
        which moves the cost of loading the model by 2x from run to run.
        """
        script = pathlib.Path(__file__).with_name("cold_setup.py")
        try:
            proc = subprocess.run(
                [sys.executable, str(script), str(model_path)],
                capture_output=True, text=True, timeout=60, cwd=self.root,
            )
            sample = json.loads(proc.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
            self.errors.append(f"cold set-up failed: {exc!r}")
            return
        for key, ns in sample["steps"].items():
            self.setup_ns[key].append((ns, sample["scale"]))

    def side_measurements(self, model_path) -> list:
        """The set-up repeats, run between timing windows.

        On a shared machine a slow spell lasts seconds; spreading the repeats
        over the run keeps one spell from moving their median.
        """
        return [lambda: self.cold_setup(model_path)] * SETUP_REPEATS

    # ---- inputs and operations -----------------------------------------

    def make_inputs(self, work_dir: pathlib.Path) -> list:
        if self.workload.docs is None:
            sentences = eval_sentences(per_class=self.workload.pool // 3, seed=EVAL_SEED)
            order = list(range(len(sentences)))
            random.Random(self.seed).shuffle(order)
            self.order = order
            return sentences
        docs = DocGenerator(work_dir).documents(self.workload.docs, self.workload.pool, self.seed, self.name)
        self.order = list(range(len(docs)))
        return docs

    def op(self, item, runtime: Runtime):
        if isinstance(item, GenDoc):
            return run_document(item.payload, runtime)
        return annotate_text(item.text, runtime)

    def traced_op(self, tracer: spans.Tracer, item, runtime: Runtime):
        if isinstance(item, GenDoc):
            return self.traced_doc(tracer, item.payload, runtime)
        return tracer.call("pipeline.annotate", annotate_text, item.text, runtime)

    @staticmethod
    def traced_doc(tracer: spans.Tracer, payload: bytes, runtime: Runtime) -> bytes:
        doc = tracer.call("ocr.parse", parse_ocr_document, payload)
        record = tracer.call("pipeline.extract", extract_document, doc, runtime)
        return tracer.call("serialize.dump", lambda r: dumps_canonical(record_to_dict(r)), record)

    def succeeded(self, item, out) -> bool:
        """A malformed payload must be refused with a typed error; anything else must not raise."""
        if isinstance(item, GenDoc) and item.malformed is not None:
            return isinstance(out, OrdonnanceError)
        return not isinstance(out, Exception)

    # ---- measurement ---------------------------------------------------

    def timed_loop(self, items: list, runtime: Runtime, side: list):
        """Closed loop, one thread: the next input is sent when the previous one returns.

        Runs whole windows of at least WINDOW_NS until ``seconds`` of windows
        and MIN_PASSES passes over the inputs are done. Reference work runs
        between operations and one call of ``side`` between windows, all
        outside the measured time.
        """
        sequence, latencies, outputs, windows = [], [], [], []
        deadline = self.seconds * 1_000_000_000
        measured = 0
        calibrator = Calibrator()
        _freeze_heap()
        first_op, window_start, reference_ns = 0, time.perf_counter_ns(), 0
        while True:
            if calibrator.due():
                reference_ns += calibrator.run()
            idx = self.order[len(sequence) % len(self.order)]
            t0 = time.perf_counter_ns()
            try:
                out = self.op(items[idx], runtime)
            except Exception as exc:  # counted as a failed operation, never fatal
                out = exc
            t1 = time.perf_counter_ns()
            calibrator.owed += t1 - t0
            sequence.append(idx)
            latencies.append(t1 - t0)
            outputs.append(out)
            if t1 - window_start < WINDOW_NS:
                continue
            wall = t1 - window_start - reference_ns
            windows.append((first_op, len(sequence), wall, calibrator.take()))
            measured += wall
            if len(sequence) >= MIN_PASSES * len(items) and measured >= deadline:
                break
            if side:
                side.pop(0)()
            first_op, window_start, reference_ns = len(sequence), time.perf_counter_ns(), 0
        gc.unfreeze()
        for call in side:
            call()
        return sequence, latencies, outputs, windows

    def judge(self, items, sequence, outputs) -> dict[int, object]:
        """Count failed operations; return the first output of every input."""
        first: dict[int, object] = {}
        shown = 0
        for idx, out in zip(sequence, outputs):
            ok = self.succeeded(items[idx], out)
            if ok and idx in first and _comparable(first[idx]) != _comparable(out):
                ok = False
                self.errors.append(f"input {idx}: a second pass gave different output")
            first.setdefault(idx, out)
            if not ok:
                self.failed += 1
                if shown < 3 and isinstance(out, Exception):
                    shown += 1
                    print("".join(traceback.format_exception(out)), file=sys.stderr)
        return first

    def end_to_end(self, items, sequence, latencies, outputs, windows) -> None:
        """Timings scaled to the reference machine; the raw ones go to the report only."""
        for scaled in (True, False):
            rates, runs = [], {}
            for first_op, end_op, wall_ns, scale in windows:
                factor = scale if scaled else 1.0
                rates.append((end_op - first_op) / (wall_ns * factor / 1e9))
                for k in range(first_op, end_op):
                    idx, out = sequence[k], outputs[k]
                    if not isinstance(out, Exception) and self.succeeded(items[idx], out):
                        runs.setdefault(idx, []).append(latencies[k] * factor)
            times = [statistics.median(ns) for ns in runs.values()]
            cuts = statistics.quantiles(times, n=100)
            lines = sum(self.line_count(items[idx]) for idx in runs)
            figures = {
                "ops_per_s": (statistics.median(rates), "1/s"),
                "op_p50_ms": (statistics.median(times) / 1e6, "ms"),
                "op_p95_ms": (cuts[94] / 1e6, "ms"),
                "us_per_sentence": (sum(times) / lines / 1e3, "us"),
                "p99_ms": (cuts[98] / 1e6, "ms"),
                "setup_s": (_median_s(self.setup_ns["total"], scaled), "s"),
            }
            if scaled:
                self.extra = {"p99_ms": figures.pop("p99_ms")[0]}
                self.report.update(figures)
            else:
                self.raw = figures
        self.report["success_ratio"] = (1 - self.failed / len(sequence), "ratio")
        # One training per run; its time moves by 10-25% between runs on a
        # shared machine, more than any bound allows, so it is reported but
        # not among the end-to-end metrics.
        self.extra["train_s"] = _median_s(self.train_ns)
        self.extra.update(
            operations=len(sequence),
            windows=len(windows),
            timed_inputs=len(times),
            machine_scale=statistics.median(w[3] for w in windows),
        )

    @staticmethod
    def line_count(item) -> int:
        return len(item.labels) if isinstance(item, GenDoc) else 1

    # ---- checks and quality --------------------------------------------

    def check(self, items, first, runtime: Runtime) -> None:
        fixture = self.fixture
        doc = parse_ocr_document(fixture)
        lines = classify_lines(doc, runtime)
        record = link(doc.doc_id, lines, runtime.link_config)
        blob = dumps_canonical(record_to_dict(record))
        self.errors += checks.landing_errors(lines, record)
        self.errors += checks.fixture_errors(json.loads(blob))
        self.errors += checks.canonical_errors(blob)
        self.errors += checks.repeat_errors("fixture", blob, run_document(fixture, runtime))

        rechecked = 0
        for idx in self.order:
            if rechecked == RECHECK:
                break
            item, out = items[idx], first[idx]
            if isinstance(out, Exception):
                continue
            rechecked += 1
            self.errors += checks.repeat_errors(f"input {idx}", out, self.op(item, runtime))
            if isinstance(item, GenDoc):
                doc = parse_ocr_document(item.payload)
                lines = classify_lines(doc, runtime)
                record = link(doc.doc_id, lines, runtime.link_config)
                self.errors += checks.landing_errors(lines, record)
                self.errors += checks.canonical_errors(out)
                self.errors += checks.repeat_errors(item.doc_id, out, dumps_canonical(record_to_dict(record)))

    def quality(self, items, first) -> None:
        values: dict[str, float] = {}
        if self.workload.docs is None:
            preds = [first[i] if isinstance(first[i], list) else [] for i in range(len(items))]
            values["token_f1"] = score(items, preds, mode="TOKEN").totals.f1
            values["exact_span_f1"] = score(items, preds, mode="EXACT_SPAN").totals.f1
        else:
            link_hits = link_total = attach = attach_total = 0
            for idx, item in enumerate(items):
                if item.malformed is not None or isinstance(first[idx], Exception):
                    continue
                record = json.loads(first[idx])
                link_hits += checks.drug_link_hits(record, item.drug_ids)
                link_total += len(item.drug_ids)
                attach += checks.attach_hits(record, item.owners)
                attach_total += len(item.owners)
            values["drug_link_acc"] = _ratio(link_hits, link_total)
            if attach_total:
                values["posology_attach_acc"] = attach / attach_total
        self.quality_values = values
        self.errors += checks.quality_errors(values, self.workload.gates)

    # ---- traced pass ----------------------------------------------------

    def traced_pass(self, items, sequence, outputs, runtime: Runtime) -> dict:
        """Replay the timed inputs with spans on.

        Each input runs once untraced and then once traced, back to back, so
        that the overhead ratio compares runs made under the same machine load.
        """
        tracer = spans.Tracer()
        traced_outputs = []
        plain_ns = traced_ns = 0
        calibrator = Calibrator()
        _freeze_heap()
        for k, idx in enumerate(sequence):
            if calibrator.due():
                calibrator.run()
            t0 = time.perf_counter_ns()
            try:
                self.op(items[idx], runtime)
            except Exception:  # judged in the timed loop already
                pass
            t1 = time.perf_counter_ns()
            with tracer.installed():
                tracer.op = k
                try:
                    out = tracer.call("op", self.traced_op, tracer, items[idx], runtime)
                except Exception as exc:  # judged like the untraced pass
                    out = exc
            traced_ns += time.perf_counter_ns() - t1
            plain_ns += t1 - t0
            calibrator.owed += time.perf_counter_ns() - t0
            traced_outputs.append(out)
        gc.unfreeze()
        with tracer.installed():
            for k in range(FIXTURE_TRACED):
                tracer.op = len(sequence) + k
                tracer.call("op", self.traced_doc, tracer, self.fixture, runtime)

        for k, (a, b) in enumerate(zip(outputs, traced_outputs)):
            if not isinstance(a, Exception) and a != b:
                self.errors.append(f"operation {k}: traced output differs from untraced output")
        if tracer.misnested():
            self.errors.append(f"{len(tracer.misnested())} spans lie outside their parent")

        out_dir = self.root / OUT_DIR
        tracer.write(out_dir / f"spans-{self.name}.tsv")
        return self.layer_metrics(tracer, items, sequence, traced_ns / plain_ns, calibrator.take())

    def layer_metrics(self, tracer: spans.Tracer, items, sequence, overhead: float, scale: float) -> dict:
        """Per-layer figures; times are scaled to the reference machine like the end-to-end ones."""
        n = len(sequence)
        workload_ops = set(range(n))
        every = tracer.layer_totals()
        mine = tracer.layer_totals(workload_ops)

        def calls(name, totals=every):
            return totals.get(name, {}).get("calls", 0)

        def self_ns(*names, totals=every):
            return sum(totals.get(name, {}).get("self_ns", 0) for name in names)

        def per_call_us(names, denominator):
            return scale * _ratio(self_ns(*names), sum(calls(d) for d in denominator)) / 1e3

        kept: dict[str, list] = {}
        for span, args, result in tracer.kept:
            kept.setdefault(tracer.names[span], []).append((tracer.ops[span], args, result))

        def mean(values):
            values = list(values)
            return _ratio(sum(values), len(values))

        built = [r for name in ("textnorm.make_sentence", "textnorm.sentence_from_text")
                 for _, _, r in kept.get(name, []) if r is not None]
        hits = sum(1 for _, _, r in kept.get("druglink.detect", []) if r is not None)

        agree = judged = 0
        for op, args, result in kept.get("classify.predict", []):
            if op >= n:
                continue
            item = items[sequence[op]]
            gold = item.labels.get(args[1].line_id) if isinstance(item, GenDoc) else item.label
            judged += 1
            agree += gold == result.label

        orphans = attached = 0
        for _, _, record in kept.get("linking.link", []):
            orphans += len(record.orphans)
            attached += sum(len(extractions) for _, extractions in record.drugs)

        op_ns = sum(tracer.ends[i] - tracer.starts[i] for i in range(len(tracer.names))
                    if tracer.parents[i] < 0 and tracer.ops[i] < n)
        layers = {}
        for name, entry in mine.items():
            layer = spans.layer_of(name)
            layers[layer] = layers.get(layer, 0) + entry["self_ns"]

        m = {
            "ocr.parse_us": (per_call_us(["ocr.parse"], ["ocr.parse"]), "us"),
            "ocr.lines": (mean(len(r.lines) for _, _, r in kept.get("ocr.parse", [])), "count"),
            "textnorm.sentence_us": (
                per_call_us([k for k in every if k.startswith("textnorm.")],
                            ["textnorm.make_sentence", "textnorm.sentence_from_text"]),
                "us",
            ),
            "textnorm.tokens": (mean(len(s.tokens) for s in built), "count"),
            "classify.predict_us": (per_call_us(["classify.predict", "classify.featurize"], ["classify.predict"]), "us"),
            "classify.featurize_us": (per_call_us(["classify.featurize"], ["classify.featurize"]), "us"),
            "classify.calls": (calls("classify.predict", mine) / n, "count"),
            "classify.line_acc": (_ratio(agree, judged), "ratio"),
            "druglink.detect_us": (per_call_us(["druglink.detect"], ["druglink.detect"]), "us"),
            "druglink.split_us": (per_call_us(["druglink.split"], ["druglink.split"]), "us"),
            "druglink.hit_ratio": (_ratio(hits, calls("druglink.detect")), "ratio"),
            "kernels.similarity_calls": (calls("kernels.similarity", mine) / n, "count"),
            "kernels.levenshtein_calls": (calls("kernels.levenshtein", mine) / n, "count"),
            "kernels.self_us": (
                per_call_us(["kernels.similarity", "kernels.levenshtein"],
                            ["kernels.similarity", "kernels.levenshtein"]),
                "us",
            ),
            "posology.extract_us": (per_call_us(["posology.extract"], ["posology.extract"]), "us"),
            "posology.extract_calls": (calls("posology.extract", mine) / n, "count"),
            "posology.tokens": (mean(len(a[0].tokens) for _, a, _ in kept.get("posology.extract", [])), "count"),
            "posology.entities": (mean(len(r.entities) for _, _, r in kept.get("posology.extract", [])), "count"),
            "linking.link_us": (per_call_us(["linking.link"], ["linking.link"]), "us"),
            "linking.orphan_ratio": (_ratio(orphans, orphans + attached), "ratio"),
            "serialize.us": (per_call_us(["serialize.dump"], ["serialize.dump"]), "us"),
            "serialize.bytes": (mean(len(r) for _, _, r in kept.get("serialize.dump", [])), "B"),
            "pipeline.self_us": (scale * layers.get("pipeline", 0) / n / 1e3, "us"),
            "trace.op_us": (scale * op_ns / n / 1e3, "us"),
            "trace.overhead_ratio": (overhead, "ratio"),
            "setup.model_s": (_median_s(self.setup_ns["model"]), "s"),
            "setup.lexicon_s": (_median_s(self.setup_ns["lexicon"]), "s"),
            "setup.patterns_s": (_median_s(self.setup_ns["patterns"]), "s"),
            "classify.train_s": (self.extra["train_s"], "s"),
        }
        for layer in ("ocr", "textnorm", "classify", "druglink", "kernels", "posology", "linking", "serialize", "pipeline"):
            m[f"{layer}.share"] = (_ratio(layers.get(layer, 0), op_ns), "ratio")
        return m

    # ---- one run --------------------------------------------------------

    def run(self) -> int:
        out_dir = self.root / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
            work = pathlib.Path(tmp)
            model_path = work / "desk-model.bin"
            self.train_model(model_path)
            runtime, _ = build_runtime(model_path)
            self.report["runtime_mb"] = (self.runtime_bytes(model_path) / 1e6, "MB")
            items = self.make_inputs(work)
            for idx in self.order[:5]:  # let lazy caches fill before timing
                try:
                    self.op(items[idx], runtime)
                except OrdonnanceError:
                    pass
            sequence, latencies, outputs, windows = self.timed_loop(
                items, runtime, self.side_measurements(model_path)
            )
        first = self.judge(items, sequence, outputs)
        self.end_to_end(items, sequence, latencies, outputs, windows)
        self.check(items, first, runtime)
        self.quality(items, first)
        layer = None
        if self.trace:  # one pass over the inputs is enough for per-layer figures
            layer = self.traced_pass(items, sequence[: len(items)], outputs, runtime)

        measured = layer if self.trace else self.report
        names = [m["name"] for m in self.declared["per_layer" if self.trace else "end_to_end"]]
        if sorted(names) != sorted(measured):
            self.errors.append(f"measured metrics {sorted(measured)} differ from BENCHMARK.json {sorted(names)}")

        failed = self.failed + len(self.errors)
        correct = failed == 0
        self.print_report(layer)
        for error in self.errors[:20]:
            print(f"check failed: {error}", file=sys.stderr)
        print(json.dumps({
            "correct": correct,
            "attempted": len(sequence),
            "failed": failed,
            "metrics": {
                name: {"value": measured[name][0], "unit": measured[name][1]} for name in names if name in measured
            },
        }))
        return 0 if correct else 1

    def print_report(self, layer: dict | None) -> None:
        """Every metric by name and unit, under the names each workload is discussed with."""
        print(f"workload {self.name}  seed {self.seed}  eval seed {EVAL_SEED}  desk seed {DESK_SPEC['seed']}  "
              f"run_seconds {self.seconds}  kernels.BACKEND {kernels.BACKEND}")
        why = {w["name"]: w["why"] for w in self.declared["workloads"]}
        print(f"why: {why[self.name]}")
        rows = dict(self.report)
        if self.workload.docs is not None:
            rows["docs_per_s"] = rows["ops_per_s"]
            rows["doc_p50_ms"] = rows["op_p50_ms"]
            rows["doc_p95_ms"] = rows["op_p95_ms"]
        else:
            rows["sentence_p99_us"] = (self.extra["p99_ms"] * 1e3, "us")
        rows["fail_ratio"] = (1 - rows["success_ratio"][0], "ratio")
        rows["train_s"] = (self.extra["train_s"], "s")
        for name, value in self.quality_values.items():
            rows[name] = (value, "ratio")
        for name, (value, unit) in self.raw.items():
            rows[f"raw.{name}"] = (value, unit)
        for name in ("machine_scale", "operations", "windows", "timed_inputs"):
            rows[name] = (self.extra[name], "ratio" if name == "machine_scale" else "count")
        for name, (value, unit) in list(rows.items()) + list((layer or {}).items()):
            print(f"  {name:<28} {value:>16.6f} {unit}")


