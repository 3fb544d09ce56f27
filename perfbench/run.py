#!/usr/bin/env python3
"""Pipeline benchmark for ordonnance.

    python3 perfbench/run.py --workload rx-typical --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. One run, in one process and one thread:

1. trains the desk model (4,500 ``gen-corpus`` sentences, seed 42), timed;
   builds the Runtime from files as the CLI does, repeated in fresh processes
   (``cold_setup.py``) between timing windows and the median reported; an
   untimed pass measures the Runtime's memory with tracemalloc;
2. generates the workload's inputs from ``--seed`` (BENCHMARK.json says why
   each workload was chosen);
3. runs them in a closed loop, the next input sent when the previous one
   returns, in windows of one second, for at least ``--seconds`` and two
   passes over the inputs;
4. checks the outputs and scores their quality against the generated gold;
   a failed check or a quality figure below its gate fails the run;
5. with ``--trace 1``, replays one pass with every layer function wrapped in
   spans, writes the spans to ``.perfbench-out/`` and reports the per-layer
   metrics instead of the end-to-end ones.

Latency is each input's median run, summarized over inputs; throughput is
the median over windows. Every time is scaled to a reference machine (see
``harness.REFERENCE_NS``) by timing a fixed piece of Python next to each
measurement; the raw figures are printed too.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it list every metric by name and
unit, with the kernel backend and the seeds. The exit code is 1 when a check
fails, 2 on bad arguments or a missing source tree.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "ordonnance" / "__init__.py").is_file():
        print(f"error: no package source under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    return harness.Bench(ROOT, args.workload, args.seed, args.seconds, bool(args.trace)).run()


if __name__ == "__main__":
    sys.exit(main())
