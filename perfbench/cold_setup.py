"""Build the Runtime once in this fresh process and print the step times as JSON.

    python3 perfbench/cold_setup.py MODEL_FILE

harness.py runs it for the set-up metrics: a CLI run builds its Runtime in a
fresh process, whose allocator no earlier work has shaped. Reference work on
either side of the build gives the machine scale (see harness.Calibrator).
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402


def main(model_path: str) -> None:
    calibrator = harness.Calibrator()
    calibrator.run(5)
    _, steps = harness.build_runtime(model_path)
    calibrator.run(5)
    print(json.dumps({"steps": steps, "scale": calibrator.take()}))


if __name__ == "__main__":
    main(sys.argv[1])
