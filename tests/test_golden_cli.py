"""Golden `--no-timings` outputs: each command's stdout and exit code must
match tests/golden_cli.json byte for byte.

Regenerate the data file, only when an output is meant to change, with
    PYTHONPATH=src python tests/test_golden_cli.py
and review the diff of tests/golden_cli.json.
"""

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

from rigidlift.cli import main
from rigidlift.graphio import fixture_path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "golden_cli.json"
SCRIPT = "scripts/reproduce_examples.py"

# "$FIX/" stands for the packaged fixture directory.
CASES = [
    ["info", "$FIX/K.graph"],
    ["divisor", "$FIX/K.graph", "theta"],
    ["divisor", "$FIX/K.graph", "reduce", "div w2:1 w3:3 w4:-4", "--q", "w4"],
    ["rigidity", "$FIX/GH.morphism.json"],
    ["rigidity", "$FIX/JK.morphism.json"],
    ["lift-matroid", "$FIX/G.graph", "$FIX/H.graph", "$FIX/GH.morphism.json"],
    ["selftest"],
    ["orient", "$FIX/K.graph", "chern", "r1:F r2:F r3:F r4:F r5:F r6:F"],
    ["orient", "$FIX/K.graph", "certify", "w3:1 w4:1"],
    ["orient", "$FIX/K.graph", "certify", "w1:-2 w2:1 w3:2 w4:1"],
    ["orient", "$FIX/K.graph", "liftdiv", "w1:2"],
    ["orient", "$FIX/K.graph", "liftdiv", "w1:-1", "--unoriented", "r2,r3,r5"],
    ["orient", "$FIX/K.graph", "liftdiv", "w1:-3 w3:1", "--unoriented", "r2,r3,r5,r6"],
    [SCRIPT],
]


def run_case(case):
    """(exit code, stdout) of one case, run in this process."""
    fix = fixture_path("")
    argv = [a.replace("$FIX/", fix) for a in case]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if argv[0] == SCRIPT:
            saved = sys.argv
            sys.argv = [argv[0]]
            try:
                runpy.run_path(str(ROOT / SCRIPT), run_name="__main__")
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
            finally:
                sys.argv = saved
        else:
            code = main(["--no-timings", *argv])
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c))
def test_output_matches_golden(case):
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    entry = next(e for e in golden if e["argv"] == case)
    code, out = run_case(case)
    assert code == entry["exit"]
    assert out == entry["stdout"]


if __name__ == "__main__":
    entries = []
    for case in CASES:
        code, out = run_case(case)
        entries.append({"argv": case, "exit": code, "stdout": out})
    DATA.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} cases to {DATA}")
