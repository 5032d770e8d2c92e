"""A smoke test of scripts/torelli_survey.py: a small survey run as its own
process agrees on every morphism and reports where its time went."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_small_survey_agrees_and_splits_its_seconds():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "scripts" / "torelli_survey.py"
    argv = [sys.executable, str(script), "--max-vertices", "4", "--morphisms", "200"]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    done = [line for line in result.stdout.splitlines() if line.startswith("done in ")]
    assert len(done) == 1 and " 0 disagreements; " in done[0]
    split = done[0].split("seconds: ")[1].split(", ")
    assert [entry.split()[0] for entry in split] == [
        "enumeration",
        "sampling",
        "is_rigid",
        "diagram_defect",
        "theta_preserved",
        "s1_image_preserved",
    ]
