"""Smoke tests of scripts/: a small survey run as its own process agrees on
every morphism and reports where its time went, and each script runs from
an uninstalled checkout in any working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "argv",
    [["torelli_survey.py", "--max-vertices", "4", "--morphisms", "200"], ["reproduce_examples.py"]],
    ids=lambda argv: argv[0],
)
def test_script_runs_uninstalled_from_any_directory(argv, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = ROOT / "scripts" / argv[0]
    result = subprocess.run(
        [sys.executable, str(script), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
