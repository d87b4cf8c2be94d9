"""The demos run end to end and print what they promise."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,line", [
    ("01_preprocess_passage.py", "  (121 token ids; the '*' separates answer from passage)"),
    ("03_evaluate_wer.py", "  q07  distance  8  S=5 D=3 I=0 C=3  normalized 0.73"),
], ids=["preprocess", "evaluate"])
def test_demo_runs_and_prints_its_known_line(script, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert line in result.stdout.splitlines()
