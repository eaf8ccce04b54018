"""Every walkthrough in demos/, and the README's library example, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from somqe.pipeline import read_manifest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    """Run this interpreter on `args` with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # demos write their outputs (demo 05: demo-out/) into the working directory
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(tmp_path):
    """The fenced python block under '## Library', so a name it uses cannot vanish."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.0


def test_readme_manifest_example_anchors_on_its_earliest_year(tmp_path):
    """The block under '**Manifest**': a stack copied from it trains on its
    earliest frame, as the method does."""
    section = (ROOT / "README.md").read_text().split("\n**Manifest**", 1)[1]
    block = section.split("```\n", 1)[1].split("\n```", 1)[0]
    (tmp_path / "frames.tsv").write_text(block + "\n")
    manifest = read_manifest(tmp_path / "frames.tsv")
    assert len(manifest.entries) > 1
    assert manifest.entries[manifest.anchor_index].year == min(manifest.years)
