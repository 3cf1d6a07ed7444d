"""Every script in ``scripts/`` runs against this checkout's ``src/``.

The scripts import only public names of ``nonloc``; running them here is
what notices an export they rely on going away.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((REPO_ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script):
    inherited = os.environ.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    path = os.pathsep.join([src, inherited]) if inherited else src
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
