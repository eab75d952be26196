"""The CI workflow's console-script and benchmark smoke steps, run here.

Each step's script runs under `bash -eo pipefail` in a temporary directory
that holds the checkout's src/ and owfbench/, with the console script
`owflab` stood in for by `python -m owflab.cli` and python3 by this
interpreter, so a command of either step that fails fails Tier-1.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "tier1.yml"


def step_script(prefix):
    """The run script of the workflow's one step whose name starts with
    prefix."""
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    [script] = [s["run"] for s in steps
                if s.get("name", "").startswith(prefix)]
    return script


@pytest.mark.parametrize("prefix", ["Installed console script",
                                    "Benchmark smoke run"])
def test_workflow_step_passes(prefix, tmp_path):
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, command in (("owflab", "-m owflab.cli"), ("python3", "")):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command} "$@"\n')
        shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    # the benchmark runs from the root of a checkout and imports ./src
    for name in ("src", "owfbench"):
        (work / name).symlink_to(REPO / name)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PATH=f"{shims}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"),
                                                        path])))
    proc = subprocess.run(["bash", "-eo", "pipefail", "-c",
                           step_script(prefix)],
                          cwd=work, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
