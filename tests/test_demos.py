"""Each demo's output pinned byte for byte.

``data/demos/<name>.txt`` holds what ``python -W error demos/<name>.py``
prints at one BLAS thread.  A change that moves a printed digit of any
demo, or makes one warn or fail, fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hodgebench

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recorded_output():
    recorded = sorted(path.stem for path in (ROOT / "tests" / "data" / "demos").glob("*.txt"))
    assert recorded == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_recorded_output(tmp_path, demo):
    # the child imports the package this process imported
    src = str(Path(hodgebench.__file__).parents[1])
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], capture_output=True, env=env, cwd=tmp_path, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_bytes()
