import os
import subprocess
import sys
from pathlib import Path

import tubekit

ROOT = Path(tubekit.__file__).resolve().parent.parent.parent


def test_run_pipeline_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"),
         "--videos", "3", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.jsonl").stat().st_size > 0


def test_noise_sweep_script():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "noise_sweep.py"), "--videos", "1"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["miss", "fp", "mAP@0.5"]
    assert len(rows) == 15  # 5 miss rates x 3 false-positive rates
    for row in rows:
        assert 0.0 <= float(row.split()[2]) <= 1.0
