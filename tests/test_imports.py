"""What a fresh process loads when it imports the server or the sweep worker.

The Table 8 correlations are numpy, so neither entry point may pull in
``scipy.stats``: its few hundred modules doubled the server's start-up time
and resident memory.  ``scipy.sparse`` (the training step's scatters) stays.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_server_and_worker_load_no_scipy_stats():
    code = "import sys, repro.server.__main__, repro.service.worker; print('\\n'.join(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True,
    )
    modules = result.stdout.split()
    assert {"repro.server.__main__", "repro.service.worker", "repro.core.metrics"} <= set(modules)
    stats = [name for name in modules if name == "scipy.stats" or name.startswith("scipy.stats.")]
    assert stats == []
