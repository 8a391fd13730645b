"""Every CLI call of ``tools/golden_cli.py`` against its golden digests in
``tests/golden_cli.json``: exit code, standard output, written files and
the error line of each exit 2.  The calls run in process, and at the same
time in a subprocess under another ``PYTHONHASHSEED``, so no verdict may
follow set iteration order.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import golden_cli


def test_cli_verdicts_match_the_golden_table():
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = subprocess.Popen([sys.executable, str(TOOLS / "golden_cli.py")],
                             env=dict(os.environ, PYTHONHASHSEED=seed),
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True)
    try:
        want = json.loads(golden_cli.TABLE.read_text())
        assert golden_cli.mismatches(golden_cli.generate(), want) == []
        out, _ = child.communicate(timeout=600)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 0, out
