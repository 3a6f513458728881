"""The package layout: each layer imports on its own."""

import subprocess
import sys


def test_exact_layers_import_without_numpy():
    # Only torq.greedy needs numpy; importing another layer must not run it.
    code = (
        "import sys, torq.board, torq.lattice, torq.decomp, torq.solvers; "
        "print('numpy' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
