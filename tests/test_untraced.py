"""tools/untraced.py, the list of statements no test runs: on a package of
two functions whose one test calls the first."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "untraced.py"

MODULE = '''"""Two functions; the test calls only the first."""

import math


def called(x):
    """Docstring."""
    y = math.sqrt(
        x)
    return y


def uncalled(x):
    if (x >
            0):
        return x
    return -x
'''

TEST = '''from pkg.mod import called


def test_called():
    assert called(4.0) == 2.0
'''


def test_lists_exactly_the_body_of_the_uncalled_function(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "test_mod.py").write_text(TEST)
    proc = subprocess.run([sys.executable, str(TOOL), "--package", str(tmp_path / "pkg"),
                           "-q", "-p", "no:cacheprovider", "test_mod.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-4:] == [
        "mod.py:14: if (x >",
        "mod.py:16: return x",
        "mod.py:17: return -x",
        "3 untraced statements",
    ]
