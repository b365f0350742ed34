"""Each demo prints its section of ``demos/expected_output.txt`` byte for byte.

The demos print at most 8 significant digits, so their output is pinned
exactly.  Each runs in a fresh interpreter in which a numpy overflow or
invalid-value warning is an error, as in the tests.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _expected():
    """``demos/expected_output.txt`` as {"demos/<name>.py": stdout}; each
    section follows a line ``== demos/<name>.py``."""
    with open(os.path.join(ROOT, "demos", "expected_output.txt")) as fh:
        parts = re.split(r"^== (\S+)\n", fh.read(), flags=re.M)
    assert parts[0] == "", "text before the first section"
    return dict(zip(parts[1::2], parts[2::2]))


EXPECTED = _expected()


def test_every_demo_has_a_section():
    demos = sorted(f"demos/{name}" for name in os.listdir(os.path.join(ROOT, "demos"))
                   if name.endswith(".py"))
    assert sorted(EXPECTED) == demos


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_prints_its_expected_output(demo):
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error::RuntimeWarning")
    done = subprocess.run([sys.executable, demo], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == EXPECTED[demo]
