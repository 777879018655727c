"""Every demo script runs to completion against the package in src/, and
the README's library tour prints what its comments say."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


#: Demos whose whole stdout is pinned; any change to it must be deliberate.
#: The switching tour prints the -1 certificate of the all-arc triangle and
#: the gains it switches to.
PINNED_STDOUT = {
    "switching_tour": (
        "cycle gain: -1\n"
        "cycle class: NEGATIVE\n"
        "switching function: {1: '1', 2: '-w\u0304', 3: '-w'}\n"
        "gain(1,2) after switching: -1\n"
        "gain(2,3) after switching: -1\n"
        "gain(3,1) after switching: -1\n"
        "cycle gain after switching: -1\n"),
}


@pytest.mark.parametrize("name", [
    "energy_tightness",
    "interlacing_walk",
    "small_spectra",
    "switching_tour",
    "symmetric_spectrum_finding",
    "two_route_charpoly",
])
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    if name in PINNED_STDOUT:
        assert done.stdout == PINNED_STDOUT[name]


def library_tour():
    """The README's python block and the lines its comments say it prints:
    each print's trailing comment, or else the comment line after it."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    expected = []
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("print("):
            comment = line.partition("#")[2].strip()
            expected.append(comment or after.removeprefix("# "))
    return block, expected


def test_readme_library_tour_prints_its_comments():
    block, expected = library_tour()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(expected) == 5
    assert done.stdout.splitlines() == expected
