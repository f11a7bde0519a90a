"""Every demo script runs clean and prints its closing line."""

import pathlib
import subprocess
import sys

import pytest

from helpers import child_env

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

MARKERS = {
    "01_states_and_overlaps.py": "states and overlaps agree",
    "02_beam_splitter_two_tracks.py": "both tracks agree",
    "03_cat_portrait.py": "expected after-lobes",
    "04_fringe_four_routes.py": "largest disagreement",
    "05_weak_tap_contrast.py": "destroys the superposition",
}


@pytest.mark.parametrize("name", sorted(MARKERS))
def test_demo_runs(name, tmp_path):
    script = DEMOS / name
    assert script.exists()
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,  # keep any saved figures out of the repo
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert MARKERS[name] in proc.stdout
