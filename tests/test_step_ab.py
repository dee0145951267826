"""tools/step_ab.py: the two-checkout comparison of trajectories and step time."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def step_ab(monkeypatch, capsys):
    """The tool on one size, two trials per preset and a short budget; runs
    it on two checkouts and returns its last line, the JSON report."""
    spec = importlib.util.spec_from_file_location("step_ab", ROOT / "tools" / "step_ab.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name, value in (("SIZES", (8,)), ("TRIALS", 2), ("MAX_ITERS", 400),
                        ("RUNS", ((8, "improved", 2),))):
        monkeypatch.setattr(tool, name, value)
    monkeypatch.setattr(sys, "path", list(sys.path))

    def run(parent, child):
        monkeypatch.setattr(sys, "argv", ["step_ab.py", str(parent), str(child)])
        tool.main()
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    yield run
    for name in [m for m in sys.modules if m.split(".")[0] in ("ab_parent", "ab_child")]:
        del sys.modules[name]


def test_same_checkout_follows_the_same_trajectories(step_ab):
    report = step_ab(ROOT, ROOT)
    same = report["trajectories"]
    assert same["trials"] == 11 * 2
    assert same["outcomes_differ"] == same["final_states_differ"] == 0
    assert same["digests"]["parent"] == same["digests"]["child"]
    assert [row["outcomes_differ"] for row in report["steps"]] == [0]


def test_nudged_start_level_changes_outcomes(step_ab, tmp_path):
    pkg = tmp_path / "src" / "amoebatsp"
    shutil.copytree(ROOT / "src" / "amoebatsp", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    dynamics = pkg / "dynamics.py"
    text = dynamics.read_text()
    assert "DEFAULT_INIT_LEVEL = 0.435\n" in text
    dynamics.write_text(text.replace("DEFAULT_INIT_LEVEL = 0.435\n", "DEFAULT_INIT_LEVEL = 0.436\n"))
    same = step_ab(ROOT, tmp_path)["trajectories"]
    assert same["outcomes_differ"] > 0
    assert same["digests"]["parent"] != same["digests"]["child"]
