import importlib.util
import json
import sys
from pathlib import Path

import pytest

from golden_registry import REGISTRY, verify_golden

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("case", REGISTRY, ids=[case.id for case in REGISTRY])
def test_golden_case(case, tmp_path):
    report = verify_golden(case, GOLDEN_DIR, tmp_path)
    assert report.checked > 0
    assert report.passed, report.failures


def test_make_golden_imports_and_reproduces_its_point_files(monkeypatch):
    # Regeneration is run by hand, so only this test loads the script: its
    # imports must resolve, and the point files that it makes by plain
    # arithmetic must come out as committed. main(), which writes them, is
    # not run.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds its directory
    path = Path(__file__).resolve().parent / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", path)
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    assert callable(make_golden.main)
    for name in ("numerics_points", "dynamics_points", "fisher_points", "frequentist_points"):
        committed = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        assert getattr(make_golden, name)() == committed, name
