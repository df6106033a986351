from pathlib import Path

import pytest

from golden_registry import REGISTRY, verify_golden

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("case", REGISTRY, ids=[case.id for case in REGISTRY])
def test_golden_case(case, tmp_path):
    report = verify_golden(case, GOLDEN_DIR, tmp_path)
    assert report.checked > 0
    assert report.passed, report.failures
