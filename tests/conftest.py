from __future__ import annotations

from pathlib import Path

import pytest

from support import digit_limit

FIXTURES = Path(__file__).parent / "fixtures"

# The five canonical scripts with their expected assume counts.
GOLDEN_SCRIPTS = {
    "overlapping_authorizations": 6,
    "refining_data_types": 2,
    "legacy_data": 3,
    "multiple_classification": 2,
    "basic_lifecycle": 1,
}


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def golden_path(name: str) -> Path:
    return FIXTURES / f"{name}.consent"


def golden_text(name: str) -> str:
    return golden_path(name).read_text(encoding="utf-8")


@pytest.fixture(params=[4300, 0], ids=["digit-limit", "no-digit-limit"])
def int_digit_limit(request) -> int:
    """Run the test under CPython's default cap on int-string digits, then
    with the cap off (0), whatever the interpreter was started with."""
    with digit_limit(request.param):
        yield request.param
