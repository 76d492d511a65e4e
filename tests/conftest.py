import pytest

from gumbelmark import calibrate


@pytest.fixture(autouse=True)
def empty_critical_value_memo():
    """Start every test with no memoised critical values, so that no result,
    a pass count or a timing, depends on which tests ran before it."""
    calibrate._critical_value.cache_clear()
