import pytest

from penaltyflow.checks import CHECKS


def check_test(name):
    """A test that runs the property check `name`."""
    fn = next(fn for check_name, _, fn in CHECKS if check_name == name)

    def test():
        passed, detail = fn()
        assert passed, detail
    return test


@pytest.mark.parametrize("name", [name for name, fast, _ in CHECKS if fast])
def test_check(name):
    check_test(name)()
