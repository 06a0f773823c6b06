"""The repo's pytest warning filters (``pyproject.toml``), run on a
throwaway test file in a subprocess: a falsified Hypothesis test is
reported as a failure with its falsifying example, not as an
``INTERNALERROR``, and a ``DeprecationWarning`` raised from ``repro``
code still fails its test."""

pytest_plugins = ["pytester"]

INNER = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_repro_deprecation():
    warnings.warn_explicit("old api", DeprecationWarning, "repro/shim.py", 1,
                           module="repro.shim")
'''


def test_a_falsified_given_test_fails_cleanly_under_the_repo_filters(
        pytester, pytestconfig):
    filters = pytestconfig.getini("filterwarnings")
    assert filters
    pytester.makeini("[pytest]\nfilterwarnings =\n"
                     + "".join(f"    {line}\n" for line in filters))
    pytester.makepyfile(test_inner=INNER)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.stdout.fnmatch_lines([
        "*Falsifying example: test_falsified(*",
        "FAILED test_inner.py::test_falsified - assert 5 < 5",
        "FAILED test_inner.py::test_repro_deprecation - DeprecationWarning: "
        "old api",
    ])
    result.assert_outcomes(failed=2)
