"""Every script in ``examples/`` runs: each ``main()`` checks its own
result (bytes delivered, a numpy reference matched) and raises if it
does not hold, so an example that rots fails here."""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.py")),
                         ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(
        f"examples.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
