"""Every example script imports cleanly.

The examples run their demos only under ``__main__``, so importing one
loads exactly its ``repro`` imports and module-level definitions.  This
catches an example left pointing at a module or name that no longer
exists, which neither the other tests nor the lint step would notice.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples")
                  .glob("*.py"))


def test_examples_found():
    assert EXAMPLES, "the examples directory moved or is empty"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
