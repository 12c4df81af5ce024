"""Unit tests: the public API docstrings stay runnable and complete.

Two guards on the ``repro.api`` surface:

* every name exported from ``repro.api.__all__`` carries a real
  docstring (more than a stub line);
* every doctest embedded in the API modules executes and passes — the
  documented examples cannot rot.
"""

import doctest
import importlib

import pytest

import repro.api

#: API modules whose docstring examples are executed as doctests.
DOCTEST_MODULES = (
    "repro.api.builder",
    "repro.api.codec",
    "repro.api.context",
    "repro.api.registry",
    "repro.api.study",
    "repro.api.sweep",
    "repro.api.types",
    "repro.core.signatures",
    "repro.workloads.distributed",
)


class TestExportedDocstrings:
    @pytest.mark.parametrize("name", sorted(repro.api.__all__))
    def test_export_has_a_real_docstring(self, name):
        obj = getattr(repro.api, name)
        if not (callable(obj) or isinstance(obj, type)):
            return  # constants (tuples, ints) document themselves in situ
        doc = (obj.__doc__ or "").strip()
        assert len(doc) >= 40, f"{name} needs a one-paragraph docstring"


class TestDoctests:
    @pytest.mark.parametrize("module_name", DOCTEST_MODULES)
    def test_module_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        results = doctest.testmod(
            module, optionflags=doctest.NORMALIZE_WHITESPACE, verbose=False
        )
        assert results.failed == 0, f"{module_name}: {results.failed} doctest failures"
