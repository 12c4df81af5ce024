"""``repro lint`` — the project's invariant-checking static analyser.

The repository's correctness story rests on invariants that ordinary
linters cannot see: byte-identical output at every worker count,
digest-complete stage cache keys, declared stage input/output
contracts, a never-block asyncio serve loop, and registration-by-import
plugin modules.  Each invariant is encoded as a
:class:`~repro.lint.registry.LintRule` (``RPR101``–``RPR106``)
registered in an open :class:`~repro.api.registry.PluginRegistry`
(the same idiom the workload/machine/stage registries use), and the
:mod:`runner <repro.lint.runner>` applies every rule to a parsed view
of the whole ``src/repro/`` tree in one pass — no imports, no
execution, pure :mod:`ast`.

Suppression is explicit and audited: a ``# repro-lint: disable=RPR…``
pragma silences one line (or a whole file when the pragma stands
alone), and :mod:`repro.lint.baseline` grandfathers pre-existing
findings with a committed justification — a finding that is neither
fixed, pragma'd, nor baselined fails ``repro lint`` (and CI) with a
non-zero exit.
"""

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.model import Finding, Module, Project
from repro.lint.registry import LintRule, register_rule, rule_registry
from repro.lint.runner import LintReport, run_lint

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintReport",
    "LintRule",
    "Module",
    "Project",
    "register_rule",
    "rule_registry",
    "run_lint",
]
