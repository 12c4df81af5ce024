#!/usr/bin/env python
"""Generate the stage/workload/machine reference pages from the registries.

The CLI listings (``repro stages`` / ``workloads`` / ``machines``) and
the documentation site both render the *live*
:class:`repro.api.registry.PluginRegistry` tables, so they can never
drift apart:

* as a **MkDocs hook** (``hooks: [docs/gen_reference.py]`` in
  ``mkdocs.yml``), :func:`on_pre_build` rewrites ``docs/reference/*.md``
  from the registries before every build;
* as a **script**, ``python docs/gen_reference.py`` regenerates the
  committed pages and ``--check`` exits non-zero when they are stale —
  CI runs the check, and ``tests/unit/test_docs_site.py`` asserts the
  same property in the tier-1 suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

DOCS_DIR = Path(__file__).resolve().parent
REPO_ROOT = DOCS_DIR.parent

# Make `repro` importable when invoked as a script or a MkDocs hook.
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

_HEADER = (
    "<!-- Generated by docs/gen_reference.py from the live plugin\n"
    "     registries — do not edit by hand.  Regenerate with:\n"
    "     python docs/gen_reference.py -->\n"
)


def _table(rows: list[tuple[str, str]]) -> str:
    lines = ["| Name | Description |", "| --- | --- |"]
    for name, description in rows:
        lines.append(f"| `{name}` | {description} |")
    return "\n".join(lines)


def _stage_page() -> str:
    from repro.api.registry import stage_registry

    rows = stage_registry.describe()
    details = []
    for entry in stage_registry:
        stage = entry.obj()
        inputs = ", ".join(f"`{name}`" for name in stage.inputs) or "—"
        outputs = ", ".join(f"`{name}`" for name in stage.outputs) or "—"
        details.append(
            f"### `{entry.name}`\n\n"
            f"{entry.description}\n\n"
            f"- **consumes:** {inputs}\n"
            f"- **publishes:** {outputs}\n"
            f"- **cacheable:** {'yes' if stage.cacheable else 'no'}\n"
        )
    return (
        f"{_HEADER}\n# Stage reference\n\n"
        "Every pipeline stage registered in `repro.api.stage_registry` —\n"
        "the same table `repro stages` prints.  Stages compose through\n"
        "the artifacts they consume and publish; `build_pipeline`\n"
        "assembles the canonical five, and a `RankAxis` sweep runs the\n"
        "same five.\n\n"
        f"{_table(rows)}\n\n## Stage contracts\n\n" + "\n".join(details)
    )


def _workload_page() -> str:
    from repro.api.registry import workload_registry
    from repro.workloads.registry import TABLE1_ORDER

    ordered = TABLE1_ORDER + tuple(
        name for name in workload_registry.names() if name not in TABLE1_ORDER
    )
    rows = []
    details = []
    for name in ordered:
        entry = workload_registry.entry(name)
        rows.append((entry.name, entry.description))
        app = entry.obj()
        details.append(
            f"### `{entry.name}`\n\n"
            f"{entry.description}\n\n"
            f"- **input:** `{app.input_args or '—'}`\n"
            f"- **barrier points (8 threads):** "
            f"{app.total_barrier_points():,}\n"
        )
    return (
        f"{_HEADER}\n# Workload reference\n\n"
        "The Table I proxy applications registered in\n"
        "`repro.api.workload_registry` (Table I order), plus any\n"
        "third-party registrations — the same table `repro workloads`\n"
        "prints.\n\n"
        f"{_table(rows)}\n\n## Applications\n\n" + "\n".join(details)
    )


def _machine_page() -> str:
    from repro.api.registry import machine_registry

    rows = machine_registry.describe()
    details = []
    for entry in machine_registry:
        machine = entry.obj
        numa = f", {machine.nodes} NUMA nodes" if machine.nodes > 1 else ""
        details.append(
            f"### `{entry.name}`\n\n"
            f"{entry.description}\n\n"
            f"- **ISA:** {machine.isa.value} @ {machine.freq_ghz} GHz\n"
            f"- **topology:** {machine.cores} cores × "
            f"{machine.smt_per_core} SMT ({machine.clusters} clusters{numa})\n"
            f"- **caches:** {machine.l1d.describe()} / "
            f"{machine.l2.describe()} / {machine.l3.describe()}\n"
            f"- **network:** {machine.network.latency_cycles:.0f}-cycle "
            f"latency, {machine.network.bytes_per_cycle} B/cycle\n"
        )
    return (
        f"{_HEADER}\n# Machine reference\n\n"
        "Every platform registered in `repro.api.machine_registry` —\n"
        "the same table `repro machines` prints.  Distributed (rank)\n"
        "jobs place one rank per node of the chosen machine and price\n"
        "inter-rank traffic with its network spec.\n\n"
        f"{_table(rows)}\n\n## Platforms\n\n" + "\n".join(details)
    )


def _lint_rules_page() -> str:
    from repro.lint.registry import rule_registry

    rows = []
    details = []
    for entry in sorted(rule_registry, key=lambda e: e.name):
        rule = entry.obj()
        rows.append((rule.name, rule.title))
        scope = (
            ", ".join(f"`{pkg}`" for pkg in rule.packages)
            if rule.packages
            else "whole tree"
        )
        details.append(
            f"### `{rule.name}` — {rule.title}\n\n"
            f"- **severity:** {rule.severity}\n"
            f"- **scope:** {scope}\n\n"
            f"{rule.doc()}\n"
        )
    return (
        f"{_HEADER}\n# Lint rule catalogue\n\n"
        "Every invariant rule registered in `repro.lint.rule_registry` —\n"
        "the same table `repro lint --list-rules` prints.  Suppress a\n"
        "single line with `# repro-lint: disable=RPR…`, or grandfather a\n"
        "finding (with a mandatory justification) in\n"
        "`lint-baseline.json`; see [Static analysis](../lint.md) for the\n"
        "workflow.\n\n"
        f"{_table(rows)}\n\n## Rules\n\n" + "\n".join(details)
    )


#: page filename → generator.
PAGES = {
    "stages.md": _stage_page,
    "workloads.md": _workload_page,
    "machines.md": _machine_page,
    "lint-rules.md": _lint_rules_page,
}


def generate(target_dir: Path | None = None) -> dict[str, str]:
    """Render every reference page; write them unless ``target_dir`` is None."""
    pages = {name: build() for name, build in PAGES.items()}
    if target_dir is not None:
        target_dir.mkdir(parents=True, exist_ok=True)
        for name, content in pages.items():
            (target_dir / name).write_text(content, encoding="utf-8")
    return pages


def check(target_dir: Path) -> list[str]:
    """Names of pages that are missing or stale under ``target_dir``."""
    stale = []
    for name, content in generate(target_dir=None).items():
        path = target_dir / name
        if not path.exists() or path.read_text(encoding="utf-8") != content:
            stale.append(name)
    return stale


def on_pre_build(config) -> None:  # pragma: no cover - exercised by mkdocs
    """MkDocs hook: regenerate the reference pages before every build."""
    generate(Path(config["docs_dir"]) / "reference")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    target = DOCS_DIR / "reference"
    if "--check" in argv:
        stale = check(target)
        if stale:
            print(
                "stale reference pages (run `python docs/gen_reference.py`): "
                + ", ".join(stale),
                file=sys.stderr,
            )
            return 1
        print(f"reference pages up to date in {target}")
        return 0
    generate(target)
    print(f"wrote {', '.join(PAGES)} to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
