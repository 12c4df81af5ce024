"""Unit tests: the documentation site cannot drift from the code.

Three guards:

* the generated reference pages under ``docs/reference/`` match what
  the live plugin registries would generate right now;
* every relative link in ``docs/`` and the README resolves;
* every page named in ``mkdocs.yml``'s nav exists (the same property
  ``mkdocs build --strict`` enforces in CI, checked here without
  needing mkdocs installed).
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS_DIR = REPO_ROOT / "docs"

sys.path.insert(0, str(DOCS_DIR))

import check_links  # noqa: E402
import gen_reference  # noqa: E402


class TestReferencePages:
    def test_committed_pages_match_live_registries(self):
        stale = gen_reference.check(DOCS_DIR / "reference")
        assert stale == [], (
            f"stale reference pages {stale}; run `python docs/gen_reference.py`"
        )

    def test_pages_cover_every_registered_plugin(self):
        from repro.api.registry import (
            machine_registry,
            stage_registry,
            workload_registry,
        )

        pages = gen_reference.generate(target_dir=None)
        for name in stage_registry.names():
            assert f"`{name}`" in pages["stages.md"]
        for name in workload_registry.names():
            assert f"`{name}`" in pages["workloads.md"]
        for name in machine_registry.names():
            assert f"`{name}`" in pages["machines.md"]

    def test_cli_listing_agrees_with_stage_page(self, capsys):
        from repro.cli import main

        assert main(["stages"]) == 0
        listed = [
            line.split()[0]
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        page = gen_reference.generate(target_dir=None)["stages.md"]
        # The page's table lists exactly the stages `repro stages` does.
        assert re.findall(r"^\| `(\w+)` \|", page, re.MULTILINE) == listed
        assert re.findall(r"^### `(\w+)`$", page, re.MULTILINE) == listed


class TestLinks:
    def test_all_relative_links_resolve(self):
        files = sorted(DOCS_DIR.rglob("*.md")) + [REPO_ROOT / "README.md"]
        broken = []
        for path in files:
            broken.extend(check_links.check_file(path))
        assert broken == []


class TestNav:
    def test_every_nav_page_exists(self):
        text = (REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8")
        pages = re.findall(r":\s+([\w./-]+\.md)\s*$", text, re.MULTILINE)
        assert pages, "no nav pages parsed from mkdocs.yml"
        for page in pages:
            assert (DOCS_DIR / page).exists(), f"nav page missing: {page}"

    def test_hook_is_registered(self):
        text = (REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8")
        assert "docs/gen_reference.py" in text
