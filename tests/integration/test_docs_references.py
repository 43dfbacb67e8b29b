"""Doc references cannot dangle.

README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` name modules,
classes and files.  Every ``repro.<pkg>...`` dotted path must import or
resolve as an attribute, every ``src/``, ``tests/``, ``examples/`` and
``benchmarks/`` ``.py`` path must exist, and every backticked ``name.py``
bullet under a DESIGN.md ``src/repro/<pkg>/`` heading must name a file in
that package.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)

DOTTED = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")
FILE_PATH = re.compile(r"(?<![\w./-])(?:src|tests|examples|benchmarks)/[\w./-]*?\.py\b")
PACKAGE_HEADING = re.compile(r"^#+ .*`src/repro/(\w+)/`")
BULLET_FILE = re.compile(r"`(\w+\.py)`")


def _references(pattern: re.Pattern) -> list[tuple[str, str]]:
    found = set()
    for doc in DOCS:
        for match in pattern.finditer(doc.read_text(encoding="utf-8")):
            found.add((doc.name, match.group(0)))
    return sorted(found)


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def _design_bullet_files() -> list[tuple[str, str]]:
    found = []
    package = None
    for line in (ROOT / "DESIGN.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            heading = PACKAGE_HEADING.match(line)
            package = heading.group(1) if heading else None
        elif package and line.startswith("- "):
            found.extend((package, name) for name in BULLET_FILE.findall(line))
    return found


def test_docs_are_scanned():
    assert len(_references(DOTTED)) > 10
    assert len(_references(FILE_PATH)) > 10
    assert len(_design_bullet_files()) > 10


@pytest.mark.parametrize("doc, dotted", _references(DOTTED))
def test_dotted_path_resolves(doc, dotted):
    assert _resolves(dotted), f"{doc} names {dotted}, which does not resolve"


@pytest.mark.parametrize("doc, path", _references(FILE_PATH))
def test_file_path_exists(doc, path):
    assert (ROOT / path).is_file(), f"{doc} names {path}, which does not exist"


@pytest.mark.parametrize("package, name", _design_bullet_files())
def test_design_module_map_file_exists(package, name):
    path = ROOT / "src" / "repro" / package / name
    assert path.is_file(), f"DESIGN.md lists {name} under src/repro/{package}/"
