"""Smoke tests for the runnable examples (the cheap, simulation-free ones).

The heavy examples (quickstart step 3, refresh_tradeoff, lifetime_study
part 2) run full simulations and are exercised through the experiments tests;
here we execute the coding-level walkthroughs end to end so the examples
directory cannot rot.  Every example and every ``benchmarks/bench_*.py``
module is also imported, so a script that imports a deleted module fails
here rather than only under ``pytest benchmarks/``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"
BENCHMARKS = ROOT / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheapExamples:
    def test_coding_explorer_runs(self, capsys):
        module = _load("coding_explorer")
        module.main()
        out = capsys.readouterr().out
        assert "tlc-conventional-1-2-4" in out
        assert "qlc" in out
        assert "2 -> 1" in out  # the CSB merge

    def test_quickstart_coding_steps_run(self, capsys):
        module = _load("quickstart")
        module.step1_conventional_coding()
        module.step2_ida_merge()
        out = capsys.readouterr().out
        assert "150 us" in out
        assert "S1->S8" in out

    def test_lifetime_study_physics_runs(self, capsys):
        module = _load("lifetime_study")
        module.part1_physics()
        out = capsys.readouterr().out
        assert "P(decode fails)" in out
        # Late-life rows show the capped probability the simulator draws from.
        assert "0.950" in out

    def test_all_examples_have_docstrings_and_main(self):
        for path in sorted(EXAMPLES.glob("*.py")):
            source = path.read_text()
            assert source.lstrip().startswith(("#!", '"""')), path.name
            assert "def main()" in source, path.name
            assert '__name__ == "__main__"' in source, path.name


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.stem
)
def test_example_imports(path):
    _load(path.stem)


@pytest.mark.parametrize(
    "stem", sorted(path.stem for path in BENCHMARKS.glob("bench_*.py"))
)
def test_benchmark_imports(stem):
    importlib.import_module(f"benchmarks.{stem}")
