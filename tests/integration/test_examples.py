"""Smoke tests for the runnable examples (the cheap, simulation-free ones).

The heavy examples (quickstart step 4, refresh_tradeoff, lifetime_study
part 2) run full simulations and are exercised through the experiments tests;
here we execute the coding-level walkthroughs end to end so the examples
directory cannot rot.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


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

    def test_data_integrity_demo_runs(self, capsys):
        module = _load("data_integrity_demo")
        module.main()
        out = capsys.readouterr().out
        assert "case 2" in out
        assert "data recovered exactly" in out

    def test_quickstart_coding_steps_run(self, capsys):
        module = _load("quickstart")
        module.step1_conventional_coding()
        module.step2_ida_merge()
        module.step3_real_cells()
        out = capsys.readouterr().out
        assert "150 us" in out
        assert "S5-S8" in out

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
