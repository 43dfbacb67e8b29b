"""Golden-parity pin: the staged pipeline must match the float exactly.

The metrics in ``tests/golden/fig8_tiny.json`` were captured from the
pre-pipeline simulator (per-op closure webs) at ``RunScale.tiny()``,
seed 11, under the read-first default policy.  The staged op-pipeline
refactor is required to be *byte-identical* — same event order, same
response times, same counter values — so every field is compared with
exact equality, no tolerances.

If a deliberate behaviour change ever invalidates these numbers,
regenerate the file with ``python -m tests.experiments.test_golden_parity``
and say so loudly in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.config import RunScale
from repro.experiments.runner import RunResult, run_workload
from repro.experiments.systems import baseline, ida
from repro.workloads import TABLE3_WORKLOADS

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "fig8_tiny.json"
TRACES = ("hm_1", "proj_1", "usr_1")
SYSTEMS = {"baseline": baseline(), "ida-e20": ida(0.2)}
SEED = 11


def _snapshot(result: RunResult) -> dict:
    metrics = result.metrics
    return {
        "read": metrics.read_response.summary(),
        "write": metrics.write_response.summary(),
        "elapsed_us": metrics.elapsed_us,
        "block_erases": metrics.block_erases,
        "refresh_page_moves": metrics.refresh_page_moves,
        "read_retries": metrics.read_retries,
    }


def _run(trace: str, system_name: str) -> dict:
    result = run_workload(
        SYSTEMS[system_name],
        TABLE3_WORKLOADS[trace],
        scale=RunScale.tiny(),
        seed=SEED,
    )
    return _snapshot(result)


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", TRACES)
@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_matches_golden_exactly(golden: dict, trace: str, system_name: str) -> None:
    expected = golden[trace][system_name]
    actual = json.loads(json.dumps(_run(trace, system_name)))
    assert actual == expected


def _regenerate() -> None:
    payload = {
        trace: {name: _run(trace, name) for name in sorted(SYSTEMS)}
        for trace in TRACES
    }
    canonical = json.loads(json.dumps(payload))
    with GOLDEN_PATH.open("w") as fh:
        json.dump(canonical, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
