#!/usr/bin/env python3
"""Lifetime study: wear, RBER, read retry, and IDA (paper Sec. V-F).

Part 1 traces the device physics: how RBER grows with program/erase wear
and retention age, and what that does to the decode-failure probability
the simulator draws retries from and the expected extra sensing passes
per read.

Part 2 runs the Fig. 11 experiment at quick scale: baseline vs IDA-E20
early in the device lifetime (no retries) and late (frequent retries),
showing the benefit *grows* late in life — every retry repeats the page's
memory-access time, so cheap IDA senses compound.

Run:  python examples/lifetime_study.py
"""

from __future__ import annotations

from repro.experiments import RunScale, baseline, ida, run_workload
from repro.experiments.reporting import ascii_table
from repro.flash.errors import RberModel, ReadRetryModel
from repro.workloads import workload


def part1_physics() -> None:
    print("=" * 70)
    print("1. RBER growth and read retries over the device lifetime")
    print("=" * 70)
    rber_model = RberModel()
    rows = []
    for pe, retention in [(0, 1), (500, 7), (1500, 30), (2500, 60), (3000, 90)]:
        rber = rber_model.rber(pe, retention)
        retry = ReadRetryModel.for_rber(rber)
        rows.append(
            [
                pe,
                retention,
                f"{rber:.2e}",
                f"{retry.fail_prob:.3f}",
                f"{retry.expected_retries():.2f}",
            ]
        )
    print(
        ascii_table(
            ["P/E cycles", "retention (d)", "RBER", "P(decode fails)",
             "E[extra passes]"],
            rows,
        )
    )
    print()


def part2_fig11() -> None:
    print("=" * 70)
    print("2. Fig. 11: IDA benefit by lifetime phase (usr_1, quick scale)")
    print("=" * 70)
    scale = RunScale.quick()
    spec = workload("usr_1")
    rows = []
    for phase, fail_prob in (("early", 0.0), ("late", 0.45)):
        base = run_workload(baseline().with_retry(fail_prob), spec, scale)
        fast = run_workload(ida(0.2).with_retry(fail_prob), spec, scale)
        norm = fast.mean_read_response_us / base.mean_read_response_us
        rows.append(
            [
                phase,
                f"{base.mean_read_response_us:.0f}",
                f"{fast.mean_read_response_us:.0f}",
                f"{norm:.3f}",
                f"{fast.metrics.read_retries}",
            ]
        )
    print(
        ascii_table(
            ["phase", "baseline RT (us)", "IDA-E20 RT (us)", "normalized",
             "retries (IDA run)"],
            rows,
        )
    )
    print("\nPaper: 28% improvement early grows to 42.3% late in the lifetime.")


def main() -> None:
    part1_physics()
    part2_fig11()


if __name__ == "__main__":
    main()
