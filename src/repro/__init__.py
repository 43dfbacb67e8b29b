"""repro — reproduction of *Invalid Data-Aware Coding to Enhance the Read
Performance of High-Density Flash Memories* (Choi, Jung, Kandemir;
MICRO 2018).

Public API layers:

* :mod:`repro.core` — multi-level-cell codings and the IDA transform
  (the paper's contribution, cell-exact);
* :mod:`repro.flash` — flash device substrate (geometry, timing,
  blocks, error models);
* :mod:`repro.ftl` — flash translation layer (mapping, allocation, GC,
  baseline + IDA-modified refresh);
* :mod:`repro.sim` — event-driven SSD simulator;
* :mod:`repro.workloads` — traces, MSR format, calibrated synthetic
  workload catalog;
* :mod:`repro.experiments` — one harness per paper table / figure.

Quickstart::

    from repro.core import conventional_tlc, IdaTransform
    transform = IdaTransform(conventional_tlc(), valid_bits=(1, 2))
    assert transform.senses(2) == 2   # MSB: 4 senses -> 2
    assert transform.senses(1) == 1   # CSB: 2 senses -> 1

    from repro.experiments import RunScale, baseline, ida, run_workload
    from repro.workloads import workload
    base = run_workload(baseline(), workload("usr_1"), RunScale.quick())
    fast = run_workload(ida(0.2), workload("usr_1"), RunScale.quick())
    print(fast.mean_read_response_us / base.mean_read_response_us)
"""

from .core import (
    GrayCoding,
    IdaTransform,
    ReadLatencyModel,
    classify_validity,
    conventional_mlc,
    conventional_qlc,
    conventional_tlc,
    standard_coding,
    tlc_232,
)

__version__ = "1.0.0"

__all__ = [
    "GrayCoding",
    "IdaTransform",
    "ReadLatencyModel",
    "classify_validity",
    "conventional_mlc",
    "conventional_qlc",
    "conventional_tlc",
    "standard_coding",
    "tlc_232",
    "__version__",
]
