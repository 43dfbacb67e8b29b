"""Experiment harness: one module per reproduced table / figure.

Each artifact module plans its units and reduces their payloads; the
:mod:`.artifacts` runs any set of artifacts as one sweep.
"""

from .ablations import AblationResult, format_ablation
from .capacity_analysis import CapacityResult, format_capacity
from .config import SUBSET_WORKLOADS, DeviceConfig, RunScale, device
from .artifacts import ARTIFACTS, plan_artifacts, run_artifact, run_plans, unit_union
from .faults_artifact import FaultCell, FaultsResult, format_faults
from .fig4_motivation import Fig4Result, Fig4Row, format_fig4
from .fig8_response_time import Fig8Result, format_fig8
from .fig9_dtr_sensitivity import Fig9Result, format_fig9
from .fig10_throughput import Fig10Result, format_fig10
from .fig11_read_retry import Fig11Result, LifetimePhase, format_fig11
from .health_artifact import (
    HealthArtifactResult,
    HealthCell,
    format_health,
    health_objectives,
    health_to_prometheus,
)
from .fig_breakdown import BreakdownCell, BreakdownResult, format_fig_breakdown
from .parallel import RunUnit, SweepError, SweepExecutor, execute_unit
from .qlc_extension import QlcResult, format_qlc
from .recovery_artifact import (
    CutOutcome,
    RecoveryResult,
    format_recovery,
    run_recovery_unit,
)
from .reporting import (
    ascii_table,
    build_run_manifest,
    config_hash,
    format_pct,
    manifest_for_payload,
    manifest_for_run,
    metrics_summary,
    write_run_manifest,
)
from .runner import (
    CapacityCensus,
    RunResult,
    RunResultPayload,
    improvement_pct,
    normalized_read_response,
    run_capacity_phase_pair,
    run_workload,
    run_workload_closed_loop,
)
from .systems import SystemSpec, baseline, error_rate_sweep, ida
from .table3_workloads import Table3Result, format_table3
from .table4_refresh_overhead import Table4Result, format_table4
from .table5_mlc import Table5Result, format_table5

__all__ = [
    "ARTIFACTS",
    "plan_artifacts",
    "run_artifact",
    "run_plans",
    "unit_union",
    "CapacityResult",
    "format_capacity",
    "AblationResult",
    "format_ablation",
    "DeviceConfig",
    "RunScale",
    "SUBSET_WORKLOADS",
    "device",
    "FaultCell",
    "FaultsResult",
    "format_faults",
    "Fig4Result",
    "Fig4Row",
    "format_fig4",
    "Fig8Result",
    "format_fig8",
    "Fig9Result",
    "format_fig9",
    "Fig10Result",
    "format_fig10",
    "Fig11Result",
    "LifetimePhase",
    "format_fig11",
    "HealthArtifactResult",
    "HealthCell",
    "format_health",
    "health_objectives",
    "health_to_prometheus",
    "BreakdownCell",
    "BreakdownResult",
    "format_fig_breakdown",
    "QlcResult",
    "format_qlc",
    "CutOutcome",
    "RecoveryResult",
    "format_recovery",
    "run_recovery_unit",
    "RunUnit",
    "SweepError",
    "SweepExecutor",
    "execute_unit",
    "ascii_table",
    "format_pct",
    "build_run_manifest",
    "config_hash",
    "manifest_for_payload",
    "manifest_for_run",
    "metrics_summary",
    "write_run_manifest",
    "CapacityCensus",
    "RunResult",
    "RunResultPayload",
    "improvement_pct",
    "normalized_read_response",
    "run_capacity_phase_pair",
    "run_workload",
    "run_workload_closed_loop",
    "SystemSpec",
    "baseline",
    "error_rate_sweep",
    "ida",
    "Table3Result",
    "format_table3",
    "Table4Result",
    "format_table4",
    "Table5Result",
    "format_table5",
]
