"""Experiment harness: one module per reproduced table / figure."""

from .ablations import (
    AblationResult,
    format_ablation,
    run_adjust_cost_ablation,
    run_allocation_ablation,
    run_refresh_frequency_ablation,
)
from .capacity_analysis import (
    CapacityResult,
    format_capacity,
    run_capacity_analysis,
)
from .config import DeviceConfig, RunScale, device
from .faults_artifact import (
    FaultCell,
    FaultsResult,
    format_faults,
    run_faults,
)
from .fig4_motivation import Fig4Result, Fig4Row, format_fig4, run_fig4
from .fig8_response_time import Fig8Result, format_fig8, run_fig8
from .fig9_dtr_sensitivity import Fig9Result, format_fig9, run_fig9
from .fig10_throughput import Fig10Result, format_fig10, run_fig10
from .fig11_read_retry import Fig11Result, LifetimePhase, format_fig11, run_fig11
from .health_artifact import (
    HealthArtifactResult,
    HealthCell,
    format_health,
    health_objectives,
    health_to_prometheus,
    run_health,
)
from .fig_breakdown import (
    BreakdownCell,
    BreakdownResult,
    format_fig_breakdown,
    run_fig_breakdown,
)
from .parallel import (
    RunUnit,
    SweepError,
    SweepExecutor,
    execute_unit,
    failed_workloads,
    prune_failed,
)
from .qlc_extension import QlcResult, format_qlc, run_qlc_extension
from .recovery_artifact import (
    CutOutcome,
    RecoveryResult,
    format_recovery,
    run_recovery,
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
from .table3_workloads import Table3Result, format_table3, run_table3
from .table4_refresh_overhead import Table4Result, format_table4, run_table4
from .table5_mlc import Table5Result, format_table5, run_table5

__all__ = [
    "CapacityResult",
    "format_capacity",
    "run_capacity_analysis",
    "AblationResult",
    "format_ablation",
    "run_adjust_cost_ablation",
    "run_allocation_ablation",
    "run_refresh_frequency_ablation",
    "DeviceConfig",
    "RunScale",
    "device",
    "FaultCell",
    "FaultsResult",
    "format_faults",
    "run_faults",
    "Fig4Result",
    "Fig4Row",
    "format_fig4",
    "run_fig4",
    "Fig8Result",
    "format_fig8",
    "run_fig8",
    "Fig9Result",
    "format_fig9",
    "run_fig9",
    "Fig10Result",
    "format_fig10",
    "run_fig10",
    "Fig11Result",
    "LifetimePhase",
    "format_fig11",
    "run_fig11",
    "HealthArtifactResult",
    "HealthCell",
    "format_health",
    "health_objectives",
    "health_to_prometheus",
    "run_health",
    "BreakdownCell",
    "BreakdownResult",
    "run_fig_breakdown",
    "format_fig_breakdown",
    "QlcResult",
    "format_qlc",
    "run_qlc_extension",
    "CutOutcome",
    "RecoveryResult",
    "format_recovery",
    "run_recovery",
    "run_recovery_unit",
    "RunUnit",
    "SweepError",
    "SweepExecutor",
    "execute_unit",
    "failed_workloads",
    "prune_failed",
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
    "run_table3",
    "Table4Result",
    "format_table4",
    "run_table4",
    "Table5Result",
    "format_table5",
    "run_table5",
]
