"""Crash-consistency artifact — power-cut / remount / verify sweep.

Sudden power-off recovery (SPOR) is only as good as the set of instants
it was tested at.  This artifact samples hundreds of cut points across a
workload's life — mid host write burst, mid GC erase chain, inside a
refresh pass, *between an IDA ADJUST's journal intent and its commit* —
and, for every cut, replays the run to that exact dispatched-op ordinal,
lets :class:`~repro.faults.PowerCutError` kill the simulator, remounts
the surviving :class:`~repro.flash.state.DeviceState` via
:func:`~repro.ftl.recovery.mount_device`, and checks the recovery
contract against an oracle captured at the instant of the cut:

* **no acked-write loss** — every logical page whose host write was
  acknowledged before the cut is mapped after the mount;
* **no resurrection** — the recovered mapping equals the pre-cut
  mapping exactly: no trimmed / invalidated version comes back, and no
  mapped page disappears (FTL transitions are eager at dispatch, so the
  pre-cut map *is* what the flash arrays hold);
* **byte-identical reads** — every LPN the torn-wordline roll-forward
  did not relocate still maps to the same physical page carrying the
  same write-sequence stamp (same stamp = same write = same bytes);
  relocated LPNs must have existed pre-cut (their content was copied);
* **coding-state ground truth** — no wordline is left in the torn
  marker state and :func:`~repro.faults.check_coding_invariants` comes
  back empty;
* **resumability** — a fresh simulator adopts the mounted FTL and runs
  every request the cut left unacknowledged to completion, after which
  the invariants still hold.

Cut points are chosen from a *census probe*: one cut-free run per
workload records the op kind at every dispatch ordinal
(:attr:`~repro.faults.FaultInjector.census`), ordinals are classified
into write / GC / refresh / ADJUST / read phases, and the cut budget is
spread across the phases.  The probe replays exactly the run every
cut unit replays, so an ordinal from the census cuts the same instant
in the unit.

Each cut is an independent :class:`~.parallel.RunUnit` in
``mode="recover"`` whose fault plan names the cut's phase, so the sweep
fans out across processes, contains worker crashes, and uses snapshots
and keep-going exactly like every other artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..faults.injector import PowerCutError
from ..faults.invariants import check_coding_invariants
from ..faults.plan import FaultEvent, FaultKind, FaultPlan
from ..flash.block import TORN_WL
from ..ftl.recovery import mount_device
from ..sim.snapshot import WarmHandle
from ..sim.ssd import SsdSimulator
from ..workloads.synthetic import generate_workload
from .config import SUBSET_WORKLOADS, RunScale
from .parallel import RunUnit
from .reporting import ascii_table
from .runner import (
    _background_batches,
    _to_host_requests,
    build_simulator,
    warm_device,
)
from .systems import SystemSpec, ida

__all__ = [
    "CutOutcome",
    "RecoveryResult",
    "choose_cut_ordinals",
    "format_recovery",
    "plan",
    "probe_census",
    "reduce",
    "run_recovery_unit",
]

#: Ordinal no run ever reaches — a power-cut event at this ordinal arms
#: the injector (and with it the dispatch census) without ever firing.
NEVER_ORDINAL = 1 << 60

#: Cut-phase labels, in display order.
PHASES = ("write", "gc", "refresh", "adjust", "read")

#: Dispatch ordinals within this many ops after an ADJUST are labelled
#: ``refresh``: IDA refresh passes interleave their reprogram writes and
#: verify reads around the adjust chain, so proximity to an ADJUST is
#: what distinguishes a refresh move from an ordinary host/GC write.
_REFRESH_WAKE = 8


def _phase_labels(census: list[str]) -> list[str]:
    """Label each dispatch ordinal (1-based list index) with its phase."""
    labels = []
    wake = 0  # ordinals left in the current post-adjust refresh window
    for kind in census:
        if kind == "adjust":
            labels.append("adjust")
            wake = _REFRESH_WAKE
        elif kind == "erase":
            labels.append("gc")
            wake = max(0, wake - 1)
        elif wake > 0:
            labels.append("refresh")
            wake -= 1
        elif kind == "read":
            labels.append("read")
        else:
            labels.append("write")
    return labels


def probe_census(
    system: SystemSpec,
    workload,
    scale: RunScale,
    seed: int = 11,
) -> list[str]:
    """Run one cut-free probe; return the op kind at every ordinal.

    The probe binds a power-cut event at :data:`NEVER_ORDINAL` purely to
    get a :class:`~repro.faults.FaultInjector` on the dispatch path,
    arms its census list, and replays the full run.  ``census[i]`` is
    the kind of dispatched op ``i + 1`` — the stream a later cut at
    ordinal ``i + 1`` strikes *before*.
    """
    from ..workloads.msr import workload as _catalog_workload

    spec = workload
    if isinstance(spec, str):
        spec = _catalog_workload(spec)
    spec = spec.scaled(scale.num_requests, scale.footprint_pages)
    generated = generate_workload(spec)
    plan = FaultPlan(
        events=(
            FaultEvent(kind=FaultKind.POWER_CUT, op_ordinal=NEVER_ORDINAL),
        ),
        name="census-probe",
    )
    sim = build_simulator(system, scale, spec.duration_us, seed=seed, faults=plan)
    sim.faults.census = []
    warm_device(sim, generated)
    sim.run_requests(
        _to_host_requests(generated, sim.geometry.page_size_bytes),
        background_updates=_background_batches(generated, scale),
    )
    return sim.faults.census


def choose_cut_ordinals(
    census: list[str], cuts: int, seed: int
) -> list[tuple[int, str]]:
    """Pick ``cuts`` ordinals spread across the phases the census shows.

    Phases with few ordinals (ADJUST commits are rare next to host
    writes) contribute everything they have; the slack flows to the
    bigger phases, so the request is met whenever the run has enough
    dispatches at all.  Deterministic in ``(census, cuts, seed)``.
    """
    labels = _phase_labels(census)
    pools: dict[str, list[int]] = {}
    for ordinal, phase in enumerate(labels, start=1):
        pools.setdefault(phase, []).append(ordinal)
    rng = np.random.default_rng(seed)
    chosen: list[tuple[int, str]] = []
    # Smallest pools first: their shortfall raises the later pools' share.
    order = sorted(pools, key=lambda p: (len(pools[p]), p))
    remaining = min(cuts, sum(len(pool) for pool in pools.values()))
    for index, phase in enumerate(order):
        share = -(-remaining // (len(order) - index))  # ceil split
        take = min(share, len(pools[phase]))
        picks = rng.choice(len(pools[phase]), size=take, replace=False)
        chosen.extend((pools[phase][i], phase) for i in sorted(picks))
        remaining -= take
    return sorted(chosen)


def _arm_ack_tracking(sim: SsdSimulator) -> tuple[set, set]:
    """Hook host-request completions; returns (acked ids, acked write lpns)."""
    acked_ids: set[int] = set()
    acked_write_lpns: set[int] = set()

    def on_complete(request, is_read: bool) -> None:
        acked_ids.add(request.request_id)
        if not is_read:
            acked_write_lpns.update(request.lpns)

    sim.on_host_request_complete = on_complete
    return acked_ids, acked_write_lpns


def run_recovery_unit(unit: RunUnit, warm: WarmHandle | None = None) -> dict:
    """Run one cut: replay to the cut, remount, verify, resume.

    The worker body behind ``mode="recover"`` units.  Returns a plain
    JSON-able dict; ``"ok"`` is the verdict and ``"violations"`` lists
    every broken guarantee in human-readable form.
    """
    spec = unit.scaled_workload()
    generated = generate_workload(spec)
    sim = build_simulator(
        unit.system, unit.scale, spec.duration_us, seed=unit.seed,
        faults=unit.faults,
    )
    acked_ids, acked_write_lpns = _arm_ack_tracking(sim)
    requests = _to_host_requests(generated, sim.geometry.page_size_bytes)
    background = _background_batches(generated, unit.scale)
    warm_device(sim, generated, warm=warm)

    cut_event = next(
        e for e in unit.faults.events if e.kind is FaultKind.POWER_CUT
    )
    outcome = {
        "workload": unit.workload_name,
        "seed": unit.seed,
        "op_ordinal": cut_event.op_ordinal,
    }
    try:
        sim.run_requests(requests, background_updates=background)
    except PowerCutError as cut:
        outcome.update(
            cut_fired=True, cut_t_us=cut.now_us, ops_at_cut=cut.ops_dispatched
        )
    else:
        # The ordinal lies beyond this run's op stream (possible when a
        # hand-written plan overshoots); nothing to verify.
        outcome.update(
            cut_fired=False, cut_t_us=None, ops_at_cut=sim.ops_dispatched,
            acked_writes=len(acked_write_lpns), mapped_lpns=0,
            torn_rolled_forward=0, stale_journal_cleared=0,
            relocated_lpns=0, resumed_requests=0, violations=[], ok=True,
        )
        return outcome

    # ------------------------------------------------------------------
    # Oracle: the logical state at the instant the power died.
    # ------------------------------------------------------------------
    state = sim.ftl.table.state
    oracle_map = dict(sim.ftl.map.items())
    oracle_seq = {
        lpn: int(state.oob_seq_np[ppn]) for lpn, ppn in oracle_map.items()
    }
    cut_now = float(cut_event.at_us or outcome["cut_t_us"])

    # ------------------------------------------------------------------
    # Mount: rebuild everything from the device arrays alone.
    # ------------------------------------------------------------------
    ftl, report = mount_device(
        state,
        sim.geometry,
        sim.ftl.coding,
        sim.ftl.refresh_policy,
        gc_policy=sim.ftl.gc_policy,
        rng=np.random.default_rng(unit.seed + 1),
        allocation=unit.system.allocation,
    )
    violations: list[str] = []
    recovered = dict(ftl.map.items())
    relocated = set(report.relocated_lpns)

    lost_acked = acked_write_lpns - recovered.keys()
    if lost_acked:
        violations.append(
            f"{len(lost_acked)} acknowledged writes lost "
            f"(e.g. lpn {min(lost_acked)})"
        )
    lost = oracle_map.keys() - recovered.keys()
    if lost:
        violations.append(
            f"{len(lost)} mapped lpns vanished (e.g. lpn {min(lost)})"
        )
    resurrected = recovered.keys() - oracle_map.keys()
    if resurrected:
        violations.append(
            f"{len(resurrected)} stale lpns resurrected "
            f"(e.g. lpn {min(resurrected)})"
        )
    moved = [
        lpn
        for lpn, ppn in recovered.items()
        if lpn not in relocated and oracle_map.get(lpn) != ppn
    ]
    if moved:
        violations.append(
            f"{len(moved)} lpns silently remapped (e.g. lpn {min(moved)})"
        )
    stale_read = [
        lpn
        for lpn, ppn in recovered.items()
        if lpn not in relocated
        and lpn in oracle_seq
        and int(state.oob_seq_np[ppn]) != oracle_seq[lpn]
    ]
    if stale_read:
        violations.append(
            f"{len(stale_read)} lpns read a different write version "
            f"(e.g. lpn {min(stale_read)})"
        )
    ghosts = relocated - oracle_map.keys()
    if ghosts:
        violations.append(
            f"roll-forward produced {len(ghosts)} lpns that never existed "
            f"(e.g. lpn {min(ghosts)})"
        )
    if bool((state.wl_mode_np == TORN_WL).any()):
        violations.append("torn wordline marker survived the mount")
    violations.extend(check_coding_invariants(ftl))

    # ------------------------------------------------------------------
    # Resume: the host replays everything it never saw acknowledged.
    # ------------------------------------------------------------------
    remaining = [r for r in requests if r.request_id not in acked_ids]
    remaining_bg = [(t, lpns) for t, lpns in background if t > cut_now]
    if remaining:
        resumed = SsdSimulator(
            geometry=sim.geometry,
            timing=sim.timing,
            coding=ftl.coding,
            refresh_policy=ftl.refresh_policy,
            gc_policy=ftl.gc_policy,
            retry_model=unit.system.retry_model(),
            seed=unit.seed,
            allocation=unit.system.allocation,
            policy=unit.system.policy,
            ftl=ftl,
        )
        try:
            resumed.run_requests(remaining, background_updates=remaining_bg)
        except Exception as exc:  # noqa: BLE001 - any resume crash is a finding
            violations.append(f"resume failed: {exc!r}")
        else:
            violations.extend(
                f"post-resume: {item}" for item in check_coding_invariants(ftl)
            )

    outcome.update(
        acked_writes=len(acked_write_lpns),
        mapped_lpns=report.mapped_lpns,
        torn_rolled_forward=report.torn_rolled_forward,
        stale_journal_cleared=report.stale_journal_cleared,
        relocated_lpns=len(report.relocated_lpns),
        resumed_requests=len(remaining),
        violations=violations,
        ok=not violations,
    )
    return outcome


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------

#: Total cut points sampled by default, spread over workloads and phases
#: (the acceptance floor for the crash-consistency sweep).
DEFAULT_CUTS = 200


@dataclass(frozen=True)
class CutOutcome:
    """One verified cut point of the sweep."""

    workload: str
    phase: str
    op_ordinal: int
    ok: bool
    cut_fired: bool
    cut_t_us: float | None
    acked_writes: int
    mapped_lpns: int
    torn_rolled_forward: int
    relocated_lpns: int
    resumed_requests: int
    violations: tuple[str, ...] = ()

    @classmethod
    def from_payload(
        cls, workload: str, phase: str, payload: dict
    ) -> "CutOutcome":
        return cls(
            workload=workload,
            phase=phase,
            op_ordinal=payload["op_ordinal"],
            ok=payload["ok"],
            cut_fired=payload["cut_fired"],
            cut_t_us=payload["cut_t_us"],
            acked_writes=payload["acked_writes"],
            mapped_lpns=payload["mapped_lpns"],
            torn_rolled_forward=payload["torn_rolled_forward"],
            relocated_lpns=payload["relocated_lpns"],
            resumed_requests=payload["resumed_requests"],
            violations=tuple(payload["violations"]),
        )


@dataclass
class RecoveryResult:
    """Every cut of the crash-consistency sweep."""

    cells: list[CutOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def clean(self) -> int:
        return sum(1 for c in self.cells if c.ok)

    def violations(self) -> list[str]:
        """Every broken guarantee, prefixed with its cut's coordinates."""
        return [
            f"{c.workload}@{c.op_ordinal} ({c.phase}): {item}"
            for c in self.cells
            if not c.ok
            for item in c.violations
        ]


def plan(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
    cuts: int = DEFAULT_CUTS,
    error_rate: float = 0.2,
) -> list[RunUnit]:
    """Spread ``cuts`` power-cut units across workloads and phases.

    One census probe per workload classifies every dispatch ordinal into
    write / GC / refresh / ADJUST / read phases; the cut budget is split
    over the workloads (the first ``cuts % len(workloads)`` get one
    extra, so the shares sum to ``cuts``) and, within each workload,
    across the phases.  Each cut's plan is named after its phase.
    """
    names = workload_names or SUBSET_WORKLOADS
    system = ida(error_rate)
    base, extra = divmod(cuts, len(names))
    units: list[RunUnit] = []
    for wl_index, name in enumerate(names):
        share = base + int(wl_index < extra)
        if share == 0:
            continue
        census = probe_census(system, name, scale, seed=seed)
        fold = seed + 997 * (wl_index + 1)
        for ordinal, phase in choose_cut_ordinals(census, share, fold):
            faults = FaultPlan(
                events=(
                    FaultEvent(kind=FaultKind.POWER_CUT, op_ordinal=ordinal),
                ),
                seed=fold,
                name=f"{name}-{phase}-cut@{ordinal}",
            )
            units.append(
                RunUnit(
                    system, name, scale, seed=seed, mode="recover", faults=faults
                )
            )
    return units


def reduce(results: dict[RunUnit, dict]) -> RecoveryResult:
    """One verified cut per unit, labelled with the phase it planned."""
    # Plans are named "<workload>-<phase>-cut@<ordinal>" and no phase
    # label holds a "-".
    return RecoveryResult(
        cells=[
            CutOutcome.from_payload(
                unit.workload_name,
                unit.faults.name.rsplit("-cut@", 1)[0].rsplit("-", 1)[1],
                payload,
            )
            for unit, payload in results.items()
        ]
    )


def format_recovery(result: RecoveryResult) -> str:
    """Per-workload row: cuts per phase, verdict, violations."""
    headers = (
        ["workload"]
        + list(PHASES)
        + ["cuts", "clean", "torn rolled", "violations"]
    )
    rows = []
    workloads = list(dict.fromkeys(c.workload for c in result.cells))
    for workload in workloads:
        group = [c for c in result.cells if c.workload == workload]
        rows.append(
            [workload]
            + [str(sum(1 for c in group if c.phase == p)) for p in PHASES]
            + [
                str(len(group)),
                str(sum(1 for c in group if c.ok)),
                str(sum(c.torn_rolled_forward for c in group)),
                str(sum(len(c.violations) for c in group)),
            ]
        )
    rows.append(
        ["total"]
        + [
            str(sum(1 for c in result.cells if c.phase == p))
            for p in PHASES
        ]
        + [
            str(result.total),
            str(result.clean),
            str(sum(c.torn_rolled_forward for c in result.cells)),
            str(len(result.violations())),
        ]
    )
    table = ascii_table(
        headers,
        rows,
        title="Recovery: power-cut crash-consistency sweep "
        "(every cut: remount from on-flash metadata, verify, resume)",
    )
    problems = result.violations()
    if problems:
        table += "\n\nVIOLATIONS:\n" + "\n".join(
            f"  {line}" for line in problems
        )
    return table
