"""The per-wordline refresh planner and scalar refresh flow, kept as an oracle.

This is :func:`repro.ftl.refresh.plan_refresh` and the refresh daemon of
:class:`~repro.ftl.ftl.Ftl` (``check_refresh`` / ``_refresh_block``) as
they were before the plan became a validity matrix and relocations ran
in segments: one :func:`~repro.core.cases.classify_validity` call and
one :class:`WordlinePlan` per wordline, a live age check per used block,
and one ``Ftl._move_page`` call per relocated page.  The differential
test (``test_refresh_columnar.py``) drives twin FTLs through this and
through ``Ftl.check_refresh`` and requires identical results.  Nothing
in ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cases import WordlineDecision, classify_validity
from repro.flash.block import Block
from repro.ftl.ftl import Ftl
from repro.ftl.ops import OpKind, PhysOp
from repro.ftl.refresh import RefreshMode, RefreshReport


@dataclass(frozen=True)
class WordlinePlan:
    """Planned treatment of one wordline during an IDA refresh."""

    wordline: int
    decision: WordlineDecision
    pages_to_move: tuple[int, ...]
    pages_to_keep: tuple[int, ...]


@dataclass
class RefreshPlan:
    """Full plan for refreshing one block."""

    block_index: int
    mode: RefreshMode
    valid_pages: list[int] = field(default_factory=list)
    wordlines: list[WordlinePlan] = field(default_factory=list)

    @property
    def moves(self) -> list[int]:
        return [page for wl in self.wordlines for page in wl.pages_to_move]

    @property
    def kept(self) -> list[int]:
        return [page for wl in self.wordlines for page in wl.pages_to_keep]

    @property
    def adjusted_wordlines(self) -> list[WordlinePlan]:
        return [wl for wl in self.wordlines if wl.pages_to_keep]


def plan_refresh(block: Block, mode: RefreshMode) -> RefreshPlan:
    plan = RefreshPlan(block_index=block.index, mode=mode)
    plan.valid_pages = block.valid_pages()
    bits = block.bits_per_cell

    full_move = mode is RefreshMode.BASELINE or block.is_ida
    for wordline in range(block.wordlines):
        base = wordline * bits
        validity = block.wordline_validity(wordline)
        valid_here = tuple(base + b for b in range(bits) if validity[b])
        if not valid_here:
            continue
        if full_move:
            plan.wordlines.append(
                WordlinePlan(
                    wordline=wordline,
                    decision=classify_validity(validity),
                    pages_to_move=valid_here,
                    pages_to_keep=(),
                )
            )
            continue
        decision = classify_validity(validity)
        if decision.applies_ida:
            moves = tuple(base + b for b in decision.pages_to_move)
            keeps = tuple(base + b for b in decision.adjust_bits if validity[b])
            plan.wordlines.append(WordlinePlan(wordline, decision, moves, keeps))
        else:
            plan.wordlines.append(WordlinePlan(wordline, decision, valid_here, ()))
    return plan


def check_refresh(ftl: Ftl, now_us: float) -> list[PhysOp]:
    """``Ftl.check_refresh``: refresh every full block older than the period."""
    ops: list[PhysOp] = []
    for pool in ftl.table.planes:
        for block in list(pool.used_blocks()):
            if not block.is_full or block.valid_count == 0:
                continue
            age_start = block.programmed_at_us
            if age_start is None:
                continue
            if now_us - age_start < ftl.refresh_policy.period_us:
                continue
            ops.extend(refresh_block(ftl, block, now_us))
    return ops


def refresh_block(ftl: Ftl, block: Block, now_us: float) -> list[PhysOp]:
    """``Ftl._refresh_block``: one block through the Fig. 7 flow."""
    ops: list[PhysOp] = []
    ftl.counters.refresh_invocations += 1
    block.locked = True
    plan = plan_refresh(block, ftl.refresh_policy.mode)
    report = RefreshReport(block.index, n_valid=len(plan.valid_pages))

    for page in plan.valid_pages:
        ops.append(ftl._internal_read_op(block, page))

    for page in plan.moves:
        ops.append(ftl._move_page(block, page, now_us, ops))
        report.n_moved += 1
        ftl.counters.refresh_page_moves += 1

    kept_pages: list[int] = []
    for wl_plan in plan.adjusted_wordlines:
        start_bit = wl_plan.decision.adjust_bits[0]
        block.set_wordline_ida(wl_plan.wordline, start_bit)
        block.journal_adjust(wl_plan.wordline, start_bit, wl_plan.pages_to_keep)
        ops.append(
            PhysOp(kind=OpKind.ADJUST, block_index=block.index, wordline=wl_plan.wordline)
        )
        report.n_adjusted_wordlines += 1
        ftl.counters.refresh_adjusted_wordlines += 1
        kept_pages.extend(wl_plan.pages_to_keep)
        if ftl.tracer.enabled:
            ftl.tracer.emit(
                now_us,
                "ida_adjust",
                block=block.index,
                wordline=wl_plan.wordline,
                start_bit=start_bit,
                kept_pages=len(wl_plan.pages_to_keep),
            )

    report.n_target = len(kept_pages)
    ftl.counters.refresh_reprogrammed_pages += len(kept_pages)
    for page in kept_pages:
        ops.append(ftl._internal_read_op(block, page))

    corrupted = ftl.disturb.corrupted_pages(ftl.rng, kept_pages)
    for page in corrupted:
        ops.append(ftl._move_page(block, page, now_us, ops))
    report.n_error = len(corrupted)
    ftl.counters.refresh_corrupted_pages += len(corrupted)

    if plan.adjusted_wordlines and block.valid_count > 0:
        block.programmed_at_us = now_us
    block.locked = False
    ftl.refresh_reports.append(report)
    if ftl.tracer.enabled:
        ftl.tracer.emit(
            now_us,
            "refresh",
            block=block.index,
            mode=ftl.refresh_policy.mode.value,
            n_valid=report.n_valid,
            n_moved=report.n_moved,
            n_target=report.n_target,
            n_error=report.n_error,
            n_adjusted_wordlines=report.n_adjusted_wordlines,
        )
    return ops
