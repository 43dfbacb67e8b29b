"""Typed fault plans: what goes wrong, and exactly when.

A :class:`FaultPlan` is a *deterministic script* of failures, not a
stochastic process: every event either fires at a fixed simulated time
(``at_us`` — grown bad blocks, die loss) or on the N-th dispatched
physical operation of its kind (``op_ordinal`` — program/erase status
failures, uncorrectable reads, interrupted IDA adjustments).  Two runs
with the same plan therefore see byte-identical fault sequences, which
is what lets the parity tests compare inline and pooled sweeps exactly,
and lets paired baseline/IDA runs share one plan (common random numbers
extend to the fault schedule).

Plans are frozen, hashable and picklable, so they ride on
:class:`~repro.experiments.parallel.RunUnit` across process boundaries,
and they serialise to/from JSON for ``repro run --faults plan.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "PLAN_SCHEMA",
    "load_plan",
    "save_plan",
]

#: On-disk fault-plan schema version.  Written into every serialised
#: plan; :meth:`FaultPlan.from_dict` rejects plans carrying a different
#: version (a plan without the field predates versioning and is read as
#: version 1).
PLAN_SCHEMA = 1


class FaultKind(Enum):
    """The fault taxonomy (see ``docs/faults.md``)."""

    #: A page program reports status failure; the in-flight page must be
    #: replayed to a fresh block and the block retired.
    PROGRAM_FAIL = "program_fail"
    #: A block erase reports status failure; the block is retired.
    ERASE_FAIL = "erase_fail"
    #: A block goes bad spontaneously at a given simulated time (media
    #: wear-out); its live data is migrated and the block retired.
    GROWN_BAD = "grown_bad"
    #: A host read exhausts the full retry ladder and still fails to
    #: decode; the data is rebuilt from outer protection and relocated.
    UNCORRECTABLE_READ = "uncorrectable_read"
    #: A whole die drops out at a given simulated time; its planes leave
    #: the allocation rotation and live data is rebuilt elsewhere.
    DIE_FAIL = "die_fail"
    #: An IDA voltage adjustment is interrupted mid-reprogram — the
    #: torn-wordline case the recovery invariant pins down.
    ADJUST_INTERRUPT = "adjust_interrupt"
    #: Sudden power-off: the whole simulation halts, either at a fixed
    #: simulated time or on the N-th dispatched physical op of *any*
    #: kind.  Unlike every other kind there is no in-run recovery — the
    #: injector raises :class:`~repro.faults.injector.PowerCutError` and
    #: the crash-consistency harness remounts the device from its
    #: surviving arrays (:func:`repro.ftl.recovery.mount_device`).
    POWER_CUT = "power_cut"


#: Kinds that fire at a simulated time rather than on an op ordinal.
TIMED_KINDS = frozenset({FaultKind.GROWN_BAD, FaultKind.DIE_FAIL})

#: Which :class:`~repro.ftl.ops.OpKind` value each op-coupled kind
#: matches (by the op-kind's ``value`` string, to avoid an import cycle).
OP_KIND_OF = {
    FaultKind.PROGRAM_FAIL: "write",
    FaultKind.ERASE_FAIL: "erase",
    FaultKind.UNCORRECTABLE_READ: "read",
    FaultKind.ADJUST_INTERRUPT: "adjust",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scripted failure.

    Attributes:
        kind: What fails.
        at_us: Simulated firing time — required for the timed kinds
            (:data:`TIMED_KINDS`), forbidden for op-coupled kinds.
        op_ordinal: 1-based index into the stream of dispatched ops of
            the matching kind (programs for PROGRAM_FAIL, erases for
            ERASE_FAIL, *host* page reads for UNCORRECTABLE_READ,
            adjusts for ADJUST_INTERRUPT).  An ordinal beyond what the
            run dispatches simply never fires.
        block: Target block for GROWN_BAD (required there, ignored
            elsewhere — op-coupled faults hit whatever block the N-th op
            targets).
        die: Target die for DIE_FAIL (required there).
    """

    kind: FaultKind
    at_us: float | None = None
    op_ordinal: int | None = None
    block: int | None = None
    die: int | None = None

    def __post_init__(self) -> None:
        if self.kind is FaultKind.POWER_CUT:
            # The one kind living in both trigger domains: a cut fires
            # either at a wall-clock instant or on the N-th dispatched
            # op of ANY kind (the harness's phase-targeted cut points).
            if (self.at_us is None) == (self.op_ordinal is None):
                raise ValueError(
                    "power_cut events need exactly one of at_us / op_ordinal"
                )
            if self.op_ordinal is not None and self.op_ordinal < 1:
                raise ValueError("op_ordinal is 1-based and must be >= 1")
            if self.block is not None or self.die is not None:
                raise ValueError(
                    "power_cut hits the whole device; block/die are invalid"
                )
        elif self.kind in TIMED_KINDS:
            if self.at_us is None:
                raise ValueError(f"{self.kind.value} events need at_us")
            if self.op_ordinal is not None:
                raise ValueError(
                    f"{self.kind.value} events are timed; op_ordinal is invalid"
                )
            if self.kind is FaultKind.GROWN_BAD and self.block is None:
                raise ValueError("grown_bad events need a target block")
            if self.kind is FaultKind.DIE_FAIL and self.die is None:
                raise ValueError("die_fail events need a target die")
        else:
            if self.op_ordinal is None:
                raise ValueError(f"{self.kind.value} events need op_ordinal")
            if self.op_ordinal < 1:
                raise ValueError("op_ordinal is 1-based and must be >= 1")
            if self.at_us is not None:
                raise ValueError(
                    f"{self.kind.value} events are op-coupled; at_us is invalid"
                )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value}
        for name in ("at_us", "op_ordinal", "block", "die"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Parse one event dict, rejecting malformed entries clearly.

        Raises:
            ValueError: unknown ``kind``, a non-numeric field, or a
                field combination :meth:`__post_init__` rejects.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"fault event must be a JSON object, got {type(data).__name__}"
            )
        if "kind" not in data:
            raise ValueError("fault event is missing its 'kind' field")
        try:
            kind = FaultKind(data["kind"])
        except ValueError:
            valid = ", ".join(sorted(k.value for k in FaultKind))
            raise ValueError(
                f"unknown fault kind {data['kind']!r}; valid kinds: {valid}"
            ) from None
        unknown = set(data) - {"kind", "at_us", "op_ordinal", "block", "die"}
        if unknown:
            raise ValueError(
                f"unknown fault event field(s): {', '.join(sorted(unknown))}"
            )
        at_us = data.get("at_us")
        if at_us is not None and not isinstance(at_us, (int, float)):
            raise ValueError(
                f"at_us must be a number, got {type(at_us).__name__}"
            )
        fields: dict = {"at_us": at_us}
        for name in ("op_ordinal", "block", "die"):
            value = data.get(name)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise ValueError(
                    f"{name} must be an integer, got {value!r}"
                )
            fields[name] = value
        return cls(kind=kind, **fields)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable script of fault events.

    Attributes:
        events: The scripted failures (order is cosmetic; triggering is
            by time / ordinal, and duplicate ordinals for one kind are
            rejected because only one fault can hit one op).
        name: Plan label, recorded in manifests and fault logs.
        seed: Provenance when built by :meth:`generate`; ``None`` for
            hand-written plans.
        read_reclaim_threshold: Cumulative per-block read-retry count
            past which the FTL migrates the block's data away
            (STRAW-style read reclaim); ``None`` disables reclaim.
    """

    events: tuple[FaultEvent, ...] = ()
    name: str = "faults"
    seed: int | None = None
    read_reclaim_threshold: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"expected FaultEvent, got {type(event).__name__}")
        if (
            self.read_reclaim_threshold is not None
            and self.read_reclaim_threshold < 1
        ):
            raise ValueError("read_reclaim_threshold must be >= 1 (or None)")
        seen: set[tuple[FaultKind, int]] = set()
        for event in self.events:
            if event.op_ordinal is None:
                continue
            key = (event.kind, event.op_ordinal)
            if key in seen:
                raise ValueError(
                    f"duplicate {event.kind.value} at op_ordinal {event.op_ordinal}"
                )
            seen.add(key)

    def __len__(self) -> int:
        return len(self.events)

    def count(self, kind: FaultKind) -> int:
        return sum(1 for event in self.events if event.kind is kind)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        duration_us: float,
        total_blocks: int,
        total_dies: int = 1,
        *,
        program_fails: int = 0,
        erase_fails: int = 0,
        grown_bad: int = 0,
        uncorrectable_reads: int = 0,
        die_fails: int = 0,
        adjust_interrupts: int = 0,
        max_program_ordinal: int = 400,
        max_erase_ordinal: int = 20,
        max_read_ordinal: int = 600,
        max_adjust_ordinal: int = 40,
        read_reclaim_threshold: int | None = None,
        name: str | None = None,
    ) -> "FaultPlan":
        """Draw a random-but-reproducible plan from a seed.

        Timed events land in the middle 10-80% of ``duration_us`` so
        they fire while the trace is live; ordinals are drawn without
        replacement from ``[1, max_*_ordinal]``.  The same seed and
        arguments always yield the same plan.
        """
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        if total_blocks < 1 or total_dies < 1:
            raise ValueError("total_blocks and total_dies must be >= 1")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []

        def timed(kind: FaultKind, count: int, **target_of) -> None:
            for _ in range(count):
                at = float(rng.uniform(0.1, 0.8)) * duration_us
                targets = {k: int(v(rng)) for k, v in target_of.items()}
                events.append(FaultEvent(kind=kind, at_us=at, **targets))

        def ordinal(kind: FaultKind, count: int, high: int) -> None:
            count = min(count, high)
            picks = rng.choice(np.arange(1, high + 1), size=count, replace=False)
            for pick in sorted(int(p) for p in picks):
                events.append(FaultEvent(kind=kind, op_ordinal=pick))

        timed(
            FaultKind.GROWN_BAD,
            grown_bad,
            block=lambda r: r.integers(0, total_blocks),
        )
        timed(
            FaultKind.DIE_FAIL,
            die_fails,
            die=lambda r: r.integers(0, total_dies),
        )
        ordinal(FaultKind.PROGRAM_FAIL, program_fails, max_program_ordinal)
        ordinal(FaultKind.ERASE_FAIL, erase_fails, max_erase_ordinal)
        ordinal(FaultKind.UNCORRECTABLE_READ, uncorrectable_reads, max_read_ordinal)
        ordinal(FaultKind.ADJUST_INTERRUPT, adjust_interrupts, max_adjust_ordinal)
        return cls(
            events=tuple(events),
            name=name or f"generated-{seed}",
            seed=seed,
            read_reclaim_threshold=read_reclaim_threshold,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {
            "kind": "fault_plan",
            "schema": PLAN_SCHEMA,
            "name": self.name,
            "events": [event.to_dict() for event in self.events],
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.read_reclaim_threshold is not None:
            out["read_reclaim_threshold"] = self.read_reclaim_threshold
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Parse a plan dict; errors name the offending entry.

        Raises:
            ValueError: wrong ``kind`` tag, an unsupported ``schema``
                version, a non-list ``events`` field, or any malformed
                event — the message carries ``events[i]`` context so a
                broken hand-written plan is immediately locatable.
        """
        if data.get("kind") not in (None, "fault_plan"):
            raise ValueError(f"not a fault plan: kind={data.get('kind')!r}")
        schema = data.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ValueError(
                f"unsupported fault plan schema {schema!r}; this build "
                f"reads schema {PLAN_SCHEMA}"
            )
        raw_events = data.get("events", ())
        if not isinstance(raw_events, (list, tuple)):
            raise ValueError(
                f"events must be a list, got {type(raw_events).__name__}"
            )
        events = []
        for index, raw in enumerate(raw_events):
            try:
                events.append(FaultEvent.from_dict(raw))
            except ValueError as exc:
                raise ValueError(f"events[{index}]: {exc}") from None
        return cls(
            events=tuple(events),
            name=data.get("name", "faults"),
            seed=data.get("seed"),
            read_reclaim_threshold=data.get("read_reclaim_threshold"),
        )


def load_plan(path: str | Path) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file."""
    with Path(path).open(encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: fault plan must be a JSON object")
    return FaultPlan.from_dict(data)


def save_plan(plan: FaultPlan, path: str | Path) -> Path:
    """Write a :class:`FaultPlan` as pretty-printed JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as fh:
        json.dump(plan.to_dict(), fh, indent=2)
        fh.write("\n")
    return target
