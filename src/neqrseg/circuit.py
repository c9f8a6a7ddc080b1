"""Gate-level circuit representation with register roles, stages and composition.

Qubit ``j`` is bit ``j`` of a basis-state index (little endian).  The wiring
is fixed by the image size: :class:`RegisterLayout` derives it from ``(n, q)``
with position in the low wires, then color, threshold, comparator aux and the
result pair.  Its register tuples list qubit indices most significant bit
first, so ``color[0]`` is the high bit of the gray value.  Stages are named,
contiguous, non-overlapping spans of the op list; they drive cost accounting
and survive text export/parse round trips, which is why a stage name must be
non-empty and free of whitespace.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator, NamedTuple


class GateKind(Enum):
    H = "h"
    X = "x"
    CNOT = "cx"
    TOFFOLI = "ccx"
    MCX = "mcx"
    RESET = "reset"


class Control(NamedTuple):
    """A control qubit and its polarity (False fires on the |0> branch)."""

    qubit: int
    positive: bool = True


def pos(qubit: int) -> Control:
    return Control(qubit, True)


def neg(qubit: int) -> Control:
    return Control(qubit, False)


_FIXED_ARITY = {
    GateKind.H: 0,
    GateKind.X: 0,
    GateKind.RESET: 0,
    GateKind.CNOT: 1,
    GateKind.TOFFOLI: 2,
}


@dataclass(frozen=True)
class GateOp:
    """One gate (or reset) acting on a target qubit with optional controls.

    ``mask`` has the bit of every control qubit set and ``value`` the bit of
    every positive one; the gate fires on basis index ``i`` exactly when
    ``i & mask == value``.  Both are derived once, when the op is checked.
    """

    kind: GateKind
    target: int
    controls: tuple[Control, ...] = ()
    mask: int = field(init=False, repr=False, compare=False)
    value: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.controls)
        want = _FIXED_ARITY.get(self.kind)
        if want is not None and n != want:
            raise ValueError(
                f"{self.kind.name} takes exactly {want} control(s), got {n}"
            )
        if self.kind is GateKind.MCX and n < 3:
            raise ValueError(
                "MCX needs at least 3 controls; use CNOT or TOFFOLI below that"
            )
        if self.target < 0:
            raise ValueError("qubit indices must be non-negative")
        mask = value = 0
        for qubit, positive in self.controls:
            if qubit < 0:
                raise ValueError("qubit indices must be non-negative")
            mask |= 1 << qubit
            if positive:
                value |= 1 << qubit
        if mask.bit_count() != n:
            raise ValueError("control qubits must be distinct")
        if mask >> self.target & 1:
            raise ValueError("target qubit may not also be a control")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "value", value)

    @property
    def qubits(self) -> tuple[int, ...]:
        return (*(c.qubit for c in self.controls), self.target)

    def __str__(self) -> str:
        ctrls = ",".join(("" if c.positive else "!") + f"q{c.qubit}" for c in self.controls)
        return f"{self.kind.value}({ctrls}{' -> ' if ctrls else ''}q{self.target})"


@dataclass(frozen=True)
class RegisterLayout:
    """The fixed NEQR wiring of a segmentation circuit, derived from ``(n, q)``.

    From wire 0 up: ``2n`` position qubits (row bits above column bits),
    ``q`` color qubits, ``q`` threshold qubits, two comparator aux qubits and
    two comparison-result qubits, ``2q + 2n + 4`` wires in all.  The register
    tuples are derived once and list wires MSB first.  With position in the
    low wires and color just above it, color, position and the (color,
    position) readout are bit fields of a basis index; each read below works
    on an int or an int64 index array.
    """

    n: int
    q: int
    position: tuple[int, ...] = field(init=False, repr=False, compare=False)
    color: tuple[int, ...] = field(init=False, repr=False, compare=False)
    threshold: tuple[int, ...] = field(init=False, repr=False, compare=False)
    cmp_aux: tuple[int, int] = field(init=False, repr=False, compare=False)
    results: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0 or self.q < 1:
            raise ValueError("need n >= 0 and q >= 1")
        p, q = 2 * self.n, self.q

        def span(lo: int, count: int) -> tuple[int, ...]:
            return tuple(range(lo + count - 1, lo - 1, -1))  # MSB first

        object.__setattr__(self, "position", span(0, p))
        object.__setattr__(self, "color", span(p, q))
        object.__setattr__(self, "threshold", span(p + q, q))
        object.__setattr__(self, "cmp_aux", (p + 2 * q, p + 2 * q + 1))
        object.__setattr__(self, "results", (p + 2 * q + 2, p + 2 * q + 3))

    @property
    def width(self) -> int:
        return 2 * self.q + 2 * self.n + 4

    @property
    def measurement_qubits(self) -> tuple[int, ...]:
        """Qubits read out for histograms: color then position, MSB first."""
        return self.color + self.position

    def color_value(self, basis_index: int) -> int:
        return basis_index >> 2 * self.n & ((1 << self.q) - 1)

    def position_value(self, basis_index: int) -> int:
        return basis_index & ((1 << 2 * self.n) - 1)

    def readout_value(self, basis_index: int) -> int:
        """The readout key: color above position, the low ``q + 2n`` bits."""
        return basis_index & ((1 << self.q + 2 * self.n) - 1)

    def readout_bitstring(self, basis_index: int) -> str:
        return format(self.readout_value(basis_index), f"0{self.q + 2 * self.n}b")


def extract_bits(basis_index: int, qubits: Iterable[int]) -> int:
    """Read the value of a register given MSB-first qubit indices.

    ``basis_index`` may be an int or an int64 index array; an array keeps its
    shape even when the register is empty.
    """
    value = basis_index & 0
    for qb in qubits:
        value = value << 1 | (basis_index >> qb & 1)
    return value


def insert_bits(basis_index: int, qubits: Iterable[int], value: int) -> int:
    """Return ``basis_index`` with the register at ``qubits`` set to ``value``."""
    qubits = tuple(qubits)
    for i, qb in enumerate(qubits):
        bit = value >> (len(qubits) - 1 - i) & 1
        basis_index = (basis_index & ~(1 << qb)) | (bit << qb)
    return basis_index


@dataclass(frozen=True)
class Stage:
    """Half-open span ``[start, stop)`` of ops belonging to a named stage.

    ``quoted`` is the stage's closed-form cost as ``(formula name, value)``,
    or None when no closed form is quoted for it.
    """

    name: str
    start: int
    stop: int
    quoted: tuple[str, int] | None = None


class Circuit:
    """Ordered gate list over a fixed qubit count, with named stages.

    Builder methods return ``self`` so construction chains.  Stages must be
    closed before the circuit is composed or exported; a stage may carry its
    quoted closed-form cost, given when it is opened.
    """

    def __init__(self, width: int, layout: RegisterLayout | None = None):
        if width < 1:
            raise ValueError("circuit width must be at least 1")
        if layout is not None and layout.width != width:
            raise ValueError(
                f"layout covers {layout.width} qubits but circuit width is {width}"
            )
        self.width = width
        self.layout = layout
        self.ops: list[GateOp] = []
        self.stages: list[Stage] = []
        self._open_stage: str | None = None
        self._open_start = 0

    def __len__(self) -> int:
        return len(self.ops)

    # -- construction ------------------------------------------------------

    def append(self, op: GateOp) -> "Circuit":
        if (op.mask | 1 << op.target) >> self.width:
            qb = next(qb for qb in op.qubits if qb >= self.width)
            raise ValueError(f"qubit q{qb} outside circuit of width {self.width}")
        self.ops.append(op)
        return self

    def h(self, target: int) -> "Circuit":
        return self.append(GateOp(GateKind.H, target))

    def x(self, target: int) -> "Circuit":
        return self.append(GateOp(GateKind.X, target))

    def reset(self, target: int) -> "Circuit":
        return self.append(GateOp(GateKind.RESET, target))

    def cx(self, control: int | Control, target: int) -> "Circuit":
        return self.controlled_x((control,), target)

    def ccx(self, c1: int | Control, c2: int | Control, target: int) -> "Circuit":
        return self.controlled_x((c1, c2), target)

    def controlled_x(
        self, controls: Iterable[int | Control], target: int
    ) -> "Circuit":
        """Append an X controlled on ``controls``; the kind follows the count."""
        ctrls = tuple(
            c if isinstance(c, Control) else Control(c, True) for c in controls
        )
        kind = {0: GateKind.X, 1: GateKind.CNOT, 2: GateKind.TOFFOLI}.get(
            len(ctrls), GateKind.MCX
        )
        return self.append(GateOp(kind, target, ctrls))

    # -- stages ------------------------------------------------------------

    @contextmanager
    def stage(
        self, name: str, quoted: tuple[str, int] | None = None
    ) -> Iterator["Circuit"]:
        """Open a named stage; ops appended inside the block belong to it."""
        if self._open_stage is not None:
            raise ValueError(f"stage {self._open_stage!r} is still open")
        if name.split() != [name]:
            raise ValueError(f"stage name {name!r} is empty or holds whitespace")
        if any(s.name == name for s in self.stages):
            raise ValueError(f"duplicate stage name {name!r}")
        self._open_stage = name
        self._open_start = len(self.ops)
        try:
            yield self
        except BaseException:
            self._open_stage = None
            raise
        else:
            self.stages.append(Stage(name, self._open_start, len(self.ops), quoted))
            self._open_stage = None

    def stage_named(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise ValueError(f"unknown stage {name!r}")

    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]

    def stage_ops(self, name: str) -> list[GateOp]:
        s = self.stage_named(name)
        return self.ops[s.start : s.stop]

    def subcircuit(self, names: Iterable[str]) -> "Circuit":
        """New circuit holding only the named stages, in the order given."""
        sub = Circuit(self.width, self.layout)
        for name in names:
            span = self.stage_named(name)
            with sub.stage(name, span.quoted):
                sub.ops.extend(self.ops[span.start : span.stop])
        return sub

    def without_stages(self, *names: str) -> "Circuit":
        """Copy without the named stages; every other op keeps its order."""
        for name in names:
            self.stage_named(name)
        out = Circuit(self.width, self.layout)
        done = 0
        for s in sorted(self.stages, key=lambda s: s.start):
            out.ops.extend(self.ops[done : s.start])
            if s.name not in names:
                start = len(out.ops)
                out.ops.extend(self.ops[s.start : s.stop])
                out.stages.append(replace(s, start=start, stop=len(out.ops)))
            done = s.stop
        out.ops.extend(self.ops[done:])
        return out

    def extend(self, fragment: "Circuit") -> "Circuit":
        """Append another circuit's ops and stages after this circuit's."""
        if self._open_stage is not None or fragment._open_stage is not None:
            raise ValueError("cannot compose circuits with an open stage")
        if fragment.width > self.width:
            raise ValueError("fragment is wider than the host circuit")
        mine = set(self.stage_names())
        for s in fragment.stages:
            if s.name in mine:
                raise ValueError(f"duplicate stage name {s.name!r}")
        offset = len(self.ops)
        self.ops.extend(fragment.ops)
        for s in fragment.stages:
            self.stages.append(replace(s, start=s.start + offset, stop=s.stop + offset))
        return self
