"""Gate-level circuit representation with register roles, stages and composition.

A gate is H, reset, or an X with any number of mixed-polarity controls;
``GateOp.mnemonic`` names an X by its control count (``x``, ``cx``, ``ccx``,
``mcx``) for the cost ledger and the QASM printer.  Qubit ``j`` is bit ``j``
of a basis-state index (little endian).  The wiring is fixed by the
image size: :class:`RegisterLayout` derives it from ``(n, q)`` with position
in the low wires, then color, threshold, comparator aux and the result pair.
Its register tuples list qubit indices most significant bit first, so
``color[0]`` is the high bit of the gray value.  Stages are named,
contiguous, non-overlapping spans of the op list; every other op lies in an
unstaged gap, and ``Circuit.spans`` walks stages and gaps in order.  A
circuit may hold an image as its first stage, ``prep``: the pixel array
stands for the stage's ops, which ``Circuit.ops`` makes on demand.  Stages
and their quoted costs drive cost accounting and survive text export/parse
round trips, which is why a stage name must be non-empty and free of
whitespace, a quoted formula name free of ``=`` as well, and a quoted value
an int.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# The NEQR preparation stage, never costed.  H may sit in any stage: the tracked backend
# asks only that its wire be |0> in every branch; distinct position tags are for decode.
PREP_STAGE = "prep"


def popcounts(values: np.ndarray, bits: int) -> np.ndarray:
    """Set bits among the low ``bits`` of each non-negative int64."""
    return sum((values >> b & 1 for b in range(min(bits, 63))), np.zeros_like(values))


class GateKind(Enum):
    """H, reset, or X with any number of controls (NOT, CNOT, Toffoli, MCX)."""

    H = "h"
    X = "x"
    RESET = "reset"


class Control(NamedTuple):
    """A control qubit and its polarity (False fires on the |0> branch)."""

    qubit: int
    positive: bool = True


def pos(qubit: int) -> Control:
    return Control(qubit, True)


def neg(qubit: int) -> Control:
    return Control(qubit, False)


@dataclass(frozen=True)
class GateOp:
    """One gate (or reset) acting on a target qubit; only an X takes controls.

    Controls keep their order, which equality and the lowered ladder see.
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
        if n and self.kind is not GateKind.X:
            raise ValueError(f"{self.kind.name} takes exactly 0 control(s), got {n}")
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

    @property
    def mnemonic(self) -> str:
        """``h``, ``reset``, or an X named by its control count: ``x``,
        ``cx``, ``ccx``, or ``mcx`` from three controls up."""
        n = len(self.controls)
        return ("cx", "ccx", "mcx")[min(n, 3) - 1] if n else self.kind.value


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

    def color_value(self, basis_index: int) -> int:
        return basis_index >> 2 * self.n & ((1 << self.q) - 1)

    def position_value(self, basis_index: int) -> int:
        return basis_index & ((1 << 2 * self.n) - 1)

    def readout_value(self, basis_index: int) -> int:
        """The readout key: color above position, the low ``q + 2n`` bits."""
        return basis_index & ((1 << self.q + 2 * self.n) - 1)

    def readout_bitstring(self, basis_index: int) -> str:
        return format(self.readout_value(basis_index), f"0{self.q + 2 * self.n}b")


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
    quoted closed-form cost, given when it is opened.  ``pixels``, one q-bit
    gray value per label, makes the circuit hold that image as stage prep:
    ``held`` ops, 2n Hs and one X per set color bit, that are never stored.
    ``gates`` stores every op appended, after them.
    """

    def __init__(
        self, width: int, layout: RegisterLayout | None = None, pixels: Sequence[int] | None = None
    ):
        if width < 1:
            raise ValueError("circuit width must be at least 1")
        if layout is not None and layout.width != width:
            raise ValueError(
                f"layout covers {layout.width} qubits but circuit width is {width}"
            )
        self.width = width
        self.layout = layout
        self.gates: list[GateOp] = []  # the stored ops, after any held prep
        self.stages: list[Stage] = []
        self._open_stage: str | None = None
        self._open_start = 0
        self.pixels: np.ndarray | None = None
        self.held = 0  # the held prep's op count
        if pixels is not None:
            try:
                px = np.array(pixels, dtype=np.int64)
            except OverflowError:
                raise ValueError("pixel values past 63 bits cannot be held") from None
            fits = layout is not None and len(px) == 4**layout.n
            if not fits or px.min() < 0 or int(px.max()) >> layout.q:
                raise ValueError("a held image needs a layout and one q-bit pixel per position")
            px.flags.writeable = False
            self.pixels, self.held = px, 2 * layout.n + int(popcounts(px, layout.q).sum())
            self.stages.append(Stage(PREP_STAGE, 0, self.held))

    def __len__(self) -> int:
        return self.held + len(self.gates)

    @property
    def ops(self) -> list[GateOp]:
        """Every op: the stored list itself, or with an image held, a new
        list of its prep's ops, made here, and then the stored ones."""
        return self.gates if self.pixels is None else [*self._prep_ops(), *self.gates]

    def _prep_ops(self) -> Iterator[GateOp]:
        # H on every position wire, then one X per set color bit of each
        # pixel (bit j on wire 2n + j), its controls spelling out the label.
        layout, p = self.layout, 2 * self.layout.n
        for qb in layout.position:
            yield GateOp(GateKind.H, qb)
        polarities = [(qb, (Control(qb, False), Control(qb, True))) for qb in layout.position]
        for label, value in enumerate(self.pixels.tolist()):
            controls = tuple(pair[label >> qb & 1] for qb, pair in polarities)
            for cq in layout.color:
                if value >> (cq - p) & 1:
                    yield GateOp(GateKind.X, cq, controls)

    def span_ops(self, start: int, stop: int) -> Iterable[GateOp]:
        """The ops of one of ``spans()``; a held prep's are made as read."""
        if start < self.held:
            return islice(self._prep_ops(), start, stop)
        return self.gates[start - self.held : stop - self.held]

    # -- construction ------------------------------------------------------

    def append(self, op: GateOp) -> "Circuit":
        if (op.mask | 1 << op.target) >> self.width:
            qb = next(qb for qb in op.qubits if qb >= self.width)
            raise ValueError(f"qubit q{qb} outside circuit of width {self.width}")
        self.gates.append(op)
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
        """Append an X controlled on ``controls`` (plain ints are positive)."""
        ctrls = tuple(
            c if isinstance(c, Control) else Control(c, True) for c in controls
        )
        return self.append(GateOp(GateKind.X, target, ctrls))

    # -- stages ------------------------------------------------------------

    @contextmanager
    def stage(
        self, name: str, quoted: tuple[str, int] | None = None
    ) -> Iterator["Circuit"]:
        """Open a named stage; ops appended inside the block belong to it.
        A block that raises is rolled back: its ops go and no stage is kept."""
        if self._open_stage is not None:
            raise ValueError(f"stage {self._open_stage!r} is still open")
        if name.split() != [name]:
            raise ValueError(f"stage name {name!r} is empty or holds whitespace")
        if quoted is not None and (quoted[0].split() != [quoted[0]] or "=" in quoted[0]):
            raise ValueError(
                f"formula name {quoted[0]!r} is empty or holds whitespace or '='"
            )
        if quoted is not None and (isinstance(quoted[1], bool) or not isinstance(quoted[1], int)):
            raise ValueError(f"quoted value {quoted[1]!r} is not an int")
        if any(s.name == name for s in self.stages):
            raise ValueError(f"duplicate stage name {name!r}")
        self._open_stage = name
        self._open_start = len(self)
        try:
            yield self
        except BaseException:
            del self.gates[self._open_start - self.held :]
            self._open_stage = None
            raise
        else:
            self.stages.append(Stage(name, self._open_start, len(self), quoted))
            self._open_stage = None

    def stage_named(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise ValueError(f"unknown stage {name!r}")

    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]

    def spans(self) -> Iterator[tuple[Stage | None, int, int]]:
        """Walk the op list once, in order, as ``(stage, start, stop)`` spans.

        Every stage is yielded, empty ones included, in order of start; each
        non-empty run of ops outside any stage is yielded as ``(None, start,
        stop)``, so no gap is empty and no two gaps are adjacent.
        """
        at = 0
        for s in sorted(self.stages, key=lambda s: s.start):
            if s.start > at:
                yield None, at, s.start
            yield s, s.start, s.stop
            at = s.stop
        if at < len(self):
            yield None, at, len(self)

    def append_span(self, stage: Stage | None, ops: Iterable[GateOp]) -> "Circuit":
        """Append ``ops``, unchecked, under a copy of ``stage`` re-offset to
        cover them, or unstaged when ``stage`` is None.  Every copy of a
        circuit's spans (``extend``, ``subcircuit``, lowering) goes through here.
        """
        if self._open_stage is not None:
            raise ValueError(f"stage {self._open_stage!r} is still open")
        if stage is not None and stage.name in self.stage_names():
            raise ValueError(f"duplicate stage name {stage.name!r}")
        start = len(self)
        self.gates.extend(ops)
        if stage is not None:
            self.stages.append(replace(stage, start=start, stop=len(self)))
        return self

    def subcircuit(self, names: Iterable[str]) -> "Circuit":
        """New circuit holding only the named stages, in the order given."""
        sub = Circuit(self.width, self.layout)
        for name in names:
            s = self.stage_named(name)
            sub.append_span(s, self.span_ops(s.start, s.stop))
        return sub

    def extend(self, other: "Circuit") -> "Circuit":
        """Append another circuit's ops and stages after this circuit's."""
        if self._open_stage is not None or other._open_stage is not None:
            raise ValueError("cannot compose circuits with an open stage")
        if other.width > self.width:
            raise ValueError("appended circuit is wider than the host circuit")
        mine = set(self.stage_names())
        for s in other.stages:
            if s.name in mine:
                raise ValueError(f"duplicate stage name {s.name!r}")
        for s, start, stop in other.spans():
            self.append_span(s, other.span_ops(start, stop))
        return self
