"""Command line front end: segment PGM images and report circuit costs."""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .circuit import RegisterLayout
from .cost import CostLedger, quantum_cost
from .image import ImageGray, read_image_pgm, write_image_pgm
from .qasm import MAX_QREG_WIDTH, export_circuit_text
from .segmentation import (
    ThresholdConfig,
    build_pipeline,
    comparison_table,
    default_thresholds,
    reference_pipeline,
)
from .statevector import MAX_SHOTS, ShotRecord, records_to_csv, sample_shots
from .tracked import assert_no_collision, check_tracked_width, run_tracked
from .neqr import decode

COST_SCHEMA = 2
# Most gate lines --export-qasm writes, read off the ledger before anything runs:
# a random 256x256 8-bit image exports 19M (363 MB), a 512x512 one would export 86M.
MAX_EXPORT_LINES = 1 << 25
_MAX_DIGITS = 4300  # int() refuses a longer decimal string
_DECIMAL = rf"[0-9]{{1,{_MAX_DIGITS}}}"  # int() alone also takes a sign, "_" and any Unicode digit


def _shown(text: str) -> str:
    """``text`` quoted, cut to 20 characters so an error stays one short line."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} chars)"


def _parse_value_list(text: str, what: str) -> list[int]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not re.fullmatch(rf"{_DECIMAL}|0[bB][01]+", token):
            raise ValueError(
                f"bad {what} {_shown(token)}: use decimal or 0b binary; "
                f"decimal takes at most {_MAX_DIGITS} digits"
            )
        values.append(int(token, 2 if token.lower().startswith("0b") else 10))
    return values


def _int_option(text: str, option: str) -> int:
    """An integer option's value in ASCII digits; a leading '-' reaches the range checks."""
    if not re.fullmatch(rf"-?{_DECIMAL}", text):
        raise ValueError(f"{option} takes ASCII digits (at most {_MAX_DIGITS}), got {_shown(text)}")
    return int(text)


def _cost_payload(ledger: CostLedger, q: int, threshold_count: int) -> dict:
    table = []
    for row in comparison_table(q):
        entry = {
            "algorithm": row.algorithm,
            "thresholds": row.thresholds,
            "auxiliaryQubits": row.auxiliary_qubits,
            "quantumCost": row.quantum_cost,
            "segmentations": row.segmentations,
        }
        if row.actual_cost is not None:
            entry["actualCost"] = row.actual_cost
        table.append(entry)
    return {
        "schema": COST_SCHEMA,
        "q": q,
        "thresholds": threshold_count,
        "paperTotal": table[-1]["quantumCost"],  # ours
        "componentSum": ledger.formula_cost,
        "actualCost": ledger.actual_cost,
        "perStage": {
            name: counts.as_dict() for name, counts in ledger.stages.items()
        },
        "table2": table,
    }


def _majority_image(records: list[ShotRecord], layout) -> tuple[ImageGray, list[int]]:
    """Per-position majority color over records keyed by ``layout``'s readout.

    Returns the image and the list of positions whose color was not
    unanimous (ties break toward the most frequent, then smallest value).
    """
    votes: dict[int, dict[int, int]] = {}
    for r in records:
        key = int(r.bitstring, 2)
        tally = votes.setdefault(layout.position_value(key), {})
        color = layout.color_value(key)
        tally[color] = tally.get(color, 0) + r.count
    bits = len(layout.position)
    pixels = []
    disputed = []
    for label in range(1 << bits):
        if label not in votes:
            raise ValueError(
                f"position {label:0{bits}b} never observed; increase --shots"
            )
        tally = votes[label]
        if len(tally) > 1:
            disputed.append(label)
        pixels.append(max(sorted(tally), key=lambda c: tally[c]))
    return ImageGray(layout.n, layout.q, tuple(pixels)), disputed


def cmd_segment(args: argparse.Namespace) -> int:
    shots = _int_option(args.shots, "--shots")
    seed = _int_option(args.seed, "--seed")
    if args.histogram is not None and args.backend != "statevector":
        raise ValueError("--histogram needs --backend statevector")
    if args.backend == "statevector" and shots < 1:
        raise ValueError("--shots must be at least 1")
    if args.backend == "statevector" and shots > MAX_SHOTS:
        raise ValueError(f"--shots must be at most {MAX_SHOTS}")
    if args.backend == "statevector" and seed < 0:
        raise ValueError("--seed must be non-negative")
    data = Path(args.input).read_bytes()
    image = read_image_pgm(data)
    # Both backends stop at int64 basis indices; refuse before building.
    check_tracked_width(RegisterLayout(image.n, image.q).width)
    if args.t is None:
        raise ValueError("thresholds required: pass --t")
    thresholds = _parse_value_list(args.t, "threshold")
    if args.levels is not None:
        config = ThresholdConfig(
            image.q, tuple(thresholds), tuple(_parse_value_list(args.levels, "level"))
        )
    else:
        config = ThresholdConfig.with_default_levels(image.q, tuple(thresholds))
    circuit = build_pipeline(image, config)
    wanted = args.cost_report is not None or args.export_qasm is not None
    ledger = quantum_cost(circuit) if wanted else None
    if args.export_qasm is not None:
        lines = sum(c.single_qubit + c.cnot + c.toffoli + c.reset for c in ledger.stages.values())
        if lines > MAX_EXPORT_LINES:
            raise ValueError(
                f"--export-qasm would write {lines} gate lines, above its limit "
                f"of {MAX_EXPORT_LINES}; export_circuit_text takes no such limit"
            )

    records: list[ShotRecord] | None = None
    if args.backend == "tracked":
        branch_map = run_tracked(circuit)
        assert_no_collision(branch_map)
        result = decode(branch_map)
    else:
        records = sample_shots(circuit, shots, seed=seed)
        result, disputed = _majority_image(records, circuit.layout)
        for label in disputed:
            print(
                f"warning: position {label:0{2 * image.n}b} was not unanimous; "
                "kept the majority color",
                file=sys.stderr,
            )

    # Build every output before writing any, so a failure leaves no file.
    outputs = [(args.out, write_image_pgm(result))]
    if args.histogram is not None:
        outputs.append((args.histogram, records_to_csv(records).encode()))
    if args.cost_report is not None:
        payload = _cost_payload(ledger, image.q, len(config.thresholds))
        report = json.dumps(payload, indent=2) + "\n"
        outputs.append((args.cost_report, report.encode()))
    if args.export_qasm is not None:
        outputs.append((args.export_qasm, export_circuit_text(circuit).encode()))
    for path, data in outputs:
        Path(path).write_bytes(data)
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    q = _int_option(args.q, "--q")
    if q < 1:
        raise ValueError("--q must be at least 1")
    # Every op is costed as exported, so the reference pipeline (n = 1) must
    # fit a qreg.  A huge --q is refused before its layout is built.
    if q > MAX_QREG_WIDTH or RegisterLayout(1, q).width > MAX_QREG_WIDTH:
        raise ValueError(f"--q {q} needs more than the {MAX_QREG_WIDTH} qubits costing allows")
    if args.thresholds is None:
        count = 2 if (1 << q) - 1 >= 2 else 1
    else:
        count = _int_option(args.thresholds, "--thresholds")
    circuit = reference_pipeline(q, count)
    payload = _cost_payload(quantum_cost(circuit), q, count)
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neqrseg",
        description="Multi-threshold segmentation of NEQR-encoded images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment a PGM image")
    seg.add_argument("--input", required=True, help="input PGM (P2) file")
    seg.add_argument("--t", help="comma-separated thresholds (decimal or 0b binary)")
    seg.add_argument("--levels", help="comma-separated replacement levels")
    seg.add_argument(
        "--backend",
        choices=("tracked", "statevector"),
        default="tracked",
        help="simulation backend (default: tracked)",
    )
    seg.add_argument("--shots", default="1024", help="statevector shots")
    seg.add_argument("--seed", default="0", help="random seed")
    seg.add_argument("--out", required=True, help="output PGM file")
    seg.add_argument("--histogram", help="write a shot histogram CSV here")
    seg.add_argument("--cost-report", help="write a cost report JSON here")
    seg.add_argument("--export-qasm", help="write the circuit text here")
    seg.set_defaults(func=cmd_segment)

    cost = sub.add_parser("cost", help="report circuit costs without an image")
    cost.add_argument("--q", required=True, help="gray depth in bits")
    cost.add_argument("--thresholds", help="threshold count (default 2)")
    cost.set_defaults(func=cmd_cost)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
