"""Command line front end: segment PGM images and report circuit costs."""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .circuit import RegisterLayout
from .cost import quantum_cost
from .image import ImageGray, read_image_pgm, write_image_pgm
from .qasm import MAX_QREG_WIDTH, export_circuit_text
from .segmentation import (
    ThresholdConfig,
    build_pipeline,
    comparison_table,
    default_thresholds,
    reference_pipeline,
)
from .statevector import ShotRecord, records_to_csv, sample_shots
from .tracked import assert_no_collision, check_tracked_width, run_tracked
from .neqr import decode

COST_SCHEMA = 2


def _parse_value_list(text: str, what: str) -> list[int]:
    values = []
    for token in text.split(","):
        token = token.strip()
        # int() alone takes a sign, "_" and any Unicode digit; it refuses 4301+ digits
        if not re.fullmatch(r"[0-9]{1,4300}|0[bB][01]+", token):
            raise ValueError(f"bad {what} {token!r}: use decimal or 0b binary")
        values.append(int(token, 2 if token.lower().startswith("0b") else 10))
    return values


def _thresholds_from_args(args: argparse.Namespace) -> list[int]:
    pair = [v for v in (args.t_low, args.t_high) if v is not None]
    if args.t is not None and pair:
        raise ValueError("give either --t or --t-low/--t-high, not both")
    if args.t is not None:
        return _parse_value_list(args.t, "threshold")
    if args.t_low is not None and args.t_high is not None:
        return (
            _parse_value_list(args.t_low, "threshold")
            + _parse_value_list(args.t_high, "threshold")
        )
    if pair:
        raise ValueError("--t-low and --t-high must be given together")
    raise ValueError("thresholds required: pass --t or --t-low/--t-high")


def _cost_payload(circuit, q: int, threshold_count: int) -> dict:
    ledger = quantum_cost(circuit)
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
    if args.histogram is not None and args.backend != "statevector":
        raise ValueError("--histogram needs --backend statevector")
    if args.backend == "statevector" and args.shots < 1:
        raise ValueError("--shots must be at least 1")
    if args.backend == "statevector" and args.seed < 0:
        raise ValueError("--seed must be non-negative")
    data = Path(args.input).read_bytes()
    image = read_image_pgm(data)
    # Both backends stop at int64 basis indices; refuse before building.
    check_tracked_width(RegisterLayout(image.n, image.q).width)
    thresholds = _thresholds_from_args(args)
    if args.levels is not None:
        config = ThresholdConfig(
            image.q, tuple(thresholds), tuple(_parse_value_list(args.levels, "level"))
        )
    else:
        config = ThresholdConfig.with_default_levels(image.q, tuple(thresholds))
    circuit = build_pipeline(image, config)

    records: list[ShotRecord] | None = None
    if args.backend == "tracked":
        branch_map = run_tracked(circuit)
        assert_no_collision(branch_map)
        result = decode(branch_map)
    else:
        records = sample_shots(circuit, args.shots, seed=args.seed)
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
        payload = _cost_payload(circuit, image.q, len(config.thresholds))
        report = json.dumps(payload, indent=2) + "\n"
        outputs.append((args.cost_report, report.encode()))
    if args.export_qasm is not None:
        outputs.append((args.export_qasm, export_circuit_text(circuit).encode()))
    for path, data in outputs:
        Path(path).write_bytes(data)
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    if args.q < 1:
        raise ValueError("--q must be at least 1")
    # Every op is costed as exported, so the reference pipeline (n = 1) must
    # fit a qreg.  A huge --q is refused before its layout is built.
    if args.q > MAX_QREG_WIDTH or RegisterLayout(1, args.q).width > MAX_QREG_WIDTH:
        raise ValueError(f"--q {args.q} needs more than the {MAX_QREG_WIDTH} qubits costing allows")
    count = args.thresholds
    if count is None:
        count = 2 if (1 << args.q) - 1 >= 2 else 1
    circuit = reference_pipeline(args.q, count)
    payload = _cost_payload(circuit, args.q, count)
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
    seg.add_argument("--t-low", help="low threshold (alternative to --t)")
    seg.add_argument("--t-high", help="high threshold (alternative to --t)")
    seg.add_argument("--levels", help="comma-separated replacement levels")
    seg.add_argument(
        "--backend",
        choices=("tracked", "statevector"),
        default="tracked",
        help="simulation backend (default: tracked)",
    )
    seg.add_argument("--shots", type=int, default=1024, help="statevector shots")
    seg.add_argument("--seed", type=int, default=0, help="random seed")
    seg.add_argument("--out", required=True, help="output PGM file")
    seg.add_argument("--histogram", help="write a shot histogram CSV here")
    seg.add_argument("--cost-report", help="write a cost report JSON here")
    seg.add_argument("--export-qasm", help="write the circuit text here")
    seg.set_defaults(func=cmd_segment)

    cost = sub.add_parser("cost", help="report circuit costs without an image")
    cost.add_argument("--q", type=int, required=True, help="gray depth in bits")
    cost.add_argument("--thresholds", type=int, help="threshold count (default 2)")
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
