"""Multi-threshold segmentation of NEQR-encoded grayscale images.

Builds exact gate-level circuits (preparation, less-than comparator, band
rewrites), simulates them on a sparse statevector backend or an exact
basis-tracked backend, accounts gate costs against quoted closed forms, and
round-trips circuits through an OpenQASM 2.0 subset.
"""
from .circuit import (
    Circuit,
    Control,
    GateKind,
    GateOp,
    RegisterLayout,
    Stage,
    neg,
    pos,
)
from .comparator import ComparatorSpec, build_comparator, comparator_formula_cost
from .cost import CostLedger, GateCounts, quantum_cost
from .image import ImageGray, read_image_pgm, write_image_pgm
from .neqr import build_preparation, decode
from .qasm import QasmParseError, export_circuit_text, lower, parse_circuit_text
from .segmentation import (
    ComparisonRow,
    ThresholdConfig,
    build_pipeline,
    build_s1,
    build_s2,
    build_s3,
    classical_segment,
    comparison_table,
    default_thresholds,
    reference_pipeline,
)
from .statevector import (
    QuantumState,
    ShotRecord,
    records_to_csv,
    run,
    sample_shots,
)
from .tracked import (
    BranchMap,
    CollisionError,
    assert_no_collision,
    run_tracked,
)

__version__ = "0.1.0"

__all__ = [
    "BranchMap",
    "Circuit",
    "CollisionError",
    "ComparatorSpec",
    "ComparisonRow",
    "Control",
    "CostLedger",
    "GateCounts",
    "GateKind",
    "GateOp",
    "ImageGray",
    "QasmParseError",
    "QuantumState",
    "RegisterLayout",
    "ShotRecord",
    "Stage",
    "ThresholdConfig",
    "assert_no_collision",
    "build_comparator",
    "build_pipeline",
    "build_preparation",
    "build_s1",
    "build_s2",
    "build_s3",
    "classical_segment",
    "comparator_formula_cost",
    "comparison_table",
    "decode",
    "default_thresholds",
    "export_circuit_text",
    "lower",
    "neg",
    "parse_circuit_text",
    "pos",
    "quantum_cost",
    "read_image_pgm",
    "records_to_csv",
    "reference_pipeline",
    "run",
    "run_tracked",
    "sample_shots",
    "write_image_pgm",
]
