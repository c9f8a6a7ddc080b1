"""Fuzz the two text parsers: malformed input raises only ``ValueError``.

``read_image_pgm`` gets raw bytes and soups of PGM-like tokens;
``parse_circuit_text`` gets soups of valid and broken statements, headers and
stage markers.  A parser may accept what it is given; any exception it raises
must be a ``ValueError`` (``QasmParseError`` is one), never an ``IndexError``,
``KeyError``, ``OverflowError`` or the like.
"""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from neqrseg import parse_circuit_text, read_image_pgm  # noqa: E402

_FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)

_SEPARATORS = st.sampled_from([" "] * 4 + ["\n"] * 4 + ["\t", "\r\n", "# note\n", "#", ""])
_JUNK = st.one_of(
    st.sampled_from(["P2", "P5", "x", "-1", "+3", "1_0", "1e3", "٣", "\x00", "�", "9", "256"]),
    st.sampled_from([str((1 << k) - 1) for k in (16, 62, 64, 200)] + ["9" * 4301]),
    st.text(max_size=4),
)


@st.composite
def pgm_soups(draw):
    """A plausible P2 file with a few tokens replaced, inserted or dropped."""
    side = draw(st.sampled_from([1, 2, 4, 4, 3]))
    maxval = draw(st.sampled_from([1, 3, 7, 255, 255, 2]))
    count = side * side + draw(st.sampled_from([0] * 4 + [-1, 1]))
    tokens = [draw(st.sampled_from(["P2"] * 5 + ["P5", ""])), str(side), str(side), str(maxval)]
    tokens += [str(draw(st.integers(0, maxval))) for _ in range(count)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at + draw(st.integers(0, 1))] = [draw(_JUNK)] * draw(st.integers(0, 1))
    text = "".join(token + draw(_SEPARATORS) for token in tokens)
    return text.encode("utf-8") if draw(st.booleans()) else text


@_FUZZ
@given(st.one_of(st.binary(max_size=200), pgm_soups()))
def test_read_image_pgm_raises_only_value_errors(data):
    try:
        read_image_pgm(data)
    except ValueError:
        pass


_QUBITS = [f"q[{i}]" for i in range(6)]
_BAD_QUBITS = ["q[-1]", "q[ 1 ]", "q[99999999999999999999]", "r[0]", "q", "q[]", "q[1", ""]
_ARITY = {"h": 1, "x": 1, "reset": 1, "cx": 2, "ccx": 3}


@st.composite
def gate_lines(draw):
    """A gate statement as exported, except that its qubits may repeat."""
    mnemonic = draw(st.sampled_from(sorted(_ARITY)))
    qubits = [draw(st.sampled_from(_QUBITS)) for _ in range(_ARITY[mnemonic])]
    return f"{mnemonic} {', '.join(qubits)};"


@st.composite
def broken_gate_lines(draw):
    mnemonic = draw(st.sampled_from(sorted(_ARITY) + ["y", "H", "measure"]))
    qubits = draw(st.lists(st.sampled_from(_QUBITS + _BAD_QUBITS), max_size=4))
    end = draw(st.sampled_from([";", "", " ;", ";;"]))
    return f"{mnemonic} {', '.join(qubits)}{end}"


_BROKEN_LINES = st.sampled_from([
    "OPENQASM 3.0;",
    'include "other.inc";',
    "qreg q[0];",
    "qreg q[4097];",
    "qreg q[99999999999999999999999];",
    "qreg r[2];",
    "qreg q[2]",
    "qreg q[3];",
    "cx q[0], q[0];",
    "ccx q[1], q[1], q[2];",
    "// stage:a b",
    ";",
])
_MARKERS = st.sampled_from(["prep", "init-T-1", "compare-1", "x=1"]).flatmap(
    lambda name: st.sampled_from([
        f"// stage:{name}",
        f"// stage:{name}",
        f"//stage:{name} 2q+1=7",
        f"// stage:{name} f=-3",
        "// stage:",
        "// stage:",
        f"// stage:{name} f=",
        f"// stage:{name} f={'9' * 19}",
        "// stage: ",
    ])
)


@st.composite
def qasm_soups(draw):
    """Header, qreg, gates and stage markers, with a few lines dropped or broken."""
    head = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[6];"]
    lines = [line for line in head if draw(st.integers(0, 9))]
    lines += draw(st.lists(st.one_of(gate_lines(), gate_lines(), _MARKERS), max_size=10))
    broken = st.one_of(broken_gate_lines(), _BROKEN_LINES, st.text(max_size=12))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(broken))
    return draw(st.sampled_from(["\n", "\r\n", "\n\n"])).join(lines)


@_FUZZ
@given(qasm_soups())
def test_parse_circuit_text_raises_only_value_errors(text):
    try:
        parse_circuit_text(text)
    except ValueError:
        pass
