import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import neqrseg
from neqrseg import (
    ImageGray,
    RegisterLayout,
    parse_circuit_text,
    quantum_cost,
    read_image_pgm,
    reference_pipeline,
    write_image_pgm,
)
from neqrseg.cli import _int_option, _majority_image, _parse_value_list, main
from neqrseg.statevector import ShotRecord
from conftest import SEGMENTED_4X4


@pytest.fixture
def sample_pgm(tmp_path, sample_4x4):
    path = tmp_path / "in.pgm"
    path.write_bytes(write_image_pgm(sample_4x4))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_segment_tracked_end_to_end(tmp_path, sample_pgm):
    out = tmp_path / "out.pgm"
    assert run_cli("segment", "--input", sample_pgm, "--t", "2,4", "--out", out) == 0
    assert read_image_pgm(out.read_bytes()) == ImageGray(2, 3, SEGMENTED_4X4)


def test_segment_is_deterministic(tmp_path, sample_pgm):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    run_cli("segment", "--input", sample_pgm, "--t", "2,4", "--out", a)
    run_cli("segment", "--input", sample_pgm, "--t", "2,4", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_threshold_spellings_agree(tmp_path, sample_pgm):
    outs = []
    for i, argv in enumerate(
        [
            ["--t", "2,4"],
            ["--t", "0b010,0b100"],
        ]
    ):
        out = tmp_path / f"out{i}.pgm"
        assert run_cli("segment", "--input", sample_pgm, *argv, "--out", out) == 0
        outs.append(out.read_bytes())
    assert len(set(outs)) == 1


def test_explicit_levels(tmp_path, sample_pgm):
    out = tmp_path / "out.pgm"
    code = run_cli(
        "segment",
        "--input", sample_pgm,
        "--t", "2,4",
        "--levels", "1,2,4",
        "--out", out,
    )
    assert code == 0
    expected = tuple({0: 1, 4: 2, 7: 4}[v] for v in SEGMENTED_4X4)
    assert read_image_pgm(out.read_bytes()).pixels == expected


def test_statevector_backend_with_histogram(tmp_path):
    img = tmp_path / "in.pgm"
    img.write_bytes(write_image_pgm(ImageGray(1, 2, (0, 1, 2, 3))))
    out = tmp_path / "out.pgm"
    hist = tmp_path / "hist.csv"
    code = run_cli(
        "segment",
        "--input", img,
        "--t", "2",
        "--backend", "statevector",
        "--shots", "256",
        "--seed", "7",
        "--out", out,
        "--histogram", hist,
    )
    assert code == 0
    assert read_image_pgm(out.read_bytes()).pixels == (0, 0, 3, 3)
    lines = hist.read_text().splitlines()
    assert lines[0] == "bitstring,count,probability"
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r[0]) == 4 and set(r[0]) <= {"0", "1"} for r in rows)
    assert sum(int(r[1]) for r in rows) == 256


def test_histogram_requires_statevector(tmp_path, sample_pgm, capsys):
    out = tmp_path / "out.pgm"
    code = run_cli(
        "segment",
        "--input", sample_pgm,
        "--t", "2,4",
        "--out", out,
        "--histogram", tmp_path / "h.csv",
    )
    assert code == 1
    assert "statevector" in capsys.readouterr().err
    assert not out.exists()


def test_cost_report_and_qasm_export(tmp_path, sample_pgm):
    out = tmp_path / "out.pgm"
    report = tmp_path / "cost.json"
    qasm = tmp_path / "circuit.qasm"
    code = run_cli(
        "segment",
        "--input", sample_pgm,
        "--t", "2,4",
        "--out", out,
        "--cost-report", report,
        "--export-qasm", qasm,
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["schema"] == 2
    assert payload["q"] == 3
    assert payload["thresholds"] == 2
    assert payload["paperTotal"] == 174
    assert payload["componentSum"] == 164
    assert payload["actualCost"] == 188
    assert payload["perStage"]["compare-1"]["toffoli"] == 6
    assert {row["algorithm"] for row in payload["table2"]} == {
        "IS",
        "NMQCIS",
        "DQIS",
        "ours",
    }
    assert report.read_text().endswith("\n")
    parsed = parse_circuit_text(qasm.read_text())
    assert parsed.width == 14
    assert "compare-1" in [s.name for s in parsed.stages]


def test_cost_command_prints_json(capsys):
    assert run_cli("cost", "--q", "8") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 2
    assert payload["q"] == 8
    assert payload["paperTotal"] == 474
    assert payload["componentSum"] == 464
    assert isinstance(payload["actualCost"], int)
    ours = [r for r in payload["table2"] if r["algorithm"] == "ours"][0]
    assert ours["quantumCost"] == 474
    assert ours["actualCost"] == payload["actualCost"]


def test_cost_command_q1(capsys):
    assert run_cli("cost", "--q", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["thresholds"] == 1
    dqis = [r for r in payload["table2"] if r["algorithm"] == "DQIS"][0]
    assert dqis["quantumCost"] == 56
    ours = [r for r in payload["table2"] if r["algorithm"] == "ours"][0]
    assert "actualCost" not in ours


@pytest.mark.parametrize("q,count,component_sum", [(3, 3, 242), (1, 1, 20)])
def test_component_sum_is_the_reported_circuits_quotes(capsys, q, count, component_sum):
    assert run_cli("cost", "--q", q, "--thresholds", count) == 0
    payload = json.loads(capsys.readouterr().out)
    ledger = quantum_cost(reference_pipeline(q, count))
    assert payload["componentSum"] == component_sum == ledger.formula_cost
    assert payload["actualCost"] == ledger.actual_cost


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["--t", "9,4"], "thresholds must"),
        # ASCII digits past int()'s 4300-digit limit: the limit is named, the value cut short
        (["--t", "1" * 5000], "use decimal or 0b binary; decimal takes at most 4300 digits"),
        (["--t", "2,4", "--levels", "0,4," + "7" * 4301], "'77777777777777777777'... (4301 chars)"),
        ([], "thresholds required"),
        (["--t", "1,x"], "use decimal or 0b binary"),
        (["--t", "2,4", "--levels", "0,4"], "levels"),
        (["--t", "2,4", "--backend", "statevector", "--shots", "0"], "--shots"),
        (["--t", "2,4", "--backend", "statevector", "--seed", "-1"], "--seed"),
        (["--t", "+2,4"], "use decimal or 0b binary"),
        (["--t", "2,1_0"], "use decimal or 0b binary"),
        (["--t", "2,\u0663"], "use decimal or 0b binary"),
        (["--t", "0b1_0,4"], "use decimal or 0b binary"),
        (["--t", "2,4", "--levels", "0,+4,7"], "use decimal or 0b binary"),
        # int() takes each of these; integer options are ASCII digits only
        (["--t", "2,4", "--backend", "statevector", "--shots", "0"], "--shots must be at least 1"),
        (["--t", "2,4", "--backend", "statevector", "--seed", "-1"], "--seed must be non-negative"),
        (["--t", "2,4", "--backend", "statevector", "--shots", "\u0661\u0660"], "--shots takes ASCII digits"),
        (["--t", "2,4", "--backend", "statevector", "--shots", "1_0"], "--shots takes ASCII digits"),
        (["--t", "2,4", "--backend", "statevector", "--shots", "+5"], "--shots takes ASCII digits"),
        (["--t", "2,4", "--backend", "statevector", "--seed", "1_0"], "--seed takes ASCII digits"),
        (["--t", "2,4", "--backend", "statevector", "--seed", "-\u0661"], "--seed takes ASCII digits"),
        (["--t", "2,4", "--seed", "\uff11"], "--seed takes ASCII digits"),
        # and past the 4300-digit limit
        (["--t", "2,4", "--backend", "statevector", "--seed", "9" * 5000], "--seed takes ASCII digits (at most 4300)"),
        (["--t", "2,4", "--backend", "statevector", "--shots", "9" * 5000], "--shots takes ASCII digits (at most 4300)"),
        # numpy's binomial takes int64 shot counts
        (["--t", "2,4", "--backend", "statevector", "--shots", str(2**63)], "--shots must be at most 9223372036854775807"),
    ],
)
def test_segment_bad_arguments(tmp_path, sample_pgm, capsys, argv, fragment):
    out = tmp_path / "out.pgm"
    code = run_cli("segment", "--input", sample_pgm, *argv, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    assert len(err.encode()) < 200
    assert not out.exists()


def test_t_is_the_only_threshold_option(tmp_path, sample_pgm, capsys):
    out = tmp_path / "out.pgm"
    with pytest.raises(SystemExit) as exc:
        run_cli("segment", "--input", sample_pgm, "--t-low", "2", "--t-high", "4", "--out", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --t-low" in capsys.readouterr().err
    assert run_cli("segment", "--input", sample_pgm, "--out", out) == 1
    assert capsys.readouterr().err == "error: thresholds required: pass --t\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["--q", "0"], "--q must be at least 1"),
        (["--q", "-1"], "--q must be at least 1"),
        (["--q", "+3"], "--q takes ASCII digits"),
        (["--q", "\u0663"], "--q takes ASCII digits"),
        (["--q", "1_0"], "--q takes ASCII digits"),
        (["--q", "3", "--thresholds", "+2"], "--thresholds takes ASCII digits"),
        (["--q", "3", "--thresholds", "\uff12"], "--thresholds takes ASCII digits"),
        (["--q", "1" * 5000], "--q takes ASCII digits (at most 4300), got '11111111111111111111'..."),
        (["--q", "3", "--thresholds", "9" * 5000], "--thresholds takes ASCII digits (at most 4300)"),
    ],
)
def test_cost_bad_arguments(capsys, argv, fragment):
    assert run_cli("cost", *argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert fragment in captured.err
    assert len(captured.err.encode()) < 200
    assert captured.out == ""


def test_value_lists_take_ascii_decimal_or_binary():
    assert _parse_value_list(" 5, 0b101,0B11 ,007", "threshold") == [5, 5, 3, 7]


def test_integers_take_up_to_4300_digits():
    assert _parse_value_list("1" * 4300, "level") == [int("1" * 4300)]
    assert _int_option("9" * 4300, "--seed") == int("9" * 4300)
    assert _int_option("-" + "9" * 4300, "--seed") == -int("9" * 4300)


def test_missing_input_file(tmp_path, capsys):
    code = run_cli(
        "segment",
        "--input", tmp_path / "absent.pgm",
        "--t", "2,4",
        "--out", tmp_path / "out.pgm",
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_majority_image_votes_and_disputes():
    records = [
        ShotRecord("00" + "00", 5, 0.5),
        ShotRecord("01" + "00", 1, 0.1),  # minority color at position 00
        ShotRecord("11" + "01", 2, 0.2),
        ShotRecord("10" + "10", 1, 0.1),
        ShotRecord("00" + "11", 1, 0.1),
    ]
    image, disputed = _majority_image(records, RegisterLayout(1, 2))
    assert image.pixels == (0, 3, 2, 0)
    assert disputed == [0]
    with pytest.raises(ValueError, match="never observed"):
        _majority_image(records[:2], RegisterLayout(1, 2))


def test_module_invocation_smoke():
    # The child must import the same package as this process, installed or not.
    src = str(Path(neqrseg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "neqrseg", "cost", "--q", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["paperTotal"] == 174


def test_failed_output_leaves_no_file(tmp_path, sample_pgm, capsys, monkeypatch):
    def fail(circuit):
        raise ValueError("export failed")

    monkeypatch.setattr("neqrseg.cli.export_circuit_text", fail)
    out, report, qasm = tmp_path / "out.pgm", tmp_path / "c.json", tmp_path / "q.qasm"
    code = run_cli(
        "segment",
        "--input", sample_pgm,
        "--t", "2,4",
        "--out", out,
        "--cost-report", report,
        "--export-qasm", qasm,
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() and not report.exists() and not qasm.exists()


def _gate_lines(text: str) -> int:
    return sum(
        not line.startswith(("//", "OPENQASM ", "include ", "qreg "))
        for line in text.splitlines()
    )


@pytest.mark.parametrize("over", [False, True])
def test_export_limit_is_the_ledgers_line_count(tmp_path, sample_pgm, capsys, monkeypatch, over):
    """The ledger's lines, prep included, are the gate lines of the export;
    one past the limit is refused before anything runs or is written."""
    out, qasm = tmp_path / "out.pgm", tmp_path / "q.qasm"
    argv = ["segment", "--input", sample_pgm, "--t", "2,4", "--export-qasm", qasm, "--out", out]
    assert run_cli(*argv) == 0
    lines = _gate_lines(qasm.read_text())
    assert lines == 346
    qasm.unlink()
    out.unlink()
    monkeypatch.setattr("neqrseg.cli.MAX_EXPORT_LINES", lines - over)
    if over:
        monkeypatch.setattr("neqrseg.cli.run_tracked", _refuse_build)
    assert run_cli(*argv) == int(over)
    err = capsys.readouterr().err
    assert (f"would write {lines} gate lines, above its limit of {lines - 1}" in err) is over
    assert out.exists() == qasm.exists() == (not over)


def test_512x512_export_is_refused_up_front(tmp_path, capsys, monkeypatch):
    rng = random.Random(512)
    path = tmp_path / "big.pgm"
    path.write_bytes(write_image_pgm(ImageGray(9, 8, tuple(rng.randrange(256) for _ in range(4**9)))))
    monkeypatch.setattr("neqrseg.cli.run_tracked", _refuse_build)
    monkeypatch.setattr("neqrseg.cli.export_circuit_text", _refuse_build)
    out, qasm = tmp_path / "out.pgm", tmp_path / "big.qasm"
    argv = ["--t", "64,128", "--export-qasm", qasm, "--out", out]
    assert run_cli("segment", "--input", path, *argv) == 1
    assert "above its limit of 33554432" in capsys.readouterr().err
    assert not out.exists() and not qasm.exists()


def _refuse_build(*args):
    raise ValueError("reached the build")


@pytest.mark.parametrize("q,refused", [(2045, False), (2046, True), (10**12, True)])
def test_cost_refuses_q_too_wide_to_export_before_building(capsys, monkeypatch, q, refused):
    monkeypatch.setattr("neqrseg.cli.reference_pipeline", _refuse_build)
    monkeypatch.setattr("neqrseg.cli.build_pipeline", _refuse_build)
    assert run_cli("cost", "--q", q) == 1
    err = capsys.readouterr().err
    assert ("4096 qubits" in err) is refused
    assert ("reached the build" in err) is not refused


@pytest.mark.parametrize("backend", ["tracked", "statevector"])
@pytest.mark.parametrize("q,refused", [(29, False), (30, True)])
def test_segment_refuses_an_image_too_wide_before_building(
    tmp_path, capsys, monkeypatch, backend, q, refused
):
    monkeypatch.setattr("neqrseg.cli.reference_pipeline", _refuse_build)
    monkeypatch.setattr("neqrseg.cli.build_pipeline", _refuse_build)
    path = tmp_path / "in.pgm"
    path.write_text(f"P2\n1 1\n{(1 << q) - 1}\n0\n")  # width 2q + 4
    out = tmp_path / "out.pgm"
    code = run_cli("segment", "--input", path, "--t", "1", "--backend", backend, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert ("width 64 exceeds the 62-qubit limit" in err) is refused
    assert ("reached the build" in err) is not refused
    assert not out.exists()


@pytest.mark.parametrize("backend", ["tracked", "statevector"])
def test_segment_never_builds_the_prep_ops(tmp_path, sample_pgm, monkeypatch, backend):
    """The held image is read as an array by both backends and the cost
    report; only ``circuit.ops`` and the QASM export make its ops."""
    def refuse(circuit):
        raise AssertionError("built the prep ops")

    monkeypatch.setattr("neqrseg.circuit.Circuit._prep_ops", refuse)
    out, report = tmp_path / "out.pgm", tmp_path / "c.json"
    extra = ["--histogram", tmp_path / "h.csv"] if backend == "statevector" else []
    argv = ["--t", "2,4", "--backend", backend, *extra, "--out", out, "--cost-report", report]
    assert run_cli("segment", "--input", sample_pgm, *argv) == 0
    assert read_image_pgm(out.read_bytes()) == ImageGray(2, 3, SEGMENTED_4X4)
    assert json.loads(report.read_text())["perStage"]["prep"]["toffoli"] > 0
