import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import SAMPLE_4X4
from neqrseg import (
    Circuit,
    Control,
    GateKind,
    ImageGray,
    ShotRecord,
    ThresholdConfig,
    build_pipeline,
    neg,
    records_to_csv,
    run,
    run_tracked,
    sample_shots,
    statevector,
)


def amplitudes(circuit, seed=0):
    """The final state of ``run`` as a dense 2^width vector."""
    state = run(circuit, seed=seed)
    amps = np.zeros(1 << state.width, dtype=np.complex128)
    amps[state.indices] = state.amplitudes
    return amps


def test_x_flips_qubit_zero():
    amps = amplitudes(Circuit(2).x(0))
    assert amps[0b01] == pytest.approx(1.0)
    assert np.sum(np.abs(amps)) == pytest.approx(1.0)


def test_h_makes_equal_superposition_and_is_involutive():
    amps = amplitudes(Circuit(1).h(0))
    assert amps[0] == pytest.approx(1 / math.sqrt(2))
    assert amps[1] == pytest.approx(1 / math.sqrt(2))
    back = amplitudes(Circuit(1).h(0).h(0))
    assert back[0] == pytest.approx(1.0)
    assert back[1] == pytest.approx(0.0, abs=1e-12)


def test_controlled_gates_on_basis_states():
    amps = amplitudes(Circuit(3).x(0).x(1).ccx(0, 1, 2))
    assert amps[0b111] == pytest.approx(1.0)
    # control not satisfied: nothing happens
    amps = amplitudes(Circuit(3).x(0).ccx(0, 1, 2))
    assert amps[0b001] == pytest.approx(1.0)


def test_negative_control_fires_on_zero():
    amps = amplitudes(Circuit(2).cx(neg(0), 1))
    assert amps[0b10] == pytest.approx(1.0)


def _random_permutation_circuit(rng, width, length):
    c = Circuit(width)
    for _ in range(length):
        arity = rng.choice([1, 2, 3])
        wires = rng.sample(range(width), arity)
        c.controlled_x(tuple(wires[1:]), wires[0])
    return c


def test_permutation_gates_preserve_amplitude_multiset():
    rng = random.Random(5)
    width = 6
    prep = Circuit(width).h(0).h(3).x(1)
    before = amplitudes(prep)
    for _ in range(10):
        c = Circuit(width).h(0).h(3).x(1)
        c.extend(_random_permutation_circuit(rng, width, 30))
        after = amplitudes(c)
        assert np.allclose(
            np.sort(np.abs(before)), np.sort(np.abs(after)), atol=1e-12
        )
        assert np.abs(after).sum() == pytest.approx(2.0)  # 4 branches of 1/2


def test_reset_forces_zero():
    amps = amplitudes(Circuit(2).x(0).reset(0))
    assert amps[0b00] == pytest.approx(1.0)


def test_reset_collapses_entangled_partner():
    c = Circuit(2).h(0).cx(0, 1).reset(0)
    amps = amplitudes(c, seed=7)
    winners = np.flatnonzero(np.abs(amps) > 1e-9)
    assert len(winners) == 1
    assert winners[0] in (0b00, 0b10)


def test_run_is_deterministic_for_a_seed():
    c = Circuit(3).h(0).h(1).cx(0, 2).reset(0).reset(1)
    a = amplitudes(c, seed=123)
    b = amplitudes(c, seed=123)
    assert np.array_equal(a, b)


def test_norm_is_preserved():
    rng = random.Random(8)
    c = Circuit(5)
    for qb in range(5):
        c.h(qb)
    c.extend(_random_permutation_circuit(rng, 5, 50))
    amps = amplitudes(c, seed=2)
    assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-12)


def test_sampling_deterministic_circuit():
    records = sample_shots(Circuit(1).x(0), 100, seed=0)
    assert records == [ShotRecord("1", 100, 1.0)]


def test_sampling_seed_reproducibility():
    c = Circuit(2).h(0).h(1)
    a = sample_shots(c, 64, seed=42)
    b = sample_shots(c, 64, seed=42)
    assert a == b
    assert sum(r.count for r in a) == 64


def test_sampling_uniform_two_qubit():
    records = sample_shots(Circuit(2).h(0).h(1), 4000, seed=3)
    assert {r.bitstring for r in records} == {"00", "01", "10", "11"}
    for r in records:
        assert abs(r.probability - 0.25) < 0.05


def test_guards():
    with pytest.raises(ValueError, match="shots"):
        sample_shots(Circuit(1), 0, seed=0)
    # numpy's binomial and multinomial take int64 counts
    with pytest.raises(ValueError, match="shots"):
        sample_shots(Circuit(1), 2**63, seed=0)
    # refused up front, also where no reset would ever draw
    with pytest.raises(ValueError, match="seed"):
        run(Circuit(1).x(0), seed=-1)
    with pytest.raises(ValueError, match="seed"):
        sample_shots(Circuit(1).x(0), 8, seed=-1)


def test_a_drifted_norm_is_refused(monkeypatch):
    # Three entries of amplitude 1/sqrt(2) each: a root of norm 1.5.
    monkeypatch.setattr(statevector, "start_branches", lambda c: np.arange(3, dtype=np.int64))
    with pytest.raises(RuntimeError, match="norm drifted"):
        sample_shots(Circuit(2).reset(0), 8, seed=0)


def test_records_to_csv_layout():
    text = records_to_csv(
        [ShotRecord("00", 3, 0.75), ShotRecord("11", 1, 0.25)]
    )
    assert text == "bitstring,count,probability\n00,3,0.75\n11,1,0.25\n"


# -- dense reference ------------------------------------------------------
#
# The simulator keeps only the support of the state.  This reference keeps the
# full 2^width vector and pairs every index whose target bit is 0 (and whose
# controls fire) with its partner.  Each node of the reset tree draws from
# its own generator, made from (seed, path of outcomes).  ``dense_trajectory``
# follows one shot like ``run``: Binomial(1, p1) at each reset whose outcome
# is uncertain.  ``dense_sample`` walks the tree like ``sample_shots``: its
# shots split binomially at the reset, and each leaf takes one multinomial draw.
# Probabilities are summed over the nonzero entries in basis-index order, as
# the sampler sums over its sorted support.  ``dense_law`` walks the same
# tree without sampling.

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _dense_spans(circuit):
    """(ops before a reset, the reset) pairs; the last span has no reset."""
    spans, start = [], 0
    for i, op in enumerate(circuit.ops):
        if op.kind is GateKind.RESET:
            spans.append((circuit.ops[start:i], op))
            start = i + 1
    return spans + [(circuit.ops[start:], None)]


def _dense_pairs(op, size):
    everything = np.arange(size)
    bit = 1 << op.target
    fires = everything & bit == 0
    for c in op.controls:
        fires &= (everything >> c.qubit & 1) == c.positive
    lo = everything[fires]
    return lo, lo | bit


def _dense_evolve(ops, amps):
    amps = amps.copy()
    for op in ops:
        lo, hi = _dense_pairs(op, len(amps))
        a0, a1 = amps[lo], amps[hi]
        if op.kind is GateKind.H:
            amps[lo], amps[hi] = (a0 + a1) * _INV_SQRT2, (a0 - a1) * _INV_SQRT2
        else:
            amps[lo], amps[hi] = a1, a0
    return amps


def _support_probs(amps):
    """|amplitude|^2 over the nonzero entries, in basis-index order."""
    support = amps[amps != 0]
    return support.real**2 + support.imag**2


def _dense_p1(amps, reset):
    _, hi = _dense_pairs(reset, len(amps))
    return float(_support_probs(amps[hi]).sum())


def _dense_collapse(amps, reset, outcome, p1):
    lo, hi = _dense_pairs(reset, len(amps))
    out = np.zeros_like(amps)
    out[lo] = amps[hi if outcome else lo] / math.sqrt(p1 if outcome else 1.0 - p1)
    return out


def _dense_start(circuit):
    amps = np.zeros(1 << circuit.width, dtype=complex)
    amps[0] = 1.0
    return amps


def _dense_rng(seed, path):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def _key(circuit, idx):
    if circuit.layout is not None:
        return circuit.layout.readout_bitstring(idx)
    return format(idx, f"0{circuit.width}b")


def dense_trajectory(circuit, seed):
    amps, path = _dense_start(circuit), ()
    for ops, reset in _dense_spans(circuit):
        amps = _dense_evolve(ops, amps)
        if reset is not None:
            p1 = _dense_p1(amps, reset)
            outcome = int(p1 >= 1.0)
            if 0.0 < p1 < 1.0:
                outcome = int(_dense_rng(seed, path).binomial(1, p1))
            amps = _dense_collapse(amps, reset, outcome, p1)
            path += (outcome,)
    return amps


def dense_sample(circuit, shots, seed):
    spans = _dense_spans(circuit)
    counter = Counter()
    stack = [((), shots, _dense_start(circuit))]
    while stack:
        path, held, amps = stack.pop()
        ops, reset = spans[len(path)]
        amps = _dense_evolve(ops, amps)
        rng = _dense_rng(seed, path)
        if reset is None:
            probs = _support_probs(amps)
            counts = rng.multinomial(held, probs / probs.sum())
            for idx, count in zip(np.flatnonzero(amps), counts):
                if count:
                    counter[_key(circuit, int(idx))] += int(count)
            continue
        p1 = _dense_p1(amps, reset)
        ones = int(rng.binomial(held, min(max(p1, 0.0), 1.0)))
        for outcome, count in ((0, held - ones), (1, ones)):
            if count:
                child = _dense_collapse(amps, reset, outcome, p1)
                stack.append((path + (outcome,), count, child))
    return [ShotRecord(b, n, n / shots) for b, n in sorted(counter.items())]


def dense_law(circuit):
    """Exact readout law: every reset outcome of nonzero probability, weighted."""
    spans = _dense_spans(circuit)
    law = Counter()
    stack = [(0, 1.0, _dense_start(circuit))]
    while stack:
        depth, weight, amps = stack.pop()
        ops, reset = spans[depth]
        amps = _dense_evolve(ops, amps)
        if reset is None:
            probs = amps.real**2 + amps.imag**2
            for idx in np.flatnonzero(probs):
                law[_key(circuit, int(idx))] += weight * probs[idx]
            continue
        p1 = _dense_p1(amps, reset)
        for outcome, p in ((0, 1.0 - p1), (1, p1)):
            if p > 1e-12:
                child = _dense_collapse(amps, reset, outcome, p1)
                stack.append((depth + 1, weight * p, child))
    return law


def _random_mixed_circuit(rng, width, length):
    """H anywhere (also twice in a row), mixed-polarity controls, resets."""
    c = Circuit(width)
    for _ in range(length):
        roll = rng.random()
        target = rng.randrange(width)
        if roll < 0.15:
            c.h(target)
        elif roll < 0.2:
            c.h(target).h(target)
        elif roll < 0.35:
            c.reset(target)
        else:
            others = [qb for qb in range(width) if qb != target]
            wires = rng.sample(others, rng.randint(0, min(4, len(others))))
            c.controlled_x([Control(qb, rng.random() < 0.5) for qb in wires], target)
    return c


def test_matches_dense_reference_on_random_circuits():
    rng = random.Random(2105)
    for case in range(60):
        c = _random_mixed_circuit(rng, rng.randint(1, 10), rng.randint(1, 40))
        expected = dense_trajectory(c, case)
        # The reset probability is summed over the support instead of the
        # dense vector, so amplitudes may differ in the last bits.
        assert np.allclose(amplitudes(c, seed=case), expected, rtol=0, atol=1e-12)
        assert sample_shots(c, 16, seed=case) == dense_sample(c, 16, case)
        # One shot follows run's trajectory and reads an index of its support.
        (record,) = sample_shots(c, 1, seed=case)
        support = run(c, seed=case).indices.tolist()
        assert record.bitstring in {_key(c, idx) for idx in support}


def test_matches_dense_reference_with_many_live_trajectories():
    # Enough shots that most resets split, so many trajectories are live at
    # once and every op runs over all of their supports together.
    rng = random.Random(4242)
    for case in range(30):
        c = _random_mixed_circuit(rng, rng.randint(3, 10), rng.randint(20, 60))
        for shots in (256, 1024):
            assert sample_shots(c, shots, seed=case) == dense_sample(c, shots, case)


def test_h_after_a_split_acts_within_each_trajectory():
    # After the reset, one trajectory holds |00> and the other |01>: an H
    # on q0 must not pair the two, which a merge keyed by index alone would.
    c = Circuit(2).h(0).cx(0, 1).reset(1).h(0).h(0)
    assert {r.bitstring for r in sample_shots(c, 4000, seed=3)} == {"00", "01"}
    for seed in range(8):
        state = run(c, seed=seed)
        assert len(state.indices) == 1 and state.indices[0] in (0b00, 0b01)
        assert state.amplitudes[0] == pytest.approx(1.0)


def test_a_reset_its_support_agrees_on_takes_no_draw():
    # Some of this pipeline's certain resets sum p1 to just under 1 in
    # floats; a draw there would give shots to a branch of probability
    # about 1e-16 once the shot count is large enough.
    pipe = build_pipeline(SAMPLE_4X4, ThresholdConfig.with_default_levels(3, (2, 4)))
    shots = 2**63 - 1
    records = sample_shots(pipe, shots, seed=0)
    assert sum(r.count for r in records) == shots
    assert {r.bitstring for r in records} == set(run_tracked(pipe).readout_distribution())


def test_matches_dense_reference_on_pipelines():
    small = ImageGray(1, 2, (3, 0, 2, 1))
    cases = [
        (SAMPLE_4X4, ThresholdConfig.with_default_levels(3, (2, 4)), 64),
        (small, ThresholdConfig.with_default_levels(2, (1, 3)), 256),
    ]
    for image, config, shots in cases:
        pipe = build_pipeline(image, config)
        expected = dense_trajectory(pipe, 0)
        assert np.array_equal(amplitudes(pipe, seed=0), expected)
        assert sample_shots(pipe, shots, seed=0) == dense_sample(pipe, shots, 0)


def test_tree_law_matches_tracked_readout_on_random_pipelines():
    rng = random.Random(1307)
    for _ in range(12):
        q, n = rng.randint(1, 3), rng.randint(0, 1)
        top = (1 << q) - 1
        thresholds = sorted(rng.sample(range(1, top + 1), rng.randint(1, min(2, top))))
        levels = [rng.randint(0, top)] + [rng.randint(t, top) for t in thresholds]
        config = ThresholdConfig(q, tuple(thresholds), tuple(levels))
        image = ImageGray(n, q, tuple(rng.randint(0, top) for _ in range(4**n)))
        pipe = build_pipeline(image, config)
        exact = run_tracked(pipe).readout_distribution()
        law = dense_law(pipe)
        assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)
        for key in set(exact) | set(law):
            assert abs(law.get(key, 0.0) - float(exact.get(key, 0))) < 1e-12, key


def test_sampling_is_not_capped_at_the_dense_width():
    records = sample_shots(Circuit(40).x(39), 8, seed=0)
    assert records == [ShotRecord("1" + "0" * 39, 8, 1.0)]
    with pytest.raises(ValueError, match="62-qubit"):
        sample_shots(Circuit(63), 8, seed=0)
    assert run(Circuit(40).x(39), seed=0).indices.tolist() == [1 << 39]
    with pytest.raises(ValueError, match="62-qubit"):
        run(Circuit(63), seed=0)
