"""The Vidal-form matrix-product state against the dense reduced-mode path
and against the mixed-canonical MPS it replaced.

Unit tests drive :class:`MPS`, the dense ``QuantumState`` and the former
dense free functions in ``oracles.py`` with the same operations; the runner
tests compare reduced-mode reports with the dense replay in ``oracles.py``
(the path the MPS replaced) to 1e-12.  Runs whose pulses fold frozen
neighbours and update a window at once are compared with the all-3-site,
one-pulse-at-a-time path of the former mixed-canonical MPS
(``oracles.CanonicalMPS`` with ``oracles.unfolded_apply_layer``), a
Hypothesis test drives both MPS forms through the same random unitaries,
resets and injects, and an SVD spy counts the matrices split.  Swap triples
run as one layer of pairs are compared with the same runs window by window.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import chain_for, mps_vector, random_qubit_amplitudes
from oracles import (
    CanonicalMPS,
    apply_local_unitary,
    dense_reduced_bits,
    dense_reduced_replay,
    dense_reduced_wire,
    project_inject,
    reduced_state,
    unfolded_apply_layer,
)
import swapchannel.runner as runner
from swapchannel import (
    EntanglementError,
    PulseEvent,
    PulseSchedule,
    Window,
    classical_channel_schedule,
    quantum_channel_schedule,
    run_classical_channel,
    run_quantum_channel,
    snapped_hold_bias,
    solve_parameters,
)
from swapchannel.chain import wrap_phase
from swapchannel.evolve import INJECT_PURITY_TOL, QuantumState, sample_trajectory
from swapchannel.gates import _block_operator, reduced_pulse_operator
from swapchannel.mps import MPS

SNAP_EPS = 25000.0
RECORD_FIELDS = (
    "fidelity_raw",
    "fidelity_corrected",
    "phase_error_raw",
    "phase_error_corrected",
    "purity_raw",
    "purity_corrected",
)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_op(state, op, first):
    """``op``, a ``2^k x 2^k`` unitary in chain ordering, on the ``k`` adjacent
    qubits from ``first``, in place, by the call it stands for: one stacked
    ``MPS._update``, the oracle ``CanonicalMPS``'s own ``apply``, or a dense
    factor replaced by the oracle's local einsum."""
    if isinstance(state, MPS):
        state._update([op], [first])
    elif isinstance(state, CanonicalMPS):
        state.apply(op, first)
    else:
        state._store(apply_local_unitary(state, op, first).data)


def _live_at(state, qubits):
    """``state``, each of ``qubits`` turned by a Hadamard into a superposition
    (in place, by :func:`apply_op`), so a pulse keeps it in its block."""
    for q in qubits:
        apply_op(state, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), q)
    return state


def assert_canonical(mps):
    """Vidal form to 1e-12: every tensor a right isometry, and each bond's
    lambdas the Schmidt values of that cut (``lambda_i B_i`` is a left
    isometry up to ``lambda_(i+1)**2``), positive, descending and of unit
    norm; the ends are the bond [1] (``mps_vector`` checks the shapes)."""
    mps_vector(mps)
    for i, b in enumerate(mps.tensors):
        m = b.reshape(b.shape[0], -1)
        assert_allclose(m @ m.conj().T, np.eye(m.shape[0]), rtol=0, atol=1e-12)
        w = (mps.lambdas[i][:, None, None] * b).reshape(-1, b.shape[2])
        assert_allclose(w.conj().T @ w, np.diag(mps.lambdas[i + 1] ** 2), rtol=0, atol=1e-12)
    for lam in mps.lambdas:
        assert (lam > 0).all() and (np.diff(lam) <= 0).all()
        assert_allclose(lam @ lam, 1.0, rtol=0, atol=1e-12)


def assert_mixed_canonical(mps):
    """The oracle's form: left isometries left of the centre, right
    isometries right of it."""
    for i, a in enumerate(mps.tensors):
        if i < mps.center:
            m = a.reshape(-1, a.shape[2])
            assert_allclose(m.conj().T @ m, np.eye(m.shape[1]), rtol=0, atol=1e-12)
        elif i > mps.center:
            m = a.reshape(a.shape[0], -1)
            assert_allclose(m @ m.conj().T, np.eye(m.shape[0]), rtol=0, atol=1e-12)


class TestMPS:
    def test_ground_state(self):
        mps = MPS.ground(4)
        assert mps.n_qubits == 4
        assert mps.trace() == 1.0
        assert mps.max_bond == 1 and mps.discarded_weight == 0.0
        assert_allclose(mps_vector(mps), QuantumState.ground(4).data[:, 0])
        rho2, purity = mps.reduced_state(2)
        assert_allclose(rho2, np.diag([1.0, 0.0]))
        assert purity == 1.0
        with pytest.raises(ValueError):
            MPS.ground(0)

    @pytest.mark.parametrize("n_qubits", [True, 2.5, "2"], ids=["bool", "float", "str"])
    def test_refuses_non_integer_sizes(self, n_qubits):
        # True used to build a 1-qubit state, 2.5 to raise a TypeError
        with pytest.raises(ValueError, match=f"n_qubits must be an integer, got {n_qubits!r}"):
            MPS(n_qubits)
        with pytest.raises(ValueError, match=f"n_qubits must be an integer, got {n_qubits!r}"):
            QuantumState.ground(n_qubits)
        assert MPS(np.int64(3)).n_qubits == QuantumState.ground(np.int64(3)).n_qubits == 3

    def test_random_local_operators_match_dense(self, rng):
        n = 7
        mps, dense = MPS.ground(n), QuantumState.ground(n)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            first = int(rng.integers(0, n - k + 1))
            u = random_unitary(rng, 1 << k)
            apply_op(mps, u, first)
            dense = apply_local_unitary(dense, u, first)
            q = int(rng.integers(0, n))
            rho_m, pur_m = mps.reduced_state(q)
            rho_d, pur_d = reduced_state(dense, q)
            assert_allclose(rho_m, rho_d, rtol=0, atol=1e-12)
            assert_allclose(pur_m, pur_d, rtol=0, atol=1e-12)
            assert_canonical(mps)
        assert_allclose(mps_vector(mps), dense.data[:, 0], rtol=0, atol=1e-12)
        assert_allclose(mps.trace(), dense.trace(), rtol=0, atol=1e-12)
        # generic states fill the bonds up to min(2^i, 2^(n-i)) = 8
        assert mps.max_bond == 8
        assert mps.discarded_weight < 1e-28

    def test_ground_state_bonds(self):
        mps = MPS.ground(3)
        assert [lam.tolist() for lam in mps.lambdas] == [[1.0]] * 4
        assert_canonical(mps)

    def test_layer_order_does_not_change_the_state(self, rng, monkeypatch):
        # three pulses whose 3-site neighbourhoods are disjoint commute, so
        # the layer reads the same whatever the order of its targets; their
        # neighbours are live, so the ends' pulses span 2 sites and share one
        # stacked update
        n = 9
        ops = {0: random_unitary(rng, 4), 4: random_unitary(rng, 8), 8: random_unitary(rng, 4)}
        dense = _live_at(QuantumState.ground(n), (1, 3, 5, 7))
        for q, op in ops.items():
            dense = apply_local_unitary(dense, op, max(q - 1, 0))
        for targets in ([0, 4, 8], [8, 4, 0]):
            mps = _live_at(MPS.ground(n), (1, 3, 5, 7))
            order, widths = [], []
            update = MPS._update
            monkeypatch.setattr(MPS, "_update", lambda self, o, f: widths.append(
                sorted(f)) or update(self, o, f))
            mps.apply_layer(targets, lambda q, left, right: order.append((q, left, right)) or ops[q])
            monkeypatch.undo()
            sides = {0: (0, None), 4: (None, None), 8: (None, 0)}
            assert order == [(q, *sides[q]) for q in targets]
            assert sorted(widths) == [[0, 7], [3]]
            assert_allclose(mps_vector(mps), dense.data[:, 0], rtol=0, atol=1e-12)
            assert_canonical(mps)

    @pytest.mark.parametrize("targets, message", [
        ([1, 2], "neighbours 1 and 2 are pulsed in one layer"),
        ([2, 1], "neighbours 1 and 2 are pulsed in one layer"),
        ([1, 1], "qubit 1 is pulsed twice in one layer"),
    ])
    def test_layer_refuses_repeated_and_neighbouring_targets(self, rng, targets, message):
        # a pulse reads its neighbours' z, so the pulses of a layer commute
        # only on distinct qubits, no two of them neighbours; any other layer
        # is refused before a pulse is built, whatever its order, and the
        # (entangled) state is unchanged
        mps, built = MPS.ground(5), []
        apply_op(mps, random_unitary(rng, 8), 1)
        before = _snapshot(mps)
        with pytest.raises(ValueError, match=re.escape(message)):
            mps.apply_layer(targets, lambda q, left, right: built.append(q) or np.eye(2)[::-1])
        assert built == []
        assert _snapshot(mps) == before

    @pytest.mark.parametrize("bad, message", [
        (-1, "qubit -1 out of range for n=3"), (3, "qubit 3 out of range for n=3"),
        (True, "qubit must be an integer, got True"), (1.0, "qubit must be an integer, got 1.0"),
    ])
    def test_layer_refuses_targets_outside_the_chain(self, bad, message):
        # every target is checked before any pulse is built, so the valid
        # target listed first is not pulsed either and the state is unchanged
        mps, built = MPS.ground(3), []
        before = _snapshot(mps)
        with pytest.raises(ValueError, match=re.escape(message)):
            mps.apply_layer([0, bad], lambda q, left, right: built.append(q) or np.eye(2)[::-1])
        assert built == []
        assert _snapshot(mps) == before

    @pytest.mark.parametrize("middle, message", [
        (np.eye(4), "block [3, 4) needs a 2 x 2 operator, got (4, 4)"),
        (np.eye(2)[None], "block [3, 4) needs a 2 x 2 operator, got (1, 2, 2)"),
        (np.eye(2)[0], "block [3, 4) needs a 2 x 2 operator, got (2,)"),
    ])
    def test_layer_checks_every_block_before_its_run_updates(self, monkeypatch, middle, message):
        # the three 1-site blocks make one layer (every neighbour frozen in
        # |0>); the middle one's operator has the wrong size and is refused
        # before any of them is applied
        mps, updates = MPS.ground(7), []
        monkeypatch.setattr(MPS, "_update", lambda self, o, f: updates.append(f))
        before = _snapshot(mps)
        ops = {0: np.eye(2)[::-1], 3: middle, 6: np.eye(2)[::-1]}
        with pytest.raises(ValueError, match=re.escape(message)):
            mps.apply_layer([0, 3, 6], lambda q, left, right: ops[q])
        assert updates == []
        assert _snapshot(mps) == before

    @pytest.mark.parametrize("q", range(5))
    def test_layer_places_the_reduced_pulse_block(self, design, rng, monkeypatch, q):
        # each neighbour of q frozen in |0> (+1) or |1> (-1) or live: the
        # callback's operator, from the cached core the runner calls, is the
        # public reduced pulse's, and apply_layer puts it on that pulse's
        # first qubit, past a chain end too
        n, x = 5, np.eye(2)[::-1]
        spec = chain_for(design, n, eps_high=SNAP_EPS)
        bias, t = float(rng.uniform(-60.0, 60.0)), design.t_ns
        neighbours = [p for p in (q - 1, q + 1) if 0 <= p < n]
        update = MPS._update
        for zs in np.ndindex(*(3,) * len(neighbours)):
            z = {p: (1, -1, None)[i] for p, i in zip(neighbours, zs)}
            mps = MPS.ground(n)
            for p, zp in z.items():
                if zp is None:
                    _live_at(mps, (p,))
                elif zp == -1:
                    apply_op(mps, x, p)
            dense = QuantumState(mps_vector(mps)[:, None])
            updates = []
            monkeypatch.setattr(MPS, "_update", lambda self, o, f: updates.append((o, f))
                                or update(self, o, f))
            mps.apply_layer([q], lambda _, left, right: _block_operator(
                spec.delta_mhz, spec.xi_mhz, bias, t, left, right))
            monkeypatch.undo()
            op, first = reduced_pulse_operator(spec, q, bias, t, z.get(q - 1), z.get(q + 1))
            assert op.shape[0] == 2 << sum(zp is None for zp in z.values())
            ((ops, firsts),) = updates
            assert list(firsts) == [first] and ops[0].tobytes() == op.tobytes()
            apply_op(dense, op, first)
            assert_allclose(mps_vector(mps), dense.data[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("firsts, width, live, size, message", [
        ([2], 1, (1,), 2, "block [1, 3) needs a 4 x 4 operator, got (2, 2)"),
        ([0, 3], 1, (1,), 8, "block [0, 2) needs a 4 x 4 operator, got (8, 8)"),
        ([0, 3], 2, (), 16, "block [0, 2) needs a 4 x 4 operator, got (16, 16)"),
        ([3], 2, (2,), 4, "block [2, 5) needs a 8 x 8 operator, got (4, 4)"),
    ], ids=["live-left", "chain-end", "run-at-chain-end", "run-live-left"])
    def test_layer_refuses_an_operator_of_the_wrong_size(self, rng, monkeypatch, firsts, width,
                                                         live, size, message):
        # the block is the run and its live neighbours, whatever the operator
        # would fit: one of the wrong size is refused before any update, and
        # the (entangled) state is unchanged
        mps = _live_at(MPS.ground(8), live)
        apply_op(mps, random_unitary(rng, 4), 6)
        before, updates = _snapshot(mps), []
        monkeypatch.setattr(MPS, "_update", lambda self, o, f: updates.append(f))
        with pytest.raises(ValueError, match=re.escape(message)):
            mps.apply_layer(firsts, lambda q, left, right: np.eye(size), width)
        assert updates == []
        assert _snapshot(mps) == before

    def test_a_refused_layer_drops_no_slice(self):
        # qubit 1 is frozen in |0> with a 1e-16 round-off slice: the layer is
        # refused before that slice is dropped, so the state is unchanged
        mps = MPS.ground(4)
        mps.tensors[1] = np.array([[[1.0], [1e-16]]], dtype=complex)
        before = _snapshot(mps)
        with pytest.raises(ValueError, match=re.escape(
                "block [2, 3) needs a 2 x 2 operator, got (4, 4)")):
            mps.apply_layer([2], lambda q, left, right: np.eye(4))
        assert _snapshot(mps) == before and mps.discarded_weight == 0.0
        mps.apply_layer([2], lambda q, left, right: np.eye(2))
        assert mps.discarded_weight == 1e-16**2 and not mps.tensors[1][:, 1].any()

    def test_blocks_over_unequal_bonds_update_apart(self, rng, monkeypatch):
        # blocks of one width whose bonds differ are grouped apart, so each
        # stacked update covers tensors of one shape
        n = 10
        mps, dense = MPS.ground(n), QuantumState.ground(n)
        for first in (0, 1, 2, 6):  # bonds 1-4 grow to 2, 4, 4, 2 and bond 7 to 2
            u = random_unitary(rng, 8 if first < 6 else 4)
            apply_op(mps, u, first)
            dense = apply_local_unitary(dense, u, first)
        mps, dense = _live_at(mps, (9,)), _live_at(dense, (9,))  # every neighbour live
        ops = {q: random_unitary(rng, 8) for q in (2, 5, 8)}
        groups, sides, update = [], [], MPS._update
        monkeypatch.setattr(MPS, "_update", lambda self, o, f: groups.append(list(f))
                            or update(self, o, f))
        mps.apply_layer(list(ops), lambda q, left, right: sides.append((left, right)) or ops[q])
        monkeypatch.undo()
        assert sides == [(None, None)] * 3
        assert groups == [[1], [4], [7]]
        for q, op in ops.items():
            dense = apply_local_unitary(dense, op, q - 1)
        assert_allclose(mps_vector(mps), dense.data[:, 0], rtol=0, atol=1e-12)
        assert_canonical(mps)
        assert mps.discarded_weight < 1e-28

    def test_inject_matches_dense_on_a_slightly_entangled_qubit(self, rng):
        # A weak entangler leaves qubit 2 with purity just below 1, so the
        # projection and renormalisation both matter.  The dense reference is
        # the projecting inject (the package's dense inject mixes instead).
        n = 5
        weak = np.diag(np.exp(1j * np.array([0.0, 0.0, 0.0, 0.02])))
        mps, dense = MPS.ground(n), QuantumState.ground(n)
        for q in range(n):
            u = random_unitary(rng, 2)
            apply_op(mps, u, q)
            dense = apply_local_unitary(dense, u, q)
        for first in (1, 2):
            apply_op(mps, weak, first)
            dense = apply_local_unitary(dense, weak, first)
        purity = reduced_state(dense, 2)[1]
        assert 1.0 - 1e-3 < purity < 1.0 - 1e-8
        amps = np.array(random_qubit_amplitudes(rng))
        mps.inject(2, amps)
        dense = project_inject(dense, 2, amps, purity_tol=1e-3)
        assert_allclose(mps_vector(mps), dense.data[:, 0], rtol=0, atol=1e-12)
        assert_allclose(mps.trace(), 1.0, rtol=0, atol=1e-12)
        assert_canonical(mps)

    def test_inject_refuses_an_entangled_qubit_and_keeps_the_state(self):
        n = 4
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        mps, dense = MPS.ground(n), QuantumState.ground(n)
        for op, first in ((hadamard, 1), (cnot, 1)):  # Bell pair on qubits 1, 2
            apply_op(mps, op, first)
            apply_op(dense, op, first)
        before = mps_vector(mps)
        with pytest.raises(EntanglementError, match="qubit 2"):
            mps.inject(2, (1.0, 0.0))
        with pytest.raises(EntanglementError, match="qubit 2"):
            dense.inject(2, (1.0, 0.0))
        assert_allclose(mps_vector(mps), before, atol=1e-14)

    def test_rejects_bad_input(self):
        mps = MPS.ground(3)
        with pytest.raises(ValueError):
            mps.reduced_state(3)
        with pytest.raises(ValueError):
            mps.inject(0, (1.0, 1.0))
        with pytest.raises(ValueError):
            mps.inject(0, (1.0, 0.0, 0.0))


def _snapshot(state):
    """Everything a state holds, as bytes: the tensors, bonds and counters of
    an MPS (the centre of the oracle's), the factor of a dense state."""
    if isinstance(state, (MPS, CanonicalMPS)):
        bonds = [a.tobytes() for a in getattr(state, "lambdas", [])] or state.center
        tensors = [(t.shape, t.tobytes()) for t in state.tensors]
        return tensors, bonds, state.max_bond, state.discarded_weight
    return state.data.tobytes()


class TestStateProtocol:
    """``QuantumState`` and ``MPS`` answer the same method calls the same way."""

    @pytest.mark.parametrize("ground", [QuantumState.ground, MPS.ground], ids=["dense", "mps"])
    @pytest.mark.parametrize("amplitudes", [[np.nan, 0.0], [1.0, np.nan * 1j]],
                             ids=["nan", "nan-imaginary"])
    def test_inject_refuses_non_finite_amplitudes_and_keeps_the_state(self, ground, amplitudes):
        state = ground(3)
        before = _snapshot(state)
        with pytest.raises(ValueError, match="finite"):
            state.inject(1, amplitudes)
        assert _snapshot(state) == before

    @pytest.mark.parametrize(
        "ground, method, args, message",
        [
            pytest.param(ground, method, args, message, id=f"{kind}-{method}-{args[0]!r}")
            for kind, ground in (("dense", QuantumState.ground), ("mps", MPS.ground))
            for method, args, message in (
                ("reset", (True,), "qubit must be an integer, got True"),
                ("reset", (3,), "qubit 3 out of range for n=3"),
                ("inject", (True, (0.0, 1.0)), "qubit must be an integer, got True"),
                ("inject", (-1, (0.0, 1.0)), "qubit -1 out of range for n=3"),
                ("reduced_state", (2.0,), "qubit must be an integer, got 2.0"),
            )
            if hasattr(ground(1), method)
        ],
    )
    def test_qubit_arguments_are_integers_in_the_chain(self, ground, method, args, message):
        # a bool or a float is not taken as a qubit number and a negative
        # qubit does not count from the end; the state is left as it was
        state = ground(3)
        before = _snapshot(state)
        with pytest.raises(ValueError, match=re.escape(message)):
            getattr(state, method)(*args)
        assert _snapshot(state) == before

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_same_seeded_sequence(self, n):
        rng = np.random.default_rng(100 + n)
        dense, mps = QuantumState.ground(n), MPS.ground(n)
        both = (dense, mps)

        def reads_agree():
            for q in range(n):
                (rho_d, pur_d), (rho_m, pur_m) = dense.reduced_state(q), mps.reduced_state(q)
                assert_allclose(rho_m, rho_d, rtol=0, atol=1e-12)
                assert_allclose(pur_m, pur_d, rtol=0, atol=1e-12)
            assert_allclose(mps.trace(), dense.trace(), rtol=0, atol=1e-12)

        # a pair at the right end stays entangled; the qubits left of it are
        # product whenever each block operator has been undone
        pair = random_unitary(rng, 4)
        for state in both:
            apply_op(state, pair, n - 2)
        refused = 0
        for step in range(12):
            k = int(rng.integers(2, 4))
            first = int(rng.integers(0, n - k + 1))
            u = random_unitary(rng, 1 << k)
            for state in both:
                apply_op(state, u, first)
            reads_agree()
            q = int(rng.integers(first, first + k))
            if dense.reduced_state(q)[1] < 1.0 - INJECT_PURITY_TOL:
                refused += 1
                for state in both:
                    before = _snapshot(state)
                    with pytest.raises(EntanglementError, match=f"qubit {q}"):
                        state.inject(q, random_qubit_amplitudes(rng))
                    assert _snapshot(state) == before
            for state in both:
                apply_op(state, u.conj().T, first)
            reads_agree()
            q = int(rng.integers(0, n - 2))
            amps = random_qubit_amplitudes(rng)
            for state in both:
                assert (state.inject(q, amps) if step % 2 else state.reset(q)) is None
            reads_agree()
        assert refused > 0

        before = _snapshot(dense)
        h = rng.normal(size=(1 << n, 1 << n))
        sample_trajectory(dense, h + h.T, 5.0, 3)
        assert _snapshot(dense) == before


def _random_states(rng, n):
    return [np.array(random_qubit_amplitudes(rng)) for _ in range(n)]


def _random_entangling_schedule(rng, n):
    """14 windows of 1-3 random pulse targets, no two of them neighbours, at
    random biases and durations (no swap pattern), with data injected at
    qubits 0 and 4 first."""
    windows = []
    for w in range(14):
        # k sorted draws from n - k + 1 places, the i-th moved up by i: any k
        # targets at least two apart, each set as likely as any other
        k = int(rng.integers(1, 4))
        places = np.sort(rng.choice(n - k + 1, size=k, replace=False))
        targets = [int(c) + i for i, c in enumerate(places)]
        biases = [SNAP_EPS] * n
        for q in targets:
            biases[q] = float(rng.uniform(-60.0, 60.0))
        events = [PulseEvent(kind="cnot_pulse", qubit=q) for q in targets]
        if w == 0:
            events = [PulseEvent(kind="inject", qubit=q, data_index=i) for i, q in enumerate((0, 4))] + events
        windows.append(
            Window(
                start_ns=w * 12.0,  # no window is longer than 12 ns
                duration_ns=float(rng.uniform(2.0, 12.0)),
                biases_mhz=tuple(biases),
                events=tuple(events),
            )
        )
    return PulseSchedule(n_qubits=n, windows=tuple(windows))


class TestReducedRunnerAgainstDense:
    @pytest.mark.parametrize(
        "n_qubits, n_states", [(3, 1), (5, 2), (6, 3), (8, 4), (9, 2), (12, 3)]
    )
    def test_quantum_wire(self, design, rng, n_qubits, n_states):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
        states = _random_states(rng, n_states)
        report = run_quantum_channel(spec, sch, states, mode="reduced")
        expected, final = dense_reduced_wire(spec, sch, states)
        # the L - 1 swaps of each state leave Z^(L - 1), which the corrected column undoes
        framed, _ = dense_reduced_wire(spec, sch, states, z_power=(n_qubits - 1) % 2)
        assert len(report.records) == len(expected) == len(framed) == n_states
        for rec, (idx, w, fid, phase, purity), (*_, fid_c, phase_c, purity_c) in zip(
            report.records, expected, framed
        ):
            assert (rec.data_index, rec.window_index) == (idx, w)
            want = dict(
                fidelity_raw=fid,
                fidelity_corrected=fid_c,
                phase_error_raw=phase,
                phase_error_corrected=phase_c,
                purity_raw=purity,
                purity_corrected=purity_c,
            )
            for field in RECORD_FIELDS:
                got = getattr(rec, field)
                if field.startswith("phase"):
                    # an even wire leaves a phase of pi, where rounding picks the sign
                    got, want[field] = wrap_phase(got - want[field]), 0.0
                assert_allclose(got, want[field], rtol=0, atol=1e-12, err_msg=field)
        assert_allclose(report.final_trace, final.trace(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_qubits", [4, 6, 8, 10])
    def test_classical_wire(self, design, rng, n_qubits):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        bits = [int(b) for b in rng.integers(0, 2, 5)]
        sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
        report = run_classical_channel(spec, sch, bits, mode="reduced")
        expected = dense_reduced_bits(spec, sch, bits)
        assert report.bits_out == tuple(bits)
        assert [(r.data_index, r.window_index) for r in report.records] == [
            (i, w) for i, w, _ in expected
        ]
        assert_allclose([r.p_one for r in report.records], [p for *_, p in expected], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_schedules_grow_the_bonds(self, design, mps_spy, seed):
        # Random pulse targets and biases are no swap pattern: entanglement
        # spreads, the bonds grow past 2, and only round-off is truncated.
        rng = np.random.default_rng(seed)
        n = 8
        spec = chain_for(design, n, eps_high=SNAP_EPS)
        sch = _random_entangling_schedule(rng, n)
        states = _random_states(rng, 2)
        report = run_quantum_channel(spec, sch, states, mode="reduced")
        final = dense_reduced_replay(
            spec, sch, lambda i: states[i], None, inject_tol=1e-3, read_tol=1e-6
        )
        (mps,) = mps_spy
        assert mps.max_bond > 2
        assert mps.discarded_weight < 1e-28
        assert_allclose(mps_vector(mps), final.data[:, 0], rtol=0, atol=1e-12)
        assert_allclose(report.final_trace, final.trace(), rtol=0, atol=1e-12)

    def test_pulses_around_a_live_neighbour(self, design, rng, mps_spy, monkeypatch):
        # qubits 1 and 3 are pulsed in one window around qubit 2, which holds
        # a superposition: their blocks share it, so they commute but update
        # apart, and the run reads as the dense path does; each window reads
        # its neighbours in one pass
        n = 5
        spec = chain_for(design, n, eps_high=SNAP_EPS)
        windows = []
        for w, targets in enumerate([(1, 3), (2,), (1, 3), (0, 2, 4), (1, 3)]):
            biases = [SNAP_EPS] * n
            for q in targets:
                biases[q] = float(rng.uniform(-60.0, 60.0))
            events = [PulseEvent(kind="cnot_pulse", qubit=q) for q in targets]
            if w == 0:
                events.insert(0, PulseEvent(kind="inject", qubit=2, data_index=0))
            windows.append(Window(w * 10.0, design.t_ns, tuple(biases), tuple(events)))
        sch = PulseSchedule(n, tuple(windows))
        states = _random_states(rng, 1)
        updates, update, reads, read = [], MPS._update, [], MPS._basis_values
        monkeypatch.setattr(MPS, "_update", lambda self, o, f: updates.append(list(f))
                            or update(self, o, f))
        monkeypatch.setattr(MPS, "_basis_values", lambda self, q: reads.append(list(q))
                            or read(self, q))
        report = run_quantum_channel(spec, sch, states, mode="reduced")
        assert reads == [[0, 2, 4], [1, 3], [0, 2, 4], [1, 3], [0, 2, 4]]
        final = dense_reduced_replay(
            spec, sch, lambda i: states[i], None, inject_tol=1e-3, read_tol=1e-6
        )
        assert updates[:2] == [[1], [2]]  # the first window's blocks [1, 2] and [2, 3]
        (mps,) = mps_spy
        assert mps.max_bond == 4 and mps.discarded_weight < 1e-28
        assert_allclose(mps_vector(mps), final.data[:, 0], rtol=0, atol=1e-12)
        assert_allclose(report.final_trace, final.trace(), rtol=0, atol=1e-12)

    def test_inject_into_entangled_qubit_raises_like_dense(self, design):
        # Qubit 1 copies qubit 0's superposition and so is entangled with it
        # when the second state is injected there.
        spec = chain_for(design, 4, eps_high=SNAP_EPS)
        t = design.t_ns
        biases = [SNAP_EPS] * 4
        biases[1] = 0.0
        sch = PulseSchedule(
            n_qubits=4,
            windows=(
                Window(
                    start_ns=0.0,
                    duration_ns=t,
                    biases_mhz=tuple(biases),
                    events=(
                        PulseEvent(kind="inject", qubit=0, data_index=0),
                        PulseEvent(kind="cnot_pulse", qubit=1),
                    ),
                ),
                Window(
                    start_ns=t,
                    duration_ns=t,
                    biases_mhz=(SNAP_EPS,) * 4,
                    events=(PulseEvent(kind="inject", qubit=1, data_index=1),),
                ),
            ),
        )
        states = [np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, 0.0])]
        with pytest.raises(EntanglementError, match="qubit 1"):
            run_quantum_channel(spec, sch, states, mode="reduced")
        with pytest.raises(EntanglementError, match="qubit 1"):
            dense_reduced_wire(spec, sch, states)


def _run_on(run, base=MPS, layer=None, *, fused=True):
    """``(result, state)`` of ``run()`` with the runner's MPS class ``base``
    (its ``apply_layer`` replaced by ``layer`` if given); with ``fused``
    False, every swap triple of the replay runs window by window."""
    created = []

    class Spy(base):
        apply_layer = layer or base.apply_layer

        def __init__(self, n_qubits):
            super().__init__(n_qubits)
            created.append(self)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(runner, "MPS", Spy)
        if not fused:  # the runner is not told the replay's swap triples
            execute = runner._execute
            m.setattr(runner, "_execute", lambda *args, replay=None, **kwargs: execute(*args, **kwargs))
        return run(), created[-1]


def _both_paths(run):
    """``(result, MPS)`` of ``run()`` on the Vidal-form MPS, which folds
    frozen neighbours and updates a window at once, then on the path it
    replaced: the mixed-canonical oracle pulsing every full 3-site block in
    turn (``oracles.CanonicalMPS`` with ``oracles.unfolded_apply_layer``).
    Both run swap triples window by window; ``TestSwapTriples`` compares
    the fused triples with that path."""
    return [_run_on(run, fused=False),
            _run_on(run, CanonicalMPS, unfolded_apply_layer, fused=False)]


def _assert_same_run(folded, unfolded):
    """Equal reads to 1e-12, equal largest bond, only round-off discarded."""
    (got, mps), (want, oracle) = folded, unfolded
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert (a.data_index, a.window_index) == (b.data_index, b.window_index)
        for field in RECORD_FIELDS:
            x, y = getattr(a, field), getattr(b, field)
            if field.startswith("phase"):
                x, y = wrap_phase(x - y), 0.0
            assert_allclose(x, y, rtol=0, atol=1e-12, err_msg=field)
    assert_allclose(got.final_trace, want.final_trace, rtol=0, atol=1e-12)
    assert mps.max_bond == oracle.max_bond
    assert mps.discarded_weight < 1e-28 and oracle.discarded_weight < 1e-28


def _svd_calls(monkeypatch) -> list:
    """The number of matrices each ``np.linalg.svd`` call splits: a stacked
    call counts every matrix of its stack, a single matrix counts 1."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(
        int(np.prod(a[0].shape[:-2]))) or svd(*a, **k))
    return calls


class TestFrozenNeighbours:
    """A pulse whose neighbour is frozen in a basis state acts on 1-2 sites,
    and the runs read as the all-3-site path does."""

    def test_basis_value(self):
        n = 4
        mps = MPS.ground(n)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        apply_op(mps, x, 1)
        apply_op(mps, hadamard, 2)
        apply_op(mps, np.eye(4)[[0, 1, 3, 2]], 2)  # Bell pair on qubits 2, 3
        before = _snapshot(mps)
        assert mps._basis_values(range(n)) == ([1, -1, None, None], {})
        assert mps._basis_values([]) == ([], {})
        assert _snapshot(mps) == before  # nothing to drop, nothing changes
        # an off-basis slice at or below TRUNCATION_RTOL of the norm is frozen:
        # the read changes nothing and lists the slice once, however often the
        # qubit is listed; the drop zeroes it and counts its squared share as
        # discarded, and a read after the drop lists nothing
        for angle, want in ((1e-15, 1), (1e-13, None)):
            for qubits in ([1], [1, 1]):
                tilted = MPS.ground(2)
                rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
                apply_op(tilted, rotation, 1)
                tensor, before = tilted.tensors[1], _snapshot(tilted)
                values, drops = tilted._basis_values(qubits)
                assert values == [want] * len(qubits) and _snapshot(tilted) == before
                assert drops.keys() == ({1} if want else set())
                tilted._drop(drops)
                assert tilted.discarded_weight == (np.sin(angle) ** 2 if want else 0.0)
                assert (tilted.tensors[1][:, 1] == 0).all() == (want is not None)
                assert tilted.tensors[1] is tensor  # the slice is zeroed in place
                assert tilted._basis_values(qubits) == ([want] * len(qubits), {})

    def test_basis_values_read_through_entangled_bonds(self):
        # qubit 1 is |1> between the halves of a Bell pair on qubits 0 and 2,
        # so both its bonds have dimension 2 and it is still frozen
        mps = MPS.ground(3)
        apply_op(mps, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), 0)
        fan = np.zeros((8, 8))  # |a, b, c> -> |a, 1 - b, c xor a>
        for a, b, c in np.ndindex(2, 2, 2):
            fan[4 * a + 2 * (1 - b) + (c ^ a), 4 * a + 2 * b + c] = 1.0
        apply_op(mps, fan, 0)
        assert [lam.size for lam in mps.lambdas] == [1, 2, 2, 1]
        assert mps._basis_values([0, 1, 2]) == ([None, -1, None], {})
        assert_canonical(mps)

    @pytest.mark.parametrize("n_qubits", range(3, 17))
    def test_designed_quantum_wires(self, design, rng, n_qubits):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        for n_states in range(1, 5):
            sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
            states = _random_states(rng, n_states)
            _assert_same_run(*_both_paths(
                lambda: run_quantum_channel(spec, sch, states, mode="reduced")))

    @pytest.mark.parametrize("n_qubits", [4, 8, 10, 16])
    def test_classical_wires(self, design, rng, n_qubits):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        bits = [int(b) for b in rng.integers(0, 2, 8)]
        sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
        (got, mps), (want, oracle) = _both_paths(
            lambda: run_classical_channel(spec, sch, bits, mode="reduced"))
        assert got.bits_out == want.bits_out == tuple(bits)
        assert_allclose([r.p_one for r in got.records], [r.p_one for r in want.records],
                        rtol=0, atol=1e-12)
        assert mps.max_bond == oracle.max_bond == 1
        assert mps.discarded_weight < 1e-28 and oracle.discarded_weight < 1e-28

    def test_a_frozen_residue_is_dropped_once(self, design, mps_spy):
        # each fold drops its neighbour's round-off slice; were the slice
        # kept, every later fold would count it again (1.7e-26 here)
        spec = chain_for(design, 64, eps_high=SNAP_EPS)
        bits = [1, 0, 1, 1, 0, 0, 1, 0] * 2
        sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
        assert run_classical_channel(spec, sch, bits, mode="reduced").ok
        (mps,) = mps_spy
        assert 0.0 < mps.discarded_weight < 1e-28

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_entangling_schedules(self, seed):
        rng = np.random.default_rng(seed)
        design = solve_parameters(10.0, m=1, n=0)
        spec = chain_for(design, 8, eps_high=SNAP_EPS)
        sch = _random_entangling_schedule(rng, 8)
        states = _random_states(rng, 2)
        _assert_same_run(*_both_paths(
            lambda: run_quantum_channel(spec, sch, states, mode="reduced")))

    def test_classical_wire_makes_no_svd(self, design, monkeypatch):
        # every site stays a basis state, so every pulse is 1-site and every
        # bond 1, and a product cut needs no SVD
        spec = chain_for(design, 16, eps_high=SNAP_EPS)
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
        calls = _svd_calls(monkeypatch)
        assert run_classical_channel(spec, sch, bits, mode="reduced").ok
        assert calls == []

    @pytest.mark.parametrize("n_qubits, n_states", [(15, 4), (16, 2)])
    def test_quantum_wire_svd_per_pulse(self, design, rng, monkeypatch, n_qubits, n_states):
        # the all-3-site path splits every pulse with two SVDs
        spec = chain_for(design, n_qubits, eps_high=snapped_hold_bias(design.delta_mhz, design.t_ns))
        sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
        calls = _svd_calls(monkeypatch)
        report = run_quantum_channel(spec, sch, _random_states(rng, n_states), mode="reduced")
        assert_allclose(report.min_fidelity_corrected, 1.0, rtol=0, atol=1e-12)
        assert 0 < sum(calls) <= 0.75 * sch.pulse_count

    @pytest.mark.parametrize("n_qubits, n_states", [(15, 4), (16, 2), (64, 4)])
    def test_quantum_wire_svd_calls_per_window(self, design, rng, monkeypatch, n_qubits, n_states):
        # a window's 2-site blocks are split by one stacked call, however
        # many there are: no designed window has a 3-site block (two calls)
        # or 2-site blocks over tensors of different shapes
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
        calls = _svd_calls(monkeypatch)
        report = run_quantum_channel(spec, sch, _random_states(rng, n_states), mode="reduced")
        assert_allclose(report.min_fidelity_corrected, 1.0, rtol=0, atol=1e-12)
        assert 0 < len(calls) <= sch.n_windows
        assert sum(calls) > len(calls)  # some calls split several blocks at once


def _triple_schedule(rng, n, windows, t_ns):
    """A hand-built schedule: one window per ``(targets, injects)`` of
    ``windows``, each target at a random bias near resonance and each window
    at a random duration near ``t_ns``, the others parked at ``SNAP_EPS``;
    ``injects`` are ``(qubit, data_index)``."""
    rows, start = [], 0.0
    for targets, injects in windows:
        biases = [SNAP_EPS] * n
        for q in targets:
            biases[q] = float(rng.uniform(-60.0, 60.0))
        events = [PulseEvent(kind="inject", qubit=q, data_index=d) for q, d in injects]
        events += [PulseEvent(kind="cnot_pulse", qubit=q) for q in targets]
        duration = float(rng.uniform(0.8, 1.2) * t_ns)
        rows.append(Window(start, duration, tuple(biases), tuple(events)))
        start += duration
    return PulseSchedule(n, tuple(rows))


def _assert_fused_run(fused, plain, atol=1e-12):
    """Equal reads and final trace to ``atol``; the fused triples keep every
    bond at 1 and discard only round-off."""
    (got, mps), (want, window_by_window) = fused, plain
    assert [(r.data_index, r.window_index) for r in got.records] == [
        (r.data_index, r.window_index) for r in want.records]
    for a, b in zip(got.records, want.records):
        for field in RECORD_FIELDS:
            x, y = getattr(a, field), getattr(b, field)
            if field.startswith("phase"):
                x, y = wrap_phase(x - y), 0.0
            assert_allclose(x, y, rtol=0, atol=atol, err_msg=field)
    assert_allclose(got.final_trace, want.final_trace, rtol=0, atol=atol)
    assert mps.max_bond == 1
    assert mps.discarded_weight < 1e-28 and window_by_window.discarded_weight < 1e-28


class TestSwapTriples:
    """Reduced mode runs each swap triple the replay finds as one layer of
    pair blocks, and reads as the window-by-window path does."""

    @pytest.mark.parametrize("n_qubits, states", [(n, (1, 2, 3, 4)) for n in range(3, 17)]
                             + [(64, (8,)), (201, (50,))])
    def test_designed_quantum_wires(self, design, rng, n_qubits, states):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        for n_states in states:
            sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
            data = _random_states(rng, n_states)

            def run():
                return run_quantum_channel(spec, sch, data, mode="reduced")

            fused, plain = _run_on(run), _run_on(run, fused=False)
            _assert_fused_run(fused, plain)
            assert plain[1].max_bond == 2  # the entangled middle of each swap

    @pytest.mark.parametrize("windows, flagged", [
        # data at qubit 0, the outer neighbour of pair (1, 2)
        ([((1,), [(0, 0)]), ((2,), []), ((1,), [])], "outer neighbour 0 of pair (1,2) holds data 0"),
        # pairs (0, 1) and (2, 3) touch: each is the other's outer neighbour
        ([((0, 2), [(1, 0)]), ((1, 3), []), ((0, 2), [])], "outer neighbour 2 of pair (0,1) is pulsed"),
    ])
    def test_unparked_triples_run_window_by_window(self, design, rng, monkeypatch, windows, flagged):
        n = 6
        spec = chain_for(design, n, eps_high=SNAP_EPS)
        sch = _triple_schedule(rng, n, windows, design.t_ns)
        assert [w for w, _ in sch.replay.swaps] == [0]
        assert flagged in [v.message for v in sch.replay.violations]
        data = _random_states(rng, 1)
        layers, apply_layer = [], MPS.apply_layer
        monkeypatch.setattr(MPS, "apply_layer", lambda self, firsts, pulse, width=1: layers.append(
            (list(firsts), width)) or apply_layer(self, firsts, pulse, width))

        def run():
            return run_quantum_channel(spec, sch, data, mode="reduced")

        (got, mps), (want, plain) = _run_on(run), _run_on(run, fused=False)
        assert layers == [(list(targets), 1) for targets, _ in windows] * 2
        assert _snapshot(mps) == _snapshot(plain)
        final = dense_reduced_replay(spec, sch, lambda i: data[i], None,
                                     inject_tol=1e-3, read_tol=1e-6)
        assert_allclose(mps_vector(mps), final.data[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("windows, pair, sides", [
        # qubits 1 and 4 around pair (2, 3): one 16 x 16 block
        ([((1, 4), []), ((2,), [(2, 0)]), ((3,), []), ((2,), [])], (2, 3), (None, None)),
        # qubit 2 right of pair (0, 1) at the chain end: one 8 x 8 block
        ([((2,), []), ((0,), [(0, 0)]), ((1,), []), ((0,), [])], (0, 1), (0, None)),
        # qubit 1 left of pair (2, 3), its right qubit pulsed first
        ([((1,), []), ((3,), [(3, 0)]), ((2,), []), ((3,), [])], (2, 3), (None, 1)),
    ])
    def test_hand_built_triple_around_live_neighbours(self, design, rng, monkeypatch,
                                                       windows, pair, sides):
        # an off-design first window leaves a parked qubit in a superposition
        # the replay reads as |0>; the triple next to it is one block,
        # diagonal in it, at each window's own bias and duration
        n = 6
        spec = chain_for(design, n, eps_high=SNAP_EPS)
        sch = _triple_schedule(rng, n, windows, design.t_ns)
        assert sch.replay.ok and sch.replay.swaps == ((1, (pair[0],)),)
        data = _random_states(rng, 1)
        seen, swap_pulse = [], runner._swap_pulse
        monkeypatch.setattr(runner, "_swap_pulse", lambda spec, a, a_first, windows, left, right:
                            seen.append((a, left, right)) or swap_pulse(
                                spec, a, a_first, windows, left, right))

        def run():
            return run_quantum_channel(spec, sch, data, mode="reduced")

        (_, mps), (_, plain) = _run_on(run), _run_on(run, fused=False)
        assert seen == [(pair[0], *sides)]
        final = dense_reduced_replay(spec, sch, lambda i: data[i], None,
                                     inject_tol=1e-3, read_tol=1e-6)
        for state in (mps, plain):
            assert_allclose(mps_vector(state), final.data[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_qubits, n_states", [(15, 4), (16, 2)])
    def test_one_stacked_svd_per_triple(self, design, rng, monkeypatch, n_qubits, n_states):
        # each triple's pairs are 2-site blocks over bonds of dimension 1,
        # split by one stacked call: 41 calls of 86 matrices over both wires
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
        calls = _svd_calls(monkeypatch)
        report = run_quantum_channel(spec, sch, _random_states(rng, n_states), mode="reduced")
        assert_allclose(report.min_fidelity_corrected, 1.0, rtol=0, atol=1e-12)
        assert calls == [len(firsts) for _, firsts in sch.replay.swaps]
        assert len(calls) * 3 == sch.n_windows

    @pytest.mark.parametrize("firsts, width, message", [
        ([1, 1], 2, "qubit 1 is pulsed twice in one layer"),
        ([1, 2], 2, "qubit 2 is pulsed twice in one layer"),
        ([0, 2], 2, "neighbours 1 and 2 are pulsed in one layer"),
        ([2, 0], 2, "neighbours 1 and 2 are pulsed in one layer"),
        ([4], 2, "qubit 5 out of range for n=5"),
        ([-1], 2, "qubit -1 out of range for n=5"),
        ([True], 2, "qubit must be an integer, got True"),
        ([1], 0, "width must be >= 1, got 0"),
        ([1], 2.0, "width must be an integer, got 2.0"),
    ])
    def test_layer_refuses_repeated_overlapping_and_touching_runs(self, rng, firsts, width, message):
        # runs of adjacent qubits, like single targets, are refused before a
        # pulse is built, and the (entangled) state is unchanged
        mps, built = MPS.ground(5), []
        apply_op(mps, random_unitary(rng, 8), 1)
        before = _snapshot(mps)
        with pytest.raises(ValueError, match=re.escape(message)):
            mps.apply_layer(firsts, lambda q, left, right: built.append(q) or np.eye(4), width)
        assert built == []
        assert _snapshot(mps) == before

    def test_runs_update_by_block_shape(self, rng, monkeypatch):
        # a pair's block spans the pair and both outer neighbours when they
        # are live; two such blocks with equal end tensors but unequal middle
        # bonds update apart
        n = 10
        mps, dense = _live_at(MPS.ground(n), (0, 3, 6, 9)), _live_at(QuantumState.ground(n), (0, 3, 6, 9))
        u = random_unitary(rng, 4)
        apply_op(mps, u, 1)  # bond 2 grows to 2
        dense = apply_local_unitary(dense, u, 1)
        ops = {1: random_unitary(rng, 16), 7: random_unitary(rng, 16)}
        groups, update = [], MPS._update
        monkeypatch.setattr(MPS, "_update", lambda self, o, f: groups.append(list(f))
                            or update(self, o, f))
        mps.apply_layer(list(ops), lambda q, left, right: ops[q], 2)
        monkeypatch.undo()
        assert groups == [[0], [6]]
        for q, op in ops.items():
            dense = apply_local_unitary(dense, op, q - 1)
        assert_allclose(mps_vector(mps), dense.data[:, 0], rtol=0, atol=1e-12)
        assert_canonical(mps)
        before = _snapshot(mps)
        with pytest.raises(ValueError, match=re.escape("block [0, 4) needs a 16 x 16 operator, got (4, 4)")):
            mps.apply_layer([1], lambda q, left, right: random_unitary(rng, 4), 2)
        assert _snapshot(mps) == before


class TestKeptWeights:
    """:meth:`MPS._basis_values` weighs a site from the arrays it holds at the
    read, so an array assigned from outside is read, not shadowed."""

    def test_tensor_assigned_from_outside_is_read(self):
        mps = MPS.ground(3)
        assert mps._basis_values([1])[0] == [1]
        mps.tensors[1] = np.array([[[0.0], [1.0]]], dtype=complex)
        assert mps._basis_values([1])[0] == [-1]

    @pytest.mark.parametrize("bond, z", [([1.0, 0.0], -1), ([0.0, 1.0], 1)])
    def test_left_bond_assigned_from_outside_is_read(self, bond, z):
        # 0.6|00> + 0.8|11>: qubit 1's Schmidt branches are |1> (0.8) and
        # |0> (0.6), so a left bond that weighs one branch freezes it
        mps = MPS.ground(2)
        apply_op(mps, np.eye(4)[[0, 1, 3, 2]] @ np.kron([[0.6, -0.8], [0.8, 0.6]], np.eye(2)), 0)
        assert_allclose(mps.lambdas[1], [0.8, 0.6], rtol=0, atol=1e-15)
        assert mps._basis_values([1])[0] == [None]
        mps.lambdas[1] = np.array(bond)
        assert mps._basis_values([1])[0] == [z]


class TestAgainstCanonicalOracle:
    """The Vidal form and the mixed-canonical MPS it replaced
    (``oracles.CanonicalMPS``) driven through the same operations."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
    def test_random_unitaries_resets_and_injects(self, seed, n):
        rng = np.random.default_rng(seed)
        mps, oracle = MPS.ground(n), CanonicalMPS.ground(n)
        both = (mps, oracle)
        entangled_resets = 0
        for step in range(30):
            k = int(rng.integers(1, min(n, 3) + 1))
            first = int(rng.integers(0, n - k + 1))
            u = random_unitary(rng, 1 << k)
            for state in both:
                apply_op(state, u, first)
            q = int(rng.integers(0, n))
            rho2, purity = mps.reduced_state(q)
            evals = np.linalg.eigvalsh(rho2)
            if rng.random() < 0.5:
                # the branch a reset keeps is defined only where the two local
                # eigenvalues differ; 1e-2 apart, round-off moves it by ~1e-14
                if evals[1] - evals[0] > 1e-2:
                    entangled_resets += purity < 1.0 - 1e-6
                    for state in both:
                        state.reset(q)
            elif purity < 1.0 - INJECT_PURITY_TOL:
                before = _snapshot(mps)
                for state in both:
                    with pytest.raises(EntanglementError, match=f"qubit {q}"):
                        state.inject(q, random_qubit_amplitudes(rng))
                assert _snapshot(mps) == before
            else:
                amps = random_qubit_amplitudes(rng)
                for state in both:
                    state.inject(q, amps)
            for p in range(n):
                (rho_m, pur_m), (rho_o, pur_o) = mps.reduced_state(p), oracle.reduced_state(p)
                assert_allclose(rho_m, rho_o, rtol=0, atol=1e-12)
                assert_allclose(pur_m, pur_o, rtol=0, atol=1e-12)
            assert_allclose(mps.trace(), oracle.trace(), rtol=0, atol=1e-12)
        assert_canonical(mps)
        # a projection keeps a branch whose phase eigh chooses: equal up to a global phase
        got, want = mps_vector(mps), mps_vector(oracle)
        overlap = np.vdot(want, got)
        assert_allclose(got, want * overlap / abs(overlap), rtol=0, atol=1e-12)
        assert mps.max_bond == oracle.max_bond
        assert mps.discarded_weight < 1e-28 and oracle.discarded_weight < 1e-28
        assert n < 3 or entangled_resets > 0

    def test_reset_restores_the_bonds_outward(self):
        # a GHZ state on qubits 0-3 collapses when qubit 1 is reset: every
        # bond it crossed returns to dimension 1
        n = 5
        ghz = QuantumState.ground(n)
        mps, oracle = MPS.ground(n), CanonicalMPS.ground(n)
        ops = [(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), 0)]
        ops += [(np.eye(4)[[0, 1, 3, 2]], q) for q in range(3)]
        for op, first in ops:
            for state in (mps, oracle, ghz):
                apply_op(state, op, first)
        assert [lam.size for lam in mps.lambdas] == [1, 2, 2, 2, 1, 1]
        for state in (mps, oracle):
            state.reset(1)
        assert [lam.size for lam in mps.lambdas] == [1] * (n + 1)
        assert_canonical(mps)
        assert_allclose(mps_vector(mps), mps_vector(oracle), rtol=0, atol=1e-12)
        assert mps.max_bond == oracle.max_bond == 2

    def test_layer_is_swept_from_the_end_nearer_the_centre(self, rng):
        # the oracle's own order rule: a layer of disjoint neighbourhoods is
        # swept from whichever end is nearer the centre
        n = 9
        ops = {0: random_unitary(rng, 4), 4: random_unitary(rng, 8), 8: random_unitary(rng, 4)}
        dense = _live_at(QuantumState.ground(n), (1, 3, 5, 7))
        for q, op in ops.items():
            dense = apply_local_unitary(dense, op, max(q - 1, 0))
        for centre in (0, n - 1):
            oracle = _live_at(CanonicalMPS.ground(n), (1, 3, 5, 7))
            oracle.reduced_state(centre)  # park the centre at one end
            order = []
            oracle.apply_layer(list(ops), lambda q, left, right: order.append(q) or ops[q])
            assert order == ([0, 4, 8] if centre == 0 else [8, 4, 0])
            assert_allclose(mps_vector(oracle), dense.data[:, 0], rtol=0, atol=1e-12)
            assert_mixed_canonical(oracle)
