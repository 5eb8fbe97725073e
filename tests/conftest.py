import numpy as np
import pytest

from swapchannel import ChainSpec, GateDesign, solve_parameters


@pytest.fixture()
def design() -> GateDesign:
    """Reference design point: T = 10 ns, M = 1, N = 0."""
    return solve_parameters(10.0, m=1, n=0)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


def chain_for(design: GateDesign, n_qubits: int, eps_high=None) -> ChainSpec:
    return ChainSpec(
        n_qubits=n_qubits,
        delta_mhz=design.delta_mhz,
        xi_mhz=design.xi_mhz,
        eps_high_mhz=eps_high,
    )


def random_qubit_amplitudes(rng: np.random.Generator) -> tuple[complex, complex]:
    raw = rng.normal(size=4)
    vec = np.array([raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]])
    vec /= np.linalg.norm(vec)
    return complex(vec[0]), complex(vec[1])


@pytest.fixture()
def mps_spy(monkeypatch) -> list:
    """Every MPS the runners create during the test, in creation order."""
    import swapchannel.runner as runner
    from swapchannel.mps import MPS

    created = []

    class Spy(MPS):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(runner, "MPS", Spy)
    return created


def mps_vector(mps) -> np.ndarray:
    """Contract an MPS to its 2^L amplitude vector (tests only).

    The tensors of either form contract left to right; for the Vidal form
    (one with ``lambdas``) each bond's Schmidt values must match the tensors
    on both sides, and the chain ends must be the 1-dimensional bond [1]."""
    if hasattr(mps, "lambdas"):
        lam = mps.lambdas
        assert len(lam) == len(mps.tensors) + 1
        assert lam[0].tolist() == lam[-1].tolist() == [1.0]
        for i, t in enumerate(mps.tensors):
            assert t.shape == (lam[i].size, 2, lam[i + 1].size), (i, t.shape)
    v = mps.tensors[0]
    for t in mps.tensors[1:]:
        v = v.reshape(-1, t.shape[0]) @ t.reshape(t.shape[0], -1)
    return v.reshape(-1)
