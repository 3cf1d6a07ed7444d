"""Seeded inputs for the benchmark, made with numpy only.

Nothing here imports ``nonloc``: the program receives only the arrays built
here, and the checks in ``workloads`` compare its outputs with quantities
computed from these arrays alone.
"""

from __future__ import annotations

import numpy as np

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
X, Z = PAULI[0], PAULI[2]


def item_rng(seed: int, workload_tag: int, index: int) -> np.random.Generator:
    """Generator of item ``index``; independent of how many items a run uses."""
    return np.random.default_rng([seed, workload_tag, index])


def involution(bloch) -> np.ndarray:
    """The +-1 involution n . sigma on C^2 for a Bloch direction n."""
    n = np.asarray(bloch, dtype=float)
    return np.einsum("i,ijk->jk", n / np.linalg.norm(n), PAULI)


def random_direction(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_involutions(rng: np.random.Generator) -> list[np.ndarray]:
    """Two random +-1 involutions: one side's settings."""
    return [involution(random_direction(rng)) for _ in range(2)]


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 4x4 unitary (QR of a complex Ginibre matrix, phases fixed)."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, purity: float) -> np.ndarray:
    """Random two-qubit density matrix with tr(rho^2) == purity, in a
    Haar-random basis.

    The spectrum is t * d + (1 - t) / 4 for a Dirichlet point d, with t
    solved from 1/4 + t^2 (|d|^2 - 1/4) = purity; when |d|^2 < purity the
    point d is replaced by a pure spectrum.
    """
    if not 0.25 < purity <= 1.0:
        raise ValueError(f"purity {purity} outside (1/4, 1]")
    d = rng.dirichlet(np.full(4, 0.3))
    if float(d @ d) < purity:
        d = np.eye(4)[0]
    t = np.sqrt((purity - 0.25) / (float(d @ d) - 0.25))
    spectrum = t * d + (1.0 - t) * 0.25
    u = random_unitary(rng)
    rho = (u * spectrum) @ u.conj().T
    return (rho + rho.conj().T) / 2.0


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """T[i, j] = tr(rho sigma_i (x) sigma_j) of a two-qubit state."""
    r = rho.reshape(2, 2, 2, 2)
    return np.real(np.einsum("abcd,ica,jdb->ij", r, PAULI, PAULI))


def chsh_closed_form(rho: np.ndarray) -> float:
    """Largest CHSH value over all qubit observables, 2 sqrt(m1 + m2), where
    m1 >= m2 are the two largest eigenvalues of T^T T (R., P. and M.
    Horodecki, Phys. Lett. A 200, 340 (1995))."""
    t = correlation_matrix(rho)
    m = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * float(np.sqrt(max(m[-1] + m[-2], 0.0)))


def chsh_optimal_directions(rho: np.ndarray):
    """Bloch directions (a1, a2, b1, b2) reaching the closed-form CHSH value.

    With T = U S V^T: a_i = u_i, and b_{1,2} = cos(th) v1 +- sin(th) v2 with
    tan(th) = s2 / s1, giving a1.T(b1+b2) + a2.T(b1-b2) = 2 sqrt(s1^2 + s2^2).
    """
    u, s, vt = np.linalg.svd(correlation_matrix(rho))
    th = np.arctan2(s[1], s[0])
    b1 = np.cos(th) * vt[0] + np.sin(th) * vt[1]
    b2 = np.cos(th) * vt[0] - np.sin(th) * vt[1]
    return u[:, 0], u[:, 1], b1, b2


def near_optimal_involutions(rng: np.random.Generator, rho: np.ndarray, noise: float):
    """CHSH-optimal settings with each direction perturbed by ~noise radians."""
    dirs = chsh_optimal_directions(rho)
    mats = [involution(n + noise * rng.normal(size=3)) for n in dirs]
    return mats[:2], mats[2:]


def singlet_settings():
    """Analytic CHSH-optimal settings of the singlet (T = -I): value 2 sqrt(2)."""
    s = 1.0 / np.sqrt(2.0)
    return [Z, X], [-(Z + X) * s, -(Z - X) * s]
