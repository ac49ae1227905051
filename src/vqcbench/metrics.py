"""Task evaluation: classifier predictions, accuracy, ROC/AUC, and
autoencoder reconstruction fidelity through the reset channel.

Encoding |psi> with U, resetting the ``n_d`` discarded qubits to |0> and
decoding with U^dagger leaves a mixed state rho_dec; the reported fidelity
is <psi| rho_dec |psi> = sum_b |<psi| U^dagger K_b U |psi>|^2, where K_b
maps discard pattern b to |0...0>.  Arrange the encoded amplitudes as a
matrix A (kept x discarded) and let a0 be its column for the all-|0>
discard pattern; each term is then |(A^dagger a0)_b|^2, so
    F = ||A^dagger a0||^2
(Romero, Olson and Aspuru-Guzik, arXiv:1612.02806): one encoder pass, no
decoder.  F is 1 whenever the encoding is exact.  ``reconstruct_fidelity``
takes a (batch, 2^N) amplitude matrix and returns F for every row from one
batched encoder pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulator import Circuit, expectation_z_batch, run_circuit_batch
from .training import _check_discard

# Default compression inputs: TFI ground states straddling the h=1 boundary
# (the exact critical point is excluded; 0.9 stands in for 1.0).
DEFAULT_COMPRESSION_H = (0.2, 0.6, 0.9, 1.4, 1.8)


@dataclass
class ClassificationReport:
    accuracy: float
    scores: list[float]
    predictions: list[int]
    labels: list[int]
    confusion: dict
    roc_points: list[tuple[float, float]]
    auc: float | None


@dataclass
class CompressionReport:
    fidelities: list[float]
    mean_fidelity: float
    n_d: int
    final_cost: float | None = None


def roc_points(scores, labels) -> list[tuple[float, float]]:
    """Exact ROC: thresholds sweep every distinct score plus +-inf sentinels.

    A sample is called positive when its score >= threshold.  Points run
    from (0, 0) to (1, 1) and are monotone in both coordinates.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == -1).sum())
    if n_pos == 0 or n_neg == 0:
        return []
    thresholds = [np.inf] + sorted(set(scores.tolist()), reverse=True) + [-np.inf]
    points = []
    for t in thresholds:
        called = scores >= t
        tp = int((called & (labels == 1)).sum())
        fp = int((called & (labels == -1)).sum())
        points.append((fp / n_neg, tp / n_pos))
    return points


def auc_score(scores, labels) -> float | None:
    """AUC as the Mann-Whitney statistic; ties count one half.

    Returns None when only one class is present (undefined marker).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def evaluate_classifier(circuit: Circuit, readout: int, params, test) -> ClassificationReport:
    """Accuracy from sign predictions (sign(<Z_readout>), an exact zero
    predicting +1) plus the exact ROC curve and AUC."""
    out = run_circuit_batch(circuit, params, test.amplitudes())
    labels = [int(l) for l in test.labels()]
    scores = [float(m) for m in expectation_z_batch(out, circuit.num_qubits, readout)]
    predictions = [1 if m >= 0.0 else -1 for m in scores]
    correct = sum(p == l for p, l in zip(predictions, labels))
    confusion = {
        "tp": sum(1 for p, l in zip(predictions, labels) if p == 1 and l == 1),
        "tn": sum(1 for p, l in zip(predictions, labels) if p == -1 and l == -1),
        "fp": sum(1 for p, l in zip(predictions, labels) if p == 1 and l == -1),
        "fn": sum(1 for p, l in zip(predictions, labels) if p == -1 and l == 1),
    }
    return ClassificationReport(
        accuracy=correct / len(labels),
        scores=scores,
        predictions=predictions,
        labels=labels,
        confusion=confusion,
        roc_points=roc_points(scores, labels),
        auc=auc_score(scores, labels),
    )


def reconstruct_fidelity(encoder: Circuit, params, discard, amplitudes: np.ndarray) -> np.ndarray:
    """Fidelity of the decode(reset(encode(state))) round trip for every
    row of a (batch, 2^N) amplitude matrix, resetting the ``discard`` qubits."""
    n = encoder.num_qubits
    discard = _check_discard(discard, n)
    encoded = run_circuit_batch(encoder, params, amplitudes)
    batch = encoded.shape[0]
    kept = [q for q in range(n) if q not in discard]
    a = encoded.reshape((batch,) + (2,) * n)
    a = a.transpose([0] + [1 + q for q in kept + discard])
    a = a.reshape(batch, 1 << len(kept), 1 << len(discard))
    a0_dagger = a[:, :, 0].conj()[:, None, :]
    return np.sum(np.abs(np.matmul(a0_dagger, a)[:, 0]) ** 2, axis=1)  # ||A^dagger a0||^2


def evaluate_autoencoder(
    encoder: Circuit,
    params,
    discard,
    test,
    final_cost: float | None = None,
) -> CompressionReport:
    fidelities = reconstruct_fidelity(encoder, params, discard, test.amplitudes()).tolist()
    return CompressionReport(
        fidelities=fidelities,
        mean_fidelity=float(np.mean(fidelities)),
        n_d=len(set(discard)),
        final_cost=final_cost,
    )
