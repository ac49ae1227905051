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
decoder.  F is 1 whenever the encoding is exact.  The post-selected
variant, conditioned on the all-|0> reset outcome, is F_ps = ||a0||^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simulator import (
    Circuit,
    State,
    expectation_z,
    expectation_z_batch,
    run_circuit,
    run_circuit_batch,
)

# Default compression inputs: TFI ground states straddling the h=1 boundary
# (the exact critical point is excluded; 0.9 stands in for 1.0).
DEFAULT_COMPRESSION_H = (0.2, 0.6, 0.9, 1.4, 1.8)


@dataclass(frozen=True)
class CompressionSpec:
    """Which qubits an autoencoder discards."""

    discard: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "discard", tuple(sorted(set(int(q) for q in self.discard))))
        if not self.discard:
            raise ValueError("discard set must be non-empty")
        if self.discard[0] < 0:
            raise ValueError("discard qubits must be non-negative")

    @property
    def n_d(self) -> int:
        return len(self.discard)

    @classmethod
    def from_layout(cls, layout, layers: int) -> "CompressionSpec":
        return cls(tuple(layout.discard_after(layers)))


@dataclass
class ClassificationReport:
    accuracy: float
    scores: list[float]
    predictions: list[int]
    labels: list[int]
    confusion: dict
    roc_points: list[tuple[float, float]]
    auc: float | None

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "scores": self.scores,
            "predictions": self.predictions,
            "labels": self.labels,
            "confusion": self.confusion,
            "roc_points": [list(p) for p in self.roc_points],
            "auc": self.auc,
        }


@dataclass
class CompressionReport:
    fidelities: list[float]
    mean_fidelity: float
    n_d: int
    final_cost: float | None = None

    def to_dict(self) -> dict:
        return {
            "fidelities": self.fidelities,
            "mean_fidelity": self.mean_fidelity,
            "n_d": self.n_d,
            "final_cost": self.final_cost,
        }


def predict(circuit: Circuit, readout: int, params, state: State) -> int:
    """sign(<Z_readout>) after the circuit; exact zero maps to +1."""
    m = expectation_z(run_circuit(circuit, params, state), readout)
    return 1 if m >= 0.0 else -1


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
    """Accuracy from sign predictions plus the exact ROC curve and AUC."""
    states = test.states()
    if not states:
        raise ValueError("test set must be non-empty")
    labels = [int(l) for l in test.labels()]
    mat = np.array([s.amplitudes for s in states])
    out = run_circuit_batch(circuit, params, mat)
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


def reconstruct_fidelity(
    encoder: Circuit,
    params,
    spec: CompressionSpec,
    state: State,
    post_select: bool = False,
) -> float:
    """Fidelity of the decode(reset(encode(state))) round trip.

    ``post_select=True`` instead conditions on the all-|0> reset outcome and
    normalizes by its probability; an outcome of probability 0 gives 0.
    """
    n = encoder.num_qubits
    if spec.discard[-1] >= n:
        raise ValueError(f"discard set {spec.discard} invalid for {n} qubits")
    encoded = run_circuit_batch(encoder, params, state.amplitudes[None, :])[0]
    kept = [q for q in range(n) if q not in spec.discard]
    a = encoded.reshape((2,) * n).transpose(kept + list(spec.discard))
    a = a.reshape(1 << len(kept), 1 << spec.n_d)
    a0 = a[:, 0]
    if post_select:
        return float(np.vdot(a0, a0).real)
    return float(np.sum(np.abs(a0.conj() @ a) ** 2))


def evaluate_autoencoder(
    encoder: Circuit,
    params,
    spec: CompressionSpec,
    test,
    final_cost: float | None = None,
) -> CompressionReport:
    states = test.states()
    if not states:
        raise ValueError("test set must be non-empty")
    fidelities = [reconstruct_fidelity(encoder, params, spec, s) for s in states]
    return CompressionReport(
        fidelities=fidelities,
        mean_fidelity=float(np.mean(fidelities)),
        n_d=spec.n_d,
        final_cost=final_cost,
    )
