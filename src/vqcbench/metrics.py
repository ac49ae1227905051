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

Every evaluator takes the caller's ``CompiledCircuit``, the one the model
was trained through (``training.compile_for``), runs its pass itself and
reads its target from it: the classifier reads <Z> on its one observed qubit
(``training.observable``), as the training cost does, and the autoencoder
resets its observed qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulator import CompiledCircuit, expectation
from .training import observable


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


def _roc_counts(scores, labels) -> tuple[list[int], list[int]]:
    """Integer (fp, tp) counts of the samples called positive (score >=
    threshold) at thresholds +inf, each distinct score from the highest
    down, and -inf, for finite scores; two empty lists when a class is
    absent."""
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, kind="stable")
    ranked, ranked_labels = scores[order], np.asarray(labels, dtype=int)[order]
    fp, tp = np.cumsum([ranked_labels == -1, ranked_labels == 1], axis=1)
    if fp.size == 0 or fp[-1] == 0 or tp[-1] == 0:
        return [], []
    last = np.append(ranked[1:] != ranked[:-1], True)  # last sample of each distinct score
    return [0, *fp[last].tolist(), int(fp[-1])], [0, *tp[last].tolist(), int(tp[-1])]


def roc_points(scores, labels) -> list[tuple[float, float]]:
    """Exact ROC: thresholds sweep every distinct score plus +-inf sentinels.

    A sample is called positive when its score >= threshold.  Points run
    from (0, 0) to (1, 1) and are monotone in both coordinates; [] when
    only one class is present.
    """
    fp, tp = _roc_counts(scores, labels)
    return [(f / fp[-1], t / tp[-1]) for f, t in zip(fp, tp)]


def auc_score(scores, labels) -> float | None:
    """AUC, the trapezoid area under ``roc_points``: the Mann-Whitney
    statistic, ties counting one half.  The doubled area in integer counts
    is exactly 2 wins + ties, so the result is one rounding of
    (wins + ties / 2) / (P N).  None when only one class is present.
    """
    fp, tp = _roc_counts(scores, labels)
    if not fp:
        return None
    area2 = sum((f1 - f0) * (t1 + t0) for f0, f1, t0, t1 in zip(fp, fp[1:], tp, tp[1:]))
    return area2 / (2 * fp[-1] * tp[-1])


def evaluate_classifier(compiled: CompiledCircuit, params, test) -> ClassificationReport:
    """Accuracy from sign predictions (sign(<Z_r>) on the compile's readout
    qubit r, an exact zero predicting +1) plus the exact ROC curve and AUC."""
    obs = observable(compiled, "classify")
    out = compiled.run(params, test.amplitudes())
    labels = [int(l) for l in test.labels()]
    scores = [float(m) for m in expectation(out, obs)]
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


def reconstruct_fidelity(encoder: CompiledCircuit, params, amplitudes: np.ndarray) -> np.ndarray:
    """Fidelity of the decode(reset(encode(state))) round trip for every
    row of a (batch, 2^N) amplitude matrix, resetting the qubits the encoder
    was compiled for (its ``observed``)."""
    n, discard = encoder.num_qubits, encoder.observed
    encoded = encoder.run(params, amplitudes)
    batch = encoded.shape[0]
    kept = [q for q in range(n) if q not in discard]
    a = encoded.reshape((batch,) + (2,) * n)
    a = a.transpose([0] + [1 + q for q in kept + discard])
    a = a.reshape(batch, 1 << len(kept), 1 << len(discard))
    a0_dagger = a[:, :, 0].conj()[:, None, :]
    return np.sum(np.abs(np.matmul(a0_dagger, a)[:, 0]) ** 2, axis=1)  # ||A^dagger a0||^2


def evaluate_autoencoder(encoder: CompiledCircuit, params, test,
                         final_cost: float | None = None) -> CompressionReport:
    fidelities = reconstruct_fidelity(encoder, params, test.amplitudes()).tolist()
    return CompressionReport(
        fidelities=fidelities,
        mean_fidelity=float(np.mean(fidelities)),
        n_d=len(encoder.observed),
        final_cost=final_cost,
    )
