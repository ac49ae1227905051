"""Benchmarking stack for variational quantum classifiers and autoencoders.

Statevector simulation, spin-chain ground-state datasets, QCNN/HEA circuit
construction, derivative-free and gradient training, task metrics, and a
CLI benchmark harness.
"""

__version__ = "0.1.0"
