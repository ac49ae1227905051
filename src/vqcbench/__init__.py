"""Benchmarking stack for variational quantum classifiers and autoencoders.

Statevector simulation, spin-chain ground-state datasets, QCNN/HEA circuit
construction, derivative-free and gradient training, task metrics, and a
CLI benchmark harness.
"""

__version__ = "0.1.0"

from .simulator import (  # noqa: F401
    Circuit,
    Gate,
    expectation_z_batch,
    run_circuit_batch,
)
from .ansatz import (  # noqa: F401
    AnsatzSpec,
    QcnnLayout,
    build_ansatz,
    build_hea,
    build_qcnn,
    param_count,
    readout_qubit,
)
from .spinmodels import (  # noqa: F401
    Dataset,
    DataRecord,
    LanczosConvergenceError,
    SparseHamiltonian,
    SpinModel,
    build_hamiltonian,
    generate_dataset,
    ground_state_dense,
    ground_state_lanczos,
)
from .optimizers import (  # noqa: F401
    OptimizerConfig,
    TrainRecord,
    gradient_descent_minimize,
    nelder_mead_minimize,
    powell_minimize,
    spsa_minimize,
)
from .training import (  # noqa: F401
    autoencoder_cost,
    classification_cost,
    param_shift_gradient,
    train,
)
from .metrics import (  # noqa: F401
    ClassificationReport,
    CompressionReport,
    CompressionSpec,
    evaluate_autoencoder,
    evaluate_classifier,
    reconstruct_fidelity,
)
