"""Regularized ReQU network landscapes: training, certificates, constructions.

Submodules group the work: `datasets` (generators and CSV I/O), `models` (the
one network pass, the one network class with its single-layer cases, parameter
flattening and checkpoints), `objective` (losses, regularizers, gradients, all
read from that pass), `optimize` (training loop and the decreasing-path table),
`landscape` (criticality certificates and randomized checks), `constructions`
(interpolators and engineered bad minima), `numkit` (the small
dense-linear-algebra layer), and `cli` (the command-line harness).
The names below cover the common workflow: generate data, train, certify.
"""

from .datasets import Dataset, gen_quadratically_separable, gen_random
from .landscape import CertificateReport, certify
from .objective import ObjectiveConfig, logistic, smooth_hinge, training_error
from .optimize import TrainOptions, estimate_lambda0, init_deep, init_single, sample_lambda, train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "gen_random",
    "gen_quadratically_separable",
    "CertificateReport",
    "certify",
    "ObjectiveConfig",
    "logistic",
    "smooth_hinge",
    "training_error",
    "TrainOptions",
    "estimate_lambda0",
    "init_deep",
    "init_single",
    "sample_lambda",
    "train",
    "__version__",
]
