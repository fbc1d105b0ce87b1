"""repro — reproduction of *Distributed Multigrid Neural Solvers on
Megavoxel Domains* (Balu et al., SC 2021, arXiv:2104.14538).

The package implements, from scratch in NumPy:

* ``repro.backend``     — pluggable array backends, op dispatch, dtype
                          policy, buffer pool, and the conv engine
* ``repro.autograd``    — reverse-mode AD with N-d convolutions
* ``repro.nn``          — Module system and the dimension-agnostic U-Net
* ``repro.optim``       — SGD/Adam, schedulers, early stopping
* ``repro.fem``         — FEM substrate: assembly, solvers, geometric
                          multigrid, and the differentiable energy loss
* ``repro.data``        — Sobol sampling and the Eq. 10 diffusivity family
* ``repro.multigrid``   — resolution hierarchies and V/W/F/Half-V cycles
* ``repro.distributed`` — simulated MPI runtime with ring all-reduce
* ``repro.perf``        — analytic performance model for strong scaling
* ``repro.core``        — MGDiffNet, trainers, metrics, experiments

Quickstart::

    from repro import PoissonProblem2D, MGDiffNet, MultigridTrainer

    problem = PoissonProblem2D(resolution=32)
    dataset = problem.make_dataset(32)
    model = MGDiffNet(ndim=2, base_filters=8, depth=2)
    trainer = MultigridTrainer(model, problem, dataset, strategy="half_v",
                               levels=3)
    result = trainer.train()
"""

from .version import __version__
from .autograd import Tensor, no_grad

# Heavier subsystems are imported lazily (PEP 562) so that low-level use of
# repro.autograd does not pay for the full stack.
_LAZY = {
    "PoissonProblem": "repro.core.problem",
    "PoissonProblem2D": "repro.core.problem",
    "PoissonProblem3D": "repro.core.problem",
    "MGDiffNet": "repro.core.mgdiffnet",
    "Trainer": "repro.core.trainer",
    "TrainConfig": "repro.core.trainer",
    "MultigridTrainer": "repro.core.mg_trainer",
    "MGTrainConfig": "repro.core.mg_trainer",
    # Array-backend layer (repro.backend)
    "set_backend": "repro.backend",
    "get_backend": "repro.backend",
    "use_backend": "repro.backend",
    "set_default_dtype": "repro.backend",
    "get_default_dtype": "repro.backend",
    "dtype_scope": "repro.backend",
}

__all__ = ["__version__", "Tensor", "no_grad", *sorted(_LAZY)]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
