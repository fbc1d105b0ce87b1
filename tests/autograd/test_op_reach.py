"""Every autograd op under ``repro`` is one that something applies.

One ``profile()`` is open over small 2-D runs of every surface that puts
ops on the tape: the CLI's ``train`` (multigrid, validation, checkpoint),
``predict`` (tiled, against FEM), ``serve`` (a sharded fleet) and
``solve``; a V-cycle, a data-parallel epoch without a norm (as the
distributed example trains), tiled prediction; the boundary-penalty
loss, MaxPool downsampling, architectural adaptation, an evaluation-mode
forward with the tape on; and the oracles the tests hold the fused ops
to (the op-by-op energy chain, the zero-stuff transposed convolution,
concat-then-conv).  The ops it records must be exactly the ``Function``
subclasses defined in ``repro``: one that nothing applies is code to
delete, or a path this scenario is missing.
"""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np

import repro
from repro import (MGDiffNet, MGTrainConfig, MultigridTrainer,
                   PoissonProblem2D, Trainer, TrainConfig)
from repro.autograd import Function, Tensor, profile
from repro.autograd.ops_conv import conv_transpose_nd_composed
from repro.cli import main
from repro.core.penalty import BoundaryPenaltyLoss
from repro.distributed import DataParallelTrainer, DPConfig
from repro.fem import GaussRule, NeumannBC, UniformGrid
from repro.serve import tiled_predict

from tests.autograd.test_conv_parts import conv_nd_composed
from tests.fem.energy_oracle import chain_energy


def defined_subclasses(base: type = Function) -> set[str]:
    """Names of the ``base`` subclasses of every ``repro`` module."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.add(sub.__name__)
    return found


def _cli(tmp_path) -> None:
    ck = str(tmp_path / "ck.npz")
    small = ["--base-filters", "2", "--depth", "1"]
    assert main(["train", "--resolution", "8", "--samples", "2",
                 "--levels", "2", "--max-epochs", "1", "--batch-size", "2",
                 "--validate", "--checkpoint", ck, *small]) == 0
    assert main(["predict", "--checkpoint", ck, "--tile", "4",
                 "--compare-fem"]) == 0
    assert main(["serve", "--checkpoint", f"m={ck}", "--requests", "4",
                 "--shards", "2", "--replicas", "2"]) == 0
    assert main(["solve", "--resolution", "9", "--solver", "gmg"]) == 0


def _training(problem, dataset) -> None:
    def model(**kwargs):
        return MGDiffNet(ndim=2, base_filters=2, depth=1, rng=3, **kwargs)

    config = MGTrainConfig(batch_size=2, restriction_epochs=1,
                           max_epochs_per_level=1, patience=10 ** 6)
    MultigridTrainer(model(), problem, dataset, strategy="v", levels=2,
                     config=config).train()
    DataParallelTrainer(lambda: model(use_batchnorm=False), problem, dataset,
                        DPConfig(world_size=2, batch_size=2)
                        ).train_epochs(8, 1)
    pooled = Trainer(model(downsample="maxpool"), problem, dataset,
                     TrainConfig(batch_size=2))
    pooled.adapt(4)
    pooled.train_epochs(8, 1)


def _losses_and_forwards(problem) -> None:
    rng = np.random.default_rng(0)
    net = MGDiffNet(ndim=2, base_filters=2, depth=1, rng=5)
    tiled_predict(net, problem, rng.uniform(-1, 1, 4), tile=8)
    x = Tensor(rng.standard_normal((2, 1, 8, 8)).astype(np.float32))
    net.eval()(x, *problem.masks(8))                # the tape stays on
    net.train()
    u = net(x, *problem.masks(8))
    nu = np.ones((2, 1, 8, 8), dtype=np.float32)
    BoundaryPenaltyLoss(problem.energy(8), problem.bc(8), 1.0)(
        u, nu).backward()


def _oracles() -> None:
    rng = np.random.default_rng(1)
    grid, rule = UniformGrid(2, 5), GaussRule.create(2, 2)
    u = Tensor(rng.standard_normal((1, 1, 5, 5)), requires_grad=True)
    chain_energy(u, np.ones((1, 1, 5, 5)), grid, rule, np.ones((5, 5)),
                 [NeumannBC(0, 1, 1.3)]).sum().backward()
    w = Tensor(rng.standard_normal((2, 3, 2, 2)), requires_grad=True)
    conv_transpose_nd_composed(Tensor(rng.standard_normal((1, 2, 3, 3))),
                               w, stride=2).sum().backward()
    parts = [Tensor(rng.standard_normal((1, c, 4, 4))) for c in (1, 2)]
    conv_nd_composed(parts, Tensor(rng.standard_normal((2, 3, 3, 3)),
                                   requires_grad=True), padding=1
                     ).sum().backward()


def test_every_op_is_reached(tmp_path, capsys, monkeypatch) -> None:
    # Ranks in this process: a forked rank's ops are not recorded here.
    monkeypatch.setattr("repro.distributed.data_parallel.default_workers",
                        lambda: 1)
    problem = PoissonProblem2D(8)
    dataset = problem.make_dataset(4)
    with profile() as prof:
        _cli(tmp_path)
        _training(problem, dataset)
        _losses_and_forwards(problem)
        _oracles()
    capsys.readouterr()
    reached = set(prof.forward) | set(prof.backward)
    defined = defined_subclasses()
    assert not reached - defined, "recorded an op defined outside repro"
    assert defined == reached, (
        f"defined in repro but applied by nothing: "
        f"{sorted(defined - reached)}")

