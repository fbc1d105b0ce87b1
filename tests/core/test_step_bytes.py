"""The bytes of one training step, accounted by role.

One warm finest-level step of ``MGDiffNet(3, base_filters=4, depth=2)``
(the trainer's own epoch over a dataset of exactly one batch) runs under
``tracemalloc``, which sees numpy's buffers.  Tracing starts before the
model and the dataset are built, so the step's peak is everything the
process allocated for training and still holds at that moment.

Every autograd op reports to the profiler as it finishes, forward and
backward.  At each report the account reads the traced memory and its
peak since the last report, so the *segment* between two reports that
holds the step's peak is known.  At the end of that segment every live
array is claimed by the first role that reaches it:

* the level's dataset inputs (the trainer's frames: the cached level
  arrays, the masks and the batch copies);
* parameters and BatchNorm running statistics;
* Adam's moments;
* ``Energy``'s saved residual;
* BatchNorm's saved ``xhat`` and mask;
* the rest of what each layer's ``ctx`` holds for its backward (the
  tape, per layer);
* gradients: the parameters' ``.grad`` and the gradients the backward
  walk holds in flight (``conv_backward_data``'s ``dx`` among them);
* arrays the forward's frames hold (skips, the op's own input and
  output);
* op outputs that nothing above holds — only the graph can, and no
  backward reads them;
* the conv arena (the pool's parked bytes);
* what the segment allocated and freed before it ended (an op's
  temporaries): its peak less its final traced memory.

The bound is in float32 field-equivalents per sample: bytes over
``batch * R**3 * 4``.  ``pytest -s`` prints the table.
"""

from __future__ import annotations

import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import MGDiffNet, PoissonProblem3D
from repro.autograd import Tensor, function, profiler
from repro.backend import get_pool
from repro.core import trainer as trainer_module
from repro.core.trainer import TrainConfig, Trainer

# The step peak per sample, in field-equivalents, at both shapes.  A
# graph whose edges were the output Tensors, walked to the end before
# any node let go, read 81.2 (32^3, batch 4) and 78.8 (64^3, batch 1);
# data-free nodes released as the walk runs read 54.3 and 52.0.
PEAK_FIELDS_BOUND = 56.0
# Share of the peak the roles must name.
MIN_ATTRIBUTED = 0.90

GRAPH_ONLY = "outputs only the graph holds"
TEMPORARIES = "freed inside the segment"


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s buffer (views count once)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _locals(frame) -> dict:
    """A copy of a frame's locals that leaves no snapshot behind.  Up to
    Python 3.12 ``f_locals`` caches a dict on the frame, and that dict
    would keep every value read here alive until the frame refreshes it:
    a backward walk would hold the last node's gradients through the
    next node's backward."""
    cached = frame.f_locals
    values = dict(cached)
    if type(cached) is dict:
        cached.clear()
    return values


def _arrays(value, tensors: bool = True):
    """The ndarrays a local or a ``ctx`` slot holds, one container deep.
    ``tensors`` also yields a Tensor's data and grad held directly."""
    if isinstance(value, np.ndarray):
        yield value
    elif tensors and isinstance(value, Tensor):
        yield value.data
        if value.grad is not None:
            yield value.grad
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays(v, tensors=False)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _arrays(v, tensors=False)


class _Account:
    """Per-segment traced memory, and the roles of the peak segment."""

    def __init__(self, model, optimizer, dataset) -> None:
        self.model, self.optimizer, self.dataset = model, optimizer, dataset
        self.names = {}
        stack = [("", model)]
        while stack:
            prefix, m = stack.pop()
            self.names[id(m)] = prefix.rstrip(".") or "model"
            stack.extend((f"{prefix}{k}.", c) for k, c in m._modules.items())
        self.contexts: list[tuple[weakref.ref, str, str]] = []
        self.outputs: list[weakref.ref] = []
        self.peak = 0
        self.phase_peaks = {"forward": 0, "backward": 0}
        self.roles: dict[str, int] = {}
        self.where = ""

    def layer(self, frame) -> str:
        """The innermost module whose ``forward`` is on the stack."""
        while frame is not None:
            owner = _locals(frame).get("self")
            if id(owner) in self.names:
                return self.names[id(owner)]
            frame = frame.f_back
        return "loss"

    def context_class(self):
        account = self

        class TracedContext(function.Context):
            # No __slots__: instances take weak references.
            def __init__(self, needs_input_grad=()) -> None:
                super().__init__(needs_input_grad)
                apply = sys._getframe(1)
                account.contexts.append((
                    weakref.ref(self), _locals(apply)["cls"].__name__,
                    account.layer(apply)))

        return TracedContext

    def record(self, profiles, direction, name, seconds) -> None:
        current, peak = tracemalloc.get_traced_memory()
        self.phase_peaks[direction] = max(self.phase_peaks[direction], peak)
        caller = sys._getframe(1)
        if direction == "forward":
            self.outputs.append(weakref.ref(_locals(caller)["out"].data))
        if peak > self.peak:
            ctx = _locals(caller)["ctx"]
            layer = next(layer for ref, _, layer in self.contexts
                         if ref() is ctx)
            self.take(current, peak, caller, f"{direction} {layer} {name}")
        tracemalloc.reset_peak()

    def end(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if peak > self.peak:
            self.take(current, peak, None, "after the last op")

    def take(self, current: int, peak: int, frame, where: str) -> None:
        roles: dict[str, int] = {}
        seen: set[int] = set()

        def claim(role: str, arrays) -> None:
            for a in arrays:
                a = _owner(a)
                if id(a) not in seen:
                    seen.add(id(a))
                    roles[role] = roles.get(role, 0) + a.nbytes

        frames, backward_frames, forward_frames = [], [], []
        while frame is not None:
            frames.append(frame)
            frame = frame.f_back
        for f in frames:
            if f.f_globals.get("__name__") == trainer_module.__name__:
                claim("dataset inputs", (a for v in _locals(f).values()
                                         for a in _arrays(v)))
            elif f.f_code is Tensor.backward.__code__:
                backward_frames.append(_locals(f))
            elif f.f_globals.get("__name__", "").startswith("repro."):
                forward_frames.append(_locals(f))
        claim("dataset inputs", self.dataset._cache.values())
        claim("parameters and running stats",
              [p.data for p in self.model.parameters()]
              + [b for _, b in self.model.named_buffers()])
        claim("Adam moments", (a for st in self.optimizer.state.values()
                               for a in _arrays(st)))
        live = [(ctx, op, layer) for ref, op, layer in self.contexts
                if (ctx := ref()) is not None]
        for ctx, op, layer in live:
            if op == "Energy":
                claim("Energy residual", _arrays(ctx.saved))
            elif op == "BatchNorm":
                claim(f"BatchNorm xhat and mask: {layer}",
                      _arrays([ctx.meta["xhat"], ctx.meta["mask"]]))
        for ctx, op, layer in live:
            claim(f"tape: {layer} {op}", _arrays(ctx.saved))
            claim(f"tape: {layer} {op}", _arrays(ctx.meta))
        claim("gradients: parameter .grad",
              [p.grad for p in self.model.parameters() if p.grad is not None])
        for f in backward_frames:
            claim("gradients: in flight", (a for v in f.values()
                                           for a in _arrays(v, tensors=False)))
        for f in forward_frames:
            claim("forward frames", (a for v in f.values()
                                     for a in _arrays(v)))
        claim(GRAPH_ONLY, (a for ref in self.outputs
                           if (a := ref()) is not None))
        roles["conv arena"] = get_pool().stats.bytes_pooled
        roles[TEMPORARIES] = peak - current
        self.peak, self.roles, self.where = peak, roles, where


def measure_step(resolution: int, batch: int) -> _Account:
    """The account of one warm step at ``resolution``, ``batch`` samples."""
    # An arena parked by an earlier caller predates the trace: drop it, so
    # the warm step allocates the one this step uses.
    get_pool().clear()
    tracemalloc.start()
    try:
        problem = PoissonProblem3D(resolution)
        dataset = problem.make_dataset(batch)
        model = MGDiffNet(3, base_filters=4, depth=2, rng=3)
        trainer = Trainer(model, problem, dataset,
                          TrainConfig(batch_size=batch, seed=3))
        trainer.run_epoch(resolution)          # the warm step
        account = _Account(model, trainer.optimizer, dataset)
        saved_context, saved_running = function.Context, profiler.running
        function.Context = account.context_class()
        profiler.running = (object(),)
        saved_record, profiler.record = profiler.record, account.record
        try:
            tracemalloc.reset_peak()
            trainer.run_epoch(resolution)
            account.end()
        finally:
            function.Context = saved_context
            profiler.running = saved_running
            profiler.record = saved_record
    finally:
        tracemalloc.stop()
    return account


def table(account: _Account, field_bytes: int) -> str:
    rows = sorted(account.roles.items(), key=lambda kv: -kv[1])
    named = sum(account.roles.values())
    lines = [f"peak {account.peak / field_bytes:.1f} fields/sample "
             f"({account.peak / 2 ** 20:.2f} MiB), in {account.where}",
             "phase peaks: " + ", ".join(
                 f"{phase} {b / field_bytes:.1f}"
                 for phase, b in account.phase_peaks.items()),
             f"{'role':<46}{'fields':>8}{'MiB':>9}"]
    lines += [f"{role:<46}{b / field_bytes:>8.2f}{b / 2 ** 20:>9.2f}"
              for role, b in rows if b]
    lines.append(f"{'attributed':<46}{named / field_bytes:>8.2f}"
                 f"{named / 2 ** 20:>9.2f}  ({named / account.peak:.1%})")
    return "\n".join(lines)


@pytest.mark.parametrize("resolution,batch", [(32, 4), (64, 1)])
def test_the_step_peak_is_accounted_and_bounded(resolution, batch):
    account = measure_step(resolution, batch)
    field_bytes = batch * resolution ** 3 * 4
    print(f"\n{resolution}^3, batch {batch}\n{table(account, field_bytes)}")
    named = sum(account.roles.values())
    assert MIN_ATTRIBUTED * account.peak <= named <= account.peak * 1.001
    # An output no backward reads is dropped with the Tensor that held it.
    assert account.roles.get(GRAPH_ONLY, 0) == 0
    assert account.peak / field_bytes <= PEAK_FIELDS_BOUND
