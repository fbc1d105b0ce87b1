"""Training checkpointing: save/restore model + optimizer state to .npz.

Long multigrid runs on shared clusters need resumability; this module
serializes everything required to continue training bit-for-bit (modulo
the wall clock): model parameters, buffers, Adam moments, and the
trainer's epoch counter.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..optim.optimizer import Optimizer

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint",
           "read_checkpoint_meta"]

_PREFIX_PARAM = "model::"
_PREFIX_OPT = "opt::"
_PREFIX_META = "meta::"


class CheckpointError(RuntimeError):
    """A checkpoint does not match the model it is being loaded into.

    Raised with the offending parameter/buffer *keys* spelled out (and
    the checkpoint path) instead of letting a bare NumPy broadcast error
    escape from deep inside ``load_state_dict``.
    """


def _validate_model_state(path: Path, model,
                          state: dict[str, np.ndarray]) -> None:
    """Check checkpoint keys and shapes against the model before loading."""
    expected: dict[str, tuple[int, ...]] = {}
    for name, p in model.named_parameters():
        expected[name] = tuple(p.data.shape)
    for name, b in model.named_buffers():
        expected[f"buffer:{name}"] = tuple(np.asarray(b).shape)

    missing = sorted(set(expected) - set(state))
    unexpected = sorted(set(state) - set(expected))
    mismatched = sorted(
        f"{k}: checkpoint {tuple(state[k].shape)} vs model {expected[k]}"
        for k in set(expected) & set(state)
        if tuple(state[k].shape) != expected[k])
    if missing or unexpected or mismatched:
        problems = []
        if mismatched:
            problems.append("shape mismatch [" + "; ".join(mismatched) + "]")
        if missing:
            problems.append("missing keys " + repr(missing))
        if unexpected:
            problems.append("unexpected keys " + repr(unexpected))
        raise CheckpointError(
            f"checkpoint {path} does not fit the model: "
            + "; ".join(problems)
            + " — was it saved from a different architecture "
            "(base_filters/depth/ndim) or after adaptation?")


def save_checkpoint(path: str | Path, model, optimizer: Optimizer | None = None,
                    epoch: int = 0, extra: dict | None = None) -> Path:
    """Serialize model (+ optimizer) state to a single ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, np.ndarray] = {}
    for key, value in model.state_dict().items():
        payload[_PREFIX_PARAM + key] = value
    if optimizer is not None:
        payload[_PREFIX_OPT + "lr"] = np.asarray(optimizer.lr)
        payload[_PREFIX_OPT + "step_count"] = np.asarray(optimizer._step_count)
        for idx, state in optimizer.state.items():
            for name, value in state.items():
                payload[f"{_PREFIX_OPT}{idx}::{name}"] = np.asarray(value)
    payload[_PREFIX_META + "epoch"] = np.asarray(epoch)
    for key, value in (extra or {}).items():
        payload[_PREFIX_META + key] = np.asarray(value)
    np.savez(path, **payload)
    return path


def load_checkpoint(path: str | Path, model, optimizer: Optimizer | None = None
                    ) -> dict:
    """Restore state saved by :func:`save_checkpoint`.

    Returns the metadata dict (always contains ``epoch``).  The model must
    have the same architecture as at save time; the optimizer must hold
    the same parameters in the same order.  A mismatch raises
    :class:`CheckpointError` naming every offending key.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        model_state = {k[len(_PREFIX_PARAM):]: data[k]
                       for k in data.files if k.startswith(_PREFIX_PARAM)}
        _validate_model_state(path, model, model_state)
        model.load_state_dict(model_state)

        if optimizer is not None:
            if _PREFIX_OPT + "lr" in data:
                optimizer.lr = float(data[_PREFIX_OPT + "lr"])
                optimizer._step_count = int(data[_PREFIX_OPT + "step_count"])
            state: dict[int, dict[str, np.ndarray]] = {}
            for k in data.files:
                if not k.startswith(_PREFIX_OPT) or k.count("::") != 2:
                    continue
                _, idx_s, name = k.split("::")
                entry = state.setdefault(int(idx_s), {})
                value = data[k]
                entry[name] = int(value) if name == "t" else value.copy()
            optimizer.state = state

        return _meta(data)


def read_checkpoint_meta(path: str | Path) -> dict:
    """The metadata dict of a :func:`save_checkpoint` file, without
    loading any state (what a caller reads to rebuild the architecture
    before :func:`load_checkpoint`)."""
    with np.load(Path(path), allow_pickle=False) as data:
        return _meta(data)


def _meta(data) -> dict:
    meta = {}
    for k in data.files:
        if k.startswith(_PREFIX_META):
            value = data[k]
            meta[k[len(_PREFIX_META):]] = (
                value.item() if value.ndim == 0 else value.copy())
    return meta
