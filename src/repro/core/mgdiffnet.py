"""MGDiffNet: the paper's neural PDE solver.

A fully convolutional U-Net mapping a discretized coefficient field to the
full-field solution, with *exact* Dirichlet imposition by characteristic-
function masking (Algorithm 1 line 8):

    U = U_int * chi_int + U_bc * chi_b

The Sigmoid output head keeps raw predictions in [0, 1], matching the
canonical boundary data.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..nn.module import Module
from ..nn.unet import UNet
from ..utils.seeding import make_rng

__all__ = ["MGDiffNet"]


class MGDiffNet(Module):
    """U-Net + exact-BC masking.

    Parameters mirror :class:`repro.nn.UNet`; ``forward`` takes the input
    field batch and the problem's BC masks at the matching resolution.
    """

    def __init__(self, ndim: int, base_filters: int = 16, depth: int = 3,
                 negative_slope: float = 0.01, downsample: str = "conv",
                 use_batchnorm: bool = True,
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        self.ndim = ndim
        self.net = UNet(ndim=ndim, in_channels=1, out_channels=1,
                        base_filters=base_filters, depth=depth,
                        negative_slope=negative_slope, downsample=downsample,
                        use_batchnorm=use_batchnorm, rng=make_rng(rng))

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor, chi_int: np.ndarray, u_bc: np.ndarray) -> Tensor:
        """Predict the solution field with Dirichlet data imposed exactly.

        Parameters
        ----------
        x:
            Input fields, shape (N, 1, \\*spatial).
        chi_int, u_bc:
            Masks from :meth:`repro.core.problem.PoissonProblem.masks` at
            the same resolution: x-profiles that broadcast to the field.
        """
        u_int = self.net(x)
        return u_int * Tensor(np.asarray(chi_int, dtype=x.dtype.type)) + \
            Tensor(np.asarray(u_bc, dtype=x.dtype.type))

    # ------------------------------------------------------------------ #
    def predict(self, problem, omega: np.ndarray,
                resolution: int | None = None) -> np.ndarray:
        """Full-field inference for one parameter vector ω: the single
        row of :func:`repro.core.inference.predict_batch`."""
        from .inference import predict_batch   # inference imports this module

        return predict_batch(self, problem, omega, resolution)[0]

    def adapt(self, rng: np.random.Generator | int | None = None) -> None:
        """Architectural adaptation (Sec. 4.1.2); see
        :meth:`repro.nn.UNet.adapt_decoder`."""
        self.net.adapt_decoder(rng)

    @property
    def min_resolution(self) -> int:
        return self.net.min_resolution

    @property
    def num_weights(self) -> int:
        """Model parameter count — the paper's ``Nw`` in the ring
        all-reduce complexity ``O(Nw + log p)``."""
        return self.num_parameters()
