"""FEM substrate: quadrature, Q1 basis, the stiffness operator, reference
solvers, geometric multigrid, and the differentiable variational energy loss.

``K(nu)`` is built in one place, :mod:`repro.fem.stencil`, as its 3^d-point
stencil; assembly, ``GeometricMultigrid``, ``full_multigrid_solve``,
``FEMSolver`` and the matrix-free CG all take it from there.
"""

from .quadrature import GaussRule, gauss_legendre_1d
from .basis import local_nodes, shape_values, shape_gradients
from .grid import UniformGrid
from .stencil import element_stiffness_tensors
from .assembly import assemble_stiffness, assemble_load, interpolate_to_gauss
from .solver import DirichletBC, canonical_bc, FEMSolver, SolveReport
from .energy import EnergyLoss
from .transfer import prolong_nested, restrict_nested
from .gmg import GeometricMultigrid, GMGReport
from .krylov import (CGReport, conjugate_gradient, jacobi_preconditioner,
                     gmg_preconditioner)

__all__ = [
    "CGReport", "conjugate_gradient", "jacobi_preconditioner",
    "gmg_preconditioner",
    "GaussRule", "gauss_legendre_1d",
    "local_nodes", "shape_values", "shape_gradients",
    "UniformGrid",
    "assemble_stiffness", "assemble_load",
    "interpolate_to_gauss", "element_stiffness_tensors",
    "DirichletBC", "canonical_bc", "FEMSolver", "SolveReport",
    "EnergyLoss",
    "prolong_nested", "restrict_nested",
    "GeometricMultigrid", "GMGReport",
]
