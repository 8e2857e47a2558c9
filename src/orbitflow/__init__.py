"""Numerical engine for the Landau-Ginzburg model on minimal adjoint orbits
of sl(n+1, C): gradient flow, linearization spectra, graph Lagrangians and
real Lagrangian thimbles."""

from .liecore import (
    RootSystemAn,
    WeylElement,
    b_tau,
    bracket,
    default_cartan,
    hermitian_form,
    killing_form,
    longest_weyl,
    minimal_cartan,
    omega,
    pi_w,
    root_eval,
    tau,
    weyl_action,
)
from .orbit import (
    OrbitPoint,
    critical_points,
    membership_residual,
    phi_pair,
    potential,
    r_w0_basis,
    retract,
    split_eigen,
)
from .flow import integrate, linearize, metric_m, nongradient_witness, z_field
from .cycles import build_vw, delta_w, flag_sample, grad_height, ham_height, vanishing_sphere
from .graphs import (
    GraphSpec,
    graph_membership,
    graph_point,
    graph_tangent_frame,
    hessian_full,
    hessian_restricted,
    identity_graph,
    m_j_pm,
    reality_check,
)
from .thimble import (
    fg_decomposition_check,
    horizontal_lift_check,
    kaehler_gradients,
    lagrangian_check,
    trace_thimble,
)

__version__ = "0.1.0"
