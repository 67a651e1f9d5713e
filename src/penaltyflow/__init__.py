"""penaltyflow: a desk-scale penalty/fictitious-domain solver for a rigid
body carried by compressible isentropic flow with general inflow-outflow
boundary data, instrumented so every monitored inequality of the underlying
construction is checked at runtime."""

from .body import (BodyState, body_signed_distance, body_step,
                   collision_guard, make_disc_body, project_rigid,
                   rigid_velocity_field, t0_lower_bound)
from .config import RunConfig, default_config, load_config
from .continuity import (PenaltyParams, continuity_step,
                         regularize_initial_density, renormalized_residual,
                         smoothed_negative_part)
from .diagnostics import (EnergyLedgerRow, effective_viscous_flux,
                          energy_total, interior_pressure_norm, ledger_step,
                          rigidity_measure, surface_force_torque)
from .driver import RunReport, Stepper, SweepReport, run, sweep
from .fields import (MollifierKernel, StaggeredGrid, VectorField,
                     divergence, integrate, mollify, sym_gradient)
from .geometry import (BoundaryData, CutoffProfile, Disc, DomainSpec,
                       Rectangle, build_extension, erode, signed_distance,
                       throughflow_boundary)
from .momentum import (Problem, ViscosityModel, ViscousState,
                       momentum_step, penalty_ramp, pressure,
                       pressure_potential, stress, viscosity_fields)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
