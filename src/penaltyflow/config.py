"""Run configuration: flat key = value sections, every key validated.

Unknown sections or keys are hard errors; a silently ignored typo in a
regularization knob would invalidate a whole study.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace

import numpy as np

from .body import BodyState, make_disc_body, rigid_velocity_field
from .continuity import PenaltyParams
from .diagnostics import probe_ring
from .errors import ConfigError, InvalidShape, KernelUnresolved, ProbeOutside
from .fields import MollifierKernel, StaggeredGrid, VectorField
from .geometry import (BoundaryData, DomainSpec, build_extension,
                       resting_boundary, throughflow_boundary)

_PROFILES = ("throughflow", "zero")
_U0_CHOICES = ("extension", "zero", "rigid", "stream")


@dataclass(frozen=True)
class RunConfig:
    # the physics defaults are PenaltyParams' own; n, r and N are its
    # n_solid, r_moll and bc_sharpness
    Lx: float = 1.0
    Ly: float = 1.0
    h: float = PenaltyParams.h
    nx: int = 96
    ny: int = 96
    a: float = PenaltyParams.a
    gamma: float = PenaltyParams.gamma
    delta: float = PenaltyParams.delta
    beta: float = PenaltyParams.beta
    eps: float = PenaltyParams.eps
    n: float = PenaltyParams.n_solid
    r: float = PenaltyParams.r_moll
    N: float = PenaltyParams.bc_sharpness
    mu: float = PenaltyParams.mu
    lam: float = PenaltyParams.lam
    profile: str = "throughflow"
    speed: float = 0.2
    rho_b: float = 1.0
    taper: float = 0.0
    rho0: float = 1.0
    u0: str = "stream"
    body_present: bool = True
    body_mobile: bool = True
    x0: float = 0.5
    y0: float = 0.5
    radius: float = 0.15
    rho_s: float = 2.0
    markers: int = 64
    v0x: float = 0.0
    v0y: float = 0.0
    w0: float = 0.0
    t_end: float = 0.1
    cfl: float = 0.4
    dt: float = 0.0
    outdir: str = "out"
    cadence: int = 10
    snapshots: bool = False
    vtk: bool = False

    def with_updates(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    # ---- constructors for the solver objects -----------------------------
    def make_domain(self) -> DomainSpec:
        return DomainSpec(self.Lx, self.Ly, self.h)

    def make_grid(self) -> StaggeredGrid:
        return StaggeredGrid(self.nx, self.ny, self.Lx / self.nx,
                             self.Ly / self.ny)

    def make_params(self) -> PenaltyParams:
        return PenaltyParams(a=self.a, gamma=self.gamma, delta=self.delta,
                             beta=self.beta, eps=self.eps, n_solid=self.n,
                             r_moll=self.r, bc_sharpness=self.N,
                             mu=self.mu, lam=self.lam, h=self.h)

    def make_boundary(self, domain, grid) -> BoundaryData:
        taper = self.taper if self.taper > 0 else None
        if self.profile == "throughflow":
            bc = throughflow_boundary(domain, grid, self.speed, self.rho_b,
                                      taper)
        elif self.profile == "zero":
            bc = resting_boundary(domain, grid, self.rho_b)
        else:
            raise ConfigError(f"unknown boundary profile '{self.profile}'")
        u_ext, report = build_extension(bc, domain, grid)
        bc.u_ext = u_ext
        return bc, report

    def make_body(self) -> BodyState | None:
        if not self.body_present:
            return None
        return make_disc_body((self.x0, self.y0), self.radius, self.r,
                              self.rho_s, (self.v0x, self.v0y), self.w0,
                              self.markers)

    def initial_density(self, grid) -> np.ndarray:
        return np.full((grid.nx, grid.ny), self.rho0)

    def initial_velocity(self, grid, bc, body) -> VectorField:
        if self.u0 == "zero":
            return VectorField.zeros(grid)
        if self.u0 == "extension":
            return bc.u_ext.copy()
        if self.u0 == "stream":
            # impulsive start: the inflow profile extended straight
            # through the domain
            if self.profile != "throughflow":
                raise ConfigError("u0 = stream needs the throughflow "
                                  "profile")
            u = np.tile(bc.ub["left"][:, 0], (grid.nx + 1, 1))
            return VectorField(grid, u, np.zeros(grid.shape("vfaces")))
        if self.u0 == "rigid":
            if body is None:
                raise ConfigError("u0 = rigid requires a body")
            from .body import body_signed_distance
            rig = rigid_velocity_field(grid, body.X, body.V, body.w)
            chi_u = body_signed_distance(body, grid, "ufaces")
            chi_v = body_signed_distance(body, grid, "vfaces")
            bu = np.clip((chi_u + self.r) / self.r, 0.0, 1.0)
            bv = np.clip((chi_v + self.r) / self.r, 0.0, 1.0)
            return VectorField(grid,
                               (1 - bu) * bc.u_ext.u + bu * rig.u,
                               (1 - bv) * bc.u_ext.v + bv * rig.v)
        raise ConfigError(f"unknown initial velocity '{self.u0}'")

    def validate(self):
        if self.u0 not in _U0_CHOICES:
            raise ConfigError(f"initial u0 must be one of {_U0_CHOICES}")
        if self.profile not in _PROFILES:
            raise ConfigError(f"profile must be one of {_PROFILES}")
        if self.t_end <= 0 or self.cfl <= 0 or self.cfl > 1:
            raise ConfigError("need t_end > 0 and cfl in (0, 1]")
        if self.cadence < 1:
            raise ConfigError("cadence must be >= 1")
        # what BoundaryData and regularize_initial_density would reject in
        # set-up, checked on the scalars alone
        for key in ("rho0", "rho_b"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive")
        try:
            self.make_params()
            self.make_grid()
        except ValueError as exc:  # the constructors' own range checks
            raise ConfigError(str(exc)) from exc
        domain = self.make_domain()
        if self.body_present:
            bd = float(domain.boundary_distance(self.x0, self.y0))
            if bd - self.radius <= self.h:
                raise ConfigError(
                    f"initial body margin {bd - self.radius} must exceed "
                    f"h = {self.h}")
            # what the run itself would reject at set-up or at step 1,
            # decided by the initial body and the grid alone
            grid = self.make_grid()
            try:
                body = self.make_body()
                MollifierKernel.build(self.r, grid.dx, grid.dy)
                probe_ring(grid, domain, body)
            except (InvalidShape, KernelUnresolved, ProbeOutside) as exc:
                raise ConfigError(str(exc)) from exc
        return self


def _coerce(key, default, raw):
    try:
        if isinstance(default, bool):
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"cannot parse '{key} = {raw}'") from exc


# The config file's section of each RunConfig field, and the key of the
# fields whose key is not their name; the defaults are RunConfig's own.
_SECTIONS = {
    "domain": "Lx Ly h", "grid": "nx ny",
    "params": "a gamma delta beta eps n r N mu lam",
    "boundary": "profile speed rho_b taper", "initial": "rho0 u0",
    "body": "body_present body_mobile x0 y0 radius rho_s markers v0x v0y w0",
    "time": "t_end cfl dt", "output": "outdir cadence snapshots vtk"}
_KEYS = {"body_present": "present", "body_mobile": "mobile", "outdir": "dir"}
_SECTION_OF = {f: s for s, names in _SECTIONS.items() for f in names.split()}
# section -> key -> (field, default), in RunConfig's field order
_SCHEMA = {s: {_KEYS.get(f.name, f.name): (f.name, f.default)
               for f in fields(RunConfig) if _SECTION_OF[f.name] == s}
           for s in _SECTIONS}


def load_config(path) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep key case: N and n are different knobs
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            fname, default = _SCHEMA[section][key]
            values[fname] = _coerce(key, default, raw)
    return RunConfig(**values).validate()


def default_config(**overrides) -> RunConfig:
    return RunConfig(**overrides).validate()


def write_example_config(path):
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (_, default) in keys.items():
            lines.append(f"{key} = {default}")
        lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))
