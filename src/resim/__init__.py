"""resim: fully implicit structured-grid reservoir simulator.

Two-phase oil-water and three-component black-oil models with backward-Euler
time stepping, Peaceman wells, inexact Newton iteration and decoupled
CPR-preconditioned BiCGSTAB.
"""

from .grid import Grid, RockFields, cell_index, load_spe10_fields
from .pvt import (CoreyTwoPhase, ThreePhaseRelPerm, PvtModel, FluidSystem,
                  Table1D, evaluate_properties)
from .model import ReservoirModel, ReservoirState, AssemblyError
from .wells import (Well, Perforation, Constraint, Schedule, peaceman_wi,
                    apply_schedule, complete_vertical, WellConfigError)
from .linear import (BlockMatrix, SolverConfig, quasi_impes_decouple,
                     abf_decouple, bicgstab, amg_vcycle, build_amg,
                     AmgHierarchy, BlockILU0)
from .nonlinear import (NewtonConfig, StepController, RunReport, ForcingHistory,
                        forcing_term, newton_step, advance_timestep,
                        SimulationAbort)
from .driver import (Deck, DeckError, parse_deck, load_deck, run_simulation,
                     write_vtk, initial_state)

__version__ = "0.1.0"

__all__ = [
    "Grid", "RockFields", "cell_index", "load_spe10_fields", "CoreyTwoPhase",
    "ThreePhaseRelPerm", "PvtModel", "FluidSystem", "Table1D",
    "evaluate_properties", "ReservoirModel", "ReservoirState", "AssemblyError",
    "Well", "Perforation", "Constraint", "Schedule", "peaceman_wi",
    "apply_schedule", "complete_vertical", "WellConfigError", "BlockMatrix",
    "SolverConfig", "quasi_impes_decouple", "abf_decouple", "bicgstab",
    "amg_vcycle", "build_amg", "AmgHierarchy", "BlockILU0", "NewtonConfig",
    "StepController", "RunReport", "ForcingHistory", "forcing_term",
    "newton_step", "advance_timestep", "SimulationAbort", "Deck", "DeckError",
    "parse_deck", "load_deck", "run_simulation", "write_vtk", "initial_state",
]
