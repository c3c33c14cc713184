"""Machine models (DESIGN.md §2-3); the collectives are priced in
:mod:`repro.analysis.costs`."""

from .model import MachineModel, laptop, pace_phoenix_cpu, pace_phoenix_gpu

__all__ = [
    "MachineModel",
    "laptop",
    "pace_phoenix_cpu",
    "pace_phoenix_gpu",
]
