"""isslab: a numerical laboratory for input-to-state stability of bilinear
control systems — Orlicz-norm machinery, a Picard mild-solution solver,
explicit ISS bound audits, a diagonal benchmark system with closed-form
trajectories, and a conservative 1-D Fokker-Planck solver."""

__version__ = "0.1.0"

from . import errors
from .errors import *  # the exception hierarchy: the names in errors.__all__

__all__ = ["__version__", *errors.__all__]
