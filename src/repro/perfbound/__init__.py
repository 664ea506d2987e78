"""perfbound: static cycle-cost & WCET analysis for Ouessant microcode.

Predicts what :mod:`repro.obs.attribution` measures: a sound
``[lo, hi]`` interval on total cycles and on the Fig.-4
transfer/compute/control decomposition, computed by running the
verifier's interval interpreter with a cost semantics.  Diagnostics
use the shared OU3xx catalog range.  See ``docs/ANALYSIS.md``.
"""

from .engine import CostBound, bound_program
from .model import BUCKETS, COMPUTE, CONTROL, CostModel, RacTiming, TRANSFER

__all__ = [
    "BUCKETS",
    "COMPUTE",
    "CONTROL",
    "CostBound",
    "CostModel",
    "RacTiming",
    "TRANSFER",
    "bound_program",
]
