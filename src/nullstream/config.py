"""Run-wide constants.

The calibrated values the generators, reductions and acceptance suite share
live in one frozen record, DEFAULTS:

  c1  target loss bound certified by the reductions (0.09)
  c4  pair offset scale for labeled-pair instances, c4 = sqrt(c1) (0.3)
  cf  conditioning floor on the witness first coordinate (0.2)
  c   separation constant for the hard two-subspace family (0.2)

plus the shape (dprime, subsample, quant_bits) of the registered projection
separator.  The certificate
thresholds are constants of nullstream.verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Constants:
    c1: float = 0.09
    c4: float = 0.3
    cf: float = 0.2
    c: float = 0.2

    def __post_init__(self):
        if not math.isclose(self.c4, math.sqrt(self.c1), rel_tol=1e-9):
            raise ValueError("c4 must equal sqrt(c1); got c4=%r c1=%r" % (self.c4, self.c1))
        for name in ("c1", "c4", "cf", "c"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError("%s must lie in (0, 1); got %r" % (name, v))


@dataclass(frozen=True)
class SeparatorDefaults:
    """Pilot-frozen knobs for the one-pass random-projection separator."""

    dprime: int = 600
    subsample: int = 600
    quant_bits: int = 16


@dataclass(frozen=True)
class RunConfig:
    constants: Constants = field(default_factory=Constants)
    separator: SeparatorDefaults = field(default_factory=SeparatorDefaults)


DEFAULTS = RunConfig()
