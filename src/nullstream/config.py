"""Run-wide constants.

Every tunable the generators, reductions and certificates rely on lives in one
record so experiments can override them coherently.  The defaults below are the
calibrated values used by the acceptance suite:

  c1  target loss bound certified by the reductions (0.09)
  c4  pair offset scale for labeled-pair instances, c4 = sqrt(c1) (0.3)
  cf  conditioning floor on the witness first coordinate (0.2)
  c   separation constant for the hard two-subspace family (0.2)
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
    quant_range: float = 4.0
    max_passes: int = 500


@dataclass(frozen=True)
class VerifyDefaults:
    """Calibrated thresholds used by the certificate suite."""

    # no-joint-solution certificate
    joint_delta: float = 0.5
    joint_c_emp: float = 0.05
    # quadratic-form sandwich certificate
    sandwich_t: float = 0.2
    # spectral experiments
    sigma_envelope_lo: float = 0.3
    sigma_envelope_hi: float = 3.0
    # sphere concentration
    std_cap: float = 3.0
    # sphere marginal distances
    ks_normal_max: float = 0.03
    ks_exact_max: float = 0.01


@dataclass(frozen=True)
class RunConfig:
    constants: Constants = field(default_factory=Constants)
    separator: SeparatorDefaults = field(default_factory=SeparatorDefaults)
    verify: VerifyDefaults = field(default_factory=VerifyDefaults)


DEFAULTS = RunConfig()
