"""Wrappers that turn solvers for the derived problems back into null-vector
solvers.

Both wrappers are stateless combinators: all persistent memory belongs to the
inner algorithm, so the wrapped algorithm runs under exactly the inner bit
budget.  Each maps an outer sample to the inner steps it feeds: prepare
builds those steps and has the inner algorithm prepare them, and update only
feeds them.  The equation-insertion position of the regression wrapper is a
pure function of shared randomness and the dimension, derived afresh for
each prepared run and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOutput, ValidationError
from .streaming import OnePassAlgorithm, SharedRandomness, prepared


@dataclass(frozen=True)
class ReductionConfig:
    """Constants shared by the two reductions."""

    c4: float
    cf: float

    def __post_init__(self):
        # NaN fails every comparison, so test for the valid range
        if not (0 < self.c4 < math.inf and 0 < self.cf < math.inf):
            raise ValidationError("c4 and cf must be finite and positive")

    @property
    def norm_floor(self) -> float:
        """cf / 2, the floor of the regression wrapper's normalization: an
        inner output shorter than this cannot have met its loss guarantee, so
        normalizing it would fabricate a meaningless answer."""
        return self.cf / 2.0

    @classmethod
    def from_constants(cls, consts) -> "ReductionConfig":
        return cls(c4=consts.c4, cf=consts.cf)


class _InnerSteps(OnePassAlgorithm):
    """A wrapper whose outer samples first_index, ... feed self.inner the
    steps self._steps(first_index, thetas, shared) lists: one list per
    outer sample of (inner index, inner sample) pairs, with consecutive
    inner indices."""

    def _steps(self, first_index: int, thetas: list, shared: SharedRandomness) -> list:
        raise NotImplementedError

    def prepare(self, first_index, samples, shared):
        """Each outer sample's steps, with every inner sample replaced by the
        inner algorithm's prepared value at its inner index."""
        if not samples:
            return []
        groups = self._steps(first_index, [np.asarray(s, dtype=float) for s in samples], shared)
        flat = [z for group in groups for _, z in group]
        values = iter(prepared(self.inner, groups[0][0][0], flat, shared))
        return [[(j, next(values)) for j, _ in group] for group in groups]

    def update(self, i, sample, state, shared):
        for j, value in sample:
            state = self.inner.update(j, value, state, shared)
        return state


class AnvViaLsp(_InnerSteps):
    """Feed each stream vector as a +/- labeled pair shifted along e1.

    Inner step indices are 2i-1 and 2i for outer step i, so a resumed run
    (protocol party 2) continues the inner numbering consistently.
    """

    def __init__(self, lsp_alg: OnePassAlgorithm, cfg: ReductionConfig):
        self.inner = lsp_alg
        self.cfg = cfg

    def _steps(self, first_index, thetas, shared):
        groups = []
        for i, theta in enumerate(thetas, start=first_index):
            d = theta.shape[0]
            shift = np.zeros(d)
            shift[0] = self.cfg.c4 / math.sqrt(d)
            groups.append([(2 * i - 1, (theta + shift, 1.0)), (2 * i, (theta - shift, -1.0))])
        return groups

    def finalize(self, state, shared):
        w = np.asarray(self.inner.finalize(state, shared), dtype=float)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise DegenerateOutput("inner separator returned the zero vector")
        return w / norm


def anv_via_lsp(lsp_alg: OnePassAlgorithm, cfg: ReductionConfig) -> OnePassAlgorithm:
    return AnvViaLsp(lsp_alg, cfg)


class AnvViaLr(_InnerSteps):
    """Feed the stream as homogeneous equations plus one pinned equation.

    Every stream vector theta_k becomes the equation theta_k^T w = 0; the
    equation e1^T w = cf is inserted after position p, with p uniform in
    {0, ..., d-1} derived from shared randomness and the run's dimension d.
    p is never stored; it is derived once per prepared run.  The inner index
    of theta_k is k for k <= p and k+1 afterwards; the pinned equation sits
    at p+1.
    """

    def __init__(self, lr_alg: OnePassAlgorithm, cfg: ReductionConfig, seed: int = 0):
        self.inner = lr_alg
        self.cfg = cfg
        self.seed = int(seed)

    def _steps(self, first_index, thetas, shared):
        d = thetas[0].shape[0]
        p = min(int(shared.generator("anv-via-lr", self.seed).random() * d), d - 1)
        e1 = np.zeros(d)
        e1[0] = 1.0
        groups = []
        for i, theta in enumerate(thetas, start=first_index):
            steps = [(i if i <= p else i + 1, (theta, 0.0))]
            if p == 0 and i == 1:
                steps.insert(0, (1, (e1, self.cfg.cf)))
            elif p == i:
                steps.append((p + 1, (e1, self.cfg.cf)))
            groups.append(steps)
        return groups

    def finalize(self, state, shared):
        w = np.asarray(self.inner.finalize(state, shared), dtype=float)
        norm = np.linalg.norm(w)
        if norm < self.cfg.norm_floor:
            raise DegenerateOutput(
                "inner solver norm %.3g below floor %.3g" % (norm, self.cfg.norm_floor)
            )
        return w / norm


def anv_via_lr(lr_alg: OnePassAlgorithm, cfg: ReductionConfig, seed: int = 0) -> OnePassAlgorithm:
    return AnvViaLr(lr_alg, cfg, seed)
