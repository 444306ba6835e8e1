"""Central finite-difference checking of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Tape
from .params import ParamStore


@dataclass
class ParamCheck:
    name: str
    max_rel_err: float
    worst_index: tuple
    analytic: float
    numeric: float
    n_checked: int


@dataclass
class GradCheckReport:
    checks: list
    tolerance: float

    @property
    def worst(self) -> ParamCheck:
        return max(self.checks, key=lambda c: c.max_rel_err)

    @property
    def max_rel_err(self) -> float:
        return self.worst.max_rel_err

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def summary(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok" if check.max_rel_err <= self.tolerance else "FAIL"
            lines.append(
                f"{status:4s} {check.name:32s} rel_err={check.max_rel_err:.3e} "
                f"(analytic={check.analytic:+.6e} numeric={check.numeric:+.6e} "
                f"at {check.worst_index}, {check.n_checked} coords)"
            )
        worst = self.worst
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict}: worst parameter {worst.name} rel_err={worst.max_rel_err:.3e} "
            f"(tolerance {self.tolerance:.1e})"
        )
        return "\n".join(lines)


def _relative_error(analytic: float, numeric: float) -> float:
    # The 1e-4 floor keeps gradients that are both near 0 from failing on
    # rounding alone.
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)


def grad_check(loss_fn, store: ParamStore, tolerance: float = 1e-4, step: float = 1e-5,
               max_coords_per_param: Optional[int] = None, rng=None) -> GradCheckReport:
    """Compare backprop gradients against central finite differences.

    ``loss_fn(tape)`` must build the (deterministic) scalar loss on the
    given tape; a tape is required, so each probed coordinate re-runs it on
    a throwaway ``Tape()`` that is never replayed (a loss with dropout seeds
    that tape's stream itself, so every run draws the same masks).  Large
    parameters can be subsampled via ``max_coords_per_param``, which must be
    at least 1.  The tolerance must be positive and finite: a NaN or negative
    one would fail every check and an infinite one pass it.
    """
    if not 0.0 < tolerance < float("inf"):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if max_coords_per_param is not None and max_coords_per_param < 1:
        raise ValueError(f"max_coords_per_param must be at least 1, got {max_coords_per_param}")
    tape = Tape()
    store.backward(tape, loss_fn(tape))
    analytic = {name: store[name].grad.astype(np.float64).copy() for name in store}
    if rng is None:
        rng = np.random.default_rng(0)

    checks = []
    for name in store:
        param = store[name]
        # Coordinates are flat indices in row-major order; each probe writes
        # through its multi-index, so it perturbs the parameter itself in
        # either memory order.
        size = param.value.size
        if max_coords_per_param is not None and size > max_coords_per_param:
            coords = rng.choice(size, size=max_coords_per_param, replace=False)
        else:
            coords = range(size)
        worst = ParamCheck(name, 0.0, (0,), float(analytic[name].flat[0]), 0.0, 0)
        n_checked = 0
        for coord in coords:
            index = tuple(int(i) for i in np.unravel_index(coord, param.value.shape))
            original = param.value[index]
            param.value[index] = original + step
            loss_plus = float(loss_fn(Tape()).value)
            param.value[index] = original - step
            loss_minus = float(loss_fn(Tape()).value)
            param.value[index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            rel = _relative_error(float(analytic[name][index]), numeric)
            n_checked += 1
            if rel >= worst.max_rel_err:
                worst = ParamCheck(name, rel, index, float(analytic[name][index]), numeric,
                                   n_checked)
        worst.n_checked = n_checked
        checks.append(worst)
    return GradCheckReport(checks=checks, tolerance=tolerance)
