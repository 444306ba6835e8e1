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


def _relative_error(analytic: float, numeric: float, floor: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def grad_check(loss_fn, store: ParamStore, tolerance: float = 1e-4, step: float = 1e-5,
               max_coords_per_param: Optional[int] = None, rng=None,
               floor: float = 1e-4, corrupt_param: Optional[str] = None) -> GradCheckReport:
    """Compare backprop gradients against central finite differences.

    ``loss_fn(tape)`` must build the (deterministic) scalar loss on the
    given tape; a tape is required, so each probed coordinate re-runs it on
    a throwaway ``Tape()`` that is never replayed.  Large parameters can be
    subsampled via ``max_coords_per_param``.  ``corrupt_param`` shifts that
    parameter's analytic gradient by 1.0 before comparison; it exists as a
    negative control for the checker itself.
    """
    store.zero_grad()
    tape = Tape()
    loss = loss_fn(tape)
    tape.backward(loss)
    analytic = {name: store[name].grad.astype(np.float64).copy() for name in store}
    if corrupt_param is not None:
        if corrupt_param not in analytic:
            raise KeyError(f"no parameter named {corrupt_param!r}")
        analytic[corrupt_param] += 1.0
    if rng is None:
        rng = np.random.default_rng(0)

    checks = []
    for name in store:
        param = store[name]
        flat_value = param.value.reshape(-1)
        flat_analytic = analytic[name].reshape(-1)
        size = flat_value.shape[0]
        if max_coords_per_param is not None and size > max_coords_per_param:
            coords = rng.choice(size, size=max_coords_per_param, replace=False)
        else:
            coords = range(size)
        worst = ParamCheck(name, 0.0, (0,), float(flat_analytic[0]), 0.0, 0)
        n_checked = 0
        for coord in coords:
            original = flat_value[coord]
            flat_value[coord] = original + step
            loss_plus = float(loss_fn(Tape()).value)
            flat_value[coord] = original - step
            loss_minus = float(loss_fn(Tape()).value)
            flat_value[coord] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            rel = _relative_error(float(flat_analytic[coord]), numeric, floor)
            n_checked += 1
            if rel >= worst.max_rel_err:
                worst = ParamCheck(
                    name,
                    rel,
                    tuple(np.unravel_index(coord, param.value.shape)),
                    float(flat_analytic[coord]),
                    numeric,
                    n_checked,
                )
        worst.n_checked = n_checked
        checks.append(worst)
    return GradCheckReport(checks=checks, tolerance=tolerance)
