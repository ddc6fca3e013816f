"""Finite-difference gradient check for the tape's backward rules."""

import math
from typing import Callable, Sequence

from coldgraph import autodiff as ad
from coldgraph.autodiff import Tensor


def finite_diff_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
) -> float:
    """Compare tape gradients of a scalar function against central differences.

    Returns the maximum over all parameter coordinates of
    ``|analytic - numeric| / max(1e-8, |numeric|)``.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps out of range: {eps}")
    params = list(params)
    with ad.Tape() as tape:
        out = f(params)
    if out.data.ndim != 0:
        raise ValueError("finite_diff_check needs a scalar-valued function")
    if not math.isfinite(float(out.data)):
        raise ValueError("non-finite function value")
    analytic = tape.backward(out, params)

    def eval_at() -> float:
        val = float(f(params).data)
        if not math.isfinite(val):
            raise ValueError("non-finite function value")
        return val

    worst = 0.0
    for p in params:
        grad = analytic[p]
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = eval_at()
            flat[i] = keep - eps
            lo = eval_at()
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * eps)
            rel = abs(gflat[i] - numeric) / max(1e-8, abs(numeric))
            worst = max(worst, rel)
    return worst
