"""Derivative-free minimizers (Powell, SPSA) and a plain gradient-descent
driver.

All three share one result contract: they return only a TrainRecord, whose
final_params is the best parameter vector, final_cost the cost at that
vector and cost_history every objective evaluation in call order; its
evaluations count is the length of that history.
Everything is deterministic given the config (SPSA through its seed), which
is what makes benchmark runs reproducible bit for bit.  Every objective
evaluation goes through ``_Tracker``, which raises FloatingPointError when
a trial point or its cost is non-finite, so no method can report a run
that diverged as converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

OPTIMIZER_KINDS = ("powell", "spsa", "param_shift_gd")

# Powell's initial bracket step along a direction, in radians.  Every cost is
# 2 pi-periodic in every parameter, so a step longer than 2 pi would mean
# nothing; 0.5 stays well inside that.
_BRACKET_STEP = 0.5

_GOLD = 1.618034
_CGOLD = 0.3819660
_TINY = 1e-21


@dataclass
class OptimizerConfig:
    kind: str = "powell"
    max_iterations: int = 1000
    cost_tolerance: float = 1e-8
    param_tolerance: float = 1e-8  # param_shift_gd only
    learning_rate: float = 0.1  # param_shift_gd only
    spsa_a: float = 0.2
    spsa_c: float = 0.1
    spsa_alpha: float = 0.602
    spsa_gamma: float = 0.101
    seed: int = 0
    line_search_tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}; "
                             f"expected one of {list(OPTIMIZER_KINDS)}")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        for name in ("cost_tolerance", "param_tolerance", "learning_rate", "line_search_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # written so that NaN fails every comparison and is rejected too
        for name in ("spsa_a", "spsa_c"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("spsa_alpha", "spsa_gamma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if self.kind == "spsa":
            # a gain gain/(k+1)^power falls with k, so the last one is the smallest
            for gain, power in (("spsa_a", "spsa_alpha"), ("spsa_c", "spsa_gamma")):
                try:
                    last = getattr(self, gain) / self.max_iterations ** getattr(self, power)
                except OverflowError:  # (k+1)^power beyond the float range
                    last = 0.0
                if last == 0.0:
                    raise ValueError(
                        f"{power} {getattr(self, power)!r} makes the gain {gain}/(k+1)^{power} "
                        f"reach 0 within max_iterations {self.max_iterations}")


@dataclass
class TrainRecord:
    """Outcome of one optimization run; ``training.train`` times the run,
    sets the two wall times, counts the slots it trained and records the
    threads its passes could share rows over."""

    final_params: np.ndarray
    cost_history: list[float] = field(default_factory=list)
    wall_time_total: float = 0.0
    wall_time_per_sample: float = 0.0
    converged: bool = False
    final_cost: float = math.nan  # cost at final_params, as evaluated in the run
    live_params: int | None = None  # slots the minimizer saw, of len(final_params)
    pass_workers: int | None = None  # simulator.pass_workers() during the run

    @property
    def evaluations(self) -> int:
        return len(self.cost_history)


class _Tracker:
    """Wraps the objective: records every cost in call order, and stops the
    run on a non-finite trial point or cost."""

    def __init__(self, f):
        self.f = f
        self.history: list[float] = []

    def __call__(self, x):
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("optimizer diverged to non-finite parameters")
        value = float(self.f(x))
        if not math.isfinite(value):
            raise FloatingPointError(f"optimizer diverged to a non-finite cost {value}")
        self.history.append(value)
        return value


def _check_x0(x0) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.size == 0:
        raise ValueError("empty parameter vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite initial parameters")
    return x


def _finish(tracker, x, fx, converged) -> TrainRecord:
    return TrainRecord(final_params=x, cost_history=tracker.history, converged=converged,
                       final_cost=float(fx))


def _small_change(a, b, tol) -> bool:
    """The stop rule on a cost pair: their difference is small relative to
    their size, 2|a - b| <= tol (|a| + |b|) + 1e-20."""
    return 2.0 * abs(a - b) <= tol * (abs(a) + abs(b)) + 1e-20


def _bracket(g, xa, xb, fa, fb):
    """Expand (xa, xb) downhill into a bracket xa > xb < xc (textbook mnbrak)."""
    if fb > fa:
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = g(xc)
    while fb > fc:
        r = (xb - xa) * (fb - fc)
        q = (xb - xc) * (fb - fa)
        denom = 2.0 * max(abs(q - r), _TINY) * (1.0 if q - r >= 0 else -1.0)
        u = xb - ((xb - xc) * q - (xb - xa) * r) / denom
        ulim = xb + 100.0 * (xc - xb)
        if (xb - u) * (u - xc) > 0.0:  # parabolic u between b and c
            fu = g(u)
            if fu < fc:
                return xb, u, xc, fb, fu, fc
            if fu > fb:
                return xa, xb, u, fa, fb, fu
            u = xc + _GOLD * (xc - xb)
            fu = g(u)
        elif (xc - u) * (u - ulim) > 0.0:  # u between c and limit
            fu = g(u)
            if fu < fc:
                xb, xc, u = xc, u, u + _GOLD * (u - xc)
                fb, fc, fu = fc, fu, g(u)
        elif (u - ulim) * (ulim - xc) >= 0.0:  # cap at the limit
            u = ulim
            fu = g(u)
        else:
            u = xc + _GOLD * (xc - xb)
            fu = g(u)
        xa, xb, xc = xb, xc, u
        fa, fb, fc = fb, fc, fu
    return xa, xb, xc, fa, fb, fc


def _brent(g, xa, xb, xc, fb, tol, max_iter=100):
    """Brent's minimizer on a bracket: golden section with parabolic steps."""
    a, b = (xa, xc) if xa < xc else (xc, xa)
    x = w = v = xb
    fx = fw = fv = fb
    d = e = 0.0
    for _ in range(max_iter):
        xm = 0.5 * (a + b)
        tol1 = tol * abs(x) + 1e-12
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x, fx
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # Take the parabolic step only if it is small and inside (a, b);
            # a fit that overflowed to nan fails every test and falls back
            # to golden section instead of dividing by q.
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if xm - x >= 0 else -tol1
            else:
                e = (a - x) if x >= xm else (b - x)
                d = _CGOLD * e
        else:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d >= 0 else -tol1)
        fu = g(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _line_minimize(f, x, direction, fx, tol):
    """Minimize f along x + alpha*direction; returns (alpha, f_min)."""

    def g(alpha):
        return f(x + alpha * direction)

    xa, xb, xc, fa, fb, fc = _bracket(g, 0.0, _BRACKET_STEP, fx, g(_BRACKET_STEP))
    if not math.isfinite(xc - xa):
        raise FloatingPointError(
            f"line search diverged: the bracket [{xa:.3g}, {xc:.3g}] has a non-finite width"
        )
    alpha, f_min = _brent(g, xa, xb, xc, fb, tol)
    if f_min > fx:  # numerical safety; the bracket is anchored at alpha=0
        return 0.0, fx
    return alpha, f_min


def powell_minimize(f, x0, config: OptimizerConfig) -> TrainRecord:
    """Powell's conjugate-direction method.

    Each iteration line-minimizes along every maintained direction (Brent
    line search to ``line_search_tol`` in the line parameter, initial
    bracket step ``_BRACKET_STEP``), then applies the standard
    largest-decrease replacement rule.  Terminates when the relative cost
    decrease over a full cycle drops below cost_tolerance.
    """
    x = _check_x0(x0)
    n = x.size
    tracker = _Tracker(f)
    fx = tracker(x)
    directions = np.eye(n)
    converged = False

    for _ in range(config.max_iterations):
        f_start, x_start = fx, x.copy()
        delta = 0.0
        i_big = 0
        for i in range(n):
            f_before = fx
            alpha, fx = _line_minimize(tracker, x, directions[i], fx, config.line_search_tol)
            x = x + alpha * directions[i]
            if f_before - fx > delta:
                delta = f_before - fx
                i_big = i
        # a line search never raises fx, so f_start - fx is never negative
        if _small_change(f_start, fx, config.cost_tolerance):
            converged = True
            break
        # extrapolated point test before replacing a direction
        x_ext = 2.0 * x - x_start
        f_ext = tracker(x_ext)
        if f_ext < f_start:
            t = 2.0 * (f_start - 2.0 * fx + f_ext) * (f_start - fx - delta) ** 2
            t -= delta * (f_start - f_ext) ** 2
            if t < 0.0:
                new_dir = x - x_start
                norm = np.linalg.norm(new_dir)
                if norm > 1e-14:
                    alpha, fx = _line_minimize(tracker, x, new_dir, fx, config.line_search_tol)
                    x = x + alpha * new_dir
                    directions[i_big] = directions[n - 1]
                    directions[n - 1] = new_dir / norm

    return _finish(tracker, x, fx, converged)


def spsa_minimize(f, x0, config: OptimizerConfig) -> TrainRecord:
    """Simultaneous-perturbation stochastic approximation.

    Rademacher perturbations from a seeded generator; gain sequences
    a_k = a/(k+1)^alpha and c_k = c/(k+1)^gamma.  Always runs to the
    iteration cap and returns the best-seen iterate; ``converged`` means the
    running best improved by no more than cost_tolerance over the final 20%
    of iterations.
    """
    x = _check_x0(x0)
    rng = np.random.default_rng(config.seed)
    tracker = _Tracker(f)

    best_x = x.copy()
    best_f = tracker(x)
    best_trace = [best_f]
    for k in range(config.max_iterations):
        a_k = config.spsa_a / (k + 1) ** config.spsa_alpha
        c_k = config.spsa_c / (k + 1) ** config.spsa_gamma
        delta = rng.integers(0, 2, size=x.size) * 2.0 - 1.0
        f_plus = tracker(x + c_k * delta)
        f_minus = tracker(x - c_k * delta)
        grad = (f_plus - f_minus) / (2.0 * c_k) * delta  # 1/delta == delta
        x = x - a_k * grad
        fx = tracker(x)
        if fx < best_f:
            best_f, best_x = fx, x.copy()
        best_trace.append(best_f)

    mark = int(np.floor(0.8 * config.max_iterations))
    stable = best_trace[mark] - best_trace[-1] <= config.cost_tolerance * (1.0 + abs(best_f))
    return _finish(tracker, best_x, best_f, stable)


def gradient_descent_minimize(f, grad, x0, config: OptimizerConfig) -> TrainRecord:
    """Fixed-step gradient descent driven by an external gradient oracle.

    Raises FloatingPointError when a cost or the parameters become
    non-finite (through ``_Tracker``), or when a step larger than
    param_tolerance leaves x unchanged: that step was lost to rounding (x
    has grown far past where angles resolve), so the cost would repeat and
    pass the tolerance test.
    """
    x = _check_x0(x0)
    tracker = _Tracker(f)
    fx = tracker(x)
    converged = False
    for _ in range(config.max_iterations):
        with np.errstate(over="ignore"):
            step = config.learning_rate * np.asarray(grad(x), dtype=float)
            x_new = x - step
        small_step = np.max(np.abs(step)) <= config.param_tolerance
        if not small_step and np.array_equal(x_new, x):
            raise FloatingPointError(
                f"gradient descent diverged: a step of {np.max(np.abs(step)):.3g} "
                f"is lost to rounding at parameters of {np.max(np.abs(x)):.3g}"
            )
        f_new = tracker(x_new)
        small_cost = _small_change(fx, f_new, config.cost_tolerance)
        x, fx = x_new, f_new
        if small_cost or small_step:
            converged = True
            break
    return _finish(tracker, x, fx, converged)

