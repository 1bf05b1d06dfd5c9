"""Pricing strategies for the HOT lanes.

Three controllers share one interface: ``set_demand(q1, q2)`` takes the
demand rates a quote prices, ``quote(w)`` returns the toll for the current
step from the current internal state, the last demand set and the delay
difference ``w``, and ``observe(dt, lambda1, zeta, w, u, q1, q2, q3)`` feeds
the realized step back into the controller.  The engine calls ``set_demand``
only at a step whose demand may have changed and has SOVs to price, so the
demand term of a price law is formed once per demand read, there; it calls
``quote`` and then ``observe`` at every step with SOVs, so a quote never
sees same-step outcomes.  Each controller also has ``vot_estimate``, its
current estimate of the average value of time, or None for a strategy that
keeps none.

* ``VotFeedbackController`` integrates the HOT queue and residual capacity
  into an estimate of the average value of time, then inverts the logit
  model for the market-clearing price.
* ``IntegralTollController`` adjusts the toll directly in proportion to the
  gap between realized and desired HOT demand.
* ``SelfLearningController`` tracks the willingness-to-pay coefficients with
  a linear Kalman filter and inverts the fitted logit for the price.

Both logit inversions take their demand term and its congested-regime rule,
which a nan demand fails, from ``choice.clearing_log_odds`` in
``set_demand``; a quote before the first ``set_demand`` is nan.

Each controller's scenario spec (``VotControllerSpec``, ``IntegralTollSpec``,
``SelfLearningSpec``) sits beside it with its defaults.  Its fields are the
constructor's parameters after ``hot_capacity``, and the one ``build`` of
``_ControllerSpec`` passes each by name; ``config.SCHEMA`` reads its scenario
keys off the same fields.  The value rules live in the constructors, which a
spec runs once when built; each checks that a number, array entries
included, is finite before its range rule.  A non-finite value, a gain out
of range, a self-learning array of the wrong shape, and an ``initial_cov`` or
``process_noise`` whose symmetric part ``0.5 (C + C')`` has an eigenvalue
below ``-COV_EIG_TOL`` times its largest magnitude are each a ValueError
whose message begins with the key.  A constructor keeps each number as the
float its number rule returns, and a spec, once checked, stores each field
in one form (``errors.stored``): None as it is, a number as a float and an
array, numpy's too, as nested tuples of floats.  So a spec or a controller
built from ints or numpy scalars holds the floats a scenario file gives.

Building a spec or a controller imports no numpy: the value rules run in
plain Python, and a scalar or diagonal covariance's eigenvalues are its
diagonal.  numpy is imported where it computes: for the eigenvalues of any
other covariance (LAPACK's), for the self-learning filter's matrix operands,
numpy arrays built on its first update, and for its ``theta`` and ``cov``,
arrays built when read.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .choice import clearing_log_odds
from .errors import PriceUndefinedError, _float_array, require_finite, require_positive, stored
from .traffic import Capacities

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

ALPHA2_FLOOR = 1e-6
# a covariance eigenvalue below -COV_EIG_TOL times the largest eigenvalue
# magnitude is negative beyond roundoff
COV_EIG_TOL = 1e-9
# write Python floats into a float64 buffer, the native bytes of each double
_PACK3 = struct.Struct("3d").pack_into
_PACK9 = struct.Struct("9d").pack_into


class _ControllerSpec:
    """Settings of one pricing controller, checked by building it once with
    the constructor's value rules, none of which reads the capacities, and
    then each stored in the form ``errors.stored`` gives.

    A spec names its controller class as ``controller``; its fields are the
    constructor's parameters after ``hot_capacity``, by name.
    """

    controller: type

    def __post_init__(self) -> None:
        self.build(Capacities(1.0, 1.0))
        for name, value in vars(self).items():  # sets only existing keys
            object.__setattr__(self, name, stored(value))

    def build(self, caps: Capacities):
        """The controller for HOT capacity ``caps.hot``, each field passed as
        the keyword of its name (a frozen dataclass's ``__dict__`` holds
        exactly its fields)."""
        return self.controller(caps.hot, **vars(self))


class VotFeedbackController:
    """Integral estimator of the average value of time plus a logit-inverting price law.

    A positive HOT queue raises the estimate with gain ``queue_gain`` and
    positive residual capacity lowers it with gain ``residual_gain``.  The
    price is the estimated delay cost plus the demand term
    ``choice.clearing_log_odds`` over ``scale_guess``, the operator's guess of
    the logit scale, which ``set_demand`` forms.
    """

    _split = math.nan  # the demand term of the last set_demand

    def __init__(self, hot_capacity: float, queue_gain: float, residual_gain: float,
                 scale_guess: float, initial_vot: float) -> None:
        self.hot_capacity = hot_capacity
        self.queue_gain = require_positive("queue_gain", queue_gain)
        self.residual_gain = require_positive("residual_gain", residual_gain)
        self.scale_guess = require_positive("scale_guess", scale_guess)
        self.vot_estimate = require_finite("initial_vot", initial_vot)

    def set_demand(self, q1: float, q2: float) -> None:
        self._split = clearing_log_odds(q1, q2, self.hot_capacity) / self.scale_guess

    def quote(self, w: float) -> float:
        return self.vot_estimate * w + self._split

    def observe(self, dt, lambda1, zeta, w, u, q1, q2, q3) -> None:
        # one explicit Euler step of the estimator
        self.vot_estimate += dt * (self.queue_gain * lambda1 - self.residual_gain * zeta)


@dataclass(frozen=True)
class VotControllerSpec(_ControllerSpec):
    """Gains and initial state of the VOT-estimating feedback controller."""

    queue_gain: float = 0.1
    residual_gain: float = 0.1
    scale_guess: float = 1.0
    initial_vot: float = 0.25

    controller = VotFeedbackController


class IntegralTollController:
    """Toll adjusted in proportion to the accumulated HOT demand error; a
    ``target_demand`` of None fills the HOT capacity."""

    vot_estimate = None

    def __init__(self, hot_capacity: float, gain: float, initial_price: float,
                 target_demand: float | None) -> None:
        if target_demand is None:
            target_demand = hot_capacity
        self.gain = require_positive("gain", gain)
        self.u = require_finite("initial_price", initial_price)
        self.target_demand = require_finite("target_demand", target_demand)

    def set_demand(self, q1: float, q2: float) -> None:
        """Nothing: the toll prices no demand term, so any demand runs."""

    def quote(self, w: float) -> float:
        return self.u

    def observe(self, dt, lambda1, zeta, w, u, q1, q2, q3) -> None:
        # HOT arrival demand is HOVs plus paying SOVs
        self.u += self.gain * (q1 + q3 - self.target_demand)


@dataclass(frozen=True)
class IntegralTollSpec(_ControllerSpec):
    """Gain and initial toll of the demand-tracking integral controller."""

    gain: float = 0.01
    initial_price: float = math.log(2.0)
    target_demand: float | None = None  # None: fill the HOT capacity

    controller = IntegralTollController


class SelfLearningController:
    """Kalman-filtered willingness-to-pay model inverted for the price.

    State vector ``theta = [alpha1, alpha2, gamma]``: marginal delay utility
    (1/min), marginal price utility (1/$), and a bias term.  The realized
    paying share yields the scalar measurement
    ``log((q2 - q3)/q3) = -alpha1*w + alpha2*u + gamma``.
    The implied value-of-time estimate is ``alpha1/alpha2``.

    The state is held in Python floats; ``theta`` and ``cov`` are arrays
    built from them when read.  The constructor checks its values in plain
    Python and builds no array; only a covariance with an off-diagonal entry
    takes its eigenvalues from numpy.  The arrays the six matrix products of
    a step read are per-controller numpy buffers, built by the first update
    (``_new_operands``) and written in place.

    ``quote`` checks ``alpha2`` on every call, since the filter moves it.
    Its log term, ``choice.clearing_log_odds`` with its demand checks, is
    formed by ``set_demand``, so at a step that sets a demand which breaks
    the congested regime that error comes before the ``alpha2`` one.
    """

    _split = math.nan  # the demand term of the last set_demand

    def __init__(self, hot_capacity: float, initial_theta, initial_cov,
                 measurement_var: float, process_noise) -> None:
        self.measurement_var = require_positive("measurement_var", measurement_var)
        self.hot_capacity = hot_capacity
        theta = _float_array("initial_theta", initial_theta, "three numbers", (3,))
        noise = _as_matrix(process_noise, "process_noise")
        posterior = _as_matrix(initial_cov, "initial_cov")
        for key, mat in (("initial_cov", posterior), ("process_noise", noise)):
            # the symmetric part as 0.5 * C + 0.5 * C', no overflow near the float max
            eig = _symmetric_eigenvalues(
                [[0.5 * mat[i][j] + 0.5 * mat[j][i] for j in range(3)] for i in range(3)])
            if min(eig) < -COV_EIG_TOL * max(map(abs, eig)):
                raise ValueError(
                    f"{key}: expected a covariance, whose symmetric part has no "
                    f"negative eigenvalue; smallest eigenvalue is {min(eig):.6g}"
                )
        self._coef = t0, t1, _ = tuple(theta)
        self.vot_estimate = t0 / t1 if t1 else _divide_by_zero((t0,), t1)[0]
        self._posterior = tuple(itertools.chain.from_iterable(posterior))
        self._noise = tuple(itertools.chain.from_iterable(noise))
        # the product operands, built by the first update: a plain attribute,
        # as a cached_property writes through the instance's __dict__, after
        # which each attribute access of a step is slower (CPython 3.11)
        self._operands = None

    def _new_operands(self) -> tuple:
        """The arrays the products of ``observe`` read: theta, h, the
        predicted covariance (posterior plus process noise) of the next
        step, and I - g h' with its transpose, a view."""
        import numpy as np

        prior = [c + n for c, n in zip(self._posterior, self._noise)]
        ikh = np.empty((3, 3))
        return (np.array(self._coef), np.array([0.0, 0.0, 1.0]),
                np.array(prior).reshape(3, 3), ikh, ikh.T)

    @property
    def theta(self) -> np.ndarray:
        """The coefficients ``[alpha1, alpha2, gamma]``."""
        import numpy as np

        return np.array(self._coef)

    @property
    def cov(self) -> np.ndarray:
        """The posterior covariance: ``initial_cov`` until the first update."""
        import numpy as np

        return np.array(self._posterior).reshape(3, 3)

    def observe(self, dt, lambda1, zeta, w, u, q1, q2, q3) -> None:
        """One predict/update cycle against the realized paying share.

        The six matrix products run through numpy (BLAS).  The elementwise
        algebra around them runs on Python floats, one IEEE operation for
        each numpy one and in the same order, so the result is bit for bit
        that of the all-array filter.
        """
        if q2 <= 0.0:
            return
        # min(max(q3, margin), q2 - margin) as comparisons, the same operand
        # picked, nan included
        margin = 1e-6 * q2
        q3 = margin if margin > q3 else q3
        upper = q2 - margin
        q3 = upper if upper < q3 else q3
        y = math.log((q2 - q3) / q3)
        operands = self._operands
        if operands is None:
            operands = self._operands = self._new_operands()
        theta, h, prior, ikh, ikh_t = operands
        h0 = -w
        h[0] = h0
        h[1] = u

        s = float(h.dot(prior).dot(h)) + self.measurement_var
        p0, p1, p2 = prior.dot(h).tolist()
        if s:
            g0, g1, g2 = p0 / s, p1 / s, p2 / s
        else:
            g0, g1, g2 = _divide_by_zero((p0, p1, p2), s)
        innov = y - float(h.dot(theta))
        t0, t1, t2 = self._coef
        t0, t1, t2 = t0 + g0 * innov, t1 + g1 * innov, t2 + g2 * innov
        _PACK3(theta, 0, t0, t1, t2)
        self._coef = t0, t1, t2
        self.vot_estimate = t0 / t1 if t1 else _divide_by_zero((t0,), t1)[0]

        # Joseph form keeps the covariance symmetric PSD under roundoff:
        # (I - g h') cov (I - g h')' + r g g', then 0.5 (c + c').
        # h[2] is 1.0, so g_i * h[2] is g_i exactly.
        _PACK9(
            ikh, 0,
            1.0 - g0 * h0, 0.0 - g0 * u, 0.0 - g0,
            0.0 - g1 * h0, 1.0 - g1 * u, 0.0 - g1,
            0.0 - g2 * h0, 0.0 - g2 * u, 1.0 - g2,
        )
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = (
            ikh.dot(prior).dot(ikh_t).tolist()
        )
        r = self.measurement_var
        c00, c01, c02 = a00 + r * (g0 * g0), a01 + r * (g0 * g1), a02 + r * (g0 * g2)
        c10, c11, c12 = a10 + r * (g1 * g0), a11 + r * (g1 * g1), a12 + r * (g1 * g2)
        c20, c21, c22 = a20 + r * (g2 * g0), a21 + r * (g2 * g1), a22 + r * (g2 * g2)
        # c_ij + c_ji == c_ji + c_ij exactly, so each off-diagonal pair is summed once
        d0, d1, d2 = 0.5 * (c00 + c00), 0.5 * (c11 + c11), 0.5 * (c22 + c22)
        s01, s02, s12 = 0.5 * (c01 + c10), 0.5 * (c02 + c20), 0.5 * (c12 + c21)
        self._posterior = d0, s01, s02, s01, d1, s12, s02, s12, d2
        n00, n01, n02, n10, n11, n12, n20, n21, n22 = self._noise
        _PACK9(
            prior, 0,
            d0 + n00, s01 + n01, s02 + n02,
            s01 + n10, d1 + n11, s12 + n12,
            s02 + n20, s12 + n21, d2 + n22,
        )

    def set_demand(self, q1: float, q2: float) -> None:
        self._split = clearing_log_odds(q1, q2, self.hot_capacity)

    def quote(self, w: float) -> float:
        alpha1, alpha2, gamma = self._coef
        if -ALPHA2_FLOOR < alpha2 < ALPHA2_FLOOR:  # abs(alpha2) < floor
            raise PriceUndefinedError(
                f"price-utility estimate alpha2={alpha2:g} is too close to zero"
            )
        return (self._split + alpha1 * w - gamma) / alpha2


@dataclass(frozen=True)
class SelfLearningSpec(_ControllerSpec):
    """Initialization of the Kalman willingness-to-pay estimator."""

    initial_theta: tuple[float, float, float] = (0.25, 1.0, 0.1)
    initial_cov: float | tuple = 0.1          # scalar scales the identity
    measurement_var: float = 0.09
    process_noise: float | tuple = 1e-6       # scalar scales the identity

    controller = SelfLearningController


def _divide_by_zero(values, zero: float) -> list:
    """``values / zero`` for a signed zero ``zero``, as IEEE division (numpy's
    too) gives it: a signed inf, or nan for a zero or a nan, and no error.
    Multiplying by the inf of the zero's sign gives those same results."""
    inf = math.copysign(math.inf, zero)
    return [value * inf for value in values]


def _as_matrix(value, name: str) -> list[list[float]]:
    """A scalar times the identity, or a 3x3 matrix, as three lists of floats."""
    mat = _float_array(name, value, "a number or a 3x3 matrix", (), (3, 3))
    if isinstance(mat, float):  # each entry as mat * 1.0 or mat * 0.0, -0.0 kept
        return [[mat * (i == j) for j in range(3)] for i in range(3)]
    return mat


def _symmetric_eigenvalues(mat: list[list[float]]) -> list[float]:
    """The eigenvalues of the symmetric 3x3 matrix ``mat``: a diagonal one's,
    a scalar's included, read off as they are, any other's from LAPACK."""
    if not (mat[0][1] or mat[0][2] or mat[1][2]):
        return [mat[0][0], mat[1][1], mat[2][2]]
    import numpy as np

    return np.linalg.eigvalsh(mat).tolist()
