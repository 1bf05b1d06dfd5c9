"""Pricing strategies for the HOT lanes.

Three controllers share one interface: ``quote(w, q1, q2)`` returns the toll
for the current step from the current internal state, and
``observe(dt, lambda1, zeta, w, u, q1, q2, q3)`` feeds the realized step
back into the controller.  The engine always calls them in that order, so a
quote never sees same-step outcomes.

* ``VotFeedbackController`` integrates the HOT queue and residual capacity
  into an estimate of the average value of time, then inverts the logit
  model for the market-clearing price.
* ``IntegralTollController`` adjusts the toll directly in proportion to the
  gap between realized and desired HOT demand.
* ``SelfLearningController`` tracks the willingness-to-pay coefficients with
  a linear Kalman filter and inverts the fitted logit for the price.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PriceUndefinedError, ScenarioAssumptionError

ALPHA2_FLOOR = 1e-6
_EYE3 = np.eye(3)


class PricingController:
    """Behavioral contract shared by the pricing strategies."""

    name = "base"
    # whether ``vot_estimate`` is a number; known without evaluating it
    has_vot_estimate = False

    def quote(self, w: float, q1: float, q2: float) -> float:
        raise NotImplementedError

    def observe(
        self, dt: float, lambda1: float, zeta: float, w: float,
        u: float, q1: float, q2: float, q3: float,
    ) -> None:
        raise NotImplementedError

    @property
    def vot_estimate(self) -> float | None:
        """Current estimate of the average value of time, if the strategy has one."""
        return None


def _check_congested(q1: float, q2: float, c1: float) -> None:
    # log term requires q1 < c1 < q1 + q2
    if q1 >= c1:
        raise ScenarioAssumptionError(
            f"HOV demand {q1:g} veh/min saturates the HOT capacity {c1:g} veh/min"
        )
    if q1 + q2 <= c1:
        raise ScenarioAssumptionError(
            f"total demand {q1 + q2:g} veh/min does not exceed the HOT capacity "
            f"{c1:g} veh/min; the corridor is not congested"
        )


class VotFeedbackController(PricingController):
    """Integral estimator of the average value of time plus a logit-inverting price law.

    A positive HOT queue raises the estimate with gain ``queue_gain`` and
    positive residual capacity lowers it with gain ``residual_gain``.  The
    price is the estimated delay cost plus the demand-split log term scaled
    by the operator's guess of the logit scale.
    """

    name = "vot"
    has_vot_estimate = True

    def __init__(
        self,
        hot_capacity: float,
        queue_gain: float,
        residual_gain: float,
        scale_guess: float = 1.0,
        initial_vot: float = 0.25,
    ) -> None:
        for key, value in (("queue_gain", queue_gain), ("residual_gain", residual_gain),
                           ("scale_guess", scale_guess)):
            if not value > 0:  # nan is not positive either
                raise ValueError(f"{key} must be positive")
        self.hot_capacity = hot_capacity
        self.queue_gain = queue_gain
        self.residual_gain = residual_gain
        self.scale_guess = scale_guess
        self.vot = initial_vot

    def update_estimate(self, lambda1: float, zeta: float, dt: float) -> None:
        """One explicit Euler step of the estimator."""
        self.vot += dt * (self.queue_gain * lambda1 - self.residual_gain * zeta)

    def price(self, w: float, q1: float, q2: float) -> float:
        c1 = self.hot_capacity
        _check_congested(q1, q2, c1)
        return self.vot * w + math.log((q1 + q2 - c1) / (c1 - q1)) / self.scale_guess

    quote = price

    def observe(self, dt, lambda1, zeta, w, u, q1, q2, q3) -> None:
        self.update_estimate(lambda1, zeta, dt)

    @property
    def vot_estimate(self) -> float:
        return self.vot


class IntegralTollController(PricingController):
    """Toll adjusted in proportion to the accumulated HOT demand error."""

    name = "integral"

    def __init__(self, gain: float, initial_price: float, target_demand: float) -> None:
        if gain <= 0:
            raise ValueError("gain must be positive")
        self.gain = gain
        self.u = initial_price
        self.target_demand = target_demand

    def update(self, q_hot: float) -> None:
        self.u += self.gain * (q_hot - self.target_demand)

    def quote(self, w: float, q1: float, q2: float) -> float:
        return self.u

    def observe(self, dt, lambda1, zeta, w, u, q1, q2, q3) -> None:
        # HOT arrival demand is HOVs plus paying SOVs
        self.update(q1 + q3)


class SelfLearningController(PricingController):
    """Kalman-filtered willingness-to-pay model inverted for the price.

    State vector ``theta = [alpha1, alpha2, gamma]``: marginal delay utility
    (1/min), marginal price utility (1/$), and a bias term.  The realized
    paying share yields the scalar measurement
    ``log((q2 - q3)/q3) = -alpha1*w + alpha2*u + gamma``.
    The implied value-of-time estimate is ``alpha1/alpha2``.
    """

    name = "selflearning"
    has_vot_estimate = True

    def __init__(
        self,
        hot_capacity: float,
        initial_theta,
        initial_cov,
        measurement_var: float = 0.09,
        process_noise=1e-6,
    ) -> None:
        if measurement_var <= 0:
            raise ValueError("measurement_var must be positive")
        self.hot_capacity = hot_capacity
        self.theta = np.asarray(initial_theta, dtype=float).copy()
        if self.theta.shape != (3,):
            raise ValueError("initial_theta must have three entries")
        self.cov = self._as_matrix(initial_cov, "initial_cov")
        self.measurement_var = float(measurement_var)
        self.process_noise = self._as_matrix(process_noise, "process_noise")

    @staticmethod
    def _as_matrix(value, name: str) -> np.ndarray:
        mat = np.asarray(value, dtype=float)
        if mat.ndim == 0:
            mat = float(mat) * _EYE3
        if mat.shape != (3, 3):
            raise ValueError(f"{name} must be a scalar or a 3x3 matrix")
        return mat.copy()

    def ingest(self, q2: float, q3: float, w: float, u: float) -> None:
        """One predict/update cycle against the realized paying share.

        The six matrix products run through numpy (BLAS).  The elementwise
        algebra around them runs on Python floats, one IEEE operation for
        each numpy one and in the same order, so the result is bit for bit
        that of the all-array filter.
        """
        if q2 <= 0.0:
            return
        margin = 1e-6 * q2
        q3 = min(max(q3, margin), q2 - margin)
        y = math.log((q2 - q3) / q3)
        h = np.array([-w, u, 1.0])

        cov = self.cov + self.process_noise
        s = float(h.dot(cov).dot(h)) + self.measurement_var
        g0, g1, g2 = (cov.dot(h) / s).tolist()
        innov = y - float(h.dot(self.theta))
        t0, t1, t2 = self.theta.tolist()
        self.theta = np.array([t0 + g0 * innov, t1 + g1 * innov, t2 + g2 * innov])

        # Joseph form keeps the covariance symmetric PSD under roundoff:
        # (I - g h') cov (I - g h')' + r g g', then 0.5 (c + c').
        # h[2] is 1.0, so g_i * h[2] is g_i exactly.
        h0 = -w
        ikh = np.array([
            1.0 - g0 * h0, 0.0 - g0 * u, 0.0 - g0,
            0.0 - g1 * h0, 1.0 - g1 * u, 0.0 - g1,
            0.0 - g2 * h0, 0.0 - g2 * u, 1.0 - g2,
        ]).reshape(3, 3)
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = (
            ikh.dot(cov).dot(ikh.T).tolist()
        )
        r = self.measurement_var
        c00, c01, c02 = a00 + r * (g0 * g0), a01 + r * (g0 * g1), a02 + r * (g0 * g2)
        c10, c11, c12 = a10 + r * (g1 * g0), a11 + r * (g1 * g1), a12 + r * (g1 * g2)
        c20, c21, c22 = a20 + r * (g2 * g0), a21 + r * (g2 * g1), a22 + r * (g2 * g2)
        # c_ij + c_ji == c_ji + c_ij exactly, so each off-diagonal pair is summed once
        s01, s02, s12 = 0.5 * (c01 + c10), 0.5 * (c02 + c20), 0.5 * (c12 + c21)
        self.cov = np.array([
            0.5 * (c00 + c00), s01, s02,
            s01, 0.5 * (c11 + c11), s12,
            s02, s12, 0.5 * (c22 + c22),
        ]).reshape(3, 3)

    def price(self, w: float, q1: float, q2: float) -> float:
        alpha1, alpha2, gamma = self.theta.tolist()
        if abs(alpha2) < ALPHA2_FLOOR:
            raise PriceUndefinedError(
                f"price-utility estimate alpha2={alpha2:g} is too close to zero"
            )
        target = self.hot_capacity - q1  # paying demand that fills the HOT lanes
        if not 0.0 < target < q2:
            raise ScenarioAssumptionError(
                f"optimal paying demand {target:g} veh/min must lie strictly "
                f"between 0 and the SOV demand {q2:g} veh/min"
            )
        return (math.log((q2 - target) / target) + alpha1 * w - gamma) / alpha2

    quote = price

    def observe(self, dt, lambda1, zeta, w, u, q1, q2, q3) -> None:
        self.ingest(q2, q3, w, u)

    @property
    def vot_estimate(self) -> float:
        return float(self.theta[0] / self.theta[1])
