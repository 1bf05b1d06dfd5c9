"""The per-step clamps pick exactly the operand builtin ``min``/``max`` pick.

The kernels clamp with comparison expressions.  Each reference below is the
kernel's formula written with the builtins; over every combination of edge
values the two must agree in type and in every bit, signed zeros and NaN
included.  The same edge values check that the logistic, now evaluated
inside ``paying_demand``, gives what it gave as a function of its own.
"""

import itertools
import math
import struct
from types import SimpleNamespace

import pytest

from hotsim import pricing
from hotsim.analysis import _integrate
from hotsim.choice import paying_demand
from hotsim.pricing import SelfLearningController
from hotsim.traffic import step_point_queues, throughputs

# signed zeros, nan, infinities, subnormals, near-overflow, ordinary values
# and an int, whose type a clamp must keep when it picks it
EDGES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         1e308, -1e308, 1.0, -1.0, 30.0, 2)


def reference_step_point_queues(lambda1, lambda2, zeta, q1, q2, caps, dt):
    return (
        max(-zeta * dt + lambda1, 0.0),
        max((q1 + q2 - caps.gp - caps.hot + zeta) * dt + lambda2, 0.0),
    )


def reference_throughputs(lambda1, lambda2, zeta, q1, q2, caps, dt):
    g1 = min(caps.hot - zeta + lambda1 / dt, caps.hot)
    g2 = min(q1 + q2 - caps.hot + zeta + lambda2 / dt, caps.gp)
    return max(g1, 0.0), max(g2, 0.0)


def euler_step(lambda1, zeta, t, queue_gain, residual_gain, gain_rate, dt):
    # one step of the reduced model's kernel, which checks no input
    lams, zetas = _integrate(lambda1, zeta, [t, t + dt], queue_gain, residual_gain, gain_rate, dt)
    return lams[1], zetas[1]


def reference_euler_step(lambda1, zeta, t, queue_gain, residual_gain, gain_rate, dt):
    return (
        max(lambda1 - zeta * dt, 0.0),
        zeta + dt * gain_rate * t * (queue_gain * lambda1 - residual_gain * zeta),
    )


def bits(values):
    """Type and IEEE bits of each value."""
    return [(type(v), struct.pack("<d", v)) for v in values]


def outcome(kernel, args):
    """Bits of the returned values, or the exception type raised."""
    try:
        return bits(kernel(*args))
    except ArithmeticError as exc:
        return type(exc)


def traffic_args(lambda1=3.0, lambda2=5.0, zeta=1.0, q1=10.0, q2=60.0,
                 hot=30.0, gp=30.0, dt=1.0 / 60.0):
    # a namespace, not Capacities, so capacities can take any edge value
    return (lambda1, lambda2, zeta, q1, q2, SimpleNamespace(hot=hot, gp=gp), dt)


# four free arguments per case, the rest at ordinary values: each clamp's
# raw expression and its bound both run over every edge value
CASES = {
    "throughputs-hot": (throughputs, reference_throughputs,
                        lambda a, b, c, d: traffic_args(lambda1=a, zeta=b, hot=c, dt=d)),
    "throughputs-gp": (throughputs, reference_throughputs,
                       lambda a, b, c, d: traffic_args(lambda2=a, q1=b, zeta=c, gp=d)),
    "step_point_queues-hot": (step_point_queues, reference_step_point_queues,
                              lambda a, b, c, d: traffic_args(lambda1=a, zeta=b, dt=c, q1=d)),
    "step_point_queues-gp": (step_point_queues, reference_step_point_queues,
                             lambda a, b, c, d: traffic_args(lambda2=a, q2=b, zeta=c, gp=d)),
    "euler_step": (euler_step, reference_euler_step,
                   lambda a, b, c, d: (a, b, 2.0, 0.1, 0.1, c, d)),
}


@pytest.mark.parametrize("name", CASES)
def test_kernel_clamps_match_the_builtins(name):
    kernel, reference, make_args = CASES[name]
    for combo in itertools.product(EDGES, repeat=4):
        args = make_args(*combo)
        assert outcome(kernel, args) == outcome(reference, args), (name, combo)


@pytest.mark.parametrize("q2, q3", [
    (60.0, -1.0), (60.0, -0.0), (60.0, 0.0), (60.0, 1e-9), (3e6, 2),  # below the margin
    (60.0, 60.0), (60.0, 61.0), (60.0, math.inf),                     # above q2 - margin
    (60.0, math.nan),
    (60.0, 30.0),                                                      # inside: no clamp
], ids=repr)
def test_ingest_clamps_the_measurement_as_the_builtins(monkeypatch, q2, q3):
    """The paying-share ratio the filter takes the log of, bit for bit."""
    ratios = []
    monkeypatch.setattr(pricing, "math", SimpleNamespace(log=lambda x: ratios.append(x) or 0.0))
    ctrl = SelfLearningController(hot_capacity=30.0, initial_theta=(0.25, 1.0, 0.1),
                                  initial_cov=0.1, measurement_var=0.09, process_noise=1e-6)
    ctrl.observe(1.0 / 60.0, 1.0, 0.5, 0.5, 4.0, 10.0, q2, q3)
    margin = 1e-6 * q2
    clamped = min(max(q3, margin), q2 - margin)
    assert bits(ratios) == bits([(q2 - clamped) / clamped])


def reference_paying_share(u, w, eta, params):
    # the logistic as a function of its own, which paying_demand scaled by q2
    x = params.scale * (u - (1.0 + eta) * params.vot * w)
    if x >= 0.0:
        e = math.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(x))


def test_paying_demand_holds_the_logistic_bit_for_bit():
    params = SimpleNamespace(vot=0.5, scale=2)
    for u, w, eta, q2 in itertools.product(EDGES, repeat=4):
        share = reference_paying_share(u, w, eta, params)
        assert bits([paying_demand(1.0, u, w, eta, params)]) == bits([share]), (u, w, eta)
        demand = paying_demand(q2, u, w, eta, params)
        if math.isnan(q2) and math.isnan(share):
            # of two nan factors, CPython's product keeps the one its code
            # path (specialized or generic) happens to pick, in any version
            assert math.isnan(demand)
        else:
            assert bits([demand]) == bits([q2 * share]), (u, w, eta, q2)
