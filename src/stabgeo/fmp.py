"""Figalli-Maggi-Pratelli stability bound for the Brunn-Minkowski inequality.

The bound strengthens Brunn-Minkowski by the explicit dimensional constant
``gamma_star`` and the homothetic distance A(K, C): the minimal symmetric
difference between volume-normalized translates.  Both the additive form

    |K + C|^(1/n) >= (|K|^(1/n) + |C|^(1/n)) [1 + gamma*/sigma^(1/n) A^2]

and the derived product form for |(K + C)/2| are computed side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import bodies
from .bodies import BodyRef, ConvexPolygon, volume
from .errors import UnsupportedCombinationError


def gamma_star(n: int) -> float:
    """Explicit stability constant ((2 - 2^((n-1)/n))^(3/2) / (122 n^7))^2."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return float(((2.0 - 2.0 ** ((n - 1) / n)) ** 1.5 / (122.0 * n ** 7)) ** 2)


def sigma_ratio(K: BodyRef, C: BodyRef) -> float:
    """max(|C|/|K|, |K|/|C|) >= 1."""
    vk, vc = volume(K), volume(C)
    return max(vc / vk, vk / vc)


def _normalize_volume(K: BodyRef) -> BodyRef:
    return bodies.scale(K, volume(K) ** (-1.0 / K.dim))


def homothetic_distance(K: BodyRef, C: BodyRef) -> float:
    """A(K, C): min over translations x of |aK delta (x + bC)| with
    a = |K|^(-1/n), b = |C|^(-1/n).

    For o-symmetric bodies concavity of the overlap in x pins x = o and the
    distance is the plain symmetric difference of the normalized bodies; for
    general polygons the translation is found by simplex descent seeded at
    the centroid difference.
    """
    if K.dim != C.dim:
        raise UnsupportedCombinationError("homothetic distance across dimensions")
    nK = _normalize_volume(K)
    nC = _normalize_volume(C)
    if bodies.is_o_symmetric(K) and bodies.is_o_symmetric(C):
        return bodies.symmetric_difference_volume(nK, nC)
    if not (isinstance(nK, ConvexPolygon) and isinstance(nC, ConvexPolygon)):
        raise UnsupportedCombinationError(
            "general-position homothetic distance is only supported for polygons"
        )
    diam = max(np.ptp(nK.vertices), np.ptp(nC.vertices))

    def neg_overlap(x):
        return -bodies.intersection_area(nK, bodies.translate_polygon(nC, x))

    x0 = bodies.polygon_centroid(nK.vertices) - bodies.polygon_centroid(nC.vertices)
    res = minimize(neg_overlap, x0, method="Nelder-Mead",
                   options=dict(xatol=1e-8 * diam, fatol=1e-12, maxiter=2000))
    overlap = -float(res.fun)
    return 2.0 - 2.0 * overlap


@dataclass(frozen=True)
class FMPReport:
    """Both sides of the additive and product stability bounds.

    ``eta`` is the bracket excess of the product form:
    (sigma-1)^2/(32 n sigma^2) + n gamma* sigma^(-1/n) A^2.
    """

    sigma: float
    A: float
    gamma_star: float
    lhs_additive: float
    rhs_additive: float
    lhs_product: float
    rhs_product: float
    eta: float


def fmp_bound_check(K: BodyRef, C: BodyRef) -> FMPReport:
    """Evaluate both stability inequalities on a pair of bodies.

    |K + C| is computed from the Minkowski midpoint scaled back by 2^n.
    """
    if K.dim != C.dim:
        raise UnsupportedCombinationError("bound check across dimensions")
    n = K.dim
    vk, vc = volume(K), volume(C)
    sig = max(vc / vk, vk / vc)
    A = homothetic_distance(K, C)
    gstar = gamma_star(n)
    mid = bodies.minkowski_midpoint(K, C)
    vol_mid = volume(mid)
    vol_sum = (2.0 ** n) * vol_mid
    lhs_add = vol_sum ** (1.0 / n)
    rhs_add = (vk ** (1.0 / n) + vc ** (1.0 / n)) * (
        1.0 + gstar / sig ** (1.0 / n) * A * A
    )
    eta = (sig - 1.0) ** 2 / (32.0 * n * sig * sig) + n * gstar / sig ** (1.0 / n) * A * A
    lhs_prod = vol_mid
    rhs_prod = math.sqrt(vk * vc) * (1.0 + eta)
    return FMPReport(
        sigma=sig,
        A=A,
        gamma_star=gstar,
        lhs_additive=lhs_add,
        rhs_additive=rhs_add,
        lhs_product=lhs_prod,
        rhs_product=rhs_prod,
        eta=eta,
    )
