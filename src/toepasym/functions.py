"""Registry of named analytic functions used by the trace functionals.

Each entry declares its analyticity domain so precondition checks are
mechanical: ``check`` raises FNotAnalyticAtSample when a point falls
outside the declared domain (with a small safety margin), and
``check_disk`` when a closed disk, the inside of a contour, meets a
singularity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigInvalid, FNotAnalyticAtSample


@dataclass(frozen=True)
class AnalyticFunction:
    name: str
    fn: Callable
    domain: Callable | None = None  # boolean mask, True where analytic
    disk: Callable | None = None  # (center, radius) -> True if analytic on the closed disk

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=complex))

    def check(self, points, where="evaluation"):
        if self.domain is None:
            return
        pts = np.asarray(points, dtype=complex).ravel()
        ok = np.asarray(self.domain(pts), dtype=bool)
        if not ok.all():
            bad = pts[~ok][0]
            raise FNotAnalyticAtSample(
                f"{self.name} is not analytic near z={bad:.6g} ({where})")

    def check_disk(self, center, radius):
        if self.disk is not None and not self.disk(complex(center), float(radius)):
            raise FNotAnalyticAtSample(
                f"{self.name} is not analytic on the disk |z - ({center:.6g})| <= {radius:.6g}")


def polynomial(coefficients, name=None):
    coeffs = np.asarray(coefficients, dtype=complex)
    if name is None:
        name = "poly:" + ",".join(f"{c.real:g}" for c in coeffs)
    return AnalyticFunction(name, lambda z: np.polynomial.polynomial.polyval(z, coeffs))


def exponential(scale=1.0):
    return AnalyticFunction(f"exp(scale={scale:g})" if scale != 1.0 else "exp",
                            lambda z: np.exp(scale * np.asarray(z, dtype=complex)))


def principal_log():
    # analytic more than 1e-8 off the branch cut (-inf, 0]
    def domain(z):
        return (z.real > 1e-8) | (np.abs(z.imag) > 1e-8)

    def disk(center, radius):
        # distance from the center to the cut
        return (abs(center) if center.real > 0 else abs(center.imag)) > radius
    return AnalyticFunction("log", np.log, domain=domain, disk=disk)


def rational(numerator, denominator):
    num = np.asarray(numerator, dtype=complex)
    den = np.asarray(denominator, dtype=complex)
    poles = np.polynomial.polynomial.polyroots(den)

    def fn(z):
        return (np.polynomial.polynomial.polyval(z, num)
                / np.polynomial.polynomial.polyval(z, den))

    def domain(z):
        if len(poles) == 0:
            return np.ones(z.shape, dtype=bool)
        d = np.abs(z[..., None] - poles[None, :]).min(axis=-1)
        return d > 1e-6  # a margin around each pole

    def disk(center, radius):
        return bool(np.all(np.abs(poles - center) > radius + 1e-6))

    name = ("rational:" + ",".join(f"{c.real:g}" for c in num)
            + "/" + ",".join(f"{c.real:g}" for c in den))
    return AnalyticFunction(name, fn, domain=domain, disk=disk)


SQUARE = polynomial((0.0, 0.0, 1.0), name="square")


def parse_function_spec(spec):
    """Parse a CLI function spec: square | exp | log | poly:c0,c1,... | rational:n.../d..."""
    spec = spec.strip()
    if spec == "square":
        return SQUARE
    if spec == "exp":
        return exponential()
    if spec == "log":
        return principal_log()
    if spec.startswith("poly:"):
        try:
            coeffs = [float(tok) for tok in spec[len("poly:"):].split(",")]
        except ValueError as exc:
            raise ConfigInvalid(f"bad polynomial spec {spec!r}") from exc
        if not coeffs:
            raise ConfigInvalid(f"empty polynomial spec {spec!r}")
        return polynomial(coeffs)
    if spec.startswith("rational:"):
        body = spec[len("rational:"):]
        try:
            num_s, den_s = body.split("/")
            num = [float(tok) for tok in num_s.split(",")]
            den = [float(tok) for tok in den_s.split(",")]
        except ValueError as exc:
            raise ConfigInvalid(f"bad rational spec {spec!r}") from exc
        return rational(num, den)
    raise ConfigInvalid(f"unknown function spec {spec!r}")
