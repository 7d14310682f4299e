"""Power observables and the closed-form constants of their growth
conditions.

An observable set is the ordered family phi_i(x) = x^{e_i}, i = 1..k, of
power functions on (0, infinity) whose empirical means are constrained;
it is held as its exponents e_1 < ... < e_k, all positive.  The paper's
theory covers general unbounded observables; this package is restricted
to the power family, the one its configs name.  The growth conditions
are then facts of the exponents, not numerical certificates:

  C1: each phi_i is positive and strictly increasing (e_i > 0),
  C2: integral of exp(-c * phi_i) over (0, inf) is finite for c > 0
      (e_i > 0),
  C3: phi_i(x)^kappa < phi_{i+1}(x) for large x, for every kappa > 1
      below kappa = min_i e_{i+1} / e_i > 1 (strictly increasing
      exponents),
  C4: C^-1 phi_i^-M < phi_i' < C phi_i^M for x > 1, with
      M = max_i |e_i - 1| / e_i and C = 2 max_i max(e_i, 1/e_i), since
      phi_i' = e_i phi_i^((e_i - 1) / e_i).

phi and its derivative are evaluated one scalar exponent at a time:
numpy's square and sqrt fast paths apply only to a scalar exponent, so
a broadcast exponent array gives different bits.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidObservableSet

__all__ = [
    "ObservableSet",
    "ValidationReport",
    "power_set",
    "validate_assumptions",
]


@dataclass(frozen=True)
class ObservableSet:
    """phi_i(x) = x^{e_i} for the exponents e_1 < ... < e_k, fastest-growing
    last; power_set builds and validates it.  Equal exponents give equal,
    equally hashed sets.

    gamma_i = e_i / e_k is the growth exponent of phi_i composed with the
    inverse of phi_k (None for k = 1).
    """

    exponents: tuple

    @property
    def k(self):
        return len(self.exponents)

    @property
    def gamma(self):
        e = self.exponents
        return tuple(ei / e[-1] for ei in e[:-1]) if len(e) >= 2 else None

    def phi(self, x):
        """(k, ...) array of phi_i(x)."""
        x = np.asarray(x, dtype=float)
        return np.array([x ** e for e in self.exponents])

    def dphi(self, x):
        """(k, ...) array of phi_i'(x)."""
        x = np.asarray(x, dtype=float)
        return np.array([e * x ** (e - 1.0) for e in self.exponents])


@dataclass
class ConditionResult:
    passed: bool
    constants: dict = field(default_factory=dict)
    note: str = ""


@dataclass
class ValidationReport:
    passed: bool
    per_condition: dict  # {"C1": ConditionResult, ...}


def power_set(exponents):
    """Observable set phi_i(x) = x^{e_i} for strictly increasing e_i > 0."""
    exponents = tuple(float(e) for e in exponents)
    if len(exponents) == 0:
        raise InvalidObservableSet("empty exponent list")
    if not all(e > 0 for e in exponents):
        raise InvalidObservableSet("exponents must be positive")
    if not all(b > a for a, b in zip(exponents, exponents[1:])):
        raise InvalidObservableSet("exponents must be strictly increasing")
    return ObservableSet(exponents)


def validate_assumptions(obs_set):
    """Conditions C1-C4 with their closed-form constants (see the module
    docstring).  Every set power_set accepts satisfies all four."""
    e = obs_set.exponents
    positive = "holds by construction: every exponent is positive"
    per = {
        "C1": ConditionResult(True, note=positive),
        "C2": ConditionResult(True, note=positive),
        "C3": ConditionResult(True, {"kappa": min(b / a for a, b in zip(e, e[1:]))})
        if obs_set.k >= 2 else ConditionResult(True, note="k=1, vacuous"),
        "C4": ConditionResult(True, {
            "M": max(abs(ei - 1.0) / ei for ei in e),
            "C": 2.0 * max(max(ei, 1.0 / ei) for ei in e),
        }),
    }
    return ValidationReport(passed=True, per_condition=per)
