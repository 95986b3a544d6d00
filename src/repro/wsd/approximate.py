"""Anytime approximate confidence: Monte-Carlo estimation over components.

The exact confidence tiers (closed forms, the d-tree engine, guarded joint
enumeration) all hit hard budget cliffs on adversarially correlated DNFs.
This module is the graceful-degradation tier behind them: it estimates the
probability of a DNF over component atoms by sampling the decomposition's
independent components directly, so the cost per sample is linear in the
number of touched components — never exponential — and the answer carries an
explicit accuracy contract instead of a refusal.

Two estimators share one driver:

* **component-wise Monte-Carlo** — draw one alternative per touched
  component from its effective probabilities and test the DNF; the hit rate
  estimates ``P(DNF)`` with a Wilson score interval.  Good absolute error
  everywhere, weak *relative* error when ``P(DNF)`` is tiny.
* **Karp–Luby** — for low-probability DNFs (union bound ``U = sum_i p_i``
  small): sample clause *i* with probability ``p_i / U``, sample a world
  conditioned on clause *i*, and count the sample iff *i* is the
  minimal-index satisfied clause.  The indicator's mean is ``P(DNF) / U``
  and is at least ``1 / m`` for ``m`` clauses, so the relative error of the
  scaled estimate stays bounded regardless of how small ``P(DNF)`` is.

Sampling is **deterministic**: the generator is seeded from the
:class:`AnytimeBudget` seed and a canonical key of the DNF itself, so a
repeated query returns the identical estimate (the property suite and the
differential fuzzer rely on this).

An :class:`AnytimeBudget` drives the loop — keep sampling in batches until
the reported half-width reaches the target ε, the sample budget runs out,
or the wall-clock deadline expires; expiry raises
:class:`~repro.errors.DeadlineExceededError` carrying the partial estimate,
which the serving layer maps to a structured JSON error.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from random import Random
from typing import Iterable, Iterator, Optional, Sequence

from ..errors import DeadlineExceededError
from .component import Component
from .confidence import Atom, Clause, normalise_clauses

__all__ = [
    "AnytimeBudget",
    "AnytimeSampler",
    "ApproximateConfidence",
    "normal_quantile",
    "wilson_interval",
]

#: Union-bound threshold below which the Karp–Luby estimator takes over from
#: plain component-wise sampling (small unions are exactly where the naive
#: hit rate needs too many samples for a useful relative error).
KARP_LUBY_THRESHOLD = 0.5


def normal_quantile(p: float) -> float:
    """The standard normal quantile ``Phi^{-1}(p)`` (Acklam's algorithm).

    Accurate to ~1e-9 over (0, 1) — far below the Monte-Carlo noise it is
    used against — without depending on scipy.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {p!r}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q
                           + 1.0)
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                 + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q
                            + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1.0)


def wilson_interval(hits: int, samples: int,
                    z: float) -> tuple[float, float, float]:
    """``(estimate, low, high)`` Wilson score interval for a Bernoulli mean.

    The Wilson interval stays inside ``[0, 1]`` and behaves sanely at 0 or
    ``samples`` hits, unlike the normal approximation.
    """
    if samples <= 0:
        return 0.0, 0.0, 1.0
    p_hat = hits / samples
    z2 = z * z
    denominator = 1.0 + z2 / samples
    centre = (p_hat + z2 / (2.0 * samples)) / denominator
    half = (z / denominator) * math.sqrt(
        p_hat * (1.0 - p_hat) / samples + z2 / (4.0 * samples * samples))
    return p_hat, max(0.0, centre - half), min(1.0, centre + half)


@dataclass(frozen=True)
class ApproximateConfidence:
    """A confidence estimate with its accuracy contract.

    ``value`` is the point estimate; with probability at least
    ``confidence_level`` the true probability lies within ``epsilon`` of it
    (``exact=True`` marks answers that needed no sampling at all —
    tautologies, empty DNFs — where ``epsilon`` is zero).
    """

    value: float
    epsilon: float
    confidence_level: float
    samples: int
    exact: bool = False
    estimator: str = "montecarlo"

    @property
    def low(self) -> float:
        """The lower interval end, clipped to ``[0, 1]``."""
        return max(0.0, self.value - self.epsilon)

    @property
    def high(self) -> float:
        """The upper interval end, clipped to ``[0, 1]``."""
        return min(1.0, self.value + self.epsilon)

    def as_dict(self) -> dict:
        """A JSON-safe rendering (serving-layer payloads)."""
        return {"value": self.value, "epsilon": self.epsilon,
                "confidence_level": self.confidence_level,
                "samples": self.samples, "exact": self.exact,
                "estimator": self.estimator}


@dataclass(frozen=True)
class AnytimeBudget:
    """What the anytime sampler may spend before it must answer.

    Attributes
    ----------
    max_samples:
        Hard cap on Monte-Carlo samples per confidence estimate; reaching it
        ends refinement and reports whatever ε was achieved.
    target_epsilon:
        Refinement stops early once the interval half-width is below this.
    confidence_level:
        Coverage level of the reported interval (Wilson score).
    deadline:
        Absolute ``time.monotonic()`` instant after which sampling must
        stop; expiring before the target ε is reached raises
        :class:`~repro.errors.DeadlineExceededError` with the partial
        estimate.  ``None`` means no wall-clock limit.
    timeout_seconds:
        The request timeout the deadline was derived from (error reporting).
    seed:
        Base seed; combined with a canonical per-DNF key, so estimates are
        deterministic per (seed, query) yet independent across queries.
    batch_size:
        Samples drawn between convergence / deadline checks.
    max_world_samples:
        Cap on *sampled joint alternatives* when a distribution-shaped
        answer (aggregate / grouping / ORDER BY-LIMIT compound) degrades to
        sampling — each sample evaluates a whole query in an instantiated
        world, so this cap is far below ``max_samples``.
    """

    max_samples: int = 100_000
    target_epsilon: float = 0.01
    confidence_level: float = 0.95
    deadline: Optional[float] = None
    timeout_seconds: Optional[float] = None
    seed: int = 0
    batch_size: int = 1_024
    max_world_samples: int = 512

    def with_timeout_ms(self, timeout_ms: float) -> "AnytimeBudget":
        """A copy whose deadline is *timeout_ms* from now."""
        seconds = timeout_ms / 1000.0
        return replace(self, deadline=time.monotonic() + seconds,
                       timeout_seconds=seconds)

    def expired(self) -> bool:
        """True once the wall-clock deadline has passed."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    def z_score(self) -> float:
        """The two-sided normal z for ``confidence_level``."""
        return normal_quantile(1.0 - (1.0 - self.confidence_level) / 2.0)

    def check_deadline(self, partial: dict | None = None) -> None:
        """Raise :class:`DeadlineExceededError` when the deadline passed."""
        if self.deadline is None:
            return
        now = time.monotonic()
        if now < self.deadline:
            return
        timeout = (self.timeout_seconds if self.timeout_seconds is not None
                   else 0.0)
        raise DeadlineExceededError(timeout,
                                    timeout + (now - self.deadline), partial)


def _canonical_key(clauses: Iterable[Clause]) -> tuple:
    """A deterministic, hashable, orderable key of one normalised DNF."""
    return tuple(sorted(
        tuple((index, tuple(sorted(allowed))) for index, allowed in clause)
        for clause in clauses))


class AnytimeSampler:
    """Monte-Carlo DNF confidence over one decomposition's components.

    Like :class:`~repro.wsd.confidence.DTreeEngine`, a sampler is bound to a
    fixed component list; per-component cumulative mass tables are cached
    across estimates, so one ``conf`` query computing many answer rows pays
    the table construction once.
    """

    def __init__(self, components: Sequence[Component],
                 budget: AnytimeBudget | None = None) -> None:
        self.components = components
        self.budget = budget if budget is not None else AnytimeBudget()
        self._sizes = [len(component) for component in components]
        self._masses: dict[int, Sequence[float]] = {}
        self._cumulative: dict[tuple, tuple[list[float], list[int]]] = {}

    # -- component sampling ------------------------------------------------------------

    def _component_masses(self, index: int) -> Sequence[float]:
        masses = self._masses.get(index)
        if masses is None:
            masses = self.components[index].effective_probabilities()
            self._masses[index] = masses
        return masses

    def _cumulative_for(self, index: int,
                        allowed: frozenset[int] | None
                        ) -> tuple[list[float], list[int]]:
        """Cumulative masses (and the alternative each step maps to) for one
        component, optionally restricted (and renormalised) to *allowed*."""
        key = (index, allowed)
        entry = self._cumulative.get(key)
        if entry is None:
            masses = self._component_masses(index)
            alternatives = (sorted(allowed) if allowed is not None
                            else list(range(len(masses))))
            steps: list[float] = []
            total = 0.0
            for alternative in alternatives:
                total += masses[alternative]
                steps.append(total)
            entry = (steps, alternatives)
            self._cumulative[key] = entry
        return entry

    def _draw(self, index: int, allowed: frozenset[int] | None,
              rng: Random) -> int:
        """One alternative of component *index*, conditioned on *allowed*."""
        steps, alternatives = self._cumulative_for(index, allowed)
        total = steps[-1]
        if total <= 0.0:
            # Every allowed alternative has zero mass; the conditional draw
            # is uniform over them (it can only matter for the indicator of
            # a zero-probability clause, which never biases the estimate).
            return alternatives[rng.randrange(len(alternatives))]
        position = bisect_left(steps, rng.random() * total)
        if position >= len(alternatives):
            position = len(alternatives) - 1
        return alternatives[position]

    def _rng(self, key: object) -> Random:
        """A generator deterministic in (budget seed, *key*).

        The key is built from ints / tuples / frozensets, whose hashes are
        stable across processes (unlike strings under hash randomisation),
        so a fixed seed reproduces the exact sample path anywhere.
        """
        return Random(hash((self.budget.seed, key)) & 0x7FFFFFFFFFFFFFFF)

    # -- DNF confidence ----------------------------------------------------------------

    def clause_probability(self, clause: Clause) -> float:
        """Probability of one clause (independent components multiply)."""
        mass = 1.0
        for index, allowed in clause:
            masses = self._component_masses(index)
            mass *= sum(masses[i] for i in allowed)
        return mass

    def dnf_confidence(self,
                       raw_clauses: Iterable[Iterable[Atom]]
                       ) -> ApproximateConfidence:
        """An anytime estimate of ``P(or_i and_j atom_ij)``.

        Tautologies and empty DNFs return exact answers without sampling;
        everything else refines in batches until the target ε, the sample
        cap, or the deadline (raising
        :class:`~repro.errors.DeadlineExceededError` with the partial
        estimate in the latter case).
        """
        level = self.budget.confidence_level
        clauses = normalise_clauses(raw_clauses, self._sizes)
        if clauses is None:
            return ApproximateConfidence(1.0, 0.0, level, 0, exact=True,
                                         estimator="closed-form")
        if not clauses:
            return ApproximateConfidence(0.0, 0.0, level, 0, exact=True,
                                         estimator="closed-form")
        ordered = sorted(
            clauses,
            key=lambda clause: tuple(
                (index, tuple(sorted(allowed))) for index, allowed in clause))
        probabilities = [self.clause_probability(clause)
                         for clause in ordered]
        union_bound = sum(probabilities)
        if union_bound <= 0.0:
            return ApproximateConfidence(0.0, 0.0, level, 0, exact=True,
                                         estimator="closed-form")
        key = _canonical_key(ordered)
        rng = self._rng(key)
        if union_bound <= KARP_LUBY_THRESHOLD:
            return self._karp_luby(ordered, probabilities, union_bound, rng)
        return self._montecarlo(ordered, rng)

    def _support(self, clauses: Sequence[Clause]) -> list[int]:
        return sorted({index for clause in clauses for index, _ in clause})

    def _montecarlo(self, clauses: Sequence[Clause],
                    rng: Random) -> ApproximateConfidence:
        """Component-wise sampling of the DNF's touched components."""
        budget = self.budget
        z = budget.z_score()
        support = self._support(clauses)
        atom_maps = [dict(clause) for clause in clauses]
        hits = 0
        samples = 0
        value, low, high = 0.0, 0.0, 1.0
        while samples < budget.max_samples:
            batch = min(budget.batch_size, budget.max_samples - samples)
            budget.check_deadline(self._partial(value, low, high, samples,
                                                "montecarlo"))
            for _ in range(batch):
                choice = {index: self._draw(index, None, rng)
                          for index in support}
                if any(all(choice[index] in allowed
                           for index, allowed in atoms.items())
                       for atoms in atom_maps):
                    hits += 1
            samples += batch
            value, low, high = wilson_interval(hits, samples, z)
            if max(value - low, high - value) <= budget.target_epsilon:
                break
        epsilon = max(value - low, high - value)
        return ApproximateConfidence(value, epsilon,
                                     budget.confidence_level, samples,
                                     estimator="montecarlo")

    def _karp_luby(self, clauses: Sequence[Clause],
                   probabilities: Sequence[float], union_bound: float,
                   rng: Random) -> ApproximateConfidence:
        """The coverage estimator: ``U * P(sampled clause is minimal)``."""
        budget = self.budget
        z = budget.z_score()
        support = self._support(clauses)
        atom_maps = [dict(clause) for clause in clauses]
        steps: list[float] = []
        total = 0.0
        for probability in probabilities:
            total += probability
            steps.append(total)
        hits = 0
        samples = 0
        value, low, high = 0.0, 0.0, union_bound
        while samples < budget.max_samples:
            batch = min(budget.batch_size, budget.max_samples - samples)
            budget.check_deadline(self._partial(value, low, high, samples,
                                                "karp-luby"))
            for _ in range(batch):
                chosen = bisect_left(steps, rng.random() * total)
                if chosen >= len(clauses):
                    chosen = len(clauses) - 1
                pinned = atom_maps[chosen]
                choice = {index: self._draw(index, pinned.get(index), rng)
                          for index in support}
                minimal = next(
                    position for position, atoms in enumerate(atom_maps)
                    if all(choice[index] in allowed
                           for index, allowed in atoms.items()))
                if minimal == chosen:
                    hits += 1
            samples += batch
            mean, mean_low, mean_high = wilson_interval(hits, samples, z)
            value = min(1.0, union_bound * mean)
            low = min(1.0, union_bound * mean_low)
            high = min(1.0, union_bound * mean_high)
            if max(value - low, high - value) <= budget.target_epsilon:
                break
        epsilon = max(value - low, high - value)
        return ApproximateConfidence(value, epsilon,
                                     budget.confidence_level, samples,
                                     estimator="karp-luby")

    @staticmethod
    def _partial(value: float, low: float, high: float, samples: int,
                 estimator: str) -> dict | None:
        """The best-effort payload a deadline expiry reports, if any."""
        if samples <= 0:
            return None
        return {"value": value, "epsilon": max(value - low, high - value),
                "samples": samples, "estimator": estimator}

    # -- sampled joint alternatives ----------------------------------------------------

    def joint_samples(self, involved: Sequence[int], count: int,
                      key: object) -> Iterator[tuple[int, ...]]:
        """Yield *count* sampled joint alternatives of *involved* components.

        This is the degradation path for distribution-shaped answers whose
        exact joint enumeration exceeds the limit: each yielded combo is one
        world sample of weight ``1 / count``.  The deadline is checked
        cooperatively between samples.
        """
        # The int tag keeps this stream apart from the DNF streams (keyed on
        # clause tuples) and, unlike a string tag, hashes alike in every
        # process.
        rng = self._rng((-1, tuple(involved), key))
        for drawn in range(count):
            if drawn % 64 == 0:
                self.budget.check_deadline(
                    None if drawn == 0 else
                    {"samples": drawn, "of": count})
            yield tuple(self._draw(index, None, rng) for index in involved)

    def joint_epsilon(self, count: int) -> float:
        """Worst-case half-width for a mass estimated from *count* samples
        (the Wilson width at the least favourable hit rate of one half)."""
        if count <= 0:
            return 1.0
        value, low, high = wilson_interval(count // 2, count,
                                           self.budget.z_score())
        return max(value - low, high - value)
