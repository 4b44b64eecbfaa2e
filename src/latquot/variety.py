"""Least congruences with quotient in an equational class of lattices.

``kappa`` computes, for a lattice L and a class given by identities, the
least congruence whose quotient satisfies every identity; ``delta`` is the
distributive special case.  ``kappa_oracle`` recomputes the same congruence
by brute force over the whole congruence lattice, and the ``verify_*``
functions machine-check the structural facts the construction relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .congruence import (
    Congruence,
    _congruence_closure,
    all_congruences,
    cong_join,
    cong_meet,
    identity_congruence,
    leq_congruence,
    push_congruence,
    quotient,
)
from .core import product
from .errors import SizeLimitExceeded
from .terms import DISTRIBUTIVE, IdentitySweep, sweep_order


def _sweeps(spec):
    """Each identity of ``spec`` compiled once, for any number of sweeps."""
    return [IdentitySweep(ident) for ident in spec.identities]


def _first_failure(lat, sweeps):
    """The first failing assignment, or None if ``lat`` satisfies them all.

    ``sweeps`` are compiled identities (``_sweeps``), tried in order.
    A failure is (identity, env, lhs, rhs) at index level: env maps names
    to indices, lhs != rhs are the two values.
    """
    for sweep in sweeps:
        failure = sweep.first_failure(lat)
        if failure is not None:
            combo, left, right = failure
            return sweep.identity, dict(zip(sweep.names, combo)), left, right
    return None


def satisfies(lat, spec):
    """True, or a witness (identity, assignment) for the first failure.

    The witness is the first failing assignment of the first identity that
    fails, in spec order.  An identity's assignments are ordered
    lexicographically by the carrier indices of its variables, taken in
    sweep order: the lhs's variables by first occurrence, then the rhs's
    new ones.
    """
    failure = _first_failure(lat, _sweeps(spec))
    if failure is None:
        return True
    ident, env, _, _ = failure
    return (ident, {v: lat.elements[i] for v, i in env.items()})


def check_work(size, spec, max_work):
    """Raise SizeLimitExceeded if one full sweep of ``spec`` over ``size``
    elements, the sum of size^k over the identities, exceeds ``max_work``."""
    if max_work is None:
        return
    work = sum(size ** len(sweep_order(ident)) for ident in spec.identities)
    if work > max_work:
        raise SizeLimitExceeded(
            f"identity sweep of {work} assignments exceeds the work cap {max_work}"
        )


def kappa(lat, spec, max_work=None):
    """Least congruence whose quotient lies in the class.

    Witness-driven: starting from the identity congruence, each round
    sweeps L/theta for the first assignment that breaks an identity,
    lifts its two unequal values to block representatives a, b of L, and
    replaces theta by the congruence generated by theta and (a, b).

    Why the result is least: let phi >= theta have its quotient in the
    class.  Lift the failing assignment to L; the two sides of the
    identity evaluate in L to elements of the blocks of a and b, and
    L/phi satisfies the identity, so phi identifies them, hence also a
    and b.  So phi lies above the new theta as well, and by induction
    every theta the loop visits lies below every congruence whose
    quotient is in the class.  Each round merges two blocks, so the loop
    ends, and it ends on a sweep that finds no failure: that sweep is the
    proof that the quotient by the returned theta is in the class.

    ``max_work`` caps one full sweep of L (see ``check_work``); above it,
    SizeLimitExceeded is raised before any sweep.
    """
    check_work(len(lat), spec, max_work)
    sweeps = _sweeps(spec)
    theta = identity_congruence(lat)
    while True:
        failure = _first_failure(quotient(lat, theta).target, sweeps)
        if failure is None:
            return theta
        _, _, left, right = failure
        reps = sorted(set(theta.block_of))
        pairs = [(i, r) for i, r in enumerate(theta.block_of) if i != r]
        pairs.append((reps[left], reps[right]))
        theta = _congruence_closure(lat, pairs)


def delta(lat):
    """Least congruence with distributive quotient."""
    return kappa(lat, DISTRIBUTIVE)


def _in_class(lat, spec, congruences):
    """The congruences whose quotient lies in the class, in input order."""
    sweeps = _sweeps(spec)
    return [
        theta for theta in congruences
        if _first_failure(quotient(lat, theta).target, sweeps) is None
    ]


def class_filter(lat, spec, max_size=12):
    """All congruences whose quotient lies in the class, sorted canonically.

    Cross-checked against the principal up-set of kappa before returning.
    """
    cons = all_congruences(lat, max_size=max_size)
    filtered = _in_class(lat, spec, cons)
    kap = kappa(lat, spec)
    upset = [t for t in cons if leq_congruence(kap, t)]
    if set(filtered) != set(upset):
        raise RuntimeError("internal error: class filter is not the up-set of kappa")
    return sorted(filtered, key=lambda t: (-t.num_blocks(), t.block_of))


def kappa_oracle(lat, spec, max_size=12):
    """kappa by brute force: meet of all class-quotient congruences.

    The meet of the filtered set is itself in the set (closure of the
    filter under arbitrary intersections); this is asserted.  Independent
    of ``kappa``: it sweeps every quotient, not a witness-driven sequence.
    """
    filtered = _in_class(lat, spec, all_congruences(lat, max_size=max_size))
    result = filtered[0]
    for theta in filtered[1:]:
        result = cong_meet(result, theta)
    if result not in filtered:
        raise RuntimeError("internal error: meet of the class filter escapes it")
    return result


@dataclass
class Report:
    """Outcome of one structural verification."""

    name: str
    ok: bool
    details: list = field(default_factory=list)

    def fail(self, message):
        self.ok = False
        self.details.append(message)

    def note(self, message):
        self.details.append(message)


def verify_theorem1(lat, spec, max_size=12, subset_cap=12):
    """The class-quotient congruences form an up-set closed under all meets."""
    report = Report("filter-structure", True)
    cons = all_congruences(lat, max_size=max_size)
    filtered = set(class_filter(lat, spec, max_size=max_size))
    for t0 in filtered:
        for t in cons:
            if leq_congruence(t0, t) and t not in filtered:
                report.fail(f"not an up-set: above {t0.render(lat)} lies {t.render(lat)}")
    members = sorted(filtered, key=lambda t: t.block_of)
    if len(members) <= subset_cap:
        subsets = []
        for r in range(1, len(members) + 1):
            subsets.extend(itertools.combinations(members, r))
    else:
        subsets = list(itertools.combinations(members, 2)) + [tuple(members)]
    for subset in subsets:
        acc = subset[0]
        for t in subset[1:]:
            acc = cong_meet(acc, t)
        if acc not in filtered:
            report.fail(f"meet of a subset escapes the filter: {acc.render(lat)}")
    report.note(f"filter size {len(filtered)} of {len(cons)} congruences")
    return report


def verify_theorem2(lat, theta, spec):
    """kappa of L/theta equals the pushforward of kappa(L) joined with theta."""
    report = Report("quotient-kappa", True)
    qmap = quotient(lat, theta)
    lhs = kappa(qmap.target, spec)
    rhs = push_congruence(qmap, cong_join(lat, kappa(lat, spec), theta))
    if lhs != rhs:
        report.fail(
            f"mismatch on quotient by {theta.render(lat)}: "
            f"direct {lhs.render(qmap.target)} vs pushed {rhs.render(qmap.target)}"
        )
    return report


def _product_congruence(l1, l2, t1, t2):
    """The congruence t1 x t2 on product(l1, l2) (same element layout)."""
    n2 = len(l2)
    block_of = []
    for i in range(len(l1)):
        for j in range(n2):
            block_of.append(t1.block_of[i] * n2 + t2.block_of[j])
    return Congruence(len(l1) * n2, block_of)


def _factor_congruence(l1, l2, theta):
    """Try to factor theta on product(l1, l2) as t1 x t2; None if impossible."""
    n2 = len(l2)
    pairs1, pairs2 = [], []
    size = len(l1) * n2
    for a in range(size):
        for b in range(a + 1, size):
            if theta.same(a, b):
                pairs1.append((a // n2, b // n2))
                pairs2.append((a % n2, b % n2))
    t1 = _congruence_closure(l1, pairs1)
    t2 = _congruence_closure(l2, pairs2)
    if _product_congruence(l1, l2, t1, t2) == theta:
        return (t1, t2)
    return None


def verify_theorem3(l1, l2, spec, max_size=12):
    """kappa of a product is the product of the factor kappas.

    Also checks, when both factors fit under the enumeration cap, that
    every congruence of the product factors componentwise (the structural
    fact behind the equality).
    """
    report = Report("product-kappa", True)
    prod = product(l1, l2)
    direct = kappa(prod, spec)
    expected = _product_congruence(l1, l2, kappa(l1, spec), kappa(l2, spec))
    if direct != expected:
        report.fail(
            f"kappa of the product is {direct.render(prod)}, "
            f"product of kappas is {expected.render(prod)}"
        )
    if len(l1) <= max_size and len(l2) <= max_size:
        cons = all_congruences(prod, max_size=len(prod))
        for theta in cons:
            if _factor_congruence(l1, l2, theta) is None:
                report.fail(f"unfactorable product congruence: {theta.render(prod)}")
        report.note(f"factored all {len(cons)} product congruences")
    else:
        report.note("factor-wise premise skipped (factors exceed the cap)")
    return report
