"""Least congruences with quotient in an equational class of lattices.

``kappa`` computes, for a lattice L and a class given by identities, the
least congruence whose quotient satisfies every identity; ``delta`` is the
distributive special case.  ``kappa_oracle`` recomputes the same congruence
by brute force over the whole congruence lattice, and the ``verify_*``
functions machine-check the structural facts the construction relies on.

Whether a quotient L/theta lies in the class (``_in_class``) is read off
theta's D-closed set where it can be: L/theta is distributive iff theta
lies above delta(L), that is iff delta's set ``day.sources`` lies inside
theta's set, and a distributive lattice satisfies every identity that the
2-element chain satisfies (D = HSP(2)).  Only the other quotients are
built and swept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .catalog import chain, m3, n5
from .congruence import (
    Congruence,
    _canonical_congruence,
    _closed_set,
    _congruence_closure,
    _mask_congruence,
    all_congruences,
    cong_meet,
    identity_congruence,
    join_irreducible_congruences,
    push_congruence,
    quotient,
)
from .core import product
from .errors import SizeLimitExceeded
from .terms import DISTRIBUTIVE


def _first_failure(lat, sweeps):
    """The first failing assignment, or None if ``lat`` satisfies them all.

    ``sweeps`` are compiled identities (a spec's ``sweeps``), tried in order.
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
    failure = _first_failure(lat, spec.sweeps)
    if failure is None:
        return True
    ident, env, _, _ = failure
    return (ident, {v: lat.elements[i] for v, i in env.items()})


def _sweep_work(spec, *sizes):
    """The assignments that sweeping ``spec`` once over a lattice of each
    of ``sizes`` elements visits: the sum of size^k over the sizes and the
    k-variable identities."""
    return sum(size ** len(sweep.names) for sweep in spec.sweeps for size in sizes)


# The three lattices that tell whether identities define exactly the
# distributive class: the 2-element chain, the diamond M3 and the pentagon N5.
_CHAIN2, _M3, _N5 = chain(2).lattice, m3().lattice, n5().lattice


def _holds(small, sweeps):
    """True iff the lattice ``small`` satisfies every compiled identity."""
    return all(sweep.first_failure(small) is None for sweep in sweeps)


def _defines_distributive(sweeps):
    """True iff the compiled identities define exactly the distributive class.

    That is so iff the 2-element chain satisfies them and neither M3 nor N5
    does.  If 2 satisfies them, so does every distributive lattice, because
    the distributive class is generated by 2 (D = HSP(2)).  If M3 and N5
    fail them, so does every lattice with M3 or N5 as a sublattice, and a
    lattice without either is distributive (Dedekind, Birkhoff).  The
    converse holds since 2 is distributive and M3, N5 are not.
    """
    return _holds(_CHAIN2, sweeps) and not _holds(_M3, sweeps) and not _holds(_N5, sweeps)


class _Verdicts:
    """What the small lattices tell of one spec, kept on it by ``_verdicts``.

    ``two``: the 2-element chain satisfies the spec, so every distributive
    lattice does (D = HSP(2)); decided when the record is made, by a sweep
    of 2 alone.  ``distributive``: the spec defines exactly the
    distributive class (``_defines_distributive``), None until
    ``_distributive_verdict`` first asks, since it sweeps M3 and N5 too.
    """

    __slots__ = ("two", "distributive")

    def __init__(self, sweeps):
        self.two = _holds(_CHAIN2, sweeps)
        self.distributive = None


def _verdicts(spec):
    """The ``_Verdicts`` of ``spec``, made on the first call and kept on the
    spec, in its ``__dict__`` beside the ``sweeps`` it is decided from."""
    kept = spec.__dict__
    record = kept.get("_verdicts")
    if record is None:
        record = kept["_verdicts"] = _Verdicts(spec.sweeps)
    return record


def _distributive_verdict(spec):
    """``_defines_distributive`` of ``spec``, decided on the first call and
    kept in its ``_verdicts`` record; a spec that 2 fails is answered
    False without a further sweep."""
    # kappa asks on every call: a kept record is one dictionary lookup away
    record = spec.__dict__.get("_verdicts") or _verdicts(spec)
    verdict = record.distributive
    if verdict is None:
        verdict = record.distributive = record.two and _defines_distributive(spec.sweeps)
    return verdict


def charge_kappa(size, spec, max_work=None):
    """The path ``kappa`` takes on a lattice of ``size`` elements, charged
    against ``max_work``: True for Day's relation, False for the witness
    loop.  SizeLimitExceeded is raised if the path's charge exceeds the
    cap.

    The spec is classified only if sweeping 2, M3 and N5 fits the cap (the
    sum of 2^k + 2 * 5^k over the k-variable identities, ``_sweep_work``);
    the distributive class is then charged size^2 for Day's relation.  Any
    other spec, and any spec whose classification does not fit, is charged
    one full sweep of L (``_sweep_work``).  The cap is tested on every call,
    before a kept verdict is read, so a spec classified by an earlier call
    is charged exactly as a fresh one.
    """
    # classifying the spec sweeps 2, M3 and N5, so it must fit the cap too
    if (size >= 5 and (max_work is None or _sweep_work(spec, 2, 5, 5) <= max_work)
            and _distributive_verdict(spec)):
        if max_work is not None and size ** 2 > max_work:
            raise SizeLimitExceeded(
                f"Day relation over {size ** 2} element pairs exceeds the work cap {max_work}")
        return True
    if max_work is not None and (work := _sweep_work(spec, size)) > max_work:
        raise SizeLimitExceeded(f"identity sweep of {work} assignments exceeds the work cap {max_work}")
    return False


def kappa(lat, spec, max_work=None):
    """Least congruence whose quotient lies in the class.

    Congruences are handled as D-closed sets of join-irreducibles (see
    ``congruence``).  When the identities define exactly the distributive
    class (``_defines_distributive``: 2 satisfies them, M3 and N5 do not;
    decided once per spec and kept on it by ``_distributive_verdict``, and
    asked for |L| >= 5 only, since every smaller lattice is distributive
    and one sweep of it costs less than sweeping 2, M3 and N5), the
    answer is delta(L), and it is the congruence theta of the set S of
    D's sources, the j with j D k for some k.  Proof in two parts.

    Each source is forced: let j D k by p, and phi any congruence with
    distributive quotient.  Then j != k, j is below neither k nor p (else
    j <= k_* \\/ p), so j /\\ k and j /\\ p lie below j_*.  The
    distributive law at (j, k, p) has the sides j /\\ (k \\/ p) = j and
    (j /\\ k) \\/ (j /\\ p) <= j_*, which phi identifies, so j phi j_*
    by convexity.  Hence theta <= phi.

    L/theta is distributive: let [m] be a join-irreducible of L/theta and
    m the least element of its block.  Then m is join-irreducible in L and
    outside S, as m_* lies in a lower block.  If [m] is not join-prime,
    [m] <= [a \\/ b] with [m] below neither [a] nor [b]; m /\\ (a \\/ b)
    lies in m's block, so it is m, and m <= a \\/ b, below neither a nor
    b.  So m is not join-prime in L, and a minimal nontrivial join cover A
    of m gives m D k for each k in A, with p the join of A \\ {k}
    (Freese, Jezek and Nation, *Free Lattices*, ch. 2): m is a source, a
    contradiction.  So every join-irreducible of L/theta is join-prime,
    and L/theta is distributive (Birkhoff).

    For any other class, kappa is witness-driven: starting from the
    identity congruence, each round takes the first failing assignment of
    a sweep of L/theta (``_first_failure``), lifts its two unequal values
    to block representatives a, b of L, and replaces theta by the
    congruence generated by theta and (a, b) (``_congruence_closure`` on
    the D-closed set).  Why the result is least: let phi >= theta have
    its quotient in the class.  Lift the failing assignment to L; the two
    sides of the identity evaluate in L to elements of the blocks of a
    and b, and L/phi satisfies the identity, so phi identifies them,
    hence also a and b.  So phi lies above the new theta as well, and by
    induction every theta the loop visits lies below every congruence
    whose quotient is in the class.  Each round merges two blocks, so the
    loop ends, and it ends on a sweep that finds no failure: that sweep
    is the proof that the quotient by the returned theta is in the class.

    ``max_work`` caps the search, charging the path that runs
    (``charge_kappa``).  Above the charge, SizeLimitExceeded is raised
    before L is searched.  On the Day path the set S is ``day.sources``,
    and its labels are ``day.delta_labels()``, both kept with D: each call
    returns a new Congruence that shares the kept tuple of labels, so L is
    labelled once however often delta(L) is asked for.  The witness loop
    keeps nothing.
    """
    if charge_kappa(len(lat), spec, max_work):
        return _canonical_congruence(lat.day().delta_labels())
    closed = 0  # the D-closed set of theta, grown by one forced pair a round
    theta = identity_congruence(lat)
    target, reps = lat, range(len(lat))  # L/identity is L, with the same indices
    while True:
        failure = _first_failure(target, spec.sweeps)
        if failure is None:
            return theta
        left, right = failure[2:]
        closed = _congruence_closure(lat, closed, [(reps[left], reps[right])])
        theta = _mask_congruence(lat, closed)
        target = quotient(lat, theta).target
        reps = sorted(set(theta.block_of))


def delta(lat):
    """Least congruence with distributive quotient."""
    return kappa(lat, DISTRIBUTIVE)


def _in_class(lat, cons, spec):
    """The members of ``cons`` whose quotient lies in the class, in order.

    L has a largest distributive quotient L/delta, and every distributive
    quotient is a quotient of it, so L/theta is distributive iff
    theta >= delta, that is iff delta's D-closed set ``day.sources`` lies
    inside theta's (``_closed_set``).  When 2 satisfies the spec, every
    such theta is in the class (D = HSP(2)) and no quotient is built.  When
    the spec defines exactly the distributive class, every other theta is
    out; that verdict sweeps 2, M3 and N5, so it is asked for only once a
    non-distributive L/theta, of 5 elements or more, would be swept in its
    place.  Any other theta's quotient is built and swept.
    """
    sources, record = lat.day().sources, _verdicts(spec)
    members = []
    for theta in cons:
        if record.two:
            if not sources & ~_closed_set(lat, theta):
                members.append(theta)
                continue
            if _distributive_verdict(spec):
                continue
        if _first_failure(quotient(lat, theta).target, spec.sweeps) is None:
            members.append(theta)
    return members


def class_filter(lat, spec, max_size=12):
    """All congruences whose quotient lies in the class, in the order of
    ``all_congruences``, decided by ``_in_class``: only the quotients that
    are not distributive are built and swept, and none of them for the
    distributive class.  That they are the principal up-set of ``kappa``
    is checked by ``verify_theorem1``, not on every call.
    """
    return _in_class(lat, all_congruences(lat, max_size=max_size), spec)


def kappa_oracle(lat, spec, max_size=12):
    """kappa by brute force: the meet of ``class_filter``.

    The filter is the principal up-set of kappa (Theorem 1), so its meet
    is kappa and lies in the filter; ``verify_theorem1`` checks that, not
    every call.  Independent of ``kappa``'s witness loop: it sweeps every
    quotient that is not distributive, not a witness-driven sequence.  Its
    distributive quotients, and for the distributive class its whole
    answer, are read off ``day.sources``, as ``kappa``'s Day path is; the
    tests compare that path with a sweep of every quotient.
    """
    filtered = class_filter(lat, spec, max_size=max_size)
    result = filtered[0]
    for theta in filtered[1:]:
        result = cong_meet(result, theta)
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


def verify_theorem1(lat, spec, max_size=12, max_count=None):
    """The class-quotient congruences form the principal up-set of kappa.

    On one enumeration of Con(L), under ``all_congruences``' caps
    ``max_size`` and ``max_count``, checks that the filter F is the set of
    congruences above its meet m, and that m is kappa.  The verdict is that
    of asking F to be an up-set, closed under binary meets, and the up-set
    of kappa, since an up-set of the finite Con(L) closed under binary
    meets is the up-set of its meet.  Congruences are D-closed sets here
    (``_closed_set``), ordered by inclusion; m's set is the intersection
    of the members', started from all of J(L) (the full congruence).  F is
    found by ``_in_class``, which builds and sweeps only the quotients
    that are not distributive, so for the distributive class the check
    sweeps no quotient, and kappa takes the Day path.
    """
    report = Report("filter-structure", True)
    cons = all_congruences(lat, max_size, max_count)
    filtered = _in_class(lat, cons, spec)
    members = {_closed_set(lat, theta) for theta in filtered}
    meet = (1 << len(lat.day().joins)) - 1
    for closed in members:
        meet &= closed
    shown = _mask_congruence(lat, meet).render(lat)
    for theta in cons:
        closed = _closed_set(lat, theta)
        if not meet & ~closed and closed not in members:
            report.fail(f"above the filter's meet {shown} but outside the filter: {theta.render(lat)}")
    kap = kappa(lat, spec)
    if meet != _closed_set(lat, kap):
        report.fail(f"the filter's meet {shown} is not kappa {kap.render(lat)}")
    report.note(f"filter size {len(filtered)} of {len(cons)} congruences")
    return report


def verify_theorem2_each(lat, thetas, spec):
    """kappa of L/theta equals the pushforward of kappa(L) joined with
    theta, checked for each of ``thetas`` against a single kappa(L): one
    report each, in order.

    Each theta must be a congruence: the join is read as the union of the
    two D-closed sets (``_closed_set``), which is D-closed again.  kappa(L)
    and its set are computed once, so a list of all of Con(L) costs one
    kappa of L and one kappa of each quotient.
    """
    kap = _closed_set(lat, kappa(lat, spec))
    reports = []
    for theta in thetas:
        report = Report("quotient-kappa", True)
        qmap = quotient(lat, theta)
        lhs = kappa(qmap.target, spec)
        rhs = push_congruence(qmap, _mask_congruence(lat, kap | _closed_set(lat, theta)))
        if lhs != rhs:
            report.fail(
                f"mismatch on quotient by {theta.render(lat)}: "
                f"direct {lhs.render(qmap.target)} vs pushed {rhs.render(qmap.target)}"
            )
        reports.append(report)
    return reports


def verify_theorem2(lat, theta, spec):
    """kappa of L/theta equals the pushforward of kappa(L) joined with
    theta: the one-theta case of ``verify_theorem2_each``."""
    return verify_theorem2_each(lat, [theta], spec)[0]


def _product_congruence(l1, l2, t1, t2):
    """The congruence t1 x t2 on product(l1, l2) (same element layout)."""
    return Congruence(len(l1) * len(l2), itertools.product(t1.block_of, t2.block_of))


def verify_theorem3(l1, l2, spec, max_size=12, max_work=None):
    """kappa of a product is the product of the factor kappas.

    Also checks, when both factors fit under the enumeration cap
    ``max_size``, the structural fact behind the equality: every
    congruence of the product factors componentwise as t1 x t2 (Fraser and
    Horn: lattices are congruence-distributive).  The check runs on the generators of
    Con(L1 x L2), the congruences con(j_*, j) of its join-irreducibles
    (``join_irreducible_congruences``), and that suffices by two facts.
    The join-irreducibles of L1 x L2 are the (j, 0) and (0, j) for j
    join-irreducible in one factor, so a generator factors iff it is
    t x 0 or 0 x t for a generator t of that factor, 0 being the identity
    congruence.  And the join of t1 x t2 and s1 x s2 is
    (t1 \\/ s1) x (t2 \\/ s2), so when every generator factors, so does
    every join of generators, which is every congruence.  Then t1 x t2
    runs over Con(L1 x L2) without repeats as (t1, t2) runs over
    Con(L1) x Con(L2), and the note counts the congruences that way.
    Each factor's list is refused, as ``all_congruences`` refuses it, past
    the max_work // |Li| congruences whose labels fit ``max_work`` (None:
    no cap).
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
        zero1, zero2 = identity_congruence(l1), identity_congruence(l2)
        factored = {_product_congruence(l1, l2, t, zero2)
                    for t in join_irreducible_congruences(l1)}
        factored.update(_product_congruence(l1, l2, zero1, t)
                        for t in join_irreducible_congruences(l2))
        for theta in join_irreducible_congruences(prod):
            if theta not in factored:
                report.fail(f"unfactorable product congruence: {theta.render(prod)}")
        count = 1
        for factor in (l1, l2):
            cap = None if max_work is None else max_work // len(factor)
            count *= len(all_congruences(factor, max_size, cap))
        report.note(f"factored all {count} product congruences")
    else:
        report.note("factor-wise premise skipped (factors exceed the cap)")
    return report
