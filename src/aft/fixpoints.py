"""The fixpoint families of an approximator.

For a precision-monotone operator on pairs this module computes the
Kripke-Kleene fixpoint (the precision-least fixpoint, by iteration from the
least precise pair), the supported fixpoints (exact fixpoints), the partial
stable fixpoints (fixpoints of the stable operator), the stable models
(lowers of the exact ones), and the well-founded fixpoint (the
precision-least fixpoint of the stable operator).

The stable operator's two inner least fixpoints, the revisions, come from
one routine: the approximator's ``revision`` hook when it carries one, as
both frontends' approximators do (``Approximator`` checks and caches its
last four results), and otherwise iterating a projection of the
approximator, as for ``ultimate``, ``dual`` and tabulated ones. A revision
of a consistency-restricted approximator is undefined once an iterate
leaves the consistent region, which ``Approximator.apply`` detects.
The upper revision depends on the lower bound alone, so each lower has a
single candidate upper, and partial stable pairs are found by a search
over lowers.

The Kripke-Kleene and well-founded iterations and the iterated revisions
all run through ``aft.lattice.iterate``: the outer ones bounded by twice the
lattice height, the inner ones by the height, and all of them stopped with
DivergenceGuard, and the cycle, at the first revisited value.
Iteration traces are first-class outputs: each construction returns the full
precision-increasing sequence it walked, which the command line can replay.
Each approximator remembers its Kripke-Kleene and well-founded fixpoints
once computed, so the searches that start from them, and a
second request for either, do not iterate again; every call gets its own
trace list. The pairs of traces and results are built from values that
``apply`` or the revision hook has already checked, and are not checked
again.

The well-founded fixpoint is the precision-least fixpoint of the stable
operator, and the Kripke-Kleene fixpoint lies below it in precision and
below its own stable revision (Denecker, Marek and Truszczynski 2000 and
2004; the argument is in ``well_founded``). So when no trace is wanted, as
for the searches here and for an untraced command-line request,
the well-founded iteration starts from the Kripke-Kleene fixpoint. Where
that decides every atom, as on a negation chain, the iteration is one
application of the stable operator, and the walk from (bottom, top) one per
layer of the chain. A traced request still walks from (bottom, top), and
each start is remembered apart.

Supported fixpoints, stable models and the lowers of partial stable pairs
are found by propagate, prune and branch. Every fixed exact pair of a
precision-monotone approximator refines the Kripke-Kleene fixpoint, and
inside any pair (l, u) also A(l, u); every stable model refines the
well-founded fixpoint, and inside (l, u) also the stable revision of
(l, u); and the lower of every partial stable pair lies between the
well-founded bounds and is a fixpoint of the lower revision after the
upper one, a monotone map, which bounds it inside (l, u) (Denecker, Marek
and Truszczynski 2000; see ``_partial_stable_bounds``). So each search
starts from its bound, narrows a pair until it stops changing, and then
splits it on one unknown atom; exact pairs are kept only after the full
fixpoint check. The three searches refuse more than SCAN_ATOM_LIMIT atoms
left unknown by their bound.
"""

from __future__ import annotations

from .approx import Approximator, ApproxPair, _known_pair
from .errors import InconsistentPair, StableRevisionUndefined
from .lattice import SCAN_ATOM_LIMIT, Element, check_atoms, iterate


def _pair_trace(
    a: Approximator, step, what: str, start=None
) -> tuple[ApproxPair, list[ApproxPair]]:
    """The last pair and the trace of ``step`` iterated on raw pairs from
    ``start``, by default (bottom, top), computed once per approximator,
    ``what`` and start; a strictly precision-increasing chain of pairs climbs
    at most the lattice height in each bound, which sizes the guard."""
    key = what if start is None else (what, start)
    known = a._fixpoints.get(key)
    if known is None:
        lat = a.lattice
        if start is None:
            start = (lat.bottom, lat.top)
        raw = iterate(step, start, 2 * lat.height + 1, what)
        trace = [_known_pair(lat, lo, hi) for lo, hi in raw]
        known = a._fixpoints[key] = (trace[-1], trace)
    return known[0], list(known[1])


def kripke_kleene(a: Approximator) -> tuple[ApproxPair, list[ApproxPair]]:
    """The precision-least fixpoint of the approximator, with its trace.

    Iterates from (bottom, top); for a precision-monotone operator the trace
    is precision-increasing and stabilizes within twice the lattice height.
    The approximator remembers the result, so a later call iterates no more.
    """
    return _pair_trace(a, lambda p: a.apply(*p), f"Kripke-Kleene iteration of {a.name}")


def fixpoints_of(a: Approximator) -> frozenset[ApproxPair]:
    """Every pair the approximator leaves fixed, by exhaustive scan."""
    lat = a.lattice
    return frozenset(
        _known_pair(lat, lo, hi) for lo, hi in a.domain() if a.apply(lo, hi) == (lo, hi)
    )


def _search(a: Approximator, start, propagate, accept) -> frozenset[Element]:
    """The elements x refining the pair ``start`` for which ``accept(x)``
    holds, by propagate, prune and branch.

    ``propagate(lo, hi)`` returns a pair between whose bounds every sought
    element between lo and hi lies, or None when there is none. A pair is
    narrowed by it until it stops changing; then an inconsistent pair is
    pruned, an exact one kept when ``accept`` holds (propagation alone is no
    proof), and any other split by the lattice. On a powerset that branches
    on one unknown atom; on an explicit lattice it falls back to the exact
    pairs of the interval.
    """
    lat = a.lattice
    found = []
    todo = [start]
    while todo:
        lo, hi = todo.pop()
        while lo != hi and lat.leq(lo, hi):
            out = propagate(lo, hi)
            if out is None:
                break
            nxt = (lat.join(lo, out[0]), lat.meet(hi, out[1]))
            if nxt == (lo, hi):
                todo.extend(lat.split(lo, hi))
                break
            lo, hi = nxt
        else:
            if lo == hi and accept(lo):
                found.append(lo)
    return frozenset(found)


def supported_fixpoints(a: Approximator) -> frozenset[Element]:
    """Elements whose exact pair is fixed; for an exactly-bracketing
    approximator these are precisely the fixpoints of the base operator.

    The approximator must be precision-monotone: every fixed exact pair then
    refines its Kripke-Kleene fixpoint and, inside any pair (lo, hi), refines
    A(lo, hi), so the search starts at the former and propagates with A.
    """
    lat = a.lattice
    kk, _ = kripke_kleene(a)
    check_atoms(lat, SCAN_ATOM_LIMIT, "supported scan", kk.raw())
    return _search(a, kk.raw(), a.apply, lambda x: a.apply(x, x) == (x, x))


def _revision(a: Approximator, at: Element, lower: bool):
    """The least fixpoint of z -> A(z, at).lower when ``lower`` is set and
    of z -> A(at, z).upper otherwise: the revision hook's value when there
    is one, else iterated from bottom (from ``at`` for the upper revision of
    a consistency-restricted approximator). For the latter it is None once
    an iterate leaves the consistent region, which ``apply`` refuses before
    evaluating it; a precision-monotone approximator climbs strictly until
    then, so that comes within the height bound.
    """
    lat = a.lattice
    if a.revision is not None:
        return a.revision(at)
    if lower:
        side, start, step = "lower", lat.bottom, lambda z: a.apply(z, at)[0]
    else:
        start = at if a.consistent_only else lat.bottom
        side, step = "upper", lambda z: a.apply(at, z)[1]
    try:
        return iterate(step, start, lat.height + 1, f"{side} revision of {a.name}")[-1]
    except InconsistentPair:
        if a.consistent_only:
            return None
        raise


def _stable_raw(a: Approximator, lower: Element, upper: Element):
    lo = _revision(a, upper, True)
    if lo is None:
        return None
    hi = _revision(a, lower, False)
    if hi is None:
        return None
    return (lo, hi)


def stable_operator(a: Approximator, p: ApproxPair) -> ApproxPair:
    """One application of the stable operator: the pair of inner least
    fixpoints of the approximator's two projections at p, the revisions.

    The approximator must be precision-monotone, which makes both
    projections monotone; ``verify_approximator`` checks that. A revision of
    a consistency-restricted approximator that leaves the consistent region
    raises StableRevisionUndefined.
    """
    out = _stable_raw(a, p.lower, p.upper)
    if out is None:
        raise StableRevisionUndefined(p.raw(), "an inner iteration left the consistent region")
    return _known_pair(a.lattice, *out)


def _partial_stable_bounds(a: Approximator, lower: Element, upper: Element):
    """A pair between whose bounds the lower of every partial stable pair
    with its lower between lower and upper lies.

    Write U and L for the upper and lower revisions. A partial stable pair
    (x, y) has y = U(x) and x = L(y), and for a precision-monotone
    approximator both revisions are antitone, so x is a fixpoint of the
    monotone map T = L o U, and consistency gives x <= U(x) <= U(lower). So
    x lies between T(lower) and the meet of T(upper) and U(lower). A
    consistency-restricted approximator iterates its upper revision from x,
    which the antitone argument does not cover; there the pair itself is
    returned, which narrows nothing.
    """
    if a.consistent_only:
        return (lower, upper)
    up = _revision(a, lower, False)
    below = _revision(a, _revision(a, upper, False), True)
    return (_revision(a, up, True), a.lattice.meet(below, up))


def partial_stable_fixpoints(a: Approximator) -> frozenset[ApproxPair]:
    """All consistent pairs the stable operator leaves fixed.

    The upper half of the stable revision of (lo, hi) depends on lo alone,
    so a fixpoint with lower lo can only have the upper revision at lo as its
    upper: the search is over lowers, not over consistent pairs. The
    approximator must be precision-monotone: every fixpoint then refines the
    well-founded one, so the search starts there and narrows with
    ``_partial_stable_bounds``. That bound is iterated from the
    Kripke-Kleene fixpoint unless already known (``well_founded`` without a
    trace). A lower x is kept with the upper revision y at x when y is
    defined, which it need not be for a consistency-restricted approximator,
    x <= y, and the stable operator leaves (x, y) fixed.
    """
    lat = a.lattice
    wf, _ = well_founded(a, trace=False)
    check_atoms(lat, SCAN_ATOM_LIMIT, "partial-stable scan", wf.raw())
    uppers = {}

    def accept(x):
        y = uppers[x] = _revision(a, x, False)
        return y is not None and lat.leq(x, y) and _stable_raw(a, x, y) == (x, y)

    found = _search(a, wf.raw(), lambda lo, hi: _partial_stable_bounds(a, lo, hi), accept)
    return frozenset(_known_pair(lat, x, uppers[x]) for x in found)


def _stable_bounds(a: Approximator, lower: Element, upper: Element):
    """A pair between whose bounds every stable model between lower and
    upper lies, or None when there is none.

    That is the stable revision of (lower, upper) for a total approximator.
    A consistency-restricted one iterates its upper revision inside
    [lower, top] from lower, which need not bound the stable models above;
    but every stable model is an exact fixpoint, so A(lower, upper) bounds
    them on both sides, and the lower revision at upper bounds them below.
    """
    if not a.consistent_only:
        return _stable_raw(a, lower, upper)
    lo = _revision(a, upper, True)
    if lo is None:
        return None
    out_lo, out_hi = a.apply(lower, upper)
    return (a.lattice.join(lo, out_lo), out_hi)


def stable_models(a: Approximator) -> frozenset[Element]:
    """Lowers of the exact partial stable fixpoints.

    The approximator must be precision-monotone: every stable model then
    refines its well-founded fixpoint and, inside any pair, the pair's
    stable revision (Denecker, Marek and Truszczynski 2000), so the search
    starts at the former and propagates with ``_stable_bounds``. The
    well-founded fixpoint is iterated from the Kripke-Kleene one unless
    already known (``well_founded`` without a trace).
    """
    lat = a.lattice
    wf, _ = well_founded(a, trace=False)
    check_atoms(lat, SCAN_ATOM_LIMIT, "stable scan", wf.raw())
    return _search(
        a,
        wf.raw(),
        lambda lo, hi: _stable_bounds(a, lo, hi),
        lambda x: _stable_raw(a, x, x) == (x, x),
    )


def well_founded(a: Approximator, *, trace: bool = True) -> tuple[ApproxPair, list[ApproxPair]]:
    """The precision-least fixpoint of the stable operator, with its trace.

    With ``trace`` set the stable operator is iterated from (bottom, top),
    the walk the command line prints. Without it the iteration starts from
    the Kripke-Kleene fixpoint, which reaches the same pair in fewer steps:
    on a program that kk decides, one. The trace returned is the walk made,
    so its length counts the steps taken. A pair already remembered from
    bottom is returned without iterating; each start is remembered apart.

    Why both starts end at the same pair, for a precision-monotone A, kk its
    Kripke-Kleene fixpoint and S its stable operator (Denecker, Marek and
    Truszczynski, "Approximations, stable operators, well-founded fixpoints
    and applications in nonmonotonic reasoning", 2000, and "Ultimate
    approximation and its application in nonmonotonic knowledge
    representation systems", Inf. Comput. 2004):

    - each kk iterate's lower bound lies below L, the least fixpoint of
      z -> A(z, kk.upper).lower, by induction: the iterates' upper bounds
      all lie above kk.upper, so precision-monotonicity puts the next lower
      bound below A(L, kk.upper).lower = L. So kk.lower <= S(kk).lower = L;
    - kk.upper is a fixpoint of z -> A(kk.lower, z).upper, and lies in
      [kk.lower, top], where a consistency-restricted A iterates from; so
      S(kk).upper, the least fixpoint there, lies below kk.upper;
    - so kk is below S(kk) in precision. S is precision-monotone, and wf,
      being a fixpoint of A, lies above kk; so the iteration from kk rises,
      stays below wf, and stops at a fixpoint of S, which can only be wf.
    """

    def step(p):
        out = _stable_raw(a, *p)
        if out is None:
            raise StableRevisionUndefined(p, "well-founded iteration left the consistent region")
        return out

    what = f"well-founded iteration of {a.name}"
    if trace or what in a._fixpoints:
        return _pair_trace(a, step, what)
    return _pair_trace(a, step, what, kripke_kleene(a)[0].raw())
