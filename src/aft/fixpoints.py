"""The fixpoint families of an approximator.

For a precision-monotone operator on pairs this module computes the
Kripke-Kleene fixpoint (the precision-least fixpoint, by iteration from the
least precise pair), the supported fixpoints (exact fixpoints), the partial
stable fixpoints (fixpoints of the stable operator), the stable models
(lowers of the exact ones), and the well-founded fixpoint (the
precision-least fixpoint of the stable operator).

The stable operator's two inner least fixpoints, the revisions, come from
one routine: the approximator's ``revision`` hook when it carries one (the
program frontend computes them as least models of the reduct), and
otherwise iterating a projection of the approximator. A revision of a
consistency-restricted approximator is undefined once an iterate leaves the
consistent region, which ``Approximator.apply`` detects. Partial stable
pairs are found by a scan over lowers: the upper revision depends on the
lower bound alone, so each lower has a single candidate upper.

The Kripke-Kleene and well-founded iterations and the iterated revisions
all run through ``aft.lattice.iterate``: the outer ones bounded by twice the
lattice height, the inner ones by the height, and all of them stopped with
DivergenceGuard, and the cycle, at the first revisited value.
Iteration traces are first-class outputs: each construction returns the full
precision-increasing sequence it walked, which the command line can replay.

Supported fixpoints and stable models are found by propagate, prune and
branch. Every fixed exact pair of a precision-monotone approximator refines
the Kripke-Kleene fixpoint, and inside any pair (l, u) also A(l, u); every
stable model refines the well-founded fixpoint, and inside (l, u) also the
stable revision of (l, u) (Denecker, Marek and Truszczynski 2000). So each
search starts from its bound, narrows a pair with A or the stable revision
until it stops changing, and then splits it on one unknown atom; exact
pairs are kept only after the full fixpoint check. The two searches and
the partial stable scan, which visits the lowers between the well-founded
bounds, refuse more than SCAN_ATOM_LIMIT atoms left unknown by their bound.
"""

from __future__ import annotations

from .approx import Approximator, ApproxPair
from .errors import InconsistentPair, NonMonotoneProjection, StableRevisionUndefined
from .lattice import SCAN_ATOM_LIMIT, Element, LatticeOperator, check_atoms, is_monotone, iterate


def _pair_trace(a: Approximator, step, what: str) -> tuple[ApproxPair, list[ApproxPair]]:
    """The last pair and the trace of ``step`` iterated on raw pairs from
    (bottom, top); a strictly precision-increasing chain of pairs climbs at
    most the lattice height in each bound, which sizes the guard."""
    lat = a.lattice
    raw = iterate(step, (lat.bottom, lat.top), 2 * lat.height + 1, what)
    trace = [ApproxPair(lat, lo, hi) for lo, hi in raw]
    return trace[-1], trace


def kripke_kleene(a: Approximator) -> tuple[ApproxPair, list[ApproxPair]]:
    """The precision-least fixpoint of the approximator, with its trace.

    Iterates from (bottom, top); for a precision-monotone operator the trace
    is precision-increasing and stabilizes within twice the lattice height.
    """
    return _pair_trace(a, lambda p: a.apply(*p), f"Kripke-Kleene iteration of {a.name}")


def fixpoints_of(a: Approximator) -> frozenset[ApproxPair]:
    """Every pair the approximator leaves fixed, by exhaustive scan."""
    lat = a.lattice
    return frozenset(
        ApproxPair(lat, lo, hi) for lo, hi in a.domain() if a.apply(lo, hi) == (lo, hi)
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
            nxt = (lat.lub((lo, out[0])), lat.glb((hi, out[1])))
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
        return lat.check_element(a.revision(at))
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


def stable_operator(a: Approximator, p: ApproxPair, *, validate: bool = False) -> ApproxPair:
    """One application of the stable operator: the pair of inner least
    fixpoints of the approximator's two projections at p.

    Precision-monotonicity of the approximator already makes both projections
    monotone, so ``validate`` (an exhaustive re-check of that consequence) is
    off by default.
    """
    lat = a.lattice
    if validate and not a.consistent_only:
        low_proj = LatticeOperator(lat, lambda z: a.apply(z, p.upper)[0], name="lower projection")
        check = is_monotone(low_proj)
        if not check:
            raise NonMonotoneProjection("lower", check.witness)
        up_proj = LatticeOperator(lat, lambda z: a.apply(p.lower, z)[1], name="upper projection")
        check = is_monotone(up_proj)
        if not check:
            raise NonMonotoneProjection("upper", check.witness)
    out = _stable_raw(a, p.lower, p.upper)
    if out is None:
        raise StableRevisionUndefined(p.raw(), "an inner iteration left the consistent region")
    return ApproxPair(lat, *out)


def partial_stable_fixpoints(a: Approximator) -> frozenset[ApproxPair]:
    """All consistent pairs the stable operator leaves fixed.

    The upper half of the stable revision of (lo, hi) depends on lo alone,
    so a fixpoint with lower lo can only have the upper revision at lo as its
    upper: the scan visits each lower once, not each consistent pair. The
    approximator must be precision-monotone: every fixpoint then refines the
    well-founded one, so only lowers between its bounds are visited. Pairs
    whose stable revision is undefined (possible only for
    consistency-restricted approximators) are simply not fixpoints.
    """
    lat = a.lattice
    wf, _ = well_founded(a)
    check_atoms(lat, SCAN_ATOM_LIMIT, "partial-stable scan", wf.raw())
    found = []
    for lo in lat.interval(wf.lower, wf.upper):
        hi = _revision(a, lo, False)
        if hi is not None and lat.leq(lo, hi) and _stable_raw(a, lo, hi) == (lo, hi):
            found.append(ApproxPair(lat, lo, hi))
    return frozenset(found)


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
    return (a.lattice.lub((lo, out_lo)), out_hi)


def stable_models(a: Approximator) -> frozenset[Element]:
    """Lowers of the exact partial stable fixpoints.

    The approximator must be precision-monotone: every stable model then
    refines its well-founded fixpoint and, inside any pair, the pair's
    stable revision (Denecker, Marek and Truszczynski 2000), so the search
    starts at the former and propagates with ``_stable_bounds``.
    """
    lat = a.lattice
    wf, _ = well_founded(a)
    check_atoms(lat, SCAN_ATOM_LIMIT, "stable scan", wf.raw())
    return _search(
        a,
        wf.raw(),
        lambda lo, hi: _stable_bounds(a, lo, hi),
        lambda x: _stable_raw(a, x, x) == (x, x),
    )


def well_founded(a: Approximator) -> tuple[ApproxPair, list[ApproxPair]]:
    """The precision-least fixpoint of the stable operator, with its trace,
    by iterating the stable operator from (bottom, top)."""

    def step(p):
        out = _stable_raw(a, *p)
        if out is None:
            raise StableRevisionUndefined(p, "well-founded iteration left the consistent region")
        return out

    return _pair_trace(a, step, f"well-founded iteration of {a.name}")
