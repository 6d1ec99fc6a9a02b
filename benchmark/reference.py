"""Independent references for every semantics the benchmark requests.

Nothing here uses ``aft.approx`` or ``aft.fixpoints``. Programs are checked
with a Fitting iteration and Van Gelder's alternating fixpoint, whose inner
least models come from a counter-based (Dowling-Gallier) Horn procedure, and
against ``aft.lp.stable_models_oracle`` for stable models. Frameworks are
checked with a strong Kleene evaluator written here and brute-force classical
evaluation. Results the references do not compute outright (``ultimate-*``
and ``convex-kk``) are checked against the laws of the fixpoint taxonomy.

``check`` returns a list of mismatch descriptions; empty means correct.
"""

from __future__ import annotations

import itertools

from aft.lp import LogicProgram, Rule, stable_models_oracle

from workloads import Instance, program_atoms


def subsets(atoms):
    atoms = sorted(atoms)
    for k in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, k):
            yield frozenset(combo)


# -- programs ----------------------------------------------------------------


class ProgramRef:
    """Reference semantics of one normal program."""

    def __init__(self, program):
        self.atoms = program_atoms(program)
        self.rules = [(h, frozenset(p), frozenset(n)) for h, p, n in program]
        self.by_body_atom: dict[str, list[int]] = {}
        for i, (_, pos, _) in enumerate(self.rules):
            for b in pos:
                self.by_body_atom.setdefault(b, []).append(i)

    def approx(self, lower, upper):
        """Fitting's four-valued step, on any pair."""
        lo = frozenset(h for h, p, n in self.rules if p <= lower and n.isdisjoint(upper))
        hi = frozenset(h for h, p, n in self.rules if p <= upper and n.isdisjoint(lower))
        return lo, hi

    def operator(self, x):
        return self.approx(x, x)[0]

    def gamma(self, x):
        """Least model of the reduct relative to x, in time linear in the
        program: each rule counts its positive body atoms not yet derived."""
        missing = []
        queue = []
        for h, p, n in self.rules:
            live = n.isdisjoint(x)
            missing.append(len(p) if live else -1)
            if live and not p:
                queue.append(h)
        model = set()
        while queue:
            a = queue.pop()
            if a in model:
                continue
            model.add(a)
            for i in self.by_body_atom.get(a, ()):
                if missing[i] > 0:
                    missing[i] -= 1
                    if missing[i] == 0:
                        queue.append(self.rules[i][0])
        return frozenset(model)

    lower_revision = gamma
    upper_revision = gamma

    def kk(self):
        """Fitting iteration from (nothing, everything)."""
        return _iterate(self.approx, frozenset(), self.atoms)

    def wf(self):
        """Van Gelder's alternating fixpoint: T grows by T <- gamma(gamma(T))
        from the empty set; the result is (T, gamma(T))."""
        true = frozenset()
        while True:
            upper = self.gamma(true)
            nxt = self.gamma(upper)
            if nxt == true:
                return true, upper
            true = nxt

    def supported(self):
        return frozenset(x for x in subsets(self.atoms) if self.operator(x) == x)

    def stable(self):
        return stable_models_oracle(LogicProgram(Rule(h, p, n) for h, p, n in self.rules))

    def partial_stable(self):
        return _partial_stable(self)


# -- frameworks --------------------------------------------------------------


def support(f, lower, upper):
    """(truth-supported, falsity-supported) of a formula at a pair, read
    bit by bit so inconsistent pairs are handled too."""
    kind = f[0]
    if kind == "var":
        return f[1] in lower, f[1] not in upper
    if kind == "const":
        return f[1], not f[1]
    if kind == "not":
        t, fa = support(f[1], lower, upper)
        return fa, t
    lt, lf = support(f[1], lower, upper)
    rt, rf = support(f[2], lower, upper)
    if kind == "and":
        return lt and rt, lf or rf
    return lt or rt, lf and rf


def classical(f, x) -> bool:
    kind = f[0]
    if kind == "var":
        return f[1] in x
    if kind == "const":
        return f[1]
    if kind == "not":
        return not classical(f[1], x)
    if kind == "and":
        return classical(f[1], x) and classical(f[2], x)
    return classical(f[1], x) or classical(f[2], x)


class AdfRef:
    """Reference semantics of one framework."""

    def __init__(self, adf: dict):
        self.conditions = list(adf.items())
        self.atoms = frozenset(adf)

    def approx(self, lower, upper):
        lo, hi = [], []
        for s, f in self.conditions:
            t, fa = support(f, lower, upper)
            if t:
                lo.append(s)
            if not fa:
                hi.append(s)
        return frozenset(lo), frozenset(hi)

    def operator(self, x):
        return frozenset(s for s, f in self.conditions if classical(f, x))

    def lower_revision(self, upper):
        return _lfp(lambda z: self.approx(z, upper)[0])

    def upper_revision(self, lower):
        return _lfp(lambda z: self.approx(lower, z)[1])

    def kk(self):
        return _iterate(self.approx, frozenset(), self.atoms)

    def wf(self):
        def stable_step(lower, upper):
            return self.lower_revision(upper), self.upper_revision(lower)

        return _iterate(stable_step, frozenset(), self.atoms)

    def supported(self):
        """Two-valued models by brute-force classical evaluation."""
        return frozenset(x for x in subsets(self.atoms) if self.operator(x) == x)

    def stable(self):
        return frozenset(
            x for x in self.supported() if self.lower_revision(x) == x and self.upper_revision(x) == x
        )

    def partial_stable(self):
        return _partial_stable(self)


# -- shared ------------------------------------------------------------------


def _lfp(step):
    z = frozenset()
    while True:
        nz = step(z)
        if nz == z:
            return z
        z = nz


def _iterate(step, lower, upper):
    while True:
        nxt = step(lower, upper)
        if nxt == (lower, upper):
            return nxt
        lower, upper = nxt


def _partial_stable(ref):
    """Consistent pairs fixed by the stable operator. The lower bound of
    such a pair is the lower revision of its upper bound, so one candidate
    per upper bound suffices."""
    out = set()
    for upper in subsets(ref.atoms):
        lower = ref.lower_revision(upper)
        if lower <= upper and ref.upper_revision(lower) == upper:
            out.add((lower, upper))
    return frozenset(out)


def precision_leq(p, q) -> bool:
    """q is at least as precise as p."""
    return p[0] <= q[0] and q[1] <= p[1]


def reference_for(inst: Instance):
    """Programs and program images are checked against the program."""
    program = inst.program if inst.program is not None else inst.image_of
    if program is not None:
        return ProgramRef(program)
    return AdfRef(inst.adf)


# -- checking ----------------------------------------------------------------


def _pair(doc):
    return frozenset(doc["lower"]), frozenset(doc["upper"])


def decode(doc: dict) -> dict:
    """Engine JSON output as sets and pairs of frozensets."""
    out = {}
    for name, value in doc.items():
        if name in ("kk", "wf", "ultimate-kk", "ultimate-wf"):
            out[name] = _pair(value)
        elif name == "partial-stable":
            out[name] = frozenset(_pair(p) for p in value)
        elif name == "convex-kk":
            out[name] = frozenset(frozenset(m) for m in value["members"])
        elif name in ("supported", "stable"):
            out[name] = frozenset(frozenset(m) for m in value)
    return out


def check(inst: Instance, got: dict) -> list[str]:
    """Compare decoded engine results with the references; one message per
    disagreement."""
    ref = reference_for(inst)
    bad = []

    def expect(name, want):
        if got.get(name) != want:
            bad.append(f"{name}: got {_show(got.get(name))}, want {_show(want)}")

    def law(ok, text):
        if not ok:
            bad.append(f"law violated: {text}")

    missing = [n for n in inst.semantics if n not in got]
    if missing:
        return [f"missing results for {', '.join(missing)}"]

    kk = ref.kk()
    wf = ref.wf()
    expect("kk", kk)
    expect("wf", wf)
    if "supported" not in inst.semantics:
        return bad

    supported = ref.supported()
    stable = ref.stable()
    expect("supported", supported)
    expect("stable", stable)
    for m in supported:
        law(precision_leq(kk, (m, m)), "kk is below every supported model")
    if "partial-stable" in got:
        expect("partial-stable", ref.partial_stable())
        for p in got["partial-stable"]:
            law(precision_leq(wf, p), "wf is below every partial stable fixpoint")
            law(ref.approx(*p) == p, "every partial stable fixpoint is a fixpoint")
            law(precision_leq(kk, p), "kk is below every partial stable fixpoint")
    if "ultimate-kk" in got:
        ukk, uwf = got["ultimate-kk"], got["ultimate-wf"]
        law(ukk[0] <= ukk[1] and uwf[0] <= uwf[1], "ultimate fixpoints are consistent")
        law(precision_leq(kk, ukk), "ultimate kk is at least as precise as kk")
        law(precision_leq(wf, uwf), "ultimate wf is at least as precise as wf")
        law(precision_leq(ukk, uwf), "ultimate wf is at least as precise as ultimate kk")
        for m in supported:
            law(ukk[0] <= m <= ukk[1], "every supported model lies within ultimate kk")
        for m in stable:
            law(uwf[0] <= m <= uwf[1], "every stable model lies within ultimate wf")
        convex = got["convex-kk"]
        law(all(ukk[0] <= x <= ukk[1] for x in convex), "convex kk lies within the ultimate kk interval")
        law(supported <= convex, "every supported model lies in convex kk")
    return bad


def _show(value, limit=160):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."
