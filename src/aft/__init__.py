"""Fixpoint semantics for non-monotone operators over finite lattices.

The engine approximates an operator on a lattice by a precision-monotone
operator on pairs, then computes the classic fixpoint families: supported,
Kripke-Kleene, (partial) stable and well-founded. Frontends induce such
operators from normal logic programs and from dialectical frameworks; a
convex-set approximation space generalizes the interval reading.

The package holds the engine, its frontends and the ``aft`` command. The
seeded programs of ``aft compare --corpus`` are in ``aft.corpus``, and the
reduct oracle for stable models in ``aft.lp``; the test corpora and every
other oracle the tests check the engine against are in the tests.
"""

from . import errors
from .adf import (
    Adf,
    And,
    Const,
    Formula,
    Not,
    Or,
    Var,
    adf_approximator,
    attack_network,
    classical_operator,
    parse_adf,
    program_to_adf,
)
from .approx import (
    Approximator,
    ApproxPair,
    approximates,
    brackets_operator,
    dual,
    is_exact_approximator,
    is_precision_monotone,
    is_symmetric,
    precision_leq,
    ultimate,
    verify_approximator,
)
from .convex import (
    ConvexSet,
    ConvexSpace,
    convex_kripke_kleene,
    embed_interval,
    hull,
    is_convex,
    lift_operator,
)
from .fixpoints import (
    fixpoints_of,
    kripke_kleene,
    partial_stable_fixpoints,
    stable_models,
    stable_operator,
    supported_fixpoints,
    well_founded,
)
from .lattice import (
    FiniteLattice,
    Lattice,
    LatticeOperator,
    LawCheck,
    PowersetLattice,
    is_monotone,
    lfp,
)
from .lp import (
    LogicProgram,
    Rule,
    fitting,
    gl_reduct,
    parse_program,
    program_lattice,
    stable_models_oracle,
    tp,
)

__version__ = "0.1.0"
