"""latquot: congruences, quotients, and largest class-quotients of finite lattices."""

from .catalog import (
    NamedLattice,
    boolean,
    chain,
    free_distributive,
    free_lattice_small,
    free_modular_3,
    m3,
    n5,
    resolve,
    standard_catalog,
)
from .congruence import (
    Congruence,
    QuotientMap,
    all_congruences,
    cong_join,
    cong_meet,
    congruence_from_blocks,
    full_congruence,
    generated_congruence,
    identity_congruence,
    is_congruence,
    join_irreducible_congruences,
    leq_congruence,
    principal_congruence,
    push_congruence,
    quotient,
)
from .core import (
    Lattice,
    from_covers,
    is_distributive,
    is_isomorphic,
    is_modular,
    product,
    restrict,
    sublattice_closure,
)
from .errors import LatticeError
from .terms import (
    BUILTIN_CLASSES,
    DISTRIBUTIVE,
    MODULAR,
    ClassSpec,
    Identity,
    Join,
    Meet,
    Var,
    eval_term,
    parse_identity,
    parse_identity_file,
    parse_term,
    render_term,
)
from .textfmt import dump_lattice_text, parse_congruence_text, parse_lattice_text, to_dot
from .variety import (
    class_filter,
    delta,
    kappa,
    kappa_oracle,
    satisfies,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)

__version__ = "0.1.0"
