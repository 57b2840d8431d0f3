"""windsym: exact desk checks for winding-element Hecke calculus at
prime-power level.

Subpackages by concern:

  residue_p1     P^1(Z/p^n Z) as indices: index/pair arithmetic, sigma/tau actions
  rel_homology   relative homology presentation, Smith certificate, cusp classes
  hecke_symbols  T_r{0,oo} images, Sigma_r, rank over F_l (l = 0 for Q), threshold
  winding_paths  obstruction-avoiding chain walks, inverse-pair search
  qexp_hecke     operator calculus on truncated q-expansions
  bounds_cli     closed-form bounds, constants consistency, CLI
"""

from .residue_p1 import P1Table, PrimePower
from .rel_homology import (
    Cusp,
    H1Presentation,
    build_presentation,
    cusp_equivalent,
    hecke_cusp_action,
    reduce_vector,
    smith_invariants,
)
from .hecke_symbols import (
    CriterionReport,
    SymbolVector,
    check_kamienny_condition3,
    hecke_span_rank,
    sigma_r_set,
    winding_image,
)
from .winding_paths import (
    IntervalPair,
    find_inverse_pair,
    lemma53_requirement,
    walk_chain_A,
    walk_chain_B,
    walk_chain_B_prime,
)
from .qexp_hecke import (
    DirichletCharacter,
    QExpansion,
    make_qexp,
    op_B,
    op_T,
    op_U,
    op_t,
    verify_relations,
)
from .bounds_cli import (
    cli_main,
    constants_consistency,
    cor18_bound,
    criterion_threshold,
    prop11_bound,
)

__version__ = "0.1.0"
