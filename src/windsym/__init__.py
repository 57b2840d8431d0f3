"""windsym: exact desk checks for winding-element Hecke calculus at
prime-power level.

Subpackages by concern:

  residue_p1     P^1(Z/p^n Z) as indices: index/pair arithmetic, sigma/tau actions
  rel_homology   relative homology presentation, Smith certificate
  hecke_symbols  T_r{0,oo} images, Sigma_r, rank over F_l (l = 0 for Q)
  winding_paths  obstruction-avoiding chain walks, inverse-pair search
  qexp_hecke     operator calculus on truncated q-expansions
  bounds         closed-form bounds, threshold, constants consistency
  bounds_cli     the CLI

The package re-exports nothing: import each name from its layer module
(`from windsym.residue_p1 import P1Table`), so that loading one layer, or
running one CLI subcommand, compiles and holds only the modules it uses.
"""

__version__ = "0.1.0"
