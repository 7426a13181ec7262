"""Exact-arithmetic verification toolkit for the hyperelliptic families
C_d : v^2 = (u+2) phi_d(u), their quotient constructions, CM structure,
and finite-field zeta data.

Entry points (everything else lives in the submodules):

- build_report(d), build_batch(dmax): run the claim registry for one d,
  or for every in-scope d <= dmax, and return the JSON document as a
  dict (what `chebcm verify --json` and `chebcm report` print);
- make_cd(d), make_dm(m), make_xd(d): the curves C_d, D_m and X_d;
- count_points(curve, p, k), l_polynomial(curve, q): the number of points
  over F_(p^k), an int, and the exact L-polynomial;
- lpoly_is_irreducible(lp): exact irreducibility of an L-polynomial, None if undecided;
- remark_lpolys(d, q): L(C_d), L(D_d), L(D_2d) and the isogeny equalities.
"""

__version__ = "0.1.0"  # the one version source; pyproject.toml reads it

from .curves import make_cd, make_dm, make_xd
from .report import build_batch, build_report
from .zeta import count_points, l_polynomial, lpoly_is_irreducible, remark_lpolys
