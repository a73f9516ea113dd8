"""Exact desk-scale computation in non-archimedean analysis over Q_p.

Subpackages by concern:

- padic      — field arithmetic, norms, van der Put order, balls
- measure    — Haar measure, coset grids, densities, approximate limits,
               the indicator-series decomposition of step functions
- funcs      — exact symbolic functions (polynomials, ball indicators) and
               the expression mini-language
- quotients  — difference quotients, Taylor evaluation, combinatorial
               identities, Hölder scans, approximate derivatives
- extension  — Chebyshev radius, nearest-point Lipschitz/Hölder extension,
               packing bounds, Hölder-regime decomposition
- whitney    — distance fields, disjoint clopen families, partitions of
               unity, jets, glued extensions and their verification
- cli        — command-line front end over all of the above
"""
