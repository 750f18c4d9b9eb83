"""Exact verification toolkit for Z-graded Lie conformal algebras.

Subpackages:
    poly       exact arithmetic in Q[d, x, y, parameters]
    grammar    text form of polynomials (parse / canonical print)
    conformal  graded algebras, brackets, axiom checks, diagnostics
    families   constructors for the classified families
    gd         Novikov / Gel'fand-Dorfman structures and the correspondence
    linalg     exact sparse linear algebra over Q (row reduction, kernels)
    feq        the grade-action functional equation solver
    ideals     graded submodules, closure, simplicity probe
    specfile   JSON spec files
    cli        command-line front end
"""

__version__ = "0.1.0"
