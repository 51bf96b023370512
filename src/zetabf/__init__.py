"""Twisted Ruelle zeta functions, combinatorial torsion and BV gauge fixing.

The package plays three independently computed quantities against each other
at desk scale: dynamical zeta values from periodic-orbit sums, analytic
torsion of twisted cochain complexes, and BF partition functions in metric
and contraction gauges.  Each name is imported from its own module
(``zetabf.orbits``, ``zetabf.zeta``, ``zetabf.complexes``, ``zetabf.bv``,
...); the package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
