"""Stochastic gradient methods under growth conditions.

Finite-sum problems, four method variants (plain/projected/proximal/
resolvent stochastic gradient), growth-condition fitting, and rate/floor
analysis with a config-driven CLI (``sgmlab run|validate|report``).
Each public name lives in, and is imported from, its own module.
"""

__version__ = "0.1.0"
