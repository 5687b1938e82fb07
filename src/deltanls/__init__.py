"""Stationary and mass-constrained states of the 1D NLS with a defocusing
bulk nonlinearity and a focusing delta-point nonlinearity at the origin.

Names are imported from their modules, one layer above the next:
params, algebra, stationary, massmap, energy, discrete, oracle, verification,
cli.
"""

__version__ = "0.1.0"
