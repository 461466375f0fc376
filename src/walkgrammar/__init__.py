"""Coin-driven quantum walk on the integers with its path grammar and orbits.

The package's names live in its modules: `coalgebra`, `graphs`,
`language`, `orbits`, `quantize`, `walk`, `verify` and `cli`.  Only
`quantize`, `walk` and `verify` import numpy.
"""
