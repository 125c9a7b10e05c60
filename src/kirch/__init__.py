"""Arithmetic of the Kirch topology on the nonzero integers.

Modules
-------
numtheory   exact factorization, CRT, prime classes, power-gap checks
topology    progressions, closures, the separation oracle for closures
filters     superconnecting filters: A-sets, alpha maps, order, classification
graphs      prime-power adjacency graphs and their closed-form edge families
verify      brute-force suites confirming each structural fact on finite ranges
lanes       `verify all` with the order suite in a forked child, when it can fork
cli         command-line front end (`kirch ...`)
"""

__version__ = "0.1.0"
