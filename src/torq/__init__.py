"""Toroidal n-queens hypergraph toolkit.

The toroidal board of side n is a 4-partite 4-uniform hypergraph whose
perfect matchings are the toroidal n-queens solutions.  This package
provides the board model (torq.board), the integer edge lattice with
exact membership tests and an independent elimination oracle
(torq.lattice), constructive decomposition of lattice members into
signed edge sets and matching pairs (torq.decomp), the random greedy
matching process with trajectory envelopes and counting estimators
(torq.greedy), exact solvers and the classical-board extension
construction (torq.solvers), and a command-line surface (torq.cli).

Each name is imported from its module, such as
``from torq.board import TorusGraph``; the package itself exports none.
"""

__version__ = "0.1.0"
