"""Identifiability of additive link metrics from end-to-end measurements.

The package decides which link metrics of an undirected network can be
recovered from sums along simple paths between monitor nodes, provides
executable checks for the structural conditions behind those verdicts, and
computes a minimum monitor placement that makes every metric identifiable.
Importing the package loads none of its modules, so a command-line run loads
only what its command uses: import the module you need.
"""

__version__ = "0.1.0"
