"""Identifiability of additive link metrics from end-to-end measurements.

The package decides which link metrics of an undirected network can be
recovered from sums along simple paths between monitor nodes, provides
executable checks for the structural conditions behind those verdicts, and
computes a minimum monitor placement that makes every metric identifiable.
Importing the package loads none of its modules: import the module you need.
The command-line front-end, ``linkscope.cli``, loads the graph, connectivity,
decomposition, tomography, placement and identifiability modules for every
command, so that the benchmark's tracer finds each layer function by its
module's name.  It defers ``witness``, ``corpus`` and ``fractions`` (with
``decimal``) to the commands that use them, and ``placement`` loads
``certificate`` only when it verifies a placement.
"""

__version__ = "0.1.0"
