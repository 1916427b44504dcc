"""Citation-network analytics at the individual researcher level.

The package classifies every resolvable citation edge in a publication
corpus by author relationship (direct self, co-author self, prior
collaborator, external) and computes the derived indicator suite:
self-reference and self-citation rates, citation-inflation weights,
career-age curves, h-index decompositions and citing-cited abstract
similarity. A seeded synthetic-corpus generator provides ground truth
for every analytic path.
"""

__version__ = "0.1.0"
