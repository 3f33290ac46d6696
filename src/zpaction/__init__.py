"""Exact classification of Z_p^m group actions with genus-zero, totally
branched quotient signature on compact Riemann surfaces.

The pipeline is finite linear algebra over F_p plus small permutation-group
computations: admissible subgroups of Z_p^n are enumerated as canonical
row-echelon quotient matrices, a relabeling of the n+1 branch points
permutes the n+1 generator images, and orbit/invariant counts, cyclic-cover
curve models and Jacobian genus decompositions fall out exactly.
"""

__version__ = "0.1.0"
