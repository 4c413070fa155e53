"""Exact Witt-group computations with machine-checked certificates.

The package computes in Witt groups of quadratic forms over Q, odd prime
fields, and small extension towers; pushes forms forward along finite
separable extensions via the trace; manipulates bounded chain complexes of
free modules with their duality; builds Koszul complexes with their duality
forms; and evaluates cohomology of line bundles on projective space by exact
Cech computations.  Everything is exact (no floats) and every theorem-level
statement is re-verified at runtime as a matrix identity or an invariant
comparison of Witt classes.
"""
