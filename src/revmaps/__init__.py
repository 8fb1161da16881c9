"""Arc-transitive maps with Euler characteristic coprime to the edge number.

Construction and exhaustive desk-scale verification of the reversing maps of
PSL(2,p), PGL(2,p) and (Z_m x PSL(2,p)):2, and of the two exceptional
flag-regular maps of PSL(2,5) on the projective plane.

The package re-exports nothing: import from the submodules ``gfproj``,
``groups``, ``triples``, ``mapgeom``, ``verify`` and ``cli``.
"""
