"""Gluing finite topological spaces.

Modules:
  fintop   finite spaces, maps, subspace/coproduct/pullback/quotient,
           brute-force enumeration oracles
  glidx    the gluing index category (normalized objects, generator edges),
           built once per index set, and its full subcategories
  gdata    concrete gluing data, its validator, and the functor realization
  glue     glued quotient spaces, cones, mediating maps, universal property
  refine   reindexing, refinements, induced maps, meta gluing composition
  cover    gluing coverings and the Grothendieck-topology axioms
  specfile declaration-document parser
  cli      command dispatcher
  dot      DOT rendering of index categories and gluing diagrams
  errors   error classes and the exit code each one ends in
  fixtures standard spaces and the circle, cylinder and torus gluings
"""

__version__ = "0.1.0"
