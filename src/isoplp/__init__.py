"""Isoperimetric linear-programming toolkit for constant-curvature model spaces.

Modules:
    spaceform     geometry of the model spaces (candle functions, balls, chords)
    chordmeasure  chord measures of metric balls, quadrature and sampling
    lpcore        finite linear programs, simplex solver, duality checks
    certificate   dual certificates: reconstruction, verification, induced f
    lemmas        polynomial nonnegativity lemmas behind the n=4 certificates
    negbound      inequalities and counterexample searches below a curvature bound
    littleprince  planar star-shaped gravity problem and its dual bound
    relative      quotient (multiplicity m) versions of the ball bound
    cli           command line front end
"""

__version__ = "0.1.0"
