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

import os

__version__ = "0.1.0"


def _pin_blas_threads() -> None:
    """Copy ISOPLP_THREADS to the BLAS thread variables the user left unset.

    BLAS reads them once, when numpy loads; this package module runs before
    any of its submodules imports numpy.
    """
    threads = os.environ.get("ISOPLP_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


_pin_blas_threads()
