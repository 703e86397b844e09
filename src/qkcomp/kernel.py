"""The exterior-term kernel that :mod:`qkcomp.forms` calls.

A plain re-export of the pure-Python integer kernel in
:mod:`qkcomp._termops`, under the one module name that ``forms`` looks
its functions up in, so callers (tests, instrumentation) can rebind them
in one place."""

from ._termops import (
    BACKEND,
    accumulate_scaled,
    inner_terms,
    interior_terms,
    star_terms,
    wedge_terms,
)

__all__ = ["BACKEND", "accumulate_scaled", "inner_terms", "interior_terms",
           "star_terms", "wedge_terms"]
