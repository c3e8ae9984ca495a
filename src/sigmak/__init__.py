"""Exact convexity certification for general inverse sigma_k equations.

The package namespace holds the library's entry points; every other name is
imported from its module (``sigmak.poly``, ``sigmak.realroots``, ...).
"""

from .equations import SigmaKPolynomial, certify_stable, cone_membership, dominates
from .errors import SigmaKError

__all__ = ["SigmaKError", "SigmaKPolynomial", "certify_stable", "cone_membership", "dominates"]

__version__ = "0.1.0"
