"""Exact convexity certification for general inverse sigma_k equations."""

from .equations import (
    DominanceReport,
    MembershipReport,
    SigmaKPolynomial,
    StabilityReport,
    StabilityVerdict,
    certify_stable,
    cone_membership,
    diagonal_restriction,
    dominates,
    elementary_symmetric,
    evaluate,
    sample_region,
)
from .errors import SigmaKError
from .poly import (
    Poly,
    SturmChain,
    derivative,
    poly_gcd,
    squarefree_part,
    sturm_chain,
    taylor_shift,
    yun_decomposition,
)
from .realroots import (
    AlgebraicNumber,
    IsolatingInterval,
    Order,
    approx,
    bracket,
    compare,
    from_rational,
    isolate_real_roots,
    refine,
    sign_at,
)
from .rootchain import ChainCertificate, ChainVerdict, certify_right

__all__ = [
    "AlgebraicNumber",
    "ChainCertificate",
    "ChainVerdict",
    "DominanceReport",
    "IsolatingInterval",
    "MembershipReport",
    "Order",
    "Poly",
    "SigmaKError",
    "SigmaKPolynomial",
    "StabilityReport",
    "StabilityVerdict",
    "SturmChain",
    "approx",
    "bracket",
    "certify_right",
    "certify_stable",
    "compare",
    "cone_membership",
    "derivative",
    "diagonal_restriction",
    "dominates",
    "elementary_symmetric",
    "evaluate",
    "from_rational",
    "isolate_real_roots",
    "poly_gcd",
    "refine",
    "sample_region",
    "sign_at",
    "squarefree_part",
    "sturm_chain",
    "taylor_shift",
    "yun_decomposition",
]

__version__ = "0.1.0"
