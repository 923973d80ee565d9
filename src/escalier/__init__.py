"""escalier: reconstruct hidden Groebner staircases and reduced bases
through canonical-form oracle queries, with a toy cryptanalysis harness."""

from .crypto import (
    AttackResult,
    Ciphertext,
    KeyPair,
    NcProbeReport,
    PublicKey,
    attack_commutative,
    decrypt,
    encrypt,
    keygen,
    nc_attack_probe,
    recover_basis_element,
)
from .errors import ParseError
from .forge import BoundDemo, ForgedPair, build_counterexample, demonstrate_bound_necessity
from .nc_polynomials import NcPolynomial, overlap_check, parse_free_file, render_free_file
from .oracle import CanOracle, serve_line
from .peeling import candidate_terms, covering_basis, peel
from .polynomials import (
    GroebnerBasis,
    Polynomial,
    Reducer,
    buchberger,
    gb_degree,
    normal_form,
    parse_ideal_file,
    parse_polynomial,
    render_ideal_file,
    s_polynomial,
)
from .staircase import (
    StaircaseResult,
    brute_force_generators,
    parse_result,
    reconstruct,
    render_result,
)
from .terms import TermMonoid, TermOrder, divides, lcm
from .words import WordMonoid, WordOrder

__version__ = "0.1.0"
