"""Free-group certificates: Schreier rewriting, abelianized-module
largeness data, finite triangular (Fox-derivative) embeddings, and
order certificates for explicitly constructed finite-index subgroups.
"""

__version__ = "0.1.0"

from .words import Alphabet, Word, WordError, alphabet, commutator, parse_word
from .homs import (
    FreeHom,
    VerifiedAut,
    compose,
    compose_auts,
    hom,
    inner_aut,
)
from .quotients import (
    FiniteQuotient,
    SchreierError,
    SchreierSystem,
    SubgroupHom,
    abelian_quotient,
    build_schreier_system,
    kernel_subgroup,
    schreier_rank,
    trivial_quotient,
)
from .schreier_modules import (
    action_matrix,
    conjugation_matrix,
    eigen_lattice,
    induced_action,
)
from .intlinalg import IntMatrix, Lattice, kernel_basis, row_hnf
from .magnus import (
    PhiElement,
    fox_coordinates,
    j_of_endo,
    magnus_image,
)
from .congruence import Certificate, CongruenceInput, certify
from .affine import (
    AffineParams,
    GammaElement,
    irreducibility_certificate,
    two_generation_certificate,
)
