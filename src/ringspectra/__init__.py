"""ringspectra: atom and molecule spectra of concrete noetherian rings.

Exact computation of both spectra, the maps between them, radicals and
reduced parts, subcategory classifications, and Goldie-theoretic
constructions, for finite-dimensional algebras over Q and F_p and for
symbolic commutative backends, with every fast criterion validated
against brute-force oracles.
"""

from .algebras import (BoundQuiver, FiniteDimAlgebra, bound_quiver_algebra,
                       companion_algebra, cyclic_group_algebra, group_algebra,
                       jacobson_radical, matrix_algebra, product_algebra,
                       quotient_algebra, upper_triangular_algebra,
                       wedderburn_blocks)
from .commutative import (CommutativeSpec, GradedModuleDescriptor,
                          GradedPolyBackend, IntegerBackend, IntModBackend,
                          PolyBackend, PolyQuotBackend, factor_integer,
                          factor_polynomial)
from .errors import (BudgetExceeded, CapabilityError, RingSpectraError,
                     ValidationError)
from .goldie import (classical_quotient_ring, goldie_localizing,
                     is_essential_submodule, singular_subspace,
                     validate_quotient_ring)
from .ideals import (PrimeWitness, TwoSidedIdeal, annihilator, ideal_product,
                     is_prime, is_semiprime, minimal_primes, prime_radical,
                     prime_radical_of_zero)
from .linalg import F2, F3, GF, QQ, Matrix, Subspace, spin
from .modules import (ModuleMap, RightModule, SimpleClass,
                      composition_factors, hom_basis, injective_envelope,
                      is_compressible, is_monoform, is_prime_object,
                      projective_cover, simple_modules)
from .oracle import Budget, corpus, enumerate_subspaces
from .spectra import (ArtinianBackend, Atom, Molecule, PhiUndefinedError,
                      SpectrumBackend, SpectrumReport, verify_correspondence)
from .subcats import (ClosedSubcatDescriptor, LocalizingSubcatDescriptor,
                      LocallyClosedLocalizingDescriptor, artinianization,
                      classify_localizing, classify_locally_closed_localizing,
                      radical_closed_descriptors, radical_lattice_dot,
                      reduced_part)

__version__ = "0.1.0"
