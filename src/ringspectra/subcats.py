"""Subcategory descriptors and the classification machinery.

Subcategories are never materialized: a closed subcategory is its
two-sided ideal, a localizing subcategory its atom support, a locally
closed localizing subcategory its upward-closed molecule support.  The
membership predicates their classification theorems dictate (every
composition factor in the atom support; V(Ann M) inside the molecule
support) live with the tests, which confirm against enumerated modules
that they behave like the subcategories they name.

The inclusion order on closed descriptors reverses the ideal order; the
reversal is applied here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded
from .ideals import TwoSidedIdeal, intersect_primes, minimal_primes
from .spectra import (ArtinianBackend, ArtinianizationDescriptor,
                      ReducedPartResult, SpectrumBackend, hasse_edges,
                      up_sets)


@dataclass
class ClosedSubcatDescriptor:
    """Closed subcategory of Mod(Lambda), keyed by its two-sided ideal."""

    backend: ArtinianBackend
    ideal: TwoSidedIdeal

    @property
    def label(self):
        if self.ideal.is_whole():
            return "0 (zero subcategory)"
        if self.ideal.is_zero():
            return f"Mod {self.backend.algebra.name}"
        a = self.backend.algebra
        gens = ",".join(a.element_str(v) for v in self.ideal.space.basis_rows())
        return f"Mod({a.name}/<{gens}>)"

    def __eq__(self, other):
        return (isinstance(other, ClosedSubcatDescriptor)
                and self.ideal.space == other.ideal.space)

    def __hash__(self):
        return hash(self.ideal.space)

    def leq(self, other: "ClosedSubcatDescriptor") -> bool:
        """Subcategory inclusion: reverses ideal inclusion."""
        return self.ideal.contains(other.ideal)


def reduced_part(backend: SpectrumBackend) -> ReducedPartResult:
    """Smallest full-support subcategory, computed along both routes.

    Atomic route: the Jacobson radical (semisimple modules are the
    atomically reduced part of an artinian category).  Molecular route:
    the prime radical.  They must agree; disagreement is a bug by the
    correspondence theorem, so the backend raises.  The symbolic backends
    name their reduced ring; the graded backend refuses (its flags need a
    noetherian generator).
    """
    return backend.reduced_part()


def artinianization(backend: SpectrumBackend) -> ArtinianizationDescriptor:
    """Quotient supported on the minimal atoms.

    Artinian backends are their own artinianization; the symbolic
    backends answer with their localized module category; the graded
    backend refuses (no artinian generator exists there).
    """
    return backend.artinianization()


# -- localizing subcategories ------------------------------------------------------

@dataclass
class LocalizingSubcatDescriptor:
    """Localizing subcategory of an artinian backend: an atom support set."""

    backend: ArtinianBackend
    atom_support: frozenset

    @property
    def label(self):
        if not self.atom_support:
            return "0"
        return "loc{" + ",".join(sorted(a.label for a in self.atom_support)) + "}"

    def leq(self, other):
        return self.atom_support <= other.atom_support


LOCALIZING_MAX_ATOMS = 8   # atoms whose 2^n subsets classify_localizing lists


def classify_localizing(backend: ArtinianBackend):
    """All localizing subcategories: every subset of the (discrete) ASpec.

    Returns (descriptors, prime_ones, maximal_proper_ones).  Prime
    localizing subcategories are the complements of single-atom closures;
    maximal proper ones correspond to minimal atoms.
    """
    atoms = backend.atoms()
    if len(atoms) > LOCALIZING_MAX_ATOMS:
        raise BudgetExceeded("localizing classification", 2 ** len(atoms),
                             2 ** LOCALIZING_MAX_ATOMS)
    universe = frozenset(atoms)
    descriptors = []
    for mask in range(2 ** len(atoms)):
        chosen = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        descriptors.append(LocalizingSubcatDescriptor(backend, chosen))
    complements = {frozenset(universe - {a}) for a in atoms}
    prime_ones = [d for d in descriptors if d.atom_support in complements]
    amin = set(backend.minimal_atoms())
    max_proper = [d for d in descriptors
                  if d.atom_support in {frozenset(universe - {a}) for a in amin}]
    return descriptors, prime_ones, max_proper


@dataclass
class LocallyClosedLocalizingDescriptor:
    """Locally closed localizing subcategory: upward-closed molecule set."""

    backend: object
    molecule_support: frozenset

    @property
    def label(self):
        if not self.molecule_support:
            return "0"
        return "lcl{" + ",".join(sorted(m.label for m in self.molecule_support)) + "}"


def classify_locally_closed_localizing(backend, window=None):
    """All upward-closed subsets of the (windowed) molecule order.

    The backend states the order once, as up-sets, each turned into a bit
    mask; a subset is upward closed iff it contains the up-set of each of
    its members, that is the union of those up-sets.
    """
    mols = backend.molecules(window)
    if len(mols) > 16:
        raise BudgetExceeded("locally closed classification", 2 ** len(mols),
                             2 ** 16)
    up = [sum(1 << j for j in above)
          for above in backend.molecule_up_sets(mols)]
    # reach[mask]: the union of the up-sets of the members of mask.
    reach = [0] * 2 ** len(mols)
    for mask in range(1, len(reach)):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | up[low.bit_length() - 1]
    return [LocallyClosedLocalizingDescriptor(
                backend, frozenset(m for i, m in enumerate(mols) if mask >> i & 1))
            for mask, r in enumerate(reach) if r | mask == mask]


def radical_closed_descriptors(backend: ArtinianBackend):
    """Closed subcategories with radical ideal: intersections of primes.

    For an artinian backend the radical ideals are exactly the
    intersections of subsets of the (finitely many) primes, with the empty
    intersection read as the whole algebra (the zero subcategory).
    """
    a = backend.algebra
    ws = minimal_primes(a)
    seen = {}
    for mask in range(2 ** len(ws)):
        chosen = [w for i, w in enumerate(ws) if mask >> i & 1]
        ideal = intersect_primes(chosen) if chosen else TwoSidedIdeal.whole(a)
        seen[ideal.space] = ideal
    return [ClosedSubcatDescriptor(backend, ideal)
            for ideal in seen.values()]


def radical_lattice_dot(backend: ArtinianBackend) -> str:
    """DOT Hasse diagram of the radical-ideal closed subcategory lattice."""
    descs = sorted(radical_closed_descriptors(backend),
                   key=lambda d: (d.ideal.dim, d.ideal.space.mat.rows))
    lines = ["digraph closed_subcats {", "  rankdir=BT;"]
    lines.extend(f'  c{i} [label="{d.label}", shape=box];'
                 for i, d in enumerate(descs))
    up = up_sets(descs, ClosedSubcatDescriptor.leq)
    lines.extend(f"  c{i} -> c{j};" for i, j in hasse_edges(up))
    lines.append("}")
    return "\n".join(lines) + "\n"
