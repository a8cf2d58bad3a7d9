"""Subcategory descriptors and the classification machinery.

Subcategories are never materialized: a closed subcategory is its
two-sided ideal, a localizing subcategory its atom support, a locally
closed localizing subcategory its upward-closed molecule support.  The
membership predicates their classification theorems dictate (every
composition factor in the atom support; V(Ann M) inside the molecule
support) live with the tests, which confirm against enumerated modules
that they behave like the subcategories they name.

The inclusion order on closed descriptors reverses the ideal order.  On
the radical ones it is read off prime masks: a radical ideal is the
intersection of a set of primes, and intersecting fewer primes gives a
larger ideal, so a smaller subcategory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetExceeded
from .ideals import TwoSidedIdeal, minimal_primes, prime_intersection
from .spectra import (ArtinianBackend, ArtinianizationDescriptor,
                      ReducedPartResult, SpectrumBackend, atom_spectrum,
                      hasse_edges)


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


def reduced_part(backend: SpectrumBackend) -> ReducedPartResult:
    """Smallest full-support subcategory, computed along both routes.

    Atomic route: the Jacobson radical (semisimple modules are the
    atomically reduced part of an artinian category).  Molecular route:
    the prime radical.  They must agree; disagreement is a bug by the
    correspondence theorem, so the backend raises.  The symbolic backends
    name their reduced ring; the graded backend refuses (it has no
    noetherian generator).  ``verify_correspondence`` reads ``reduced``
    off this result for the integrality flags.
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

class Listing(NamedTuple):
    """The listed atoms or molecules that a descriptor's bit mask reads,
    in the backend's listing order: bit i stands for ``elements[i]``.

    A label is read off four tables, built once for all the descriptors
    of a call.  An element's rank is its place in label order; the bits
    and the ranks below ``split`` are the low half, the others the high
    half.  ``low_ranks`` and ``high_ranks`` map each half of a mask to
    the rank mask of its members, and ``low_joined`` and ``high_joined``
    map each half of a rank mask to its members' labels, comma-joined in
    rank order (docs/derivations.md, "Labels from masks")."""

    elements: tuple
    split: int
    low_ranks: tuple
    high_ranks: tuple
    low_joined: tuple
    high_joined: tuple


def _subset_table(items, combine, empty):
    """Entry m combines the items whose bit is set in m, in item order."""
    table = [empty]
    for item in items:
        table += [combine(t, item) for t in table]
    return tuple(table)


def _join(joined, label):
    return joined + "," + label if joined else label


def _listing(elements) -> Listing:
    elements = tuple(elements)
    order = sorted(range(len(elements)), key=lambda i: elements[i].label)
    rank_bits = [0] * len(elements)
    for r, i in enumerate(order):
        rank_bits[i] = 1 << r
    labels = [elements[i].label for i in order]
    split = (len(elements) + 1) // 2
    return Listing(elements, split,
                   _subset_table(rank_bits[:split], int.__or__, 0),
                   _subset_table(rank_bits[split:], int.__or__, 0),
                   _subset_table(labels[:split], _join, ""),
                   _subset_table(labels[split:], _join, ""))


def _mask_label(prefix, listing, mask):
    """prefix{the member labels, sorted, comma-joined}, or "0" for no
    member: the rank tables turn the mask into a rank mask, and the
    joined-label tables read the labels of its two halves in rank order."""
    if not mask:
        return "0"
    split = listing.split
    low = (1 << split) - 1
    ranks = listing.low_ranks[mask & low] | listing.high_ranks[mask >> split]
    head = listing.low_joined[ranks & low]
    tail = listing.high_joined[ranks >> split]
    if head and tail:
        return f"{prefix}{{{head},{tail}}}"
    return f"{prefix}{{{head or tail}}}"


@dataclass(slots=True)
class LocalizingSubcatDescriptor:
    """Localizing subcategory of an artinian backend: an atom support,
    kept as a bit mask over ``listing``."""

    backend: ArtinianBackend
    listing: Listing
    mask: int

    @property
    def label(self):
        return _mask_label("loc", self.listing, self.mask)


LOCALIZING_MAX_ATOMS = 8   # atoms whose 2^n subsets classify_localizing lists
LOCALLY_CLOSED_MAX_MOLECULES = 16   # molecules whose 2^n subsets are searched


def classify_localizing(backend: ArtinianBackend):
    """All localizing subcategories: every subset of the (discrete) ASpec.

    Returns (descriptors, prime_ones, maximal_proper_ones).  Prime
    localizing subcategories are the complements of single-atom closures;
    maximal proper ones correspond to minimal atoms.
    """
    aspec = atom_spectrum(backend)
    atoms = aspec.elements
    if len(atoms) > LOCALIZING_MAX_ATOMS:
        raise BudgetExceeded("localizing classification", 2 ** len(atoms),
                             2 ** LOCALIZING_MAX_ATOMS)
    listing = _listing(atoms)
    full = 2 ** len(atoms) - 1
    descriptors = [LocalizingSubcatDescriptor(backend, listing, mask)
                   for mask in range(full + 1)]
    amin = set(aspec.minimal)
    complements = {full ^ (1 << i) for i in range(len(atoms))}
    max_masks = {full ^ (1 << i) for i, a in enumerate(atoms) if a in amin}
    prime_ones = [d for d in descriptors if d.mask in complements]
    max_proper = [d for d in descriptors if d.mask in max_masks]
    return descriptors, prime_ones, max_proper


@dataclass(slots=True)
class LocallyClosedLocalizingDescriptor:
    """Locally closed localizing subcategory: an upward-closed molecule
    support, kept as a bit mask over ``listing``."""

    backend: object
    listing: Listing
    mask: int

    @property
    def label(self):
        return _mask_label("lcl", self.listing, self.mask)


def classify_locally_closed_localizing(backend, window=None):
    """All upward-closed subsets of the (windowed) molecule order.

    The backend states the order once, as up-sets, each turned into a bit
    mask; a subset is upward closed iff it contains the up-set of each of
    its members, that is the union of those up-sets.
    """
    mols = backend.molecules(window)
    if len(mols) > LOCALLY_CLOSED_MAX_MOLECULES:
        raise BudgetExceeded("locally closed classification", 2 ** len(mols),
                             2 ** LOCALLY_CLOSED_MAX_MOLECULES)
    up = [sum(1 << j for j in above)
          for above in backend.molecule_up_sets(mols)]
    # reach[mask]: the union of the up-sets of the members of mask.
    reach = [0]
    for u in up:
        reach += [r | u for r in reach]
    listing = _listing(mols)
    return [LocallyClosedLocalizingDescriptor(backend, listing, mask)
            for mask, r in enumerate(reach) if r | mask == mask]


def radical_closed_descriptors(backend: ArtinianBackend):
    """Closed subcategories with radical ideal: intersections of primes.

    For an artinian backend the radical ideals are exactly the
    intersections of subsets of the (finitely many) primes, with the empty
    intersection read as the whole algebra (the zero subcategory).  Entry
    m is the intersection of the primes whose bit is set in m, one
    ``prime_intersection`` each; distinct sets of primes give distinct
    ideals (docs/derivations.md, "Radical ideals on prime masks").  Past
    LOCALIZING_MAX_ATOMS primes the 2^r lattice is refused before any
    intersection.
    """
    a = backend.algebra
    ws = minimal_primes(a)
    if len(ws) > LOCALIZING_MAX_ATOMS:
        raise BudgetExceeded("radical closed classification", 2 ** len(ws),
                             2 ** LOCALIZING_MAX_ATOMS)
    return [ClosedSubcatDescriptor(backend, prime_intersection(
                a, [w for t, w in enumerate(ws) if m >> t & 1]))
            for m in range(2 ** len(ws))]


def radical_lattice_dot(backend: ArtinianBackend) -> str:
    """DOT Hasse diagram of the radical-ideal closed subcategory lattice.

    Descriptor m of ``radical_closed_descriptors`` intersects the primes
    of mask m, so one lies below another iff its mask is a subset of the
    other's."""
    descs = radical_closed_descriptors(backend)
    masks = sorted(range(len(descs)), key=lambda m: (
        descs[m].ideal.dim, descs[m].ideal.space.mat.rows))
    lines = ["digraph closed_subcats {", "  rankdir=BT;"]
    lines.extend(f'  c{i} [label="{descs[m].label}", shape=box];'
                 for i, m in enumerate(masks))
    up = [[j for j, n in enumerate(masks) if m & n == m] for m in masks]
    lines.extend(f"  c{i} -> c{j};" for i, j in hasse_edges(up))
    lines.append("}")
    return "\n".join(lines) + "\n"
