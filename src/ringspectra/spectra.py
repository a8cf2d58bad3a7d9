"""Atom and molecule spectra, the maps between them, and verification.

Backends implement the ``SpectrumBackend`` protocol: enumerate (or
window) atoms and molecules, state each order once as up-sets, phi and
psi, the ring-level answers (reduced part, artinianization, classical
quotient ring and its sampled clauses), and ``algebra``, the finite-dimensional
algebra Lambda when the backend is Mod(Lambda) and ``None`` otherwise.
The verifier and the CLI read ``algebra`` to decide whether the
Lambda-level checks and sections (injective envelopes, localizing
classification, Goldie analysis, modules) apply.
``ArtinianBackend`` realizes it for module categories of
finite-dimensional algebras, where atoms are simple classes (an
antichain) and molecules are the prime two-sided ideals.  Symbolic
commutative backends live in ``commutative``.

``verify_correspondence`` sweeps every assertion the correspondence makes
on a backend's (windowed) spectra and returns a ``SpectrumReport`` with
one pass/fail record per claim; hypothesis failures (no noetherian
generator) are recorded as skips with a reason, never silently dropped.
It reads each spectrum through ``atom_spectrum`` and
``molecule_spectrum``, which a listing also calls on its own, without
the assertions.  Those two read the minimal elements off the up-sets,
for every backend in one place: an element is minimal when its index
lies in no other element's up-set.  The reduced/irreducible/integral
flags are read in the verifier only, off both spectra and the reduced
part's ``reduced``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol, runtime_checkable

from .algebras import (FiniteDimAlgebra, jacobson_radical, semisimple_quotient,
                       wedderburn_blocks)
from .errors import CapabilityError, ValidationError
from .ideals import (TwoSidedIdeal, annihilator, is_semiprime, minimal_primes,
                     prime_radical_of_zero)
from .linalg import field_name
from .modules import (RightModule, SimpleClass, composition_factors,
                      injective_envelope, pull_back, simple_modules)


@dataclass(frozen=True)
class Atom:
    backend: str
    key: tuple
    label: str = field(compare=False)


@dataclass(frozen=True)
class Molecule:
    backend: str
    key: tuple
    label: str = field(compare=False)


class PhiUndefinedError(CapabilityError):
    """No prime monoform object represents this atom."""


@dataclass
class QuotientRingDescriptor:
    kind: str          # self | fraction-field | product-of-fields
    description: str
    embedding: str


@dataclass
class ArtinianizationDescriptor:
    kind: str          # identity | module-category
    description: str
    atoms: list


@dataclass
class ReducedPartResult:
    """The reduced part, as each route computed it, and whether the ring
    is reduced (the two routes already agree)."""

    reduced: bool
    atomic_route_ideal: object
    molecular_route_ideal: object


@runtime_checkable
class SpectrumBackend(Protocol):
    """What ``verify_correspondence`` and the CLI read off a backend.

    ``complete`` is false when only a window of an infinite spectrum is
    listed.  ``atom_up_sets(atoms)`` and ``molecule_up_sets(molecules)``
    state each order once, for the listing they are given: entry i is
    the ascending list of the indices j with x_i <= x_j, i included.  A
    backend states its order this way only, so it can answer in the size
    of the order, not in the number of pairs; the minimal elements are
    read off these up-sets (``atom_spectrum``, ``molecule_spectrum``), so
    a backend does not state them.  ``phi`` may raise
    ``PhiUndefinedError``.  The ring-level
    answers (reduced part, artinianization, classical quotient ring)
    raise ``CapabilityError`` where they are out of scope;
    ``check_quotient_ring`` runs the classical quotient ring's clauses on
    sampled elements, raises ``ValidationError`` on the first that fails,
    and returns how many checks of each clause ran.  ``algebra`` is the
    finite-dimensional algebra Lambda of a backend that is Mod(Lambda),
    and ``None`` on every other backend.
    """

    kind: str
    label: str
    complete: bool
    has_noetherian_generator: bool
    algebra: FiniteDimAlgebra | None

    def atoms(self, window=None) -> list[Atom]: ...

    def molecules(self, window=None) -> list[Molecule]: ...

    def atom_up_sets(self, atoms: list[Atom]) -> list[list[int]]: ...

    def molecule_up_sets(self, molecules: list[Molecule]) -> list[list[int]]: ...

    def phi(self, a: Atom) -> Molecule: ...

    def psi(self, r: Molecule) -> Atom: ...

    def reduced_part(self) -> ReducedPartResult: ...

    def artinianization(self) -> ArtinianizationDescriptor: ...

    def quotient_ring_descriptor(self) -> QuotientRingDescriptor: ...

    def check_quotient_ring(self, rng: random.Random, samples: int) -> dict: ...


class ArtinianBackend:
    """Mod(Lambda) for a finite-dimensional algebra Lambda.

    Atoms are the simple classes with the discrete order; molecules are the
    prime two-sided ideals, all maximal here, so also an antichain.  Prime
    P_t kills block B_t of Lambda/J and nothing else, so Lambda/P_t is B_t
    (``prime_quotient``), and a simple and a prime are both keyed by their
    block.
    """

    kind = "algebra"
    has_noetherian_generator = True
    complete = True

    def __init__(self, algebra: FiniteDimAlgebra, label=None):
        self.algebra = algebra
        self.label = label or f"{algebra.name}/{field_name(algebra.field)}"

    # -- raw data (cached on the algebra's structure) ------------------------

    def simples(self) -> list[SimpleClass]:
        return simple_modules(self.algebra)

    def primes(self):
        return minimal_primes(self.algebra)

    # -- spectra ---------------------------------------------------------------

    def atoms(self, window=None) -> list[Atom]:
        return [Atom(self.label, ("simple", s.block_index), s.label)
                for s in self.simples()]

    def molecules(self, window=None) -> list[Molecule]:
        return [Molecule(self.label, ("prime", w.block_index), w.label)
                for w in self.primes()]

    def atom_up_sets(self, atoms):
        """Discrete.  So is ``molecule_up_sets``: every prime is maximal
        (docs/derivations.md, "Primeness"), so no prime lies in another."""
        return discrete_up_sets(atoms)

    molecule_up_sets = atom_up_sets

    def prime_quotient(self, w) -> RightModule:
        """Lambda/P for the prime ``w``: the block B_t of Lambda/J it kills,
        pulled back to Lambda (docs/derivations.md, "Lambda/P is its
        block")."""
        a = self.algebra
        block = wedderburn_blocks(semisimple_quotient(a)[0])[w.block_index]
        return pull_back(a, block.space, name=f"{a.name}/P")

    def _prime_by_key(self, key):
        for w in self.primes():
            if ("prime", w.block_index) == key:
                return w
        raise ValidationError(f"unknown molecule key {key}")

    def _simple_by_key(self, key):
        for s in self.simples():
            if ("simple", s.block_index) == key:
                return s
        raise ValidationError(f"unknown atom key {key}")

    # -- phi and psi -------------------------------------------------------------

    def phi(self, a: Atom) -> Molecule:
        """phi(simple class) is the molecule of its annihilator.

        A simple module is itself prime monoform, so the molecule of the
        atom is the class of cl(S), keyed by Ann(S).
        """
        s = self._simple_by_key(a.key)
        if s.module is not None:
            ann = annihilator(s.module)
            for w in self.primes():
                if w.ideal.space == ann.space:
                    return Molecule(self.label, ("prime", w.block_index), w.label)
            raise ValidationError("annihilator of a simple is not a listed prime")
        # Unrealized rational simple: its block still names the prime.
        return Molecule(self.label, ("prime", s.block_index),
                        f"P{s.block_index + 1}")

    def psi(self, r: Molecule) -> Atom:
        """psi(P) is the unique simple killed by P (smallest atom of cl(P)),
        asked of P's generators as a right ideal."""
        w = self._prime_by_key(r.key)
        hits = []
        for s in self.simples():
            if s.module is None:
                if s.block_index == w.block_index:
                    hits.append(s)
                continue
            if all(s.module.act_matrix(p).is_zero()
                   for p in w.generators.basis_rows()):
                hits.append(s)
        if len(hits) != 1:
            raise ValidationError(
                f"psi: expected exactly one simple killed by {r.label}, got {len(hits)}")
        s = hits[0]
        return Atom(self.label, ("simple", s.block_index), s.label)

    # -- module-level spectral data ----------------------------------------------

    def atom_of_simple_label(self, label):
        for s in self.simples():
            if s.label == label:
                return Atom(self.label, ("simple", s.block_index), s.label)
        raise ValidationError(f"unknown simple label {label}")

    def ass_atoms(self, m: RightModule) -> set[Atom]:
        """Simple classes in the socle: the associated atoms."""
        soc, _ = m.submodule(m.socle_space(), name="soc")
        return {self.atom_of_simple_label(lbl)
                for lbl in composition_factors(soc)}

    def asupp(self, m: RightModule) -> set[Atom]:
        """Simple classes among the composition factors: the atom support."""
        return {self.atom_of_simple_label(lbl)
                for lbl in composition_factors(m)}

    def mass(self, m: RightModule) -> set[Molecule]:
        """{P prime : Ann(ann_m(P)) = P}, which on an artinian ring is
        {P : ann_m(P) != 0}: every prime is maximal (docs/derivations.md).
        ann_m(P) is what P's generators kill."""
        return {Molecule(self.label, ("prime", w.block_index), w.label)
                for w in self.primes() if m.killed_by(w.generators).dim > 0}

    def msupp(self, m: RightModule) -> set[Molecule]:
        """{P : P contains Ann m} = V(Ann m)."""
        if m.dim == 0:
            return set()
        ann = annihilator(m)
        return {Molecule(self.label, ("prime", w.block_index), w.label)
                for w in self.primes() if w.ideal.space.contains(ann.space)}

    # -- ring-level answers ------------------------------------------------------------

    def reduced_part(self):
        """Mod(Lambda/J): J is the Jacobson radical and the prime radical."""
        a = self.algebra
        atomic = TwoSidedIdeal(a, jacobson_radical(a), validate=False)
        molecular = prime_radical_of_zero(a)
        if atomic.space != molecular.space:
            raise ValidationError(
                "atomically and molecularly reduced parts disagree: "
                "this violates the correspondence and indicates a bug")
        return ReducedPartResult(atomic.is_zero(), atomic, molecular)

    def artinianization(self):
        """An artinian category is its own artinianization."""
        return ArtinianizationDescriptor(
            "identity", self.label,
            [a.label for a in atom_spectrum(self).minimal])

    def quotient_ring_descriptor(self):
        """A semiprime artinian ring is its own classical quotient ring."""
        if not is_semiprime(self.algebra):
            raise CapabilityError(
                f"{self.label} is not semiprime: no semisimple classical "
                "quotient ring in scope")
        return QuotientRingDescriptor("self", self.label, "identity")

    def check_quotient_ring(self, rng, samples):
        return check_algebra_quotient_ring(self.algebra, rng, samples)


def check_algebra_quotient_ring(a: FiniteDimAlgebra, rng, samples) -> dict:
    """The clauses of a semiprime algebra as its own quotient ring, sampled.

    The embedding is the identity: each sample x is the fraction
    x * 1^-1 (fraction_form), distinct samples keep distinct images
    (injective), and each regular sample has a two-sided inverse
    (regular_invertible).  A sample drawn more than once is checked once
    and counted as often as it was drawn.
    """
    one_inv = a.inverse_element(a.unit)
    drawn = Counter(_sample_element(a, rng) for _ in range(samples))
    fractions = {x: a.mul(x, one_inv) for x in drawn}
    if len(set(fractions.values())) != len(drawn):
        raise ValidationError(f"the embedding of {a.name} identifies samples")
    regular = 0
    for x, q in fractions.items():
        if q != x:
            raise ValidationError(f"{a.element_str(x)} is not x * 1^-1 in {a.name}")
        if a.is_regular_element(x):
            y = a.inverse_element(x)
            if a.mul(x, y) != a.unit or a.mul(y, x) != a.unit:
                raise ValidationError(
                    f"regular {a.element_str(x)} of {a.name} was not inverted")
            regular += drawn[x]
    return {"injective": len(drawn), "regular_invertible": regular,
            "fraction_form": samples}


def _sample_element(a: FiniteDimAlgebra, rng):
    f = a.field
    if f.is_finite():
        return tuple(rng.randrange(f.p) for _ in range(a.dim))
    return tuple(Fraction(rng.randint(-5, 5)) for _ in range(a.dim))


# -- verification ------------------------------------------------------------------

@dataclass
class AssertionRecord:
    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False

    def as_dict(self):
        return {"name": self.name, "passed": self.passed,
                "skipped": self.skipped, "detail": self.detail}


@dataclass
class SpectrumReport:
    """What ``verify_correspondence`` read and checked.  ``reduced_part``,
    the backend's reduced part (None without a noetherian generator), is
    kept for the caller and left out of ``as_dict``."""

    backend: str
    complete: bool
    atoms: list
    molecules: list
    atom_order: list
    molecule_order: list
    phi_table: dict
    psi_table: dict
    minimal_atoms: list
    minimal_molecules: list
    assertions: list
    atomic_flags: dict | None
    molecular_flags: dict | None
    notes: list
    reduced_part: ReducedPartResult | None

    def passed(self):
        return all(r.passed or r.skipped for r in self.assertions)

    def as_dict(self):
        return {
            "schema_version": 1,
            "backend": self.backend,
            "complete": self.complete,
            "atoms": [a.label for a in self.atoms],
            "molecules": [m.label for m in self.molecules],
            "atom_order": self.atom_order,
            "molecule_order": self.molecule_order,
            "phi": self.phi_table,
            "psi": self.psi_table,
            "minimal_atoms": [a.label for a in self.minimal_atoms],
            "minimal_molecules": [m.label for m in self.minimal_molecules],
            "assertions": [r.as_dict() for r in self.assertions],
            "atomic_flags": self.atomic_flags,
            "molecular_flags": self.molecular_flags,
            "notes": self.notes,
        }


@dataclass
class Spectrum:
    """One spectrum as read off a backend.

    ``up`` holds each element's up-set, as the backend states it,
    ``order`` the strict order as sorted label pairs and ``minimal`` the
    minimal elements, in listing order.
    """

    elements: list
    up: list
    order: list
    minimal: list


def atom_spectrum(backend: SpectrumBackend, window=None) -> Spectrum:
    """The atoms, their order and the minimal atoms; nothing is verified."""
    atoms = backend.atoms(window)
    return _read_spectrum(atoms, backend.atom_up_sets(atoms))


def molecule_spectrum(backend: SpectrumBackend, window=None) -> Spectrum:
    """The molecules, their order and the minimal molecules; nothing is
    verified."""
    mols = backend.molecules(window)
    return _read_spectrum(mols, backend.molecule_up_sets(mols))


def _read_spectrum(elements, up) -> Spectrum:
    """The spectrum with up-sets ``up``; x_j is minimal iff j lies in no
    up-set U(i) with i != j (docs/derivations.md, "Order checks on
    up-sets")."""
    above_another = {j for i, u in enumerate(up) for j in u if j != i}
    minimal = [x for j, x in enumerate(elements) if j not in above_another]
    return Spectrum(elements, up, _strict_pairs(elements, up), minimal)


def verify_correspondence(backend: SpectrumBackend, window=None) -> SpectrumReport:
    """Run every correspondence assertion applicable to the backend."""
    aspec = atom_spectrum(backend, window)
    mspec = molecule_spectrum(backend, window)
    atoms, atom_up, amin = aspec.elements, aspec.up, aspec.minimal
    mols, mol_up, mmin = mspec.elements, mspec.up, mspec.minimal
    notes = []
    records = []
    complete = backend.complete
    if not complete:
        notes.append("infinite spectrum verified on a finite window only")

    phi_table = {}
    for a in atoms:
        try:
            phi_table[a.label] = backend.phi(a).label
        except PhiUndefinedError as exc:
            notes.append(f"phi partial: {a.label}: {exc}")
    psi_table = {r.label: backend.psi(r).label for r in mols}

    def rec(name, passed, detail="", skipped=False):
        records.append(AssertionRecord(name, passed, detail, skipped))

    # phi psi = id on the molecule spectrum.
    bad = [r.label for r in mols
           if phi_table.get(psi_table[r.label]) != r.label]
    rec("phi_psi_identity", not bad,
        f"violations: {bad}" if bad else f"checked {len(mols)} molecules")

    # Each order is read off the backend once; every order check below
    # reads these up-sets (docs/derivations.md, "Order checks on up-sets").
    atom_above = [set(up) for up in atom_up]
    mol_above = [set(up) for up in mol_up]
    atom_index = {a.label: i for i, a in enumerate(atoms)}
    mol_index = {r.label: k for k, r in enumerate(mols)}
    phi_index = {i: mol_index[phi_table[a.label]]
                 for i, a in enumerate(atoms) if a.label in phi_table}
    psi_index = [atom_index[psi_table[r.label]] for r in mols]
    phi_preimage = [[] for _ in mols]
    for i, fi in phi_index.items():
        phi_preimage[fi].append(i)

    # Order preservation.
    bad = [(atoms[i].label, atoms[j].label)
           for i, fi in phi_index.items()
           for j in atom_up[i] if j in phi_index
           if phi_index[j] not in mol_above[fi]]
    rec("phi_order_preserving", not bad, f"violations: {bad}" if bad else "")

    bad = [(mols[k].label, mols[l].label)
           for k, up in enumerate(mol_up) for l in up
           if psi_index[l] not in atom_above[psi_index[k]]]
    rec("psi_order_preserving", not bad, f"violations: {bad}" if bad else "")

    # Adjunction: psi(rho) <= alpha iff rho <= phi(alpha), phi-defined pairs.
    # For each molecule k, the alpha with psi(k) <= alpha and the alpha with
    # k <= phi(alpha) form two sets; a pair fails iff alpha lies in exactly
    # one of them.  Violations are listed by (alpha, k), the pairwise order.
    bad = []
    for k, pk in enumerate(psi_index):
        over_psi = {i for i in atom_up[pk] if i in phi_index}
        phi_over = {i for l in mol_up[k] for i in phi_preimage[l]}
        bad.extend((i, k) for i in over_psi ^ phi_over)
    bad = [(atoms[i].label, mols[k].label) for i, k in sorted(bad)]
    rec("adjunction", not bad,
        f"violations: {bad}" if bad
        else f"checked {len(phi_index) * len(mols)} pairs")

    # Bijection between minimal atoms and minimal molecules.
    if backend.has_noetherian_generator:
        image = []
        ok = True
        for a in amin:
            if a.label not in phi_table:
                ok = False
                continue
            image.append(phi_table[a.label])
        mmin_labels = sorted(r.label for r in mmin)
        bij = ok and sorted(image) == mmin_labels and len(set(image)) == len(image)
        inv = all(psi_table[phi_table[a.label]] == a.label
                  for a in amin if a.label in phi_table)
        rec("amin_mmin_bijection", bij and inv,
            f"AMin -> {sorted(image)}, MMin = {mmin_labels}")
    else:
        rec("amin_mmin_bijection", True,
            "skipped: backend has no noetherian generator", skipped=True)

    rec("minimal_sets_finite",
        len(amin) < float("inf") and len(mmin) < float("inf"),
        f"|AMin| = {len(amin)}, |MMin| = {len(mmin)}")

    # Property flags along both routes: the reduced part's two-route check
    # runs once, and each spectrum gives its own irreducible flag.
    aflags = mflags = red = None
    if backend.has_noetherian_generator:
        red = backend.reduced_part()
        aflags = _integrality_flags(red.reduced, amin)
        mflags = _integrality_flags(red.reduced, mmin)
        rec("atomic_flags_equal_molecular_flags", aflags == mflags,
            f"atomic {aflags} vs molecular {mflags}")
    else:
        rec("atomic_flags_equal_molecular_flags", True,
            "skipped: flags undefined without a noetherian generator",
            skipped=True)

    # Injective-envelope facts on Mod(Lambda) with realized simples.
    if backend.algebra is not None:
        records.extend(_artinian_envelope_assertions(backend, phi_table,
                                                      psi_table))

    return SpectrumReport(
        backend=backend.label, complete=complete, atoms=atoms, molecules=mols,
        atom_order=aspec.order, molecule_order=mspec.order,
        phi_table=phi_table, psi_table=psi_table,
        minimal_atoms=amin, minimal_molecules=mmin,
        assertions=records, atomic_flags=aflags, molecular_flags=mflags,
        notes=notes, reduced_part=red)


def _integrality_flags(reduced, minimal) -> dict:
    """reduced/irreducible/integral: irreducible is exactly one minimal
    element, integral is reduced and irreducible."""
    irreducible = len(minimal) == 1
    return {"reduced": reduced, "irreducible": irreducible,
            "integral": reduced and irreducible}


def discrete_up_sets(elements) -> list[list[int]]:
    """The up-sets of the discrete order: each element is above itself only."""
    return [[i] for i in range(len(elements))]


def hasse_edges(up) -> list[tuple[int, int]]:
    """The covering pairs (i, j) of the order with up-sets ``up``.

    j covers i when j lies in up[i], j != i, and j is above no third k in
    up[i]: the covers are the strict up-set of i minus the strict up-sets
    of its members.  Pairs come in the order of i, then of j within up[i],
    so a caller that lists its elements sorted gets sorted edges.
    """
    edges = []
    for i, u in enumerate(up):
        above = {j for k in u if k != i for j in up[k] if j != k}
        edges.extend((i, j) for j in u if j != i and j not in above)
    return edges


def _strict_pairs(elements, up) -> list:
    """Sorted label pairs (x, y) with x < y, read off the up-sets."""
    return sorted((x.label, elements[j].label) for i, x in enumerate(elements)
                  for j in up[i] if j != i)


def _artinian_envelope_assertions(backend: ArtinianBackend, phi_table,
                                  psi_table):
    """mass(E(S)) = {phi(S)} and E(Lambda/P) isotypic over E(psi(P)).

    Lambda/P is its block of Lambda/J (``prime_quotient``), and the simple
    of a block is a minimal right ideal in it, pulled back the same way.
    An envelope depends only on the module's action matrices, and when
    the block is a division algebra it is its own minimal right ideal, so
    Lambda/P is S with the same matrices; each distinct module gets one
    envelope (docs/derivations.md, "One envelope per distinct module").
    """
    records = []
    try:
        simples = backend.simples()
        for s in simples:
            s.require_module()
    except CapabilityError as exc:
        return [AssertionRecord("envelope_facts", True,
                                f"skipped: {exc}", skipped=True)]
    by_action = {}

    def envelope(mod):
        """E(mod), computed once for each distinct set of action matrices."""
        key = tuple(mat.rows for mat in mod.action)
        if key not in by_action:
            by_action[key] = injective_envelope(mod)[0]
        return by_action[key]

    envelopes = {s.label: envelope(s.module) for s in simples}
    bad = []
    for s in simples:
        m = backend.mass(envelopes[s.label])
        if len(m) != 1 or next(iter(m)).label != phi_table[s.label]:
            bad.append(s.label)
    records.append(AssertionRecord(
        "mass_of_envelope_is_phi", not bad,
        f"violations: {bad}" if bad else f"checked {len(simples)} simples"))

    bad = []
    for w in backend.primes():
        e_big = envelope(backend.prime_quotient(w))
        s_label = psi_table[w.label]
        soc_big, _ = e_big.submodule(e_big.socle_space(), name="socE")
        factors = composition_factors(soc_big)
        isotypic = set(factors) == {s_label}
        copies = factors.get(s_label, 0)
        dims_ok = e_big.dim == copies * envelopes[s_label].dim and copies >= 1
        if not (isotypic and dims_ok):
            bad.append(w.label)
    records.append(AssertionRecord(
        "envelope_of_prime_quotient_isotypic", not bad,
        f"violations: {bad}" if bad else f"checked {len(backend.primes())} primes"))
    return records
