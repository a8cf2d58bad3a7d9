"""Goldie machinery: singular subobjects, the Goldie localizing
subcategory and classical quotient rings, on artinian and symbolic
backends.

Two derived closed forms do the heavy lifting on artinian backends
(all proved in docs/derivations.md and cross-checked against definitional
enumeration in the oracle suite):

* a right ideal (or submodule) is essential iff it contains the socle;
* the singular subobject is Z(M) = {v : v * soc(Lambda) = 0}, because the
  essential right ideals are exactly those containing soc(Lambda), which
  also identifies the Goldie weakly closed subcategory with the closed
  subcategory of the two-sided ideal soc(Lambda).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebras import FiniteDimAlgebra
from .errors import CapabilityError, ValidationError
from .ideals import TwoSidedIdeal, ideal_product, is_semiprime
from .linalg import Subspace
from .modules import RightModule
from .spectra import (ArtinianBackend, QuotientRingDescriptor, SpectrumBackend,
                      atom_spectrum)


def regular_socle_ideal(a: FiniteDimAlgebra) -> TwoSidedIdeal:
    """soc of the right regular module; a two-sided ideal (validated)."""
    soc = RightModule.regular(a).socle_space()
    return TwoSidedIdeal(a, soc)


def is_essential_submodule(space: Subspace, m: RightModule) -> bool:
    """Essential iff it contains the socle (finite length criterion)."""
    if not space.is_stable(m.generator_action()):
        raise ValidationError("essentiality is about submodules")
    return space.contains(m.socle_space())


def singular_subspace(m: RightModule) -> Subspace:
    """Z(M) = {v : v * soc(Lambda) = 0}; elements with essential annihilator."""
    z = m.killed_by(regular_socle_ideal(m.algebra).space)
    if not z.is_stable(m.generator_action()):
        raise ValidationError("singular subobject must be a submodule")
    return z


@dataclass
class GoldieAnalysis:
    backend_label: str
    weakly_closed_ideal_dim: int       # soc(Lambda) as the W-ideal
    localizing_ideal_dim: int          # soc^2 reversed product ideal for W*W
    singular_atoms: list               # ASupp of the Goldie subcategory
    surviving_atoms: list              # ASpec of the quotient category
    quotient_blocks: list              # (atom, skew field degree) per survivor
    surviving_in_minimal: bool
    goldie_equals_artinianization: bool
    quotient_ring: QuotientRingDescriptor | None
    notes: list

    def as_dict(self):
        return {
            "backend": self.backend_label,
            "goldie_weakly_closed_ideal_dim": self.weakly_closed_ideal_dim,
            "goldie_localizing_ideal_dim": self.localizing_ideal_dim,
            "singular_atoms": self.singular_atoms,
            "surviving_atoms": self.surviving_atoms,
            "quotient_blocks": self.quotient_blocks,
            "surviving_in_minimal": self.surviving_in_minimal,
            "goldie_equals_artinianization": self.goldie_equals_artinianization,
            "quotient_ring": (None if self.quotient_ring is None
                              else vars(self.quotient_ring)),
            "notes": self.notes,
        }


def goldie_localizing(backend: ArtinianBackend) -> GoldieAnalysis:
    """The Goldie weakly closed and localizing subcategories, by descriptors.

    W is the closed subcategory of the ideal soc(Lambda); X = W * W has
    the same atom support, so the quotient's atoms are the nonsingular
    simple classes.  On artinian backends every atom is minimal, and the
    quotient equals the artinianization exactly when the backend is
    reduced (semiprime).
    """
    a = backend.algebra
    soc = regular_socle_ideal(a)
    x_ideal = ideal_product(soc, soc)
    singular = []
    surviving = []
    blocks = []
    for s in backend.simples():
        mod = s.require_module()
        killed = all(mod.act_matrix(v).is_zero()
                     for v in soc.space.basis_rows())
        if killed:
            singular.append(s.label)
        else:
            surviving.append(s.label)
            # The quotient is semisimple: one skew-field block per
            # surviving simple, of degree End(S).
            blocks.append((s.label, s.end_dim))
    amin = {at.label for at in atom_spectrum(backend).minimal}
    notes = []
    semiprime = is_semiprime(a)
    gol_is_artin = set(surviving) == amin
    if semiprime != gol_is_artin:
        raise ValidationError(
            "Goldie quotient should equal the artinianization exactly on "
            "semiprime backends")
    qr = None
    try:
        qr = classical_quotient_ring(backend)
    except CapabilityError as exc:
        notes.append(str(exc))
    return GoldieAnalysis(
        backend_label=backend.label,
        weakly_closed_ideal_dim=soc.dim,
        localizing_ideal_dim=x_ideal.dim,
        singular_atoms=sorted(singular),
        surviving_atoms=sorted(surviving),
        quotient_blocks=sorted(blocks),
        surviving_in_minimal=set(surviving) <= amin,
        goldie_equals_artinianization=gol_is_artin,
        quotient_ring=qr,
        notes=notes)


# -- classical quotient rings --------------------------------------------------------

def classical_quotient_ring(backend: SpectrumBackend) -> QuotientRingDescriptor:
    """Semisimple classical right quotient ring descriptor, when in scope."""
    return backend.quotient_ring_descriptor()


def validate_quotient_ring(backend: SpectrumBackend, samples: int = 100,
                           seed: int = 0) -> dict:
    """Check the classical quotient ring clauses on sampled elements.

    Clauses: the embedding is injective, regular elements become
    invertible, and sampled quotient elements are fractions f(a) f(s)^-1.
    Each backend checks them in its own arithmetic; ``checked`` counts
    the checks that ran, and a failed one raises ``ValidationError``.
    """
    desc = classical_quotient_ring(backend)
    checked = backend.check_quotient_ring(random.Random(seed), samples)
    return {"descriptor": vars(desc), "checked": checked}
