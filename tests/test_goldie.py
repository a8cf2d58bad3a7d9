"""Goldie machinery: singular subobjects, essentiality, quotient rings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringspectra.algebras import companion_algebra, upper_triangular_algebra
from ringspectra import commutative
from ringspectra.algebras import FiniteDimAlgebra
from ringspectra.commutative import (IntegerBackend, IntModBackend,
                                     PolyBackend, PolyQuotBackend)
from ringspectra.errors import CapabilityError, ValidationError
from ringspectra.goldie import (classical_quotient_ring, goldie_localizing,
                                is_essential_submodule, regular_socle_ideal,
                                singular_subspace, validate_quotient_ring)
from ringspectra.ideals import is_semiprime
from ringspectra.linalg import F2, QQ, Subspace
from ringspectra.modules import RightModule, simple_modules
from ringspectra.oracle import (brute_is_essential, brute_singular_subspace,
                                enumerate_right_ideals, enumerate_submodules,
                                standard_modules)
from ringspectra.spectra import ArtinianBackend
from helpers import is_semisimple_module, reference_is_isomorphic


def test_essential_self_and_socle():
    a3 = companion_algebra(F2, [0, 0, 0, 1])       # F2[x]/(x^3)
    reg = RightModule.regular(a3)
    full = Subspace.full(F2, 3)
    assert is_essential_submodule(full, reg)
    soc = reg.socle_space()
    assert soc.basis_rows() == ((0, 0, 1),)        # (x^2)
    assert is_essential_submodule(soc, reg)


def test_simple_summand_not_essential():
    t2 = upper_triangular_algebra(2, F2)
    s1, s2 = (s.module for s in simple_modules(t2))
    both = s1.direct_sum(s2)
    left = Subspace.from_vectors(F2, 2, [(1, 0)])
    assert not is_essential_submodule(left, both)


def test_essential_agrees_with_enumeration(small_f2_corpus):
    for name, a in small_f2_corpus:
        reg = RightModule.regular(a)
        subs = enumerate_submodules(reg)
        for s in subs:
            fast = is_essential_submodule(s, reg)
            assert fast == brute_is_essential(s, reg, subs), name


def test_singular_subobject_examples(corpus_by_name):
    # Semisimple: soc(Lambda) = Lambda, so Z = 0 everywhere.
    ff = corpus_by_name["f2xf2"]
    assert singular_subspace(RightModule.regular(ff)).dim == 0
    # Bound cycle quiver: both simples singular.
    cyc = corpus_by_name["quiver.cycle.J2_f2"]
    for s in simple_modules(cyc):
        z = singular_subspace(s.module)
        assert z.dim == s.module.dim
    # F2[x]/(x^2): the simple is singular.
    tr2 = corpus_by_name["trunc2_f2"]
    s = simple_modules(tr2)[0].module
    assert singular_subspace(s).dim == s.dim


def test_singular_matches_brute(small_f2_corpus):
    for name, a in small_f2_corpus:
        for mname, m in standard_modules(a):
            if m.dim > 4:
                continue
            assert singular_subspace(m) == brute_singular_subspace(m), \
                (name, mname)


def test_goldie_localizing_examples(corpus_by_name):
    g = goldie_localizing(ArtinianBackend(corpus_by_name["f2xf2"]))
    assert g.surviving_atoms == ["S1", "S2"]       # Gol = whole category
    assert g.quotient_blocks == [("S1", 1), ("S2", 1)]  # F2 x F2
    assert g.goldie_equals_artinianization

    g2 = goldie_localizing(ArtinianBackend(corpus_by_name["quiver.cycle.J2_f2"]))
    assert g2.surviving_atoms == []                # Gol = zero category
    assert g2.singular_atoms == ["S1", "S2"]
    assert not g2.goldie_equals_artinianization

    g3 = goldie_localizing(ArtinianBackend(corpus_by_name["trunc2_f2"]))
    assert g3.surviving_atoms == []


def test_goldie_surviving_subset_of_minimal(algebra_corpus):
    for name, a in algebra_corpus:
        if not a.field.is_finite():
            continue
        b = ArtinianBackend(a)
        try:
            g = goldie_localizing(b)
        except CapabilityError:
            continue
        assert g.surviving_in_minimal, name
        assert g.goldie_equals_artinianization == is_semiprime(a), name


def test_nonsingular_module_has_compressible_submodule(small_f2_corpus):
    """Nonzero nonsingular modules contain a simple (= compressible) one:
    a minimal nonzero submodule."""
    from ringspectra.modules import is_compressible
    for name, a in small_f2_corpus:
        for mname, m in standard_modules(a, include_envelopes=False):
            if m.dim == 0 or singular_subspace(m).dim != 0:
                continue
            space = min((s for s in enumerate_submodules(m) if s.dim),
                        key=lambda s: s.dim)
            sub, _ = m.submodule(space)
            assert is_compressible(sub), (name, mname)


# Essentially compressible, finite length: equivalent to semisimple
# (docs/derivations.md), so ``is_semisimple_module`` decides it.

def test_essentially_compressible(corpus_by_name):
    ff = corpus_by_name["f2xf2"]
    assert is_semisimple_module(RightModule.regular(ff))
    tr2 = corpus_by_name["trunc2_f2"]
    s = simple_modules(tr2)[0].module
    assert not is_semisimple_module(RightModule.regular(tr2))
    assert is_semisimple_module(s)                     # simple is semisimple


def test_essentially_compressible_over_q():
    """The finite-length criterion needs no enumeration, so Q works too."""
    from ringspectra.algebras import companion_algebra, matrix_algebra
    from ringspectra.linalg import QQ
    assert is_semisimple_module(RightModule.regular(matrix_algebra(2, QQ)))
    assert not is_semisimple_module(RightModule.regular(
        companion_algebra(QQ, [0, 0, 1])))


def test_essentially_compressible_definitional(small_f2_corpus):
    """Literal quantifier: every essential submodule contains a copy.  An
    embedding of m into a submodule s has dim s = dim m, so it is an
    isomorphism m -> s."""
    for name, a in small_f2_corpus:
        for mname, m in standard_modules(a, include_envelopes=False):
            if m.dim == 0 or m.dim > 4:
                continue
            brute = True
            for s in enumerate_submodules(m):
                if not is_essential_submodule(s, m):
                    continue
                sub, _ = m.submodule(s)
                if not reference_is_isomorphic(m, sub):
                    brute = False
                    break
            assert is_semisimple_module(m) == brute, (name, mname)


def test_a_semiprime_algebra_is_its_only_essential_right_ideal(
        algebra_corpus):
    """The regular element lemma's witness is 1, by the definition: on
    every semiprime corpus algebra over F_2 and F_3, a right ideal that
    meets every nonzero right ideal is the whole algebra."""
    checked = 0
    for name, a in algebra_corpus:
        if not is_semiprime(a):
            continue
        reg = RightModule.regular(a)
        lattice = enumerate_right_ideals(a)
        essential = [s for s in lattice if brute_is_essential(s, reg, lattice)]
        assert [s.dim for s in essential] == [a.dim], name
        checked += 1
    assert checked > 10


def test_classical_quotient_ring_descriptors(corpus_by_name):
    z = classical_quotient_ring(IntegerBackend())
    assert z.kind == "fraction-field" and z.description == "Q"
    ff = PolyQuotBackend(F2, [0, 1, 1])            # x^2 + x, squarefree
    assert classical_quotient_ring(ff).kind == "self"
    with pytest.raises(CapabilityError):
        classical_quotient_ring(PolyQuotBackend(F2, [0, 0, 1]))   # x^2
    with pytest.raises(CapabilityError):
        classical_quotient_ring(ArtinianBackend(corpus_by_name["t2_f2"]))
    assert classical_quotient_ring(
        ArtinianBackend(corpus_by_name["m2_f3"])).kind == "self"


def test_quotient_ring_validation_sampling():
    out = validate_quotient_ring(IntegerBackend(), samples=100, seed=0)
    assert out["checked"]["fraction_form"] == 100
    assert out["checked"]["regular_invertible"] > 0
    out2 = validate_quotient_ring(IntModBackend(6), samples=50, seed=1)
    assert out2["checked"]["fraction_form"] == 50
    out3 = validate_quotient_ring(PolyQuotBackend(F2, [0, 1, 1]), samples=30)
    assert out3["checked"]["fraction_form"] == 30
    assert out3["descriptor"]["kind"] == "self"


def test_algebra_route_catches_a_wrong_inverse(monkeypatch, corpus_by_name):
    monkeypatch.setattr(FiniteDimAlgebra, "inverse_element",
                        lambda self, x: self.unit)
    for backend in (ArtinianBackend(corpus_by_name["m2_f3"]),
                    PolyQuotBackend(F2, [1, 1, 1])):        # F2[x]/(x^2+x+1)
        with pytest.raises(ValidationError):
            validate_quotient_ring(backend, samples=30)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_modular_route_catches_a_wrong_inverse(flags):
    """A modular inverse off by one for every unit but 1 raises, also
    under ``python -O``, which strips asserts.  The backend is built
    before ``pow`` is broken: factoring 97 certifies it with ``pow``."""
    script = """
import builtins
from ringspectra import commutative
from ringspectra.errors import ValidationError
from ringspectra.goldie import validate_quotient_ring
backend = commutative.IntModBackend(97)
commutative.pow = lambda x, e, n: (builtins.pow(x, e, n) + (x != 1)) % n
try:
    validate_quotient_ring(backend)
except ValidationError:
    raise SystemExit(0)
raise SystemExit(1)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_integer_route_catches_a_wrong_product(monkeypatch):
    monkeypatch.setattr(IntegerBackend, "_mul",
                        staticmethod(lambda a, b: a * b + 1))
    with pytest.raises(ValidationError):
        validate_quotient_ring(IntegerBackend())


def test_polynomial_route_catches_a_wrong_product(monkeypatch):
    real = commutative.poly_mul
    monkeypatch.setattr(commutative, "poly_mul",
                        lambda f, a, b: real(f, a, b) + (f.one,))
    with pytest.raises(ValidationError):
        validate_quotient_ring(PolyBackend(QQ))


def test_socle_ideal_is_two_sided(algebra_corpus):
    for name, a in algebra_corpus:
        soc = regular_socle_ideal(a)               # validates on construction
        assert soc.dim >= 1, name
