"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass lines.
Every tolerance is exact (structural equality); the two timed criteria
assert their runtime bounds.
"""

import random
import time

import pytest

from ringspectra.algebras import ideal_closure, jacobson_radical
from ringspectra.commutative import (GradedPolyBackend, IntegerBackend,
                                     IntModBackend, PolyBackend,
                                     PolyQuotBackend)
from ringspectra.errors import CapabilityError
from ringspectra.goldie import (goldie_localizing, is_essential_submodule,
                                singular_subspace, validate_quotient_ring,
                                classical_quotient_ring)
from ringspectra.ideals import (TwoSidedIdeal, is_prime, is_semiprime,
                                minimal_primes, prime_radical_of_zero)
from ringspectra.linalg import F2, F3
from ringspectra.modules import (RightModule, injective_envelope,
                                 is_compressible, is_monoform,
                                 is_prime_object, composition_factors)
from ringspectra.oracle import (brute_is_compressible, brute_is_essential,
                                brute_is_monoform, brute_is_prime,
                                brute_is_prime_object, brute_mass,
                                brute_singular_subspace,
                                enumerate_right_ideals, enumerate_submodules,
                                enumerate_two_sided_ideals, standard_modules)
from ringspectra.spectra import (ArtinianBackend, PhiUndefinedError,
                                 atom_spectrum, verify_correspondence)
from ringspectra.subcats import (classify_localizing,
                                 classify_locally_closed_localizing,
                                 reduced_part)
from helpers import graded_free


def _report(n, label, detail):
    print(f"ACCEPTANCE {n} PASS: {label} [{detail}]")


def test_criterion_1_gabriel_correspondence(algebra_corpus):
    """phi psi = id, adjunction, AMin<->MMin on corpus and windowed backends."""
    t0 = time.time()
    assert len(algebra_corpus) >= 40
    assert all(a.dim <= 6 for _n, a in algebra_corpus)
    failures = []
    backends = [(name, ArtinianBackend(a)) for name, a in algebra_corpus]
    # Commutative backends windowed to 10 primes (window 29 over Z).
    backends += [("Z", IntegerBackend()), ("Z/12", IntModBackend(12)),
                 ("Z/30", IntModBackend(30)),
                 ("F2[x]", PolyBackend(F2)), ("F3[x]", PolyBackend(F3)),
                 ("F2[x]/(x^3+x^2)", PolyQuotBackend(F2, [0, 0, 1, 1])),
                 ("F3[x]/(x^2+1)", PolyQuotBackend(F3, [1, 0, 1]))]
    windows = {"Z": 29, "F2[x]": 3, "F3[x]": 2}
    checked = 0
    for name, b in backends:
        window = windows.get(name)
        if name == "Z":
            assert len(b.molecules(window)) == 11      # (0) + 10 primes
        rep = verify_correspondence(b, window)
        for rec in rep.assertions:
            if rec.name in ("phi_psi_identity", "adjunction",
                            "amin_mmin_bijection"):
                checked += 1
                if not (rec.passed or rec.skipped):
                    failures.append((name, rec.name, rec.detail))
    elapsed = time.time() - t0
    assert not failures, failures
    assert elapsed < 60, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    _report(1, "Gabriel correspondence",
            f"{len(backends)} backends, {checked} assertions, {elapsed:.1f}s")


def test_criterion_2_ared_equals_mred(algebra_corpus):
    """Jacobson route and prime-radical route give the identical ideal."""
    for name, a in algebra_corpus:
        j = jacobson_radical(a)
        p = prime_radical_of_zero(a)
        assert j == p.space, name                   # canonical-form equality
        red = reduced_part(ArtinianBackend(a))
        assert red.atomic_route_ideal.space == red.molecular_route_ideal.space
    _report(2, "ared = mred", f"{len(algebra_corpus)} algebras, exact equality")


def test_criterion_3_atomic_iff_molecular_flags(algebra_corpus):
    backends = [(ArtinianBackend(a), None) for _n, a in algebra_corpus]
    backends += [(IntegerBackend(), 13), (IntModBackend(12), None),
                 (IntModBackend(30), None), (PolyBackend(F2), 2),
                 (PolyQuotBackend(F2, [0, 0, 1, 1]), None),
                 (PolyQuotBackend(F3, [1, 0, 1]), None)]
    disagreements = []
    for b, window in backends:
        rep = verify_correspondence(b, window)
        if rep.atomic_flags != rep.molecular_flags:
            disagreements.append(b.label)
    assert not disagreements, disagreements
    _report(3, "atomic flags = molecular flags",
            f"{len(backends)} backends, zero disagreements")


def test_criterion_4_oracle_equivalence(small_f2_corpus):
    """Fast criteria vs definitional brute force on full F2 lattices."""
    t0 = time.time()
    assert len(small_f2_corpus) >= 10
    checked = 0
    for name, a in small_f2_corpus:
        lattice = enumerate_two_sided_ideals(a)
        for s in lattice:
            if s.dim == a.dim:
                continue
            ideal = TwoSidedIdeal(a, s, validate=False)
            assert is_prime(ideal) == brute_is_prime(ideal, lattice), name
            checked += 1
        b = ArtinianBackend(a)
        for mname, m in standard_modules(a):
            if m.dim > 4:
                continue
            subs = enumerate_submodules(m)
            for space in subs:
                fast = space.contains(m.socle_space())
                assert fast == brute_is_essential(space, m, subs), (name, mname)
                checked += 1
            assert singular_subspace(m) == brute_singular_subspace(m), \
                (name, mname)
            assert b.mass(m) == brute_mass(m, b), (name, mname)
            checked += 2
            if m.dim == 0:
                continue
            assert is_monoform(m) == brute_is_monoform(m), (name, mname)
            assert is_compressible(m) == brute_is_compressible(m), (name, mname)
            assert is_prime_object(m) == brute_is_prime_object(m), (name, mname)
            checked += 3
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 4 runtime {elapsed:.1f}s exceeds 10 min"
    _report(4, "oracle equivalence",
            f"{len(small_f2_corpus)} algebras, {checked} comparisons, "
            f"{elapsed:.1f}s")


def test_criterion_5_injective_envelope_facts(algebra_corpus):
    """mass(E(S)) = {phi(S)}; E(Lambda/P) is copies of E(psi(P))."""
    simples_checked = primes_checked = 0
    for name, a in algebra_corpus:
        b = ArtinianBackend(a)
        for s in b.simples():
            e_mod, _ = injective_envelope(s.module)
            mass = b.mass(e_mod)
            atom = b.atom_of_simple_label(s.label)
            assert mass == {b.phi(atom)}, (name, s.label)
            simples_checked += 1
        reg = RightModule.regular(a)
        for w in b.primes():
            quot, _ = reg.quotient(w.ideal.space)
            e_big, _ = injective_envelope(quot)
            psi_atom = b.psi([r for r in b.molecules()
                              if r.key == ("prime", w.block_index)][0])
            psi_simple = b._simple_by_key(psi_atom.key)
            e_small, _ = injective_envelope(psi_simple.module)
            soc = e_big.submodule(e_big.socle_space())[0]
            factors = composition_factors(soc)
            assert set(factors) == {psi_simple.label}, (name, w.label)
            assert e_big.dim == factors[psi_simple.label] * e_small.dim
            primes_checked += 1
    _report(5, "injective envelope facts",
            f"{simples_checked} simples, {primes_checked} primes")


def test_criterion_6_goldie_suite(algebra_corpus, small_f2_corpus,
                                  corpus_by_name):
    # A regular element, 1, in every enumerated essential right ideal.
    ideals_checked = 0
    for name, a in small_f2_corpus:
        if not is_semiprime(a):
            continue
        reg = RightModule.regular(a)
        for space in enumerate_right_ideals(a):
            if not is_essential_submodule(space, reg):
                continue
            assert a.is_regular_element(a.unit), name
            assert space.contains_vector(a.unit), name
            ideals_checked += 1
    assert ideals_checked > 0
    # ASpec(Gol) inside AMin, equality exactly on reduced backends.
    for name, a in algebra_corpus:
        g = goldie_localizing(ArtinianBackend(a))
        assert g.surviving_in_minimal, name
        assert g.goldie_equals_artinianization == is_semiprime(a), name
    # The bound cycle quiver reproduces Gol = 0.
    g = goldie_localizing(ArtinianBackend(corpus_by_name["quiver.cycle.J2_f2"]))
    assert g.surviving_atoms == [] and g.singular_atoms == ["S1", "S2"]
    # classical_quotient_ring(Z) = Q, validated on 100 sampled pairs.
    desc = classical_quotient_ring(IntegerBackend())
    assert desc.kind == "fraction-field" and desc.description == "Q"
    out = validate_quotient_ring(IntegerBackend(), samples=100, seed=0)
    assert out["checked"]["fraction_form"] == 100
    _report(6, "Goldie suite",
            f"{ideals_checked} essential right ideals, "
            f"{len(algebra_corpus)} Goldie analyses, Q(Z) = Q validated")


def test_criterion_7_classification_counts(corpus_by_name):
    b_t2 = ArtinianBackend(corpus_by_name["t2_f2"])
    assert len(classify_locally_closed_localizing(b_t2)) == 4
    b_field = ArtinianBackend(corpus_by_name["field_f2"])
    assert len(classify_locally_closed_localizing(b_field)) == 2
    assert len(classify_locally_closed_localizing(IntegerBackend(),
                                                  window=3)) == 5
    counts = []
    for name in ["t2_f2", "field_f2", "f2xf2", "f2xf2xf2", "t3_f2"]:
        b = ArtinianBackend(corpus_by_name[name])
        descs, primes, maxp = classify_localizing(b)
        n_atoms = len(b.atoms())
        assert len(descs) == 2 ** n_atoms, name
        assert len(primes) == n_atoms, name
        assert len(maxp) == len(atom_spectrum(b).minimal), name
        counts.append((name, len(descs)))
    _report(7, "classification counts",
            f"T2: 4 lcl, field: 2, Z window: 5, localizing {counts}")


def test_criterion_8_counterexample_fidelity():
    g = GradedPolyBackend(F2)
    kx = graded_free(0)
    assert g.mass(kx) == set()
    generic = [a for a in g.atoms(window=1) if a.key == ("generic",)][0]
    with pytest.raises(PhiUndefinedError):
        g.phi(generic)
    with pytest.raises(CapabilityError):
        g.artinianization()
    _report(8, "graded counterexample fidelity",
            "mass(k[x]) empty, phi(generic) refused, artinianization refused")


def test_criterion_9_cross_representation():
    rng = random.Random(2024)
    cases = 0
    while cases < 20:
        field = (F2, F3)[rng.randrange(2)]
        deg = rng.randrange(1, 5)
        coeffs = [field.scalar(rng.randrange(field.p)) for _ in range(deg)]
        coeffs.append(field.one)
        backend = PolyQuotBackend(field, coeffs)
        alg = backend.bridge_to_algebra()
        ws = minimal_primes(alg)
        assert len(ws) == len(backend.molecules()), coeffs
        spaces = {w.ideal.space for w in ws}
        for q, _m in backend.factors:
            gen = _poly_element(alg, backend.modulus, q)
            assert TwoSidedIdeal(alg, ideal_closure(alg, [gen]),
                                 validate=False).space in spaces
        assert is_semiprime(alg) == backend.is_semiprime(), coeffs
        rad_sym = backend.radical_generator()
        assert TwoSidedIdeal(alg, ideal_closure(
            alg, [_poly_element(alg, backend.modulus, rad_sym)]),
            validate=False).space == prime_radical_of_zero(alg).space
        cases += 1
    _report(9, "cross-representation", f"{cases} random polynomial quotients")


def _poly_element(alg, modulus, coeffs):
    """Coordinates of g(xbar) in the companion algebra of the modulus."""
    f = alg.field
    if alg.dim > 1:
        x = alg.basis_coords(1)
    else:
        # Degree-one modulus: xbar is the scalar root -c0.
        x = tuple(f.mul(f.neg(modulus[0]), u) for u in alg.unit)
    val = [f.zero] * alg.dim
    power = alg.unit
    for c in coeffs:
        if c != f.zero:
            val = [f.add(v, f.mul(c, p)) for v, p in zip(val, power)]
        power = alg.mul(power, x)
    return tuple(val)
