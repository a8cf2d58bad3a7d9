"""Atom/molecule spectra, phi and psi, and the correspondence sweep."""

import ast
import operator
import random

import pytest

from ringspectra.algebras import (cyclic_group_algebra, matrix_algebra,
                                  upper_triangular_algebra)
from ringspectra.commutative import (GradedPolyBackend, IntegerBackend,
                                     IntModBackend, PolyBackend,
                                     PolyQuotBackend, poly_divmod)
from ringspectra.ideals import annihilator
from ringspectra.linalg import F2, GF, QQ
from ringspectra.modules import (RightModule, injective_envelope,
                                 composition_factors, simple_modules)
from ringspectra.oracle import brute_mass, enumerate_submodules, standard_modules
from ringspectra.spectra import (ArtinianBackend, Molecule,
                                 PhiUndefinedError, atom_spectrum,
                                 molecule_spectrum, verify_correspondence)
from test_algebras import _random_change_of_basis


def _backend(name, corpus_by_name):
    return ArtinianBackend(corpus_by_name[name])


def test_atom_spectrum_t2(corpus_by_name):
    b = _backend("t2_f2", corpus_by_name)
    atoms = b.atoms()
    assert len(atoms) == 2
    assert b.atom_up_sets(atoms) == [[0], [1]]     # artinian antichain


def test_molecule_spectrum_examples(corpus_by_name):
    assert len(_backend("t2_f2", corpus_by_name).molecules()) == 2
    assert len(_backend("trunc2_f2", corpus_by_name).molecules()) == 1
    assert len(_backend("m2_f3", corpus_by_name).molecules()) == 1


def test_ass_and_asupp_t2(corpus_by_name):
    b = _backend("t2_f2", corpus_by_name)
    reg = RightModule.regular(b.algebra)
    ass = {a.label for a in b.ass_atoms(reg)}
    asupp = {a.label for a in b.asupp(reg)}
    assert len(ass) == 1                           # socle is isotypic
    assert asupp == {s.label for s in b.simples()}
    assert ass <= asupp
    s = b.simples()[0]
    assert {a.label for a in b.ass_atoms(s.module)} == {s.label}
    assert {a.label for a in b.asupp(s.module)} == {s.label}
    zero = RightModule.zero(b.algebra)
    assert b.ass_atoms(zero) == set() and b.asupp(zero) == set()


def test_mass_and_msupp_examples(corpus_by_name):
    b = _backend("trunc2_f2", corpus_by_name)
    reg = RightModule.regular(b.algebra)
    mass = b.mass(reg)
    msupp = b.msupp(reg)
    assert len(mass) == 1 and mass == msupp        # {(x)}
    m2 = _backend("m2_f3", corpus_by_name)
    s = m2.simples()[0].module
    assert {r.label for r in m2.msupp(s)} == {"P1"}
    assert m2.primes()[0].ideal.is_zero()          # unique prime is 0


def test_mass_agrees_with_definitional_oracle(small_f2_corpus):
    for name, a in small_f2_corpus:
        b = ArtinianBackend(a)
        for mname, m in standard_modules(a):
            if m.dim > 4:
                continue
            assert b.mass(m) == brute_mass(m, b), (name, mname)


def test_msupp_is_upward_closed_and_v_of_ann(algebra_corpus):
    for name, a in algebra_corpus:
        if not a.field.is_finite():
            continue
        b = ArtinianBackend(a)
        for mname, m in standard_modules(a, include_envelopes=False):
            if m.dim == 0:
                continue
            msupp = b.msupp(m)
            ann = annihilator(m)
            expected = {r for r in b.molecules()
                        if b._prime_by_key(r.key).ideal.space.contains(ann.space)}
            assert msupp == expected, (name, mname)
            mols = b.molecules()
            for r, up in zip(mols, b.molecule_up_sets(mols)):
                if r in msupp:
                    assert all(mols[j] in msupp for j in up), (name, mname)


def test_phi_psi_artinian(corpus_by_name):
    b = _backend("t2_f2", corpus_by_name)
    for s in b.simples():
        atom = b.atom_of_simple_label(s.label)
        mol = b.phi(atom)
        # phi(S) is the annihilator's class.
        w = b._prime_by_key(mol.key)
        assert w.ideal.space == annihilator(s.module).space
        assert b.psi(mol) == atom


def test_phi_psi_identity_everywhere(algebra_corpus):
    for name, a in algebra_corpus:
        b = ArtinianBackend(a)
        for r in b.molecules():
            assert b.phi(b.psi(r)) == r, name


def test_verify_correspondence_t2(corpus_by_name):
    rep = verify_correspondence(_backend("t2_f2", corpus_by_name))
    assert rep.passed()
    assert len(rep.minimal_atoms) == 2 and len(rep.minimal_molecules) == 2
    names = {r.name for r in rep.assertions}
    assert {"phi_psi_identity", "adjunction", "amin_mmin_bijection",
            "mass_of_envelope_is_phi"} <= names


def test_mass_of_envelope_is_singleton_phi(corpus_by_name):
    for name in ["t2_f2", "quiver.cycle.J2_f2", "trunc3_f2", "m2_f2",
                 "t3_f2", "c3_f3"]:
        b = _backend(name, corpus_by_name)
        for s in b.simples():
            e_mod, _ = injective_envelope(s.module)
            mass = b.mass(e_mod)
            assert len(mass) == 1, name
            assert next(iter(mass)) == b.phi(b.atom_of_simple_label(s.label))


def test_envelope_of_prime_quotient_is_isotypic(corpus_by_name):
    for name in ["t2_f2", "t3_f2", "quiver.cycle.J2_f2", "f2xf2"]:
        b = _backend(name, corpus_by_name)
        reg = RightModule.regular(b.algebra)
        for w in b.primes():
            quot, _ = reg.quotient(w.ideal.space)
            e_big, _ = injective_envelope(quot)
            psi_simple = b._simple_by_key(
                b.psi(Molecule(b.label, ("prime", w.block_index),
                               w.label)).key)
            e_small, _ = injective_envelope(psi_simple.module)
            soc = e_big.submodule(e_big.socle_space())[0]
            factors = composition_factors(soc)
            assert set(factors) == {psi_simple.label}, name
            copies = factors[psi_simple.label]
            assert e_big.dim == copies * e_small.dim, name


def test_prime_quotient_is_its_block(algebra_corpus):
    """Lambda/P as ``verify`` builds it, its block of Lambda/J pulled back,
    is the quotient of the regular module by P: the same annihilator,
    dimension d - dim P and the same composition factors, on every corpus
    algebra in its natural basis and in a seeded random one."""
    rng = random.Random(37)
    for name, a in algebra_corpus:
        for b in (a, _random_change_of_basis(a, rng)[0]):
            backend = ArtinianBackend(b)
            reg = RightModule.regular(b)
            for w in backend.primes():
                m = backend.prime_quotient(w)
                where = (name, b is a, w.label)
                assert annihilator(m).space == w.ideal.space, where
                assert m.dim == b.dim - w.ideal.space.dim, where
                assert composition_factors(m) == composition_factors(
                    reg.quotient(w.ideal.space)[0]), where


def test_short_exact_ass_asupp_behavior(corpus_by_name):
    rng = random.Random(17)
    for name in ["t2_f2", "trunc3_f2", "quiver.cycle.J2_f2", "t3_f2"]:
        b = _backend(name, corpus_by_name)
        m = RightModule.regular(b.algebra)
        subs = [s for s in enumerate_submodules(m) if 0 < s.dim < m.dim]
        rng.shuffle(subs)
        for l_space in subs[:6]:
            sub, _ = m.submodule(l_space)
            quot, _ = m.quotient(l_space)
            ass_l, ass_m = b.ass_atoms(sub), b.ass_atoms(m)
            ass_q = b.ass_atoms(quot)
            assert ass_l <= ass_m <= ass_l | ass_q, name
            assert b.asupp(m) == b.asupp(sub) | b.asupp(quot), name
            # Same containments on the molecule side.
            mass_l, mass_m = b.mass(sub), b.mass(m)
            mass_q = b.mass(quot)
            assert mass_l <= mass_m <= mass_l | mass_q, name


def test_envelope_idempotent_across_corpus(algebra_corpus):
    for name, a in algebra_corpus:
        if a.dim > 4:
            continue
        for s in simple_modules(a):
            e, _ = injective_envelope(s.module)
            again, _ = injective_envelope(e)
            assert again.dim == e.dim, name


def test_spectrum_report_serializes(corpus_by_name):
    import json
    rep = verify_correspondence(_backend("t2_f2", corpus_by_name))
    text = json.dumps(rep.as_dict(), sort_keys=True)
    assert '"schema_version": 1' in text
    assert json.loads(text)["phi"] == {"S1": "P1", "S2": "P2"}


def test_phi_maps_ass_to_mass(corpus_by_name):
    for name in ["t2_f2", "trunc3_f2", "quiver.cycle.J2_f2", "m2_f2"]:
        b = _backend(name, corpus_by_name)
        for mname, m in standard_modules(b.algebra):
            if m.dim == 0:
                continue
            phi_ass = {b.phi(a) for a in b.ass_atoms(m)}
            assert phi_ass == b.mass(m), (name, mname)
            phi_asupp = {b.phi(a) for a in b.asupp(m)}
            assert phi_asupp <= b.msupp(m), (name, mname)


def test_full_corpus_verification(algebra_corpus):
    for name, a in algebra_corpus:
        rep = verify_correspondence(ArtinianBackend(a))
        bad = [r.name for r in rep.assertions if not (r.passed or r.skipped)]
        assert not bad, (name, bad)


class _CorruptedPhi:
    """Delegates to a real backend but sends every atom to one molecule."""

    def __init__(self, inner):
        self._inner = inner
        self.label = inner.label
        self.kind = inner.kind
        self.has_noetherian_generator = True
        self.complete = True

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def phi(self, a):
        return self._inner.molecules()[0]


class _CorruptedOrder(_CorruptedPhi):
    def phi(self, a):
        return self._inner.phi(a)

    def molecule_up_sets(self, molecules):
        everything = list(range(len(molecules)))    # everything comparable
        return [everything for _ in molecules]


def test_verifier_catches_corrupted_phi(corpus_by_name):
    """The sweep is not vacuous: a broken phi fails phi_psi_identity."""
    b = _backend("t2_f2", corpus_by_name)
    rep = verify_correspondence(_CorruptedPhi(b))
    failed = {r.name for r in rep.assertions if not (r.passed or r.skipped)}
    assert "phi_psi_identity" in failed


def test_verifier_catches_corrupted_order(corpus_by_name):
    b = _backend("t2_f2", corpus_by_name)
    rep = verify_correspondence(_CorruptedOrder(b))
    failed = {r.name for r in rep.assertions if not (r.passed or r.skipped)}
    assert "adjunction" in failed or "psi_order_preserving" in failed


def test_order_query_helpers(corpus_by_name):
    """The atoms above an atom, and those below it, read off the up-sets."""
    b = _backend("t2_f2", corpus_by_name)
    up = b.atom_up_sets(b.atoms())
    assert up[0] == [0] and [i for i, u in enumerate(up) if 0 in u] == [0]
    z = IntegerBackend()
    up = z.atom_up_sets(z.atoms(window=5))
    assert up[0] == [0, 1, 2, 3]                                  # everything
    assert [i for i, u in enumerate(up) if 0 in u] == [0]


def test_every_backend_satisfies_the_protocol(corpus_by_name):
    from ringspectra.commutative import (GradedPolyBackend, IntegerBackend,
                                         IntModBackend, PolyBackend,
                                         PolyQuotBackend)
    from ringspectra.errors import CapabilityError
    from ringspectra.linalg import F2, QQ
    from ringspectra.spectra import SpectrumBackend
    backends = [_backend("t2_f2", corpus_by_name), IntegerBackend(),
                IntModBackend(12), PolyBackend(QQ),
                PolyQuotBackend(F2, [0, 0, 1, 1]), GradedPolyBackend(F2)]
    for b in backends:
        assert isinstance(b, SpectrumBackend), b.kind
    # Only Mod(Lambda) declares its algebra Lambda.
    assert backends[0].algebra is corpus_by_name["t2_f2"]
    assert all(b.algebra is None for b in backends[1:])
    with pytest.raises(CapabilityError):            # no noetherian generator
        backends[-1].reduced_part()



class _CountingZ(IntegerBackend):
    """Z, counting the up-set reads each spectrum receives."""

    def __init__(self):
        self.calls = {"atom_up_sets": 0, "molecule_up_sets": 0}

    def atom_up_sets(self, atoms):
        self.calls["atom_up_sets"] += 1
        return super().atom_up_sets(atoms)

    def molecule_up_sets(self, molecules):
        self.calls["molecule_up_sets"] += 1
        return super().molecule_up_sets(molecules)


class _DiscreteMoleculesZ(IntegerBackend):
    """Z with the generic molecule no longer below the closed ones."""

    def molecule_up_sets(self, molecules):
        return [[i] for i in range(len(molecules))]


def test_verifier_reads_each_order_once():
    b = _CountingZ()
    rep = verify_correspondence(b, 200)
    n = len(b.atoms(200))
    assert n == 47 and rep.passed()
    assert b.calls == {"atom_up_sets": 1, "molecule_up_sets": 1}


class _CountingArtinian(ArtinianBackend):
    """Mod(Lambda), counting the molecule pairs whose containment is asked."""

    def __init__(self, algebra):
        super().__init__(algebra)
        self.calls = 0

    def molecule_up_sets(self, molecules):
        self.calls += len(molecules) ** 2
        return super().molecule_up_sets(molecules)


def test_artinian_minimal_molecules_found_once():
    b = _CountingArtinian(upper_triangular_algebra(4, F2))
    rep = verify_correspondence(b)
    n = len(b.molecules())
    assert n == 4 and rep.passed() and rep.molecular_flags["irreducible"] is False
    # The molecule spectrum asks each pair once; the minimal set and the
    # molecular flags are read off it.
    assert b.calls == n * n


def test_graded_backend_lists_its_window_once_per_spectrum(monkeypatch):
    calls = []
    window_range = GradedPolyBackend._window_range
    monkeypatch.setattr(GradedPolyBackend, "_window_range", staticmethod(
        lambda window: calls.append(window) or window_range(window)))
    rep = verify_correspondence(GradedPolyBackend(F2), 20)
    assert rep.passed() and len(rep.minimal_atoms) == 42
    assert calls == [20, 20]


def test_verifier_catches_a_discrete_molecule_order():
    rep = verify_correspondence(_DiscreteMoleculesZ(), 13)
    failed = {r.name for r in rep.assertions if not (r.passed or r.skipped)}
    assert {"phi_order_preserving", "adjunction"} <= failed


class _P1BelowP2(ArtinianBackend):
    """Mod T_2(F_2) with the prime P1 stated below the prime P2."""

    def molecule_up_sets(self, molecules):
        assert [r.label for r in molecules] == ["P1", "P2"]
        return [[0, 1], [1]]


def test_verifier_refuses_disagreeing_flags(corpus_by_name):
    """Each spectrum gives its own irreducible flag: Z with a discrete
    molecule order has one minimal atom and seven minimal molecules in
    window 13, and T_2(F_2) with P1 below P2 has two minimal atoms and one
    minimal molecule."""
    cases = [(_DiscreteMoleculesZ(), 13, True),
             (_P1BelowP2(corpus_by_name["t2_f2"]), None, False)]
    for backend, window, atom_irreducible in cases:
        rep = verify_correspondence(backend, window)
        flags = {r.name: r for r in rep.assertions}[
            "atomic_flags_equal_molecular_flags"]
        assert not (flags.passed or flags.skipped), backend.label
        assert rep.atomic_flags["irreducible"] is atom_irreducible
        assert rep.molecular_flags["irreducible"] is not atom_irreducible


@pytest.mark.parametrize("build, calls", [
    (lambda: upper_triangular_algebra(3, F2), 3),
    (lambda: matrix_algebra(2, F2), 2),
    (lambda: cyclic_group_algebra(F2, 3), 2)],
    ids=["T3(F2)", "M2(F2)", "F2[C3]"])
def test_one_envelope_per_distinct_module(monkeypatch, build, calls):
    """Lambda/P is its block B of Lambda/J, and S a minimal right ideal of
    B, both pulled back to Lambda; when B is a division algebra they are
    one module, with the same action matrices.  T_3(F_2) is basic, so
    three envelopes serve six modules; F_2[C_3] = F_2 x F_4 has two
    division blocks, F_4 of dimension 2, so two serve four.  On M_2(F_2)
    Lambda/P (dim 4) is not S (dim 2), so each gets its own."""
    import ringspectra.spectra as spectra
    inputs = []

    def counting(m):
        inputs.append(m)
        return injective_envelope(m)

    monkeypatch.setattr(spectra, "injective_envelope", counting)
    assert verify_correspondence(ArtinianBackend(build())).passed()
    assert len(inputs) == calls
    assert len({tuple(mat.rows for mat in m.action) for m in inputs}) == calls


def _pairwise_order_checks(backend, window):
    """The order assertions by their literal pairwise definitions.

    The reference for the up-set route in ``verify_correspondence``: every
    pair is tested, in listing order, against the order the backend
    states.
    """
    atoms, mols = backend.atoms(window), backend.molecules(window)
    phi = {}
    for a in atoms:
        try:
            phi[a.label] = backend.phi(a).label
        except PhiUndefinedError:
            pass
    psi = {r.label: backend.psi(r).label for r in mols}
    atom = {a.label: a for a in atoms}
    mol = {r.label: r for r in mols}
    leq_a = _pairwise(atoms, backend.atom_up_sets(atoms))
    leq_m = _pairwise(mols, backend.molecule_up_sets(mols))
    phi_bad = [(a.label, b.label) for a in atoms for b in atoms
               if a.label in phi and b.label in phi and leq_a(a, b)
               and not leq_m(mol[phi[a.label]], mol[phi[b.label]])]
    psi_bad = [(r.label, s.label) for r in mols for s in mols
               if leq_m(r, s) and not leq_a(atom[psi[r.label]], atom[psi[s.label]])]
    adj_bad = [(a.label, r.label) for a in atoms if a.label in phi
               for r in mols
               if leq_a(atom[psi[r.label]], a) != leq_m(r, mol[phi[a.label]])]
    pairs = sum(1 for a in atoms if a.label in phi) * len(mols)
    return {
        "phi_order_preserving": f"violations: {phi_bad}" if phi_bad else "",
        "psi_order_preserving": f"violations: {psi_bad}" if psi_bad else "",
        "adjunction": (f"violations: {adj_bad}" if adj_bad
                       else f"checked {pairs} pairs"),
        "atom_order": sorted((a.label, b.label) for a in atoms for b in atoms
                             if a != b and leq_a(a, b)),
        "molecule_order": sorted((r.label, s.label) for r in mols for s in mols
                                 if r != s and leq_m(r, s)),
        "minimal_atoms": _pairwise_minimal(atoms, leq_a),
        "minimal_molecules": _pairwise_minimal(mols, leq_m),
    }


def _pairwise_minimal(elements, leq):
    """The labels of the elements with no other element below them, in
    listing order."""
    return [x.label for x in elements
            if not any(y != x and leq(y, x) for y in elements)]


def _pairwise(elements, up):
    """The order with up-sets ``up`` as a predicate on pairs."""
    leq = {(elements[i].label, elements[j].label)
           for i, u in enumerate(up) for j in u}
    return lambda x, y: (x.label, y.label) in leq


def test_order_checks_equal_their_pairwise_definitions(corpus_by_name):
    cases = [(IntegerBackend(), 13), (PolyBackend(QQ), 2),
             (PolyBackend(GF(3)), 2), (_backend("t3_f2", corpus_by_name), None),
             (GradedPolyBackend(F2), 3), (_DiscreteMoleculesZ(), 13),
             (_CorruptedOrder(_backend("t2_f2", corpus_by_name)), None),
             (_CorruptedPhi(_backend("t2_f2", corpus_by_name)), None)]
    for backend, window in cases:
        rep = verify_correspondence(backend, window)
        got = {r.name: r.detail for r in rep.assertions}
        got["atom_order"] = rep.atom_order
        got["molecule_order"] = rep.molecule_order
        got["minimal_atoms"] = [a.label for a in rep.minimal_atoms]
        got["minimal_molecules"] = [r.label for r in rep.minimal_molecules]
        want = _pairwise_order_checks(backend, window)
        assert {k: got[k] for k in want} == want, backend.label


def test_long_adjunction_violation_list_comes_in_pairwise_order():
    """A molecule order that makes everything comparable breaks the
    adjunction at every (alpha, (p)) with alpha != (p): 46^2 violations on
    Z up to 200, listed atom by atom, each atom's molecules in order."""
    b = _CorruptedOrder(IntegerBackend())
    rep = verify_correspondence(b, 200)
    adj = next(r for r in rep.assertions if r.name == "adjunction")
    assert not adj.passed
    assert adj.detail == _pairwise_order_checks(b, 200)["adjunction"]
    atom_at = {a.label: i for i, a in enumerate(rep.atoms)}
    mol_at = {r.label: k for k, r in enumerate(rep.molecules)}
    pairs = [(atom_at[a], mol_at[r]) for a, r in
             ast.literal_eval(adj.detail.removeprefix("violations: "))]
    n = len(rep.atoms)
    assert n == 47
    assert pairs == sorted(pairs) == [(i, k) for i in range(n)
                                      for k in range(1, n) if i != k]


def _literal_order(backend):
    """(x <= y for atoms, for molecules) as containment of the ideals the
    points stand for, written out for each backend: the reference for the
    up-sets the backends state.

    Over Z, (a) is inside (b) iff b divides a, and (0) is generated by 0;
    over k[x] the same with polynomial division.  Mod(Lambda) compares its
    primes by ``contains`` and its simple classes by equality; the graded
    backend's orders are equality.
    """
    if isinstance(backend, ArtinianBackend):
        ideal = {("prime", w.block_index): w.ideal for w in backend.primes()}
        return operator.eq, lambda r, s: ideal[s.key].contains(ideal[r.key])
    if isinstance(backend, GradedPolyBackend):
        return operator.eq, operator.eq
    if isinstance(backend, (IntegerBackend, IntModBackend)):
        zero = 0

        def divides(b, a):
            return a % b == 0
    else:
        zero = ()

        def divides(b, a):
            return poly_divmod(backend.field, a, b)[1] == ()

    def contained(x, y):
        a = zero if x.key == ("zero",) else x.key[1]
        b = zero if y.key == ("zero",) else y.key[1]
        return a == zero if b == zero else divides(b, a)

    return contained, contained


def _literal_up_sets(elements, leq):
    return [[j for j, y in enumerate(elements) if leq(x, y)] for x in elements]


class _Reversed:
    """A backend that lists its atoms and molecules in reverse."""

    def __init__(self, backend):
        self.backend = backend

    def atoms(self, window=None):
        return self.backend.atoms(window)[::-1]

    def molecules(self, window=None):
        return self.backend.molecules(window)[::-1]

    def __getattr__(self, name):
        return getattr(self.backend, name)


@pytest.mark.parametrize("reverse", [False, True])
def test_up_sets_equal_ideal_containment(algebra_corpus, reverse):
    """Each backend's up-sets, for its listing and for the reversed one,
    are those of the literal containment order, and the minimal elements
    read off them are those with no other element below, in listing
    order."""
    cases = [(IntegerBackend(), 60), (PolyBackend(QQ), 4),
             (PolyBackend(GF(3)), 2), (IntModBackend(360), None),
             (PolyQuotBackend(F2, [0, 0, 1, 1]), None),
             (GradedPolyBackend(F2), (-3, 3)), (GradedPolyBackend(F2), 2)]
    cases += [(ArtinianBackend(a), None) for _name, a in algebra_corpus]
    for backend, window in cases:
        leq_a, leq_m = _literal_order(backend)
        listed = _Reversed(backend) if reverse else backend
        for spectrum, leq in ((atom_spectrum, leq_a), (molecule_spectrum, leq_m)):
            spec = spectrum(listed, window)
            assert spec.up == _literal_up_sets(spec.elements, leq), backend.label
            assert ([x.label for x in spec.minimal]
                    == _pairwise_minimal(spec.elements, leq)), backend.label
