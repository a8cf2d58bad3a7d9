"""Closed/localizing/locally closed descriptors and their classifications."""

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from ringspectra.algebras import (ideal_closure, jacobson_radical,
                                  upper_triangular_algebra)
from ringspectra.cli import main as cli_main
from ringspectra.ideals import TwoSidedIdeal, annihilator
from ringspectra.commutative import IntegerBackend, PolyBackend
from ringspectra.errors import BudgetExceeded
from ringspectra.linalg import GF, QQ
from ringspectra.modules import RightModule
from ringspectra.oracle import enumerate_submodules, enumerate_two_sided_ideals
from ringspectra.spectra import (ArtinianBackend, atom_spectrum,
                                 verify_correspondence)
from ringspectra.subcats import (LOCALIZING_MAX_ATOMS,
                                 LOCALLY_CLOSED_MAX_MOLECULES,
                                 ClosedSubcatDescriptor, classify_localizing,
                                 classify_locally_closed_localizing,
                                 radical_closed_descriptors,
                                 radical_lattice_dot, reduced_part,
                                 artinianization)
from test_algebras import _random_change_of_basis
from test_spectra import _literal_order
from helpers import (contains_module, ideal_sum, reference_radical_lattice_dot,
                     support)


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _backend(name, corpus_by_name):
    return ArtinianBackend(corpus_by_name[name])


def test_order_reversal_on_full_lattice(corpus_by_name):
    """Mod(Lambda/I) lies in Mod(Lambda/K) iff K kills Lambda/I, which
    generates Mod(Lambda/I), iff I contains K: the order on closed
    subcategories reverses the ideal order."""
    for name in ["trunc3_f2", "t2_f2", "f2xf2"]:
        a = corpus_by_name[name]
        reg = RightModule.regular(a)
        lattice = [TwoSidedIdeal(a, s, validate=False)
                   for s in enumerate_two_sided_ideals(a)]
        for i in lattice:
            killer = annihilator(reg.quotient(i.space)[0])
            for k in lattice:
                assert killer.contains(k) == i.contains(k), name


def test_reduced_part_examples(corpus_by_name):
    b = _backend("t2_f2", corpus_by_name)
    red = reduced_part(b)
    assert red.atomic_route_ideal.space == jacobson_radical(b.algebra)
    assert red.reduced is False
    assert verify_correspondence(b).atomic_flags == {
        "reduced": False, "irreducible": False, "integral": False}

    b2 = _backend("m2_f3", corpus_by_name)
    red2 = reduced_part(b2)
    assert red2.atomic_route_ideal.is_zero() and red2.reduced is True
    assert verify_correspondence(b2).atomic_flags["integral"] is True

    b3 = _backend("trunc2_f2", corpus_by_name)
    red3 = reduced_part(b3)
    assert red3.reduced is False
    assert verify_correspondence(b3).atomic_flags == {
        "reduced": False, "irreducible": True, "integral": False}


def test_reduced_part_routes_agree_corpus(algebra_corpus):
    for name, a in algebra_corpus:
        red = reduced_part(ArtinianBackend(a))
        assert red.atomic_route_ideal.space == \
            red.molecular_route_ideal.space, name


def test_artinianization_descriptors(corpus_by_name):
    b = _backend("t2_f2", corpus_by_name)
    art = artinianization(b)
    assert art.kind == "identity"
    z = artinianization(IntegerBackend())
    assert z.kind == "module-category" and "Q" in z.description
    assert z.atoms == ["(0)"]


def test_classify_localizing_counts(corpus_by_name):
    for name, expected_atoms in [("f2xf2", 2), ("field_f2", 1), ("t2_f2", 2)]:
        b = _backend(name, corpus_by_name)
        descs, primes, maxp = classify_localizing(b)
        n = expected_atoms
        assert len(descs) == 2 ** n, name
        assert len(primes) == n, name
        assert len(maxp) == len(atom_spectrum(b).minimal), name


def test_classify_localizing_refuses_more_than_eight_atoms():
    """Q^9 as Q[x]/((x)(x-1)...(x-8)): nine atoms, 512 subsets."""
    from ringspectra.algebras import companion_algebra
    poly = [1]
    for c in range(9):              # multiply by (x - c), low-to-high
        poly = [u - c * t for t, u in zip(poly + [0], [0] + poly)]
    b = ArtinianBackend(companion_algebra(QQ, poly))
    assert len(b.atoms()) == 9
    with pytest.raises(BudgetExceeded) as exc:
        classify_localizing(b)
    assert str(exc.value) == ("localizing classification: needs 512, "
                              "budget allows 256")


def test_localizing_membership_is_serre(corpus_by_name):
    """Membership closed under sub, quotient, extension, finite direct sum."""
    b = _backend("t2_f2", corpus_by_name)
    a = b.algebra
    descs, _, _ = classify_localizing(b)
    reg = RightModule.regular(a)
    subs = enumerate_submodules(reg)
    for d in descs:
        for l_space in subs:
            sub, _ = reg.submodule(l_space)
            quot, _ = reg.quotient(l_space)
            if contains_module(d, reg):
                assert contains_module(d, sub)
                assert contains_module(d, quot)
            if contains_module(d, sub) and contains_module(d, quot):
                assert contains_module(d, reg)      # closed under extensions
        m1 = b.simples()[0].module
        if contains_module(d, m1):
            assert contains_module(d, m1.direct_sum(m1))


def test_classify_locally_closed_counts(corpus_by_name):
    b = _backend("t2_f2", corpus_by_name)
    assert len(classify_locally_closed_localizing(b)) == 4
    bf = _backend("field_f2", corpus_by_name)
    assert len(classify_locally_closed_localizing(bf)) == 2
    z = IntegerBackend()
    assert len(classify_locally_closed_localizing(z, window=3)) == 5


class _CountingZ(IntegerBackend):
    """Z, counting the molecule up-set reads."""

    calls = 0

    def molecule_up_sets(self, molecules):
        self.calls += 1
        return super().molecule_up_sets(molecules)


def test_locally_closed_classification_reads_the_order_once():
    b = _CountingZ()
    n = len(b.molecules(47))               # 16 molecules: the subset budget
    assert len(classify_locally_closed_localizing(b, window=47)) == 2 ** 15 + 1
    assert n == 16 and b.calls == 1


class _ReversedZ(IntegerBackend):
    """Z with its molecules listed generic point last."""

    def molecules(self, window=None):
        return super().molecules(window)[::-1]


def _upward_closed_subsets(backend, window):
    """(support, label) of every subset of the molecules that is upward
    closed for the literal containment order (r <= s, r in it puts s in
    it, read pair by pair), in the order of its bit mask, with the label
    its sorted member labels give."""
    mols = backend.molecules(window)
    _leq_a, leq = _literal_order(backend)
    above = [[j for j, s in enumerate(mols) if leq(r, s)] for r in mols]
    out = []
    for mask in range(2 ** len(mols)):
        members = [i for i in range(len(mols)) if mask >> i & 1]
        if all(mask >> j & 1 for i in members for j in above[i]):
            chosen = frozenset(mols[i] for i in members)
            label = ("lcl{" + ",".join(sorted(m.label for m in chosen)) + "}"
                     if chosen else "0")
            out.append((chosen, label))
    return out


def test_locally_closed_classification_equals_pairwise_definition(
        corpus_by_name):
    """Each descriptor's support, read off its bit mask, and its label
    against the reference, up to the 16-molecule budget (Z window 47)."""
    cases = [(IntegerBackend(), 13), (IntegerBackend(), 41),
             (IntegerBackend(), 47), (PolyBackend(QQ), 2),
             (PolyBackend(GF(3)), 2), (_backend("t3_f2", corpus_by_name), None),
             (_ReversedZ(), 13)]
    for backend, window in cases:
        got = [(support(d), d.label)
               for d in classify_locally_closed_localizing(backend, window)]
        assert got == _upward_closed_subsets(backend, window), backend.label


def test_locally_closed_classification_refuses_past_16_molecules():
    """Z window 53 lists 17 molecules: refused before any subset is
    searched, and analyze reports the count as unavailable."""
    assert LOCALLY_CLOSED_MAX_MOLECULES == 16
    with pytest.raises(BudgetExceeded) as exc:
        classify_locally_closed_localizing(IntegerBackend(), window=53)
    message = "locally closed classification: needs 131072, budget allows 65536"
    assert str(exc.value) == message
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["analyze", str(FIXTURES / "z.alg"),
                         "--window", "53", "--subcats"]) == 0
    section = json.loads(out.getvalue())["subcategories"]
    assert section["locally_closed_localizing_count"] == "unavailable: " + message
    assert "locally_closed_localizing" not in section


def test_analyze_z_window_41_output_is_pinned():
    """The stdout of ``analyze fixtures/z.alg --window 41`` (8,193 locally
    closed labels) is byte for byte what it was when each descriptor kept
    its support as a frozenset and sorted its labels itself."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["analyze", str(FIXTURES / "z.alg"),
                         "--window", "41"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "592ab5674a177c8083e0cc3cc04424fb061952d36c61d7933b900d74114a68f0")


def _atoms_listed(order):
    """Mod(Lambda) with its atom listing rearranged by ``order``."""

    class Rearranged(ArtinianBackend):
        def atoms(self, window=None):
            return order(super().atoms(window))

    return Rearranged


def test_localizing_classification_equals_subsets(algebra_corpus):
    """Every atom subset in mask order, with its sorted-join label; the
    prime ones miss one atom, the maximal proper ones one minimal atom.
    The atoms are taken as the backend lists them, reversed and rotated
    by one, so that label order and listing order differ."""
    orders = (lambda xs: xs, lambda xs: xs[::-1], lambda xs: xs[1:] + xs[:1])
    for (name, a), order in itertools.product(algebra_corpus, orders):
        b = _atoms_listed(order)(a)
        atoms = b.atoms()
        if len(atoms) > LOCALIZING_MAX_ATOMS:
            continue
        descs, primes, maxp = classify_localizing(b)
        subsets = [frozenset(x for i, x in enumerate(atoms) if mask >> i & 1)
                   for mask in range(2 ** len(atoms))]
        assert [support(d) for d in descs] == subsets, name
        assert [d.label for d in descs] == [
            "loc{" + ",".join(sorted(x.label for x in s)) + "}" if s else "0"
            for s in subsets], name
        missing = [frozenset(atoms) - s for s in subsets]
        assert [support(d) for d in primes] == [
            s for s, m in zip(subsets, missing) if len(m) == 1], name
        amin = set(atom_spectrum(b).minimal)
        assert [support(d) for d in maxp] == [
            s for s, m in zip(subsets, missing) if len(m) == 1 and m <= amin], name


def test_locally_closed_membership(corpus_by_name):
    b = _backend("t2_f2", corpus_by_name)
    descs = classify_locally_closed_localizing(b)
    reg = RightModule.regular(b.algebra)
    full = [d for d in descs if len(support(d)) == 2]
    empty = [d for d in descs if not support(d)]
    assert contains_module(full[0], reg)
    assert not contains_module(empty[0], reg)
    assert contains_module(empty[0], RightModule.zero(b.algebra))


def test_dcc_random_descending_chains(corpus_by_name):
    """Strictly descending closed-descriptor chains stop within dim steps.

    Descending subcategories are ascending ideals, so intersecting with
    random closed descriptors (summing ideals) drives the chain down.
    """
    rng = random.Random(23)
    for name in ["t3_f2", "trunc4_f2", "quiver.cycle.J3_f2"]:
        a = corpus_by_name[name]
        b = ArtinianBackend(a)
        for _ in range(10):
            current = ClosedSubcatDescriptor(b, TwoSidedIdeal.zero(a))
            strict_steps = 0
            for _ in range(3 * a.dim):
                gen = tuple(rng.randrange(2) for _ in range(a.dim))
                nxt_ideal = ideal_sum(current.ideal, TwoSidedIdeal(
                    a, ideal_closure(a, [gen]), validate=False))
                nxt = ClosedSubcatDescriptor(b, nxt_ideal)
                assert nxt.ideal.contains(current.ideal)
                if nxt.ideal.space != current.ideal.space:
                    strict_steps += 1
                current = nxt
            assert strict_steps <= a.dim


def test_generated_filter_realizes_goldie_filter(corpus_by_name):
    """The right ideals containing soc(Lambda) are exactly the essential
    ones, so soc(Lambda) generates the Goldie filter."""
    from ringspectra.goldie import regular_socle_ideal
    from ringspectra.oracle import enumerate_right_ideals
    for name in ["t2_f2", "trunc3_f2", "quiver.cycle.J2_f2"]:
        a = corpus_by_name[name]
        soc = regular_socle_ideal(a)
        for r in enumerate_right_ideals(a):
            brute_essential = all(
                r.intersect(other).dim > 0
                for other in enumerate_right_ideals(a) if other.dim > 0)
            assert (r.contains(soc.space)) == brute_essential, name


def test_radical_closed_lattice(corpus_by_name):
    from ringspectra.ideals import prime_radical
    b = _backend("t2_f2", corpus_by_name)
    descs = radical_closed_descriptors(b)
    # T2: J, two primes, and the whole algebra (the zero subcategory).
    assert len(descs) == 4
    for d in descs:
        if not d.ideal.is_whole():
            assert prime_radical(d.ideal).space == d.ideal.space
    dot = radical_lattice_dot(b)
    assert dot == radical_lattice_dot(b)            # deterministic
    assert dot.count("shape=box") == 4
    # Semiprime: the zero ideal is radical too.
    b2 = _backend("f2xf2", corpus_by_name)
    labels = {d.label for d in radical_closed_descriptors(b2)}
    assert any(lab.startswith("Mod f2xf2") for lab in labels)


def test_radical_lattice_on_masks_matches_the_pairwise_route(algebra_corpus):
    """The DOT read off prime masks is byte-equal to the plain route's on
    every corpus algebra, in its natural and a seeded random basis, and on
    T_2..T_7(F_2)."""
    rng = random.Random(38)
    algebras = [a for _n, a in algebra_corpus]
    algebras += [_random_change_of_basis(a, rng)[0] for a in algebras]
    algebras += [upper_triangular_algebra(n, GF(2)) for n in range(2, 8)]
    for a in algebras:
        b = ArtinianBackend(a)
        assert radical_lattice_dot(b) == reference_radical_lattice_dot(b), a.name


def test_radical_lattice_past_the_budget_is_refused_unintersected(
        monkeypatch, tmp_path):
    """T_9(F_2) has 9 primes, past LOCALIZING_MAX_ATOMS: refused before any
    intersection, and ``analyze --subcats --dot`` exits 3 leaving no DOT."""
    b = ArtinianBackend(upper_triangular_algebra(9, GF(2)))

    def refuse(*_args):
        raise AssertionError("an intersection ran before the refusal")

    monkeypatch.setattr("ringspectra.subcats.prime_intersection", refuse)
    monkeypatch.setattr("ringspectra.ideals.prime_intersection", refuse)
    with pytest.raises(BudgetExceeded, match="needs 512, budget allows 256"):
        radical_closed_descriptors(b)
    monkeypatch.undo()
    fixture = tmp_path / "t9.alg"
    fixture.write_text("[backend]\nkind = algebra\nfield = F2\n"
                       "source = triangular\nn = 9\n")
    out = tmp_path / "t9.dot"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli_main(["analyze", str(fixture), "--subcats",
                         "--dot", str(out)]) == 3
    assert err.getvalue().startswith("capability error: radical closed")
    assert not out.exists()
