"""Enumeration harness: counts, budgets, definitional predicates, corpus."""

import random

import pytest

from helpers import (reference_annihilator, reference_is_prime,
                     reference_stable_subspaces, reference_subspaces)
from ringspectra.errors import BudgetExceeded
from ringspectra.ideals import TwoSidedIdeal, annihilator
from ringspectra.linalg import F2, F3, GF, Matrix
from ringspectra.modules import RightModule, are_isomorphic, simple_modules
from ringspectra.oracle import (Budget, _submodule_annihilators,
                                brute_is_compressible, brute_is_monoform,
                                brute_is_prime, brute_is_prime_object,
                                brute_mass, brute_singular_subspace, corpus,
                                count_subspaces, enumerate_stable_subspaces,
                                enumerate_submodules, enumerate_subspaces,
                                enumerate_two_sided_ideals, enumerate_vectors,
                                gaussian_binomial, standard_modules)
from ringspectra.spectra import ArtinianBackend


def test_subspace_counts():
    assert len(enumerate_subspaces(F2, 1)) == 2
    assert len(enumerate_subspaces(F2, 2)) == 5            # 1 + 3 + 1
    assert len(enumerate_subspaces(F2, 3)) == 16           # 1 + 7 + 7 + 1
    assert len(enumerate_subspaces(F3, 2)) == 6            # 1 + 4 + 1


def test_subspace_enumeration_matches_gaussian_formula():
    for q, dim in [(2, 4), (3, 3)]:
        subs = enumerate_subspaces(GF(q), dim)
        assert len(subs) == count_subspaces(dim, q)
        by_dim = {}
        for s in subs:
            by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
        for k, n in by_dim.items():
            assert n == gaussian_binomial(dim, k, q)
        assert len(set(subs)) == len(subs)                  # duplicate-free


def test_budget_exceeded_is_loud():
    with pytest.raises(BudgetExceeded):
        enumerate_subspaces(F2, 4, Budget(max_count=10))
    with pytest.raises(BudgetExceeded):
        enumerate_subspaces(F2, 12, Budget(max_ambient_dim=8))
    with pytest.raises(BudgetExceeded):
        enumerate_subspaces(GF(7), 2, Budget(max_field_size=5))


def test_vector_enumeration_is_budgeted(corpus_by_name):
    s = simple_modules(corpus_by_name["field_f2"])[0].module
    m = s
    for _ in range(11):
        m = m.direct_sum(s)
    assert m.dim == 12
    with pytest.raises(BudgetExceeded, match="vector enumeration dim"):
        brute_singular_subspace(m)
    with pytest.raises(BudgetExceeded, match="vector enumeration field"):
        enumerate_vectors(GF(7), 2)
    with pytest.raises(BudgetExceeded, match="vector enumeration count"):
        enumerate_vectors(F3, 4, Budget(max_count=80))
    assert len(set(enumerate_vectors(F3, 4, Budget(max_count=81)))) == 81


def test_ideal_lattices(corpus_by_name):
    assert len(enumerate_two_sided_ideals(corpus_by_name["trunc2_f2"])) == 3
    assert len(enumerate_two_sided_ideals(corpus_by_name["m2_f2"])) == 2


def test_submodule_count_of_isotypic_square(corpus_by_name):
    ff = corpus_by_name["f2xf2"]
    s = simple_modules(ff)[0].module
    ss = s.direct_sum(s)
    # Submodules of S + S over a split block match subspaces of F2^2.
    assert len(enumerate_submodules(ss)) == 5


def test_brute_predicates_on_basics(corpus_by_name):
    t2 = corpus_by_name["t2_f2"]
    s = simple_modules(t2)[0].module
    assert brute_is_monoform(s)
    reg = RightModule.regular(corpus_by_name["trunc2_f2"])
    assert not brute_is_compressible(reg)          # length-2 uniserial
    ff = corpus_by_name["f2xf2"]
    assert not brute_is_prime(TwoSidedIdeal.zero(ff))


def test_corpus_contents(algebra_corpus, corpus_by_name):
    assert len(algebra_corpus) >= 40
    assert all(a.dim <= 6 for _n, a in algebra_corpus)
    assert "t2_f2" in corpus_by_name
    assert "quiver.cycle.J2_f2" in corpus_by_name
    names = [n for n, _a in algebra_corpus]
    assert names == [n for n, _a in corpus()]       # deterministic


def test_standard_modules_cover_shapes(corpus_by_name):
    mods = dict(standard_modules(corpus_by_name["t2_f2"]))
    assert "reg" in mods and "soc_reg" in mods
    assert any(name.startswith("E(") for name in mods)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("SPECTRA_BUDGET", "1234")
    assert Budget.from_env().max_count == 1234
    monkeypatch.delenv("SPECTRA_BUDGET")
    assert Budget.from_env().max_count == Budget().max_count


# The exhaustive-oracle zoo: corpus algebras and modules of dim <= 4 over
# F_2 and <= 3 over F_3.
ZOO_MAX_DIM = {2: 4, 3: 3}


def _nested_is_prime_object(m):
    """Reference: every nonzero submodule has the annihilator of m."""
    ann = annihilator(m).space
    return all(annihilator(m.submodule(s)[0]).space == ann
               for s in enumerate_submodules(m) if s.dim)


def _nested_mass(m, backend):
    """Reference: a fresh submodule lattice for each submodule of m."""
    out = set()
    for s in enumerate_submodules(m):
        if s.dim == 0:
            continue
        sub = m.submodule(s)[0]
        if _nested_is_prime_object(sub):
            ann = annihilator(sub).space
            for w in backend.primes():
                if w.ideal.space == ann:
                    out.add(("prime", w.block_index))
    return {mol for mol in backend.molecules() if mol.key in out}


def test_one_lattice_matches_the_nested_definitions(algebra_corpus):
    primes = non_primes = 0
    for name, a in algebra_corpus:
        bound = ZOO_MAX_DIM[a.field.p]
        if a.dim > bound:
            continue
        b = ArtinianBackend(a)
        for mname, m in standard_modules(a):
            if m.dim > bound:
                continue
            assert brute_mass(m, b) == _nested_mass(m, b), (name, mname)
            if m.dim == 0:
                continue
            prime = brute_is_prime_object(m)
            assert prime == _nested_is_prime_object(m), (name, mname)
            primes += prime
            non_primes += not prime
    assert primes > 20 and non_primes > 20


def _nested_is_monoform(m):
    """Reference: a fresh submodule lattice for every quotient m/L."""
    subs = enumerate_submodules(m)
    sub_modules = [m.submodule(s)[0] for s in subs if s.dim > 0]
    for l_space in subs:
        if l_space.dim == 0:
            continue
        quot, _ = m.quotient(l_space)
        if quot.dim == 0:
            continue
        q_subs = [quot.submodule(t)[0] for t in enumerate_submodules(quot)
                  if t.dim > 0]
        if any(x.dim == y.dim and are_isomorphic(x, y)
               for x in sub_modules for y in q_subs):
            return False
    return True


def test_monoform_from_one_lattice_matches_the_nested_definition(
        algebra_corpus, corpus_by_name):
    """On the zoo, and on the quotients of the Kronecker algebra's regular
    module: in some of those only a proper submodule of a quotient m/L is
    isomorphic to a submodule of m."""
    cases = [(f"{name}:{mname}", m) for name, a in algebra_corpus
             if a.dim <= ZOO_MAX_DIM[a.field.p]
             for mname, m in standard_modules(a)
             if 0 < m.dim <= ZOO_MAX_DIM[a.field.p]]
    reg = RightModule.regular(corpus_by_name["quiver.kronecker_f2"])
    cases += [("kronecker:reg/L", reg.quotient(s)[0])
              for s in enumerate_submodules(reg) if 0 < s.dim < reg.dim]
    monoform = not_monoform = 0
    for label, m in cases:
        got = brute_is_monoform(m)
        assert got == _nested_is_monoform(m), label
        monoform += got
        not_monoform += not got
    assert monoform > 20 and not_monoform > 20


def _members(subspaces):
    return [(s.pivots, s.mat.rows) for s in subspaces]


def test_lattice_routines_match_their_references_on_the_zoo(algebra_corpus):
    """Lattices tested on raw rows, primeness from pairs outside I and
    annihilators read in the ambient module give the members, order, rows,
    pivots and answers of the plain forms in tests/helpers.py."""
    primes = non_primes = modules = 0
    for name, a in algebra_corpus:
        bound = ZOO_MAX_DIM[a.field.p]
        if a.dim > bound:
            continue
        lattice = enumerate_two_sided_ideals(a)
        assert _members(lattice) == _members(reference_stable_subspaces(
            a.field, a.dim, a.right_mult_matrices() + a.left_mult_matrices())), name
        for s in lattice:
            if s.dim < a.dim:
                ideal = TwoSidedIdeal(a, s, validate=False)
                got = brute_is_prime(ideal, lattice)
                assert got == reference_is_prime(ideal, lattice), name
                primes += got
                non_primes += not got
        for mname, m in standard_modules(a):
            if m.dim > bound:
                continue
            subs = enumerate_submodules(m)
            assert _members(subs) == _members(reference_stable_subspaces(
                a.field, m.dim, m.action)), (name, mname)
            assert list(_submodule_annihilators(m)) == [
                (s, reference_annihilator(m, s)) for s in subs if s.dim], \
                (name, mname)
            modules += 1
    assert primes > 20 and non_primes > 20 and modules > 100


@pytest.mark.parametrize("p,dims", [(2, (1, 2, 3, 4, 5)), (3, (1, 2, 3)),
                                    (5, (1, 2))])
def test_stable_subspaces_match_the_filter_on_random_operators(p, dims):
    """Seeded random operator sets, with the empty, zero and identity sets."""
    rng = random.Random(p)
    f = GF(p)
    for dim in dims:
        sets = [(), (Matrix.zero(f, dim, dim),), (Matrix.identity(f, dim),)]
        for k in (1, 1, 2, 3):
            sets.append(tuple(Matrix(f, [[rng.randrange(p) for _ in range(dim)]
                                         for _ in range(dim)])
                              for _ in range(k)))
        for ops in sets:
            assert _members(enumerate_stable_subspaces(f, dim, ops)) == \
                _members(reference_stable_subspaces(f, dim, ops)), (p, dim, ops)
        assert _members(enumerate_subspaces(f, dim)) == \
            _members(reference_subspaces(f, dim))


@pytest.mark.parametrize("field,dim,budget", [
    (F2, 4, Budget(max_count=10)), (F2, 9, Budget()),
    (GF(7), 2, Budget()), (F3, 3, Budget(max_count=27))])
def test_stable_subspaces_refuse_as_the_filter_does(field, dim, budget):
    ops = (Matrix.identity(field, dim),)
    with pytest.raises(BudgetExceeded) as ours:
        enumerate_stable_subspaces(field, dim, ops, budget)
    with pytest.raises(BudgetExceeded) as ref:
        reference_stable_subspaces(field, dim, ops, budget)
    assert str(ours.value) == str(ref.value)
