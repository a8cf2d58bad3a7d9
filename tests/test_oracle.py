"""Enumeration harness: counts, budgets, definitional predicates, corpus."""

import random
import sys

import pytest

import ringspectra
from helpers import (reference_annihilator, reference_is_isomorphic,
                     reference_is_monoform, reference_is_prime,
                     reference_singular_subspace, reference_stable_subspaces,
                     reference_subspaces)
from ringspectra import oracle
from ringspectra.algebras import upper_triangular_algebra
from ringspectra.cli import _exhaustive_checks
from ringspectra.errors import BudgetExceeded
from ringspectra.ideals import TwoSidedIdeal, annihilator
from ringspectra.linalg import F2, F3, GF, Matrix
from ringspectra.modules import (RightModule, composition_factors,
                                 injective_envelope, is_monoform,
                                 primitive_idempotents, simple_modules)
from ringspectra.oracle import (Budget, _submodule_annihilators,
                                brute_composition_factors,
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
        if any(reference_is_isomorphic(x, y)
               for x in sub_modules for y in q_subs):
            return False
    return True


def test_monoform_from_one_lattice_matches_the_nested_definition(
        algebra_corpus, corpus_by_name):
    """On the zoo, and on the quotients of the Kronecker algebra's regular
    module: in some of those only a proper submodule of a quotient m/L is
    isomorphic to a submodule of m.  ``is_monoform`` gives the same
    answers from [m : soc m]."""
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
        assert is_monoform(m) == got, label
        monoform += got
        not_monoform += not got
    assert monoform > 20 and not_monoform > 20


def test_monoform_from_multiplicities_matches_both_references(
        zoo_in_two_bases):
    """[m : soc m] = 1 gives the answers of Hom(S, m/L) over the lattice and
    of the definition, on the zoo in two bases and on the envelopes and
    projectives of T_5(F_2), T_7(F_2) and T_5(F_3)."""
    from test_modules import _envelopes_and_projectives
    cases = [(label, m) for label, _a, m in zoo_in_two_bases if m.dim]
    for n, field in ((5, F2), (7, F2), (5, F3)):
        cases += [(f"T{n}({field}):{m.name}", m) for m in
                  _envelopes_and_projectives(upper_triangular_algebra(n, field))]
    answers = []
    for label, m in cases:
        got = is_monoform(m)
        assert got == reference_is_monoform(m) == brute_is_monoform(m), label
        answers.append(got)
    assert 50 < sum(answers) < len(answers) - 50


@pytest.mark.parametrize("n,field", [(6, F2), (7, F2), (5, F3)])
def test_monoform_oracle_scans_every_pair_near_the_budget_edge(n, field):
    """E(S1) and P_n of T_n, both of dimension n, are monoform, so
    ``brute_is_monoform`` compares its simple members with those above
    every L without stopping early; it and ``brute_composition_factors``
    compare simples by Hom alone and agree with the fast criteria."""
    a = upper_triangular_algebra(n, field)
    e1 = injective_envelope(simple_modules(a)[0].module)[0]
    pn = primitive_idempotents(a)[-1].projective
    for m in (e1, pn):
        assert m.dim == n
        assert brute_is_monoform(m, enumerate_submodules(m)) is True
        assert is_monoform(m) is True
        assert brute_composition_factors(m) == composition_factors(m) == \
            {f"S{i}": 1 for i in range(1, n + 1)}


def _members(subspaces):
    return [(s.pivots, s.mat.rows) for s in subspaces]


def test_lattice_routines_match_their_references_on_the_zoo(algebra_corpus):
    """Lattices tested on raw rows and primeness from pairs outside I give
    the members, order, rows, pivots and answers of the plain forms in
    tests/helpers.py (annihilators:
    ``test_submodule_annihilators_match_the_built_modules``)."""
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
            assert _members(enumerate_submodules(m)) == _members(
                reference_stable_subspaces(a.field, m.dim, m.action)), \
                (name, mname)
            modules += 1
    assert primes > 20 and non_primes > 20 and modules > 100


def _irreducible_pair(f, dim):
    """The cyclic shift and the matrix unit E_00: they generate all of
    M_dim(k), so only 0 and k^dim are stable under them."""
    shift = Matrix(f, [[int(j == (i + 1) % dim) for j in range(dim)]
                       for i in range(dim)], dim)
    unit = Matrix(f, [[int(i == j == 0) for j in range(dim)]
                      for i in range(dim)], dim)
    return shift, unit


@pytest.mark.parametrize("p,dims", [(2, (0, 1, 2, 3, 4, 5, 6)), (3, (1, 2, 3)),
                                    (5, (1, 2))])
def test_stable_subspaces_match_the_filter_on_random_operators(p, dims):
    """Seeded random operator sets, with the empty, zero and identity sets
    and a pair under which only 0 and the whole space are stable."""
    rng = random.Random(p)
    f = GF(p)
    for dim in dims:
        sets = [(), (Matrix.zero(f, dim, dim),), (Matrix.identity(f, dim),)]
        for k in (1, 1, 2, 3):
            sets.append(tuple(Matrix(f, [[rng.randrange(p) for _ in range(dim)]
                                         for _ in range(dim)], dim)
                              for _ in range(k)))
        for ops in sets + [_irreducible_pair(f, dim)]:
            assert _members(enumerate_stable_subspaces(f, dim, ops)) == \
                _members(reference_stable_subspaces(f, dim, ops)), (p, dim, ops)
        assert len(enumerate_stable_subspaces(f, dim, _irreducible_pair(f, dim))) \
            == min(dim + 1, 2)
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


def test_budget_refusals_build_no_image_table(monkeypatch, corpus_by_name):
    """Each refusal comes before any image table is built, with the same
    message."""
    a = corpus_by_name["field_f2"]
    s = simple_modules(a)[0].module
    m = s
    for _ in range(8):
        m = m.direct_sum(s)
    right_ideals = enumerate_submodules(RightModule.regular(a))

    def no_tables(ops):
        raise AssertionError("image table built before the budget check")
    monkeypatch.setattr(oracle, "_image_tables", no_tables)
    with pytest.raises(BudgetExceeded, match="subspace enumeration count"):
        enumerate_stable_subspaces(F2, 4, (Matrix.identity(F2, 4),),
                                   Budget(max_count=10))
    with pytest.raises(BudgetExceeded, match="vector enumeration dim"):
        brute_singular_subspace(m, right_ideals)
    with pytest.raises(BudgetExceeded, match="subspace enumeration dim"):
        brute_is_prime_object(m)


@pytest.fixture(scope="module")
def zoo_in_two_bases(algebra_corpus):
    """The oracle zoo over F_2 and F_3, its algebras in their natural and
    in a seeded random basis: (label, algebra, module)."""
    from test_algebras import _in_random_basis
    rng = random.Random(31)
    out = []
    for name, a in algebra_corpus:
        bound = ZOO_MAX_DIM[a.field.p]
        if a.dim > bound:
            continue
        for tag, alg in ((name, a), (f"{name}~", _in_random_basis(a, rng))):
            out += [(f"{tag}:{mname}", alg, m)
                    for mname, m in standard_modules(alg) if m.dim <= bound]
    return out


def test_singular_subspace_matches_its_plain_form(zoo_in_two_bases):
    """Packed tables over F_2 and one vector per line over F_3 give the
    singular subspace of every vector tested against every nonzero right
    ideal, in the natural and in a random basis."""
    compared = {2: 0, 3: 0}
    nonzero = 0
    for label, a, m in zoo_in_two_bases:
        got = brute_singular_subspace(m)
        assert got == reference_singular_subspace(m), label
        compared[a.field.p] += 1
        nonzero += got.dim > 0
    assert min(compared.values()) > 50 and nonzero > 20


def test_submodule_annihilators_match_the_built_modules(zoo_in_two_bases):
    """Ann of every member, read on packed rows over F_2 and on tuples over
    F_3, is the annihilator of the module built on it."""
    compared = {2: 0, 3: 0}
    for label, a, m in zoo_in_two_bases:
        subs = enumerate_submodules(m)
        got = list(_submodule_annihilators(m, subs))
        assert got == [(s, reference_annihilator(m, s)) for s in subs if s.dim], \
            label
        compared[a.field.p] += len(got)
    assert min(compared.values()) > 200


def _patch_annihilator(monkeypatch):
    """Count the calls of ``ideals.annihilator``, wherever a module of the
    package holds it."""
    calls = []
    real = ringspectra.ideals.annihilator

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    for name, mod in list(sys.modules.items()):
        if name.startswith("ringspectra") and \
                getattr(mod, "annihilator", None) is real:
            monkeypatch.setattr(mod, "annihilator", counted)
    return calls


def test_prime_object_reads_its_minimal_members(zoo_in_two_bases, monkeypatch):
    """Ann(m) from the lattice's top member and the minimal nonzero members
    only give the answer of comparing every member with annihilator(m),
    with no call of ``ideals.annihilator``."""
    cases = [(label, m) for label, _a, m in zoo_in_two_bases
             if m.dim]
    every = [all(reference_annihilator(m, s) == annihilator(m).space
                 for s in enumerate_submodules(m) if s.dim) for _l, m in cases]
    calls = _patch_annihilator(monkeypatch)
    for (label, m), want in zip(cases, every):
        assert brute_is_prime_object(m) == want, label
    assert not calls
    assert 20 < sum(every) < len(every) - 20


def test_exhaustive_checks_enumerate_the_regular_lattice_once(
        corpus_by_name, monkeypatch):
    """``verify --exhaustive`` hands one lattice of the regular module to
    the monoform, prime-object and singular oracles."""
    calls = []
    real = oracle.enumerate_submodules

    def counted(m, budget=None):
        calls.append(m.dim)
        return real(m, budget)
    monkeypatch.setattr(oracle, "enumerate_submodules", counted)
    records = _exhaustive_checks(corpus_by_name["t2_f2"])
    assert all(r.passed for r in records)
    assert calls == [3]
