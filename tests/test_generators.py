"""The generating set S of an algebra, and the checks that run on it.

The basis-wide checks that S replaced are kept here as references: ideal
closure and membership with every basis multiplication on both sides, the
center, associativity on every basis triple, the representation law on
every basis pair, and module maps and Hom with every action matrix.  The
fast checks must agree with them everywhere they are compared.
"""

import itertools
import random

import pytest

from ringspectra.algebras import (FiniteDimAlgebra, companion_algebra,
                                  generator_multiplications, ideal_closure,
                                  matrix_algebra, upper_triangular_algebra)
from ringspectra.errors import ValidationError
from ringspectra.linalg import (F2, QQ, Matrix, Subspace, apply_vec,
                                common_left_kernel, spin)
from ringspectra.modules import ModuleMap, RightModule, hom_basis
from ringspectra.oracle import (enumerate_submodules, enumerate_subspaces,
                                enumerate_two_sided_ideals, standard_modules)
from test_algebras import _random_change_of_basis

# Oracle zoo bounds, as in test_oracle: module dim <= 4 over F_2, <= 3 over F_3.
ZOO_MAX_DIM = {2: 4, 3: 3}


# -- references: the basis-wide checks ---------------------------------------------

def _all_multiplications(a):
    return a.right_mult_matrices() + a.left_mult_matrices()


def _stable(s, ops):
    return all(s.contains_vector(apply_vec(v, m))
               for v in s.basis_rows() for m in ops)


def _reference_center(a):
    return common_left_kernel(a.field, a.dim, [
        r - l for r, l in zip(a.right_mult_matrices(), a.left_mult_matrices())])


def _reference_is_algebra(a):
    """The unit law and associativity on every basis triple."""
    basis = [a.basis_coords(i) for i in range(a.dim)]
    return all(a.mul(a.unit, b) == b == a.mul(b, a.unit) for b in basis) and all(
        a.mul(a.mul(x, y), z) == a.mul(x, a.mul(y, z))
        for x, y, z in itertools.product(basis, repeat=3))


def _reference_is_representation(a, action):
    """rho(1) = I and rho(b_i) rho(b_j) = rho(b_i b_j) for every pair."""
    m = RightModule(a, action, validate=False)
    sc = a.sc
    return m.act_matrix(a.unit) == Matrix.identity(a.field, m.dim) and all(
        action[i] * action[j] == m.act_matrix(sc[i][j])
        for i, j in itertools.product(range(a.dim), repeat=2))


def _reference_is_module_map(f: ModuleMap):
    return all(ms * f.matrix == f.matrix * mt
               for ms, mt in zip(f.source.action, f.target.action))


def _reference_hom_basis(m, n):
    """Solutions X of M_i X = X N_i for every basis element i."""
    f = m.algebra.field
    dm, dn = m.dim, n.dim
    rows = []
    for r, c in itertools.product(range(dm), range(dn)):
        rows.append(tuple(
            f.sub(mi.rows[u][r] if v == c else f.zero,
                  ni.rows[c][v] if u == r else f.zero)
            for mi, ni in zip(m.action, n.action)
            for u in range(dm) for v in range(dn)))
    kern = Matrix(f, rows, m.algebra.dim * dm * dn).left_kernel()
    return [Matrix(f, [lam[r * dn:(r + 1) * dn] for r in range(dm)], dn)
            for lam in kern.rows]


# -- inputs --------------------------------------------------------------------------

def _corpus_in_both_bases(algebra_corpus):
    """Every corpus algebra in its natural and in a seeded random basis."""
    rng = random.Random(1212)
    for name, a in algebra_corpus:
        yield name, a
        yield name + "@random", _random_change_of_basis(a, rng)[0]


def _random_vector(a, rng):
    return tuple(a.field.scalar(rng.randrange(a.field.p)) for _ in range(a.dim))


def _test_subspaces(a, rng):
    """Random spans (mostly not ideals), and the two-sided, right and left
    ideals they generate under every basis multiplication of those sides."""
    right, left = a.right_mult_matrices(), a.left_mult_matrices()
    out = []
    for _ in range(6):
        seeds = [_random_vector(a, rng) for _ in range(rng.randrange(1, 3))]
        out.append(Subspace.from_vectors(a.field, a.dim, seeds))
        out.append(spin(a.field, a.dim, seeds, right + left))
        out.append(spin(a.field, a.dim, seeds, right))
        out.append(spin(a.field, a.dim, seeds, left))
    return out


def _zoo(algebra_corpus):
    for name, a in algebra_corpus:
        bound = ZOO_MAX_DIM[a.field.p]
        if a.dim > bound:
            continue
        for mname, m in standard_modules(a):
            if m.dim <= bound:
                yield f"{name}:{mname}", m


def _assert_fast_submodule_checks_match_brute(m, label=""):
    """The submodule filter, and the spin of every vector, against the
    oracle's lattice, which applies every action matrix."""
    lattice = enumerate_submodules(m)
    fast = [s for s in enumerate_subspaces(m.algebra.field, m.dim)
            if s.is_stable(m.generator_action())]
    assert fast == lattice, label
    members = set(lattice)
    for s in enumerate_subspaces(m.algebra.field, m.dim):
        if s.dim == 1:
            assert m.spin_submodule(s.basis_rows()) in members, label


# -- the set itself -------------------------------------------------------------------

def test_generators_span_every_corpus_algebra(algebra_corpus):
    """The words in S span A, on the corpus in both bases and on T_12(F_2);
    the opposite shares S, and its words span it too."""
    big = upper_triangular_algebra(12, F2)
    cases = list(_corpus_in_both_bases(algebra_corpus)) + [("T12(F2)", big)]
    for name, a in cases:
        for alg in (a, a.opposite()):
            gens = alg.generators()
            assert gens == a.generators(), name
            assert len(set(gens)) == len(gens), name
            right = alg.right_mult_matrices()
            words = spin(alg.field, alg.dim, [alg.unit], [right[g] for g in gens])
            assert words.dim == alg.dim, name
    assert len(big.generators()) < big.dim // 3


def test_unit_law_is_checked_before_lights_test():
    """A right-zero band: x y = y, associative, and e is a left unit only.
    Its words reach everything, so only the unit law refuses it."""
    e, f = (1, 0), (0, 1)
    sc = [[e, f], [e, f]]
    with pytest.raises(ValidationError, match="unit law fails at basis element 1"):
        FiniteDimAlgebra(F2, sc, unit=e)
    a = FiniteDimAlgebra(F2, sc, unit=e, validate=False)
    assert a.generators() == (1,)
    with pytest.raises(ValidationError, match="no unit solves"):
        FiniteDimAlgebra(F2, sc)


def test_a_table_broken_at_a_non_generator_is_refused():
    """F_2[x]/(x^3) with x^2 x^2 = x^2: S = (x,), so the changed product
    has no generator among its factors, and Light's test refuses it at a
    triple whose middle index is the generator."""
    base = companion_algebra(F2, [0, 0, 0, 1])
    assert base.generators() == (1,)
    sc = [[list(row) for row in plane] for plane in base.sc]
    sc[2][2] = [0, 0, 1]
    assert not _reference_is_algebra(
        FiniteDimAlgebra(F2, sc, unit=base.unit, validate=False))
    with pytest.raises(ValidationError, match=r"basis triple \(1,1,2\)"):
        FiniteDimAlgebra(F2, sc, unit=base.unit)


def test_validation_agrees_with_every_triple_on_mutated_tables(algebra_corpus):
    """One-entry mutations of every corpus table, in both bases: refused
    exactly when the unit law or associativity on all triples fails."""
    rng = random.Random(77)
    refused = accepted = 0
    for name, a in _corpus_in_both_bases(algebra_corpus):
        f = a.field
        for _ in range(3):
            sc = [[list(row) for row in plane] for plane in a.sc]
            i, j, k = (rng.randrange(a.dim) for _ in range(3))
            sc[i][j][k] = f.add(sc[i][j][k], f.scalar(rng.randrange(1, f.p)))
            want = _reference_is_algebra(
                FiniteDimAlgebra(f, sc, unit=a.unit, validate=False))
            try:
                FiniteDimAlgebra(f, sc, unit=a.unit)
                got = True
            except ValidationError:
                got = False
            assert got == want, (name, i, j, k)
            refused += not got
            accepted += got
    assert refused > 100 and accepted > 0


# -- ideals and the center -------------------------------------------------------------

def test_ideal_checks_agree_with_every_multiplication(algebra_corpus):
    rng = random.Random(31)
    ideals = one_sided = 0
    for name, a in _corpus_in_both_bases(algebra_corpus):
        assert a.center() == _reference_center(a), name
        for s in _test_subspaces(a, rng):
            want = _stable(s, _all_multiplications(a))
            assert s.is_stable(generator_multiplications(a)) == want, name
            ideals += want
            one_sided += not want and (_stable(s, a.right_mult_matrices())
                                       or _stable(s, a.left_mult_matrices()))
        for _ in range(4):
            seeds = [_random_vector(a, rng)]
            assert ideal_closure(a, seeds) == spin(
                a.field, a.dim, seeds, _all_multiplications(a)), name
    assert ideals > 100 and one_sided > 100


def test_ideal_lattice_agrees_with_the_oracle(small_f2_corpus):
    for name, a in small_f2_corpus:
        fast = [s for s in enumerate_subspaces(a.field, a.dim)
                if s.is_stable(generator_multiplications(a))]
        assert fast == enumerate_two_sided_ideals(a), name


# -- modules, maps and Hom -------------------------------------------------------------

def test_submodule_checks_agree_on_the_oracle_zoo(algebra_corpus):
    count = 0
    for label, m in _zoo(algebra_corpus):
        _assert_fast_submodule_checks_match_brute(m, label)
        count += 1
    assert count > 200


def test_module_validation_agrees_with_every_pair(algebra_corpus):
    """The zoo's modules and one-entry mutations of their action."""
    rng = random.Random(5)
    refused = 0
    for label, m in _zoo(algebra_corpus):
        if m.dim == 0:
            continue
        a, f = m.algebra, m.algebra.field
        RightModule(a, m.action)
        action = [[list(row) for row in mat.rows] for mat in m.action]
        i, r, c = rng.randrange(a.dim), rng.randrange(m.dim), rng.randrange(m.dim)
        action[i][r][c] = f.add(action[i][r][c], f.one)
        mats = [Matrix(f, rows, m.dim) for rows in action]
        want = _reference_is_representation(a, mats)
        try:
            RightModule(a, mats)
            got = True
        except ValidationError:
            got = False
        assert got == want, (label, i, r, c)
        refused += not got
    assert refused > 100


def test_an_action_broken_at_a_non_generator_is_refused():
    """The regular module of F_2[x]/(x^3) with the action of x^2 changed:
    x^2 is no generator, and the law fails at the pair (x, x)."""
    a = companion_algebra(F2, [0, 0, 0, 1])
    action = list(a.right_mult_matrices())
    action[2] = Matrix(F2, [[0, 0, 1], [0, 0, 0], [0, 0, 1]])
    assert 2 not in a.generators()
    assert not _reference_is_representation(a, action)
    with pytest.raises(ValidationError, match=r"structure constants at \(1,1\)"):
        RightModule(a, action)


def test_zero_action_is_refused_by_the_unit_law():
    a = upper_triangular_algebra(2, F2)
    with pytest.raises(ValidationError, match="unit must act as the identity"):
        RightModule(a, [Matrix.zero(F2, 2, 2)] * a.dim)


def test_hom_and_module_maps_agree_with_every_action(algebra_corpus):
    rng = random.Random(19)
    maps = non_maps = 0
    for name, a in algebra_corpus:
        if a.dim > ZOO_MAX_DIM[a.field.p]:
            continue
        f = a.field
        mods = [m for _n, m in standard_modules(a, include_envelopes=False)
                if 0 < m.dim <= 4]
        for m, n in itertools.product(mods[:4], repeat=2):
            homs = hom_basis(m, n)
            assert homs == _reference_hom_basis(m, n), name
            candidates = list(homs) + [Matrix(f, [[rng.randrange(f.p)
                                                    for _ in range(n.dim)]
                                                   for _ in range(m.dim)], n.dim)
                                       for _ in range(2)]
            if homs:
                x = homs[0].rows
                candidates.append(Matrix(f, [[f.add(x[0][0], f.one)] + list(x[0][1:])]
                                         + [list(r) for r in x[1:]], n.dim))
            for x in candidates:
                fm = ModuleMap(m, n, x)
                want = _reference_is_module_map(fm)
                assert fm.is_module_map() == want, name
                maps += want
                non_maps += not want
    assert maps > 100 and non_maps > 100


def test_hom_over_q_agrees_with_every_action():
    for a in (matrix_algebra(2, QQ), upper_triangular_algebra(3, QQ)):
        reg = RightModule.regular(a)
        top = reg.quotient(reg.radical_space())[0]
        for m, n in itertools.product((reg, top), repeat=2):
            assert hom_basis(m, n) == _reference_hom_basis(m, n)


# -- the oracle does not read the generating set ------------------------------------

def test_oracle_is_independent_of_the_generating_set(monkeypatch):
    """With any one generator dropped, the oracle's lattices stay the same
    and the fast-vs-brute comparison fails."""
    a = upper_triangular_algebra(3, F2)
    reg = RightModule.regular(a)
    gens = a.generators()
    submodules = enumerate_submodules(reg)
    ideals = enumerate_two_sided_ideals(a)
    _assert_fast_submodule_checks_match_brute(reg)
    for g in gens:
        monkeypatch.setattr(a.structure, "generators",
                            tuple(x for x in gens if x != g))
        assert enumerate_submodules(reg) == submodules
        assert enumerate_two_sided_ideals(a) == ideals
        with pytest.raises(AssertionError):
            _assert_fast_submodule_checks_match_brute(reg)
        monkeypatch.undo()
    assert a.generators() == gens
