"""Right modules: socle, composition series, homs, envelopes, predicates."""

import random

import pytest

from ringspectra.algebras import (FiniteDimAlgebra, companion_algebra,
                                  cyclic_group_algebra, matrix_algebra,
                                  product_algebra, upper_triangular_algebra,
                                  wedderburn_blocks)
from ringspectra.errors import BudgetExceeded, CapabilityError, ValidationError
from ringspectra.ideals import minimal_primes
from ringspectra.linalg import (F2, F3, GF, QQ, Matrix, Subspace, spin, vec_add,
                               vec_scale)
from ringspectra.modules import (ModuleMap, RightModule,
                                 _minimal_right_ideal_space,
                                 composition_factors, hom_basis,
                                 injective_envelope, is_compressible,
                                 is_monoform, is_prime_object,
                                 is_simple_module, module_length,
                                 primitive_idempotents, projective_cover,
                                 simple_modules)
from ringspectra.oracle import (brute_composition_factors,
                                brute_is_compressible, brute_is_monoform,
                                brute_is_prime_object, enumerate_submodules,
                                standard_modules)
from helpers import (inverse, reference_radical_space, reference_socle_space,
                     s3_group_algebra, tensor_algebra)
from test_algebras import _random_change_of_basis


def test_module_validation_catches_bad_action():
    a = upper_triangular_algebra(2, F2)
    bad = [Matrix.identity(F2, 1)] * a.dim
    with pytest.raises(ValidationError):
        RightModule(a, bad)


def test_dual_module_is_valid_over_opposite():
    a = upper_triangular_algebra(2, F3)
    reg = RightModule.regular(a)
    # Validation on construction: the transposed action satisfies the
    # opposite structure constants.
    RightModule(a.opposite(), [m.transpose() for m in reg.action],
                validate=True)


def test_submodule_of_regular_t2():
    a = upper_triangular_algebra(2, F2)
    reg = RightModule.regular(a)
    e12 = a.basis_coords(a.labels.index("e12"))
    sub, incl = reg.submodule([e12])
    assert sub.dim == 1
    assert incl.is_injective() and incl.is_module_map()
    full, _ = reg.submodule([a.basis_coords(i) for i in range(a.dim)])
    assert full.dim == reg.dim
    zero, _ = reg.submodule([])
    assert zero.dim == 0


def test_socle_examples():
    a3 = companion_algebra(F2, [0, 0, 0, 1])       # F2[x]/(x^3)
    reg = RightModule.regular(a3)
    soc = reg.socle_space()
    assert soc.dim == 1
    assert soc.basis_rows()[0] == (0, 0, 1)        # (x^2)
    t2 = upper_triangular_algebra(2, F2)
    s = simple_modules(t2)[0].module
    assert s.socle_space().dim == s.dim            # simple: soc = itself
    ss = s.direct_sum(s)
    assert ss.socle_space().dim == ss.dim          # semisimple


def test_composition_factors_t2():
    t2 = upper_triangular_algebra(2, F2)
    reg = RightModule.regular(t2)
    factors = composition_factors(reg)
    assert sorted(factors.values()) == [1, 2]
    assert module_length(reg) == 3
    assert composition_factors(RightModule.zero(t2)) == {}
    s = simple_modules(t2)[0]
    assert composition_factors(s.module) == {s.label: 1}


def _f_p_corpus_in_two_bases(algebra_corpus):
    """Every F_p corpus algebra, in its natural and a seeded random basis."""
    import random
    from test_algebras import _in_random_basis
    rng = random.Random(16)
    for name, a in algebra_corpus:
        if a.field.is_finite():
            yield name, a
            yield f"{name}~", _in_random_basis(a, rng)


def test_composition_factors_match_a_brute_maximal_chain(algebra_corpus):
    from ringspectra.oracle import Budget
    # 20,000 subspaces leaves out only the dimension-6 modules over F_3,
    # which would double the test's time.
    budget = Budget(max_count=20000)
    compared = 0
    for name, a in _f_p_corpus_in_two_bases(algebra_corpus):
        for mname, m in standard_modules(a):
            try:
                brute = brute_composition_factors(m, budget)
            except BudgetExceeded:
                continue
            assert composition_factors(m) == brute, (name, mname)
            compared += 1
    assert compared > 700


def _rational_algebras():
    return [matrix_algebra(2, QQ), matrix_algebra(3, QQ),
            upper_triangular_algebra(3, QQ), cyclic_group_algebra(QQ, 3),
            cyclic_group_algebra(QQ, 4), companion_algebra(QQ, [0, 0, 1])]


def test_simple_u_is_moved_by_e_t_only_when_u_is_t(algebra_corpus):
    """S_u e_t != 0 iff u = t, and each e_t is an idempotent of the algebra."""
    algebras = [a for _n, a in algebra_corpus] + _rational_algebras()
    for a in algebras:
        simples = simple_modules(a)
        for t in simples:
            assert a.mul(t.idempotent, t.idempotent) == t.idempotent, a.name
            for u in simples:
                moved = not u.module.act_matrix(t.idempotent).is_zero()
                assert moved == (u is t), (a.name, u.label, t.label)


def test_primitive_idempotents_are_the_simples_idempotents(algebra_corpus):
    for name, a in algebra_corpus:
        assert [p.idempotent for p in primitive_idempotents(a)] == \
            [s.idempotent for s in simple_modules(a)], name


def test_zero_idempotent_is_refused(monkeypatch):
    a = upper_triangular_algebra(2, F3)
    s = simple_modules(a)[0]
    monkeypatch.setattr(s, "idempotent", (F3.zero,) * a.dim)
    with pytest.raises(ValidationError, match="do not add up"):
        composition_factors(RightModule.regular(a))


def test_module_questions_fill_no_algebra_cache():
    """After the set-up a benchmark round starts from (the primes and the
    module zoo), composition factors, MAss and monoformity leave what is
    cached on the algebra and on its opposite as it was.  The algebras are
    built afresh: the session corpus carries what earlier tests cached."""
    from ringspectra.oracle import corpus
    from ringspectra.spectra import ArtinianBackend

    def cached(alg):
        return {k: id(v) for k, v in vars(alg.structure).items()}

    for name, a in corpus():
        if a.dim > 4:
            continue
        b = ArtinianBackend(a)
        b.primes()
        zoo = standard_modules(a)
        before = cached(a), cached(a.opposite())
        for mname, m in zoo:
            composition_factors(m)
            b.mass(m)
            if m.dim:
                is_monoform(m)
        assert (cached(a), cached(a.opposite())) == before, name


def test_simple_modules_counts():
    t2 = upper_triangular_algebra(2, F2)
    assert [s.dim for s in simple_modules(t2)] == [1, 1]
    m2 = simple_modules(matrix_algebra(2, F3))
    assert len(m2) == 1 and m2[0].dim == 2          # column space
    f = companion_algebra(F3, [1, 1])
    assert len(simple_modules(f)) == 1


def test_simple_modules_pairwise_non_isomorphic(algebra_corpus):
    """Simples are isomorphic iff Hom between them is nonzero (Schur)."""
    for name, a in algebra_corpus:
        simples = [s for s in simple_modules(a) if s.module is not None]
        for i, s1 in enumerate(simples):
            assert is_simple_module(s1.module), name
            for s2 in simples[i + 1:]:
                assert not hom_basis(s1.module, s2.module), name


def test_hom_schur():
    t2 = upper_triangular_algebra(2, F2)
    s1, s2 = (s.module for s in simple_modules(t2))
    assert len(hom_basis(s1, s1)) == 1
    assert len(hom_basis(s1, s2)) == 0
    m2 = matrix_algebra(2, F3)
    s = simple_modules(m2)[0].module
    assert len(hom_basis(s, s)) == 1


def test_iso_under_permutation():
    a = companion_algebra(F2, [0, 0, 1])
    reg = RightModule.regular(a)
    # The same module with the basis swapped.
    p = Matrix(F2, [[0, 1], [1, 0]])
    conj = [p * m * inverse(p) for m in reg.action]
    other = RightModule(a, conj)
    # rho(b) p^-1 = p^-1 (p rho(b) p^-1): p^-1 intertwines, and is invertible.
    iso = ModuleMap(reg, other, inverse(p))
    assert iso.is_module_map() and iso.is_injective() and iso.is_surjective()
    assert simple_modules(a)[0].module.dim != reg.dim


def test_projective_cover_of_simple_is_principal():
    t2 = upper_triangular_algebra(2, F2)
    for s in simple_modules(t2):
        p, cover = projective_cover(s.module)
        assert cover.is_surjective()
        top = p.quotient(p.radical_space())[0]
        assert composition_factors(top) == {s.label: 1}


def test_injective_envelope_self_injective():
    a = companion_algebra(F2, [0, 0, 1])           # F2[x]/(x^2), self-injective
    s = simple_modules(a)[0].module
    e, emb = injective_envelope(s)
    assert e.dim == 2
    assert emb.is_injective() and emb.is_module_map()
    # A -> E, x -> g x for a g outside rad E: invertible, so E is A_A.
    reg = RightModule.regular(a)
    g = next(v for v in Subspace.full(F2, e.dim).basis_rows()
             if not e.radical_space().contains_vector(v))
    iso = ModuleMap(reg, e, Matrix(F2, [e.act(g, a.basis_coords(i))
                                        for i in range(a.dim)]))
    assert iso.is_module_map() and iso.is_injective() and iso.is_surjective()
    e2, _ = injective_envelope(e)
    assert e2.dim == e.dim                          # idempotent up to iso


def test_injective_envelope_t2():
    t2 = upper_triangular_algebra(2, F2)
    simples = simple_modules(t2)
    dims = {}
    for s in simples:
        e, emb = injective_envelope(s.module)
        soc = e.submodule(e.socle_space())[0]
        assert composition_factors(soc) == {s.label: 1}
        dims[s.label] = e.dim
    assert sorted(dims.values()) == [1, 2]
    big_label = [k for k, v in dims.items() if v == 2][0]
    e, _ = injective_envelope(
        [s for s in simples if s.label == big_label][0].module)
    top = e.quotient(e.radical_space())[0]
    assert list(composition_factors(top)) != [big_label]   # top is the other


def test_envelope_embedding_is_essential(corpus_by_name):
    for name in ["t2_f2", "trunc3_f2", "quiver.cycle.J2_f2", "m2_f2"]:
        a = corpus_by_name[name]
        for s in simple_modules(a):
            e, emb = injective_envelope(s.module)
            img = emb.image_space()
            assert img.contains(e.socle_space()), name


def _extends_to(big, l_space, f_mat, e_mod):
    """Does the map on the submodule at l_space extend to all of big?

    Extension exists iff the flattened restriction of f lies in the image
    of the restriction map Hom(big, E) -> Hom(L, E).
    """
    from ringspectra.linalg import apply_vec
    field = big.algebra.field
    homs = hom_basis(big, e_mod)
    want = tuple(x for row in f_mat.rows for x in row)
    if not homs:
        return all(x == field.zero for x in want)
    cond = Matrix(field,
                  [[x for v in l_space.basis_rows()
                    for x in apply_vec(v, h)] for h in homs],
                  l_space.dim * e_mod.dim)
    return cond.solve_left(want) is not None


def test_envelope_is_injective_object_spot_check(corpus_by_name):
    """Maps L -> E(S) from submodules L of N extend to N (over F2)."""
    for name in ["t2_f2", "trunc3_f2"]:
        a = corpus_by_name[name]
        for s in simple_modules(a):
            e_mod, _ = injective_envelope(s.module)
            n = RightModule.regular(a)
            for l_space in enumerate_submodules(n):
                if l_space.dim == 0:
                    continue
                sub, _incl = n.submodule(l_space)
                for f in hom_basis(sub, e_mod):
                    assert _extends_to(n, l_space, f, e_mod), name


def test_monoform_examples():
    t2 = upper_triangular_algebra(2, F2)
    s = simple_modules(t2)[0].module
    assert is_monoform(s)                          # simple
    assert not is_monoform(s.direct_sum(s))        # not uniform
    # Uniserial with equal socle and top: the socle embeds into H/soc,
    # which is exactly the forbidden common subobject.
    a = companion_algebra(F2, [0, 0, 1])
    assert not is_monoform(RightModule.regular(a))
    assert not brute_is_monoform(RightModule.regular(a))
    # Uniserial with distinct socle and top is monoform.
    uniserial = injective_envelope(s)[0]
    assert uniserial.dim == 2
    assert is_monoform(uniserial)
    assert brute_is_monoform(uniserial)
    with pytest.raises(ValidationError):
        is_monoform(RightModule.zero(t2))


def _envelopes_and_projectives(a):
    return ([injective_envelope(s.module)[0] for s in simple_modules(a)]
            + [p.projective for p in primitive_idempotents(a)])


def test_monoform_over_q():
    """Split blocks over Q are answered from the multiplicities; a block
    whose simple is not realized still refuses."""
    # Q[x]/(x^3), uniserial with every factor Q: Q embeds into m/soc.
    q3 = companion_algebra(QQ, [0, 0, 0, 1])
    assert not is_monoform(RightModule.regular(q3))
    # Uniserial with pairwise distinct factors.
    t4 = upper_triangular_algebra(4, QQ)
    ms = _envelopes_and_projectives(t4)
    assert len(ms) == 8 and all(is_monoform(m) for m in ms)
    assert not is_monoform(RightModule.regular(t4))     # socle S1^4
    with pytest.raises(CapabilityError, match="S1 is not"):
        is_monoform(RightModule.regular(_rational_quaternions()))


def test_monoform_past_the_oracle_budget():
    """E(S1) and P9 of T_9(F_2) have dimension 9, past the oracle's
    enumeration budget; as uniserials with distinct factors they are
    monoform."""
    ms = _envelopes_and_projectives(upper_triangular_algebra(9, F2))
    for m in (ms[0], ms[-1]):                       # E(S1) and P9
        assert m.dim == 9
        with pytest.raises(BudgetExceeded):
            brute_is_monoform(m)
        assert is_monoform(m)


def test_compressible_examples():
    t2 = upper_triangular_algebra(2, F2)
    s = simple_modules(t2)[0].module
    assert is_compressible(s)
    a = companion_algebra(F2, [0, 0, 1])
    assert not is_compressible(RightModule.regular(a))   # length 2 uniserial
    with pytest.raises(ValidationError):
        is_compressible(RightModule.zero(t2))


def test_prime_object_examples():
    t2 = upper_triangular_algebra(2, F2)
    assert is_prime_object(simple_modules(t2)[0].module)
    a = companion_algebra(F2, [0, 0, 1])
    assert not is_prime_object(RightModule.regular(a))
    m2 = matrix_algebra(2, F3)
    assert is_prime_object(simple_modules(m2)[0].module)  # faithful column


def test_predicates_agree_with_oracle(small_f2_corpus):
    for name, a in small_f2_corpus:
        for mname, m in standard_modules(a):
            if m.dim == 0 or m.dim > 4:
                continue
            assert is_monoform(m) == brute_is_monoform(m), (name, mname)
            assert is_compressible(m) == brute_is_compressible(m), (name, mname)
            assert is_prime_object(m) == brute_is_prime_object(m), (name, mname)
            assert is_compressible(m) == is_simple_module(m), (name, mname)


def test_every_nonzero_module_has_monoform_and_prime_submodule(small_f2_corpus):
    """A minimal nonzero submodule is simple, so monoform and prime."""
    for name, a in small_f2_corpus:
        for mname, m in standard_modules(a, include_envelopes=False):
            if m.dim == 0 or m.dim > 4:
                continue
            space = min((s for s in enumerate_submodules(m) if s.dim),
                        key=lambda s: s.dim)
            h, _ = m.submodule(space)
            assert brute_is_monoform(h), (name, mname)
            assert brute_is_prime_object(h), (name, mname)


def test_simple_realization_over_q():
    m2 = matrix_algebra(2, QQ)
    simples = simple_modules(m2)
    assert len(simples) == 1 and simples[0].dim == 2
    from ringspectra.algebras import cyclic_group_algebra
    c3 = cyclic_group_algebra(QQ, 3)
    dims = sorted(s.dim for s in simple_modules(c3))
    assert dims == [1, 2]                          # Q and Q(omega)


def test_action_mutation_fuzz_rejected():
    """Flipping one action entry breaks the structure-constant identity."""
    import random
    rng = random.Random(13)
    a = upper_triangular_algebra(2, F2)
    reg = RightModule.regular(a)
    rejected = 0
    for _ in range(25):
        i = rng.randrange(a.dim)
        r, c = rng.randrange(reg.dim), rng.randrange(reg.dim)
        rows = [list(row) for row in reg.action[i].rows]
        rows[r][c] = F2.sub(F2.one, rows[r][c])
        mats = list(reg.action)
        mats[i] = Matrix(F2, rows)
        try:
            RightModule(a, mats)
        except ValidationError:
            rejected += 1
    assert rejected >= 20


def test_hom_basis_elements_are_intertwiners(corpus_by_name):
    for name in ["t2_f2", "m2_f2", "quiver.cycle.J2_f2"]:
        a = corpus_by_name[name]
        reg = RightModule.regular(a)
        soc, _ = reg.submodule(reg.socle_space())
        for h in hom_basis(soc, reg):
            for ms, mt in zip(soc.action, reg.action):
                assert ms * h == h * mt, name


# -- one minimal right ideal per block -------------------------------------------

def _exhaustive_shrink(a, block):
    """The reference search: list every vector of the current right ideal
    of a, starting from block, then spin them in that order until one
    generates a smaller one."""
    reg = RightModule.regular(a)
    f = a.field
    space = block
    shrunk = True
    while shrunk:
        shrunk = False
        vectors = [(f.zero,) * a.dim]
        for row in space.basis_rows():
            vectors = [vec_add(f, v, vec_scale(f, c, row))
                       for v in vectors for c in f.elements()]
        for v in vectors:
            if any(v):
                gen = reg.spin_submodule([v])
                if gen.dim < space.dim:
                    space, shrunk = gen, True
                    break
    return space


def _tensor_quadratic_field(n, field):
    """M_n(k) (x) K for the quadratic field K = F_4 over F_2, Q(i) over Q:
    one block, split, of dimension 2 n^2, whose centre K has dimension 2."""
    poly = [1, 1, 1] if field == F2 else [1, 0, 1]
    return tensor_algebra(matrix_algebra(n, field), companion_algebra(field, poly),
                          name=f"M{n}({'F4' if field == F2 else 'Q(i)'})")


def _s3_group(_n, field):
    return s3_group_algebra(field)


def test_lazy_shrink_matches_the_exhaustive_shrink():
    """The search stops at the target dimension, and so finds the ideal
    the exhaustive walk on every vector finds, block by block."""
    import random
    from test_algebras import _in_random_basis
    inputs = [matrix_algebra(2, F2), matrix_algebra(2, F3), matrix_algebra(3, F2),
              product_algebra(matrix_algebra(2, F2), matrix_algebra(1, F2)),
              _in_random_basis(matrix_algebra(2, F3), random.Random(9)),
              matrix_algebra(2, GF(5)), s3_group_algebra(GF(5)),
              _tensor_quadratic_field(2, F2)]
    for a in inputs:
        for blk in wedderburn_blocks(a):
            assert _minimal_right_ideal_space(a, blk) == \
                _exhaustive_shrink(a, blk.space), a.name


@pytest.mark.parametrize("field", [F3, QQ])
def test_one_minimal_right_ideal_search_per_block(monkeypatch, field):
    """M_2(k) has one block, and so has its opposite: at most two searches,
    each on a different (algebra, block)."""
    from ringspectra import modules
    from ringspectra.spectra import ArtinianBackend, verify_correspondence
    calls = []
    search = modules._minimal_right_ideal_space

    def counted(quot, block):
        calls.append((quot.name, block.space))
        return search(quot, block)

    monkeypatch.setattr(modules, "_minimal_right_ideal_space", counted)
    report = verify_correspondence(ArtinianBackend(matrix_algebra(2, field)))
    assert report.passed()
    assert len(calls) <= 2 and len(set(calls)) == len(calls), calls


@pytest.mark.parametrize("build, field, end_dims", [
    (cyclic_group_algebra, F2, [1, 2]),     # F_2 x F_4
    (matrix_algebra, F3, [1]),
    (cyclic_group_algebra, QQ, [1, 2]),     # Q x Q(omega)
    (matrix_algebra, QQ, [1]),
    (matrix_algebra, GF(5), [1]),
    (_s3_group, GF(5), [1, 1, 1]),          # F_5 x F_5 x M_2(F_5)
    (_tensor_quadratic_field, F2, [2]),     # M_2(F_4) over F_2
    (_tensor_quadratic_field, QQ, [2]),     # M_2(Q(i))
])
def test_end_dim_is_the_dimension_of_end(build, field, end_dims):
    simples = simple_modules(build(field, 3) if build is cyclic_group_algebra
                             else build(2, field))
    assert sorted(s.end_dim for s in simples) == end_dims
    for s in simples:
        assert s.end_dim == len(hom_basis(s.module, s.module)), s.label


def _rational_quaternions():
    """(-1, -1)_Q on 1, i, j, k: a division algebra, so no proper right ideal."""
    table = {(1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
             (1, 2): (1, 3), (2, 1): (-1, 3), (2, 3): (1, 1),
             (3, 2): (-1, 1), (3, 1): (1, 2), (1, 3): (-1, 2)}
    sc = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        sc[0][i][i] = sc[i][0][i] = 1
    for (i, j), (c, k) in table.items():
        sc[i][j][k] = c
    return FiniteDimAlgebra(QQ, sc, labels=["1", "i", "j", "k"], name="H(Q)")


def test_unresolved_block_over_q_is_searched_once_and_refused(monkeypatch):
    from ringspectra import modules
    calls = []
    search = modules._minimal_right_ideal_space

    def counted(quot, block):
        calls.append((quot.name, block.space))
        return search(quot, block)

    monkeypatch.setattr(modules, "_minimal_right_ideal_space", counted)
    h = _rational_quaternions()
    [s] = simple_modules(h)
    assert (s.module, s.end_dim, s.dim) == (None, None, None)
    with pytest.raises(CapabilityError, match="division part unresolved"):
        s.require_module()
    with pytest.raises(CapabilityError, match=r"block 0: no primitive idempotent"):
        primitive_idempotents(h)
    assert calls == [("H(Q)", Subspace.full(QQ, 4))]


def test_modules_act_through_the_generators_of_j_and_of_each_prime(algebra_corpus):
    """Every corpus algebra, in its natural basis and in a seeded random
    one: each prime's generators spin under right multiplication to the
    prime, and kill what the prime kills in every standard module; the
    socle and the radical of each module equal their forms through every
    basis row of J."""
    rng = random.Random(36)
    for name, a in algebra_corpus:
        for b in (a, _random_change_of_basis(a, rng)[0]):
            primes = minimal_primes(b)
            for w in primes:
                assert spin(b.field, b.dim, w.generators.basis_rows(),
                            b.right_mult_matrices()) == w.ideal.space, name
            for label, m in standard_modules(b):
                assert m.socle_space() == reference_socle_space(m), (name, label)
                assert m.radical_space() == reference_radical_space(m), (name, label)
                for w in primes:
                    assert m.killed_by(w.generators) == \
                        m.killed_by(w.ideal.space), (name, label, w.label)
