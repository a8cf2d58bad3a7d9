"""Algebra construction, validation, radicals, Wedderburn blocks."""

import itertools
import random
from fractions import Fraction

import pytest

from ringspectra import algebras
from ringspectra.algebras import (BoundQuiver, FiniteDimAlgebra,
                                  bound_quiver_algebra, companion_algebra,
                                  cyclic_group_algebra, jacobson_radical,
                                  matrix_algebra, nilpotent_generators,
                                  product_algebra, quotient_algebra,
                                  radical_generators, semisimple_quotient,
                                  subspace_product, upper_triangular_algebra,
                                  wedderburn_blocks)
from ringspectra.errors import BudgetExceeded, ValidationError
from ringspectra.linalg import (F2, F3, GF, QQ, Matrix, Subspace, apply_vec,
                               spin, unit_vec, vec_scale, zero_vec)
from ringspectra.oracle import (_quiver_truncations, brute_largest_nilpotent_ideal,
                               enumerate_two_sided_ideals)
from helpers import inverse, is_invertible, reference_is_nilpotent, trace


def _is_algebra_hom(a, b, matrix):
    """The linear map a -> b with this matrix on row vectors preserves
    products of basis elements and the unit."""
    basis = [a.basis_coords(i) for i in range(a.dim)]

    def m(x):
        return apply_vec(x, matrix)
    return all(m(a.mul(u, v)) == b.mul(m(u), m(v))
               for u in basis for v in basis) and m(a.unit) == b.unit


def test_quiver_a2_dim_three():
    a = bound_quiver_algebra(F2, BoundQuiver(2, (("a", 0, 1),), (), 4))
    assert a.dim == 3
    assert set(a.labels) == {"e1", "e2", "a"}


def test_matrix_algebra_f3():
    a = matrix_algebra(2, F3)
    assert a.dim == 4
    assert a.labels == ("e11", "e12", "e21", "e22")
    # e12 * e21 = e11, e21 * e12 = e22
    e12, e21 = a.basis_coords(1), a.basis_coords(2)
    assert a.mul(e12, e21) == a.basis_coords(0)
    assert a.mul(e21, e12) == a.basis_coords(3)


@pytest.mark.parametrize("field", [F2, F3, QQ])
def test_matrix_unit_algebras_in_full(field):
    """Every constant, the unit, the labels and the names of M_n and T_n."""
    for n in range(1, 4):
        full = [(r, c) for r in range(n) for c in range(n)]
        for build, pairs, name in [
                (matrix_algebra, full, f"M{n}"),
                (upper_triangular_algebra, [(r, c) for r, c in full if r <= c], f"T{n}")]:
            a = build(n, field)
            sc = a.sc
            assert a.name == f"{name}({'Q' if field is QQ else f'F{field.p}'})"
            assert build(n, field, name="X").name == "X"
            assert a.labels == tuple(f"e{r + 1}{c + 1}" for r, c in pairs)
            assert a.unit == tuple(field.one if r == c else field.zero
                                   for r, c in pairs)
            for i, (r1, c1) in enumerate(pairs):
                for j, (r2, c2) in enumerate(pairs):
                    want = a.basis_coords(pairs.index((r1, c2))) if c1 == r2 \
                        else zero_vec(a.field, a.dim)
                    assert sc[i][j] == want, (a.name, i, j)


def test_cycle_quiver_with_zero_relations():
    q = BoundQuiver(2, (("a", 0, 1), ("b", 1, 0)),
                    (((1, (0, 1)),), ((1, (1, 0)),)), 4)
    a = bound_quiver_algebra(F2, q)
    assert a.dim == 4
    ia, ib = a.labels.index("a"), a.labels.index("b")
    zero = zero_vec(a.field, a.dim)
    assert a.mul(a.basis_coords(ia), a.basis_coords(ib)) == zero
    assert a.mul(a.basis_coords(ib), a.basis_coords(ia)) == zero


def test_infinite_quiver_rejected():
    q = BoundQuiver(1, (("x", 0, 0),), (), nilpotency_bound=5)
    with pytest.raises(ValidationError):
        bound_quiver_algebra(F2, q)


def test_inhomogeneous_relation_rejected():
    # x^2 - x^3 mixes lengths: the truncation test would lie on it.
    q = BoundQuiver(1, (("x", 0, 0),), (((1, (0, 0)), (-1, (0, 0, 0))),), 6)
    with pytest.raises(ValidationError):
        bound_quiver_algebra(QQ, q)


# -- bound quivers against the horizon construction ---------------------------

def _horizon_paths(q, max_len):
    """All paths of length <= max_len as (source, target, arrows)."""
    paths = [(v, v, ()) for v in range(q.vertices)]
    frontier = list(paths)
    for _ in range(max_len):
        frontier = [(s, a_t, arr + (ai,)) for s, t, arr in frontier
                    for ai, (_l, a_s, a_t) in enumerate(q.arrows) if a_s == t]
        paths.extend(frontier)
        algebras.check_size("bound quiver paths", len(paths))
        if not frontier:
            break
    return paths


def _horizon_quotient(field, q, horizon):
    """Basis paths of kQ/(relations + paths of length >= horizon), with the
    paths below the horizon, their index and the truncated ideal."""
    paths = _horizon_paths(q, horizon - 1)
    index = {(s, arr): i for i, (s, _t, arr) in enumerate(paths)}
    rows = []
    for rel in q.relations:
        mid_len = len(rel[0][1])
        src, tgt = q.arrows[rel[0][1][0]][1], q.arrows[rel[0][1][-1]][2]
        for ls, lt, lp in paths:
            for rs, _rt, rp in paths:
                if lt != src or rs != tgt \
                        or len(lp) + mid_len + len(rp) >= horizon:
                    continue
                row = [field.zero] * len(paths)
                for coeff, mid in rel:
                    k = index[(ls, lp + mid + rp)]
                    row[k] = field.add(row[k], field.scalar(coeff))
                rows.append(row)
    ideal = Subspace.from_vectors(field, len(paths), rows)
    return [paths[j] for j in ideal.complement_coords()], paths, index, ideal


def _horizon_reference(field, q):
    """bound_quiver_algebra as it stood before it went one length at a
    time: every horizon h = 1, 2, ... rebuilds all paths below h and the
    whole truncated ideal, until the dimension stops growing, and then the
    last horizon is built once more."""
    for rel in q.relations:
        if not rel:
            raise ValidationError("empty relation")
        lens = {len(p) for _c, p in rel}
        if len(lens) != 1 or min(lens) < 2:
            raise ValidationError(
                "relations must be length-homogeneous of length >= 2")
        if any(ai >= len(q.arrows) for _c, p in rel for ai in p):
            raise ValidationError("relation uses unknown arrow")
        if len({(q.arrows[p[0]][1], q.arrows[p[-1]][2]) for _c, p in rel}) != 1:
            raise ValidationError("relation mixes source/target pairs")
    prev = None
    for horizon in range(1, q.nilpotency_bound + 2):
        basis = _horizon_quotient(field, q, horizon)[0]
        if prev is not None and len(basis) == len(prev):
            break
        prev = basis
    else:
        raise ValidationError(
            f"arrow ideal not nilpotent within bound {q.nilpotency_bound}: "
            "quotient not witnessed finite-dimensional")
    basis, paths, index, ideal = _horizon_quotient(field, q, horizon)
    comp = ideal.complement_coords()
    rows = []
    for s1, t1, p1 in basis:
        plane = []
        for s2, _t2, p2 in basis:
            if t1 != s2 or len(p1 + p2) >= horizon:
                plane.append(())
                continue
            red = ideal.reduce(unit_vec(field, len(paths), index[(s1, p1 + p2)]))
            plane.append(tuple((i, red[j]) for i, j in enumerate(comp) if red[j]))
        rows.append(tuple(plane))
    unit = tuple(field.zero if arr else field.one for _s, _t, arr in basis)
    labels = tuple(".".join(q.arrows[ai][0] for ai in arr) if arr else f"e{s + 1}"
                   for s, _t, arr in basis)
    return tuple(rows), unit, labels


def _random_bound_quiver(rng):
    """At most 3 vertices and 4 arrows; up to 8 relations of length 2 or 3,
    each 1 to 3 terms on paths with one source and one target; bound 2..7."""
    v = rng.randint(1, 3)
    arrows = tuple((f"a{i}", rng.randrange(v), rng.randrange(v))
                   for i in range(rng.randint(0, 4)))

    def paths(length):
        out = [(ai,) for ai in range(len(arrows))]
        for _ in range(length - 1):
            out = [p + (ai,) for p in out for ai in range(len(arrows))
                   if arrows[p[-1]][2] == arrows[ai][1]]
        return out

    rels = []
    for _ in range(rng.randint(0, 8)):
        candidates = paths(rng.randint(2, 3))
        if not candidates:
            continue
        first = rng.choice(candidates)
        ends = (arrows[first[0]][1], arrows[first[-1]][2])
        alike = [p for p in candidates
                 if (arrows[p[0]][1], arrows[p[-1]][2]) == ends]
        rels.append(tuple((rng.choice([1, -1, 2]), rng.choice(alike))
                          for _ in range(rng.randint(1, 3))))
    return BoundQuiver(v, arrows, tuple(rels), rng.randint(2, 7))


def _built_or_refused(build, field, q):
    try:
        return build(field, q)
    except (ValidationError, BudgetExceeded) as exc:
        return type(exc).__name__, str(exc)


def _one_length_at_a_time(field, q):
    a = bound_quiver_algebra(field, q)
    return tuple(map(tuple, a.rows)), a.unit, a.labels


def test_bound_quivers_match_the_horizon_construction():
    """The rows, unit and labels, or the refusal, of every corpus quiver
    shape and of seeded random homogeneous quivers, over F_2, F_3 and Q."""
    rng = random.Random(22)
    quivers = [q for _name, q in _quiver_truncations()] \
        + [_random_bound_quiver(rng) for _ in range(60)]
    outcomes = set()
    for q in quivers:
        for field in (F2, F3, QQ):
            want = _built_or_refused(_horizon_reference, field, q)
            assert _built_or_refused(_one_length_at_a_time, field, q) == want, q
            outcomes.add(want[0] if isinstance(want[0], str) else "built")
    assert outcomes == {"built", "ValidationError", "BudgetExceeded"}


def test_nineteen_loops_with_every_product_zero():
    """381 paths through length two, all of length two in the ideal."""
    loops = tuple((f"x{i}", 0, 0) for i in range(19))
    rels = tuple(((1, (i, j)),) for i in range(19) for j in range(19))
    for field in (F2, QQ):
        a = bound_quiver_algebra(field, BoundQuiver(1, loops, rels))
        assert a.dim == 20 and a.labels[1:] == tuple(l for l, _s, _t in loops)
        zero = zero_vec(field, a.dim)
        assert all(a.mul(a.basis_coords(i), a.basis_coords(j)) == zero
                   for i in range(1, 20) for j in range(1, 20))


@pytest.mark.parametrize("arrows, relation, message", [
    ((("a", 0, 1),), None, "arrow a ends outside the 1 vertices"),
    ((("a", -1, 0),), None, "arrow a ends outside the 1 vertices"),
    ((("a", 0, 1), ("b", 0, 1)), ((1, (0, 1)),),
     "relation path a.b does not compose"),
    ((("a", 0, 0),), ((1, (0, 1)),), "relation uses unknown arrow"),
])
def test_quiver_arrows_and_relations_are_checked(arrows, relation, message):
    vertices = 1 if relation is None else 2
    q = BoundQuiver(vertices, arrows, (relation,) if relation else ())
    with pytest.raises(ValidationError, match=message):
        bound_quiver_algebra(F2, q)


def test_validation_rejects_mutations():
    """Every one-entry mutation of T2's table breaks some axiom."""
    base = upper_triangular_algebra(2, F2)
    rng = random.Random(5)
    rejected = 0
    for _ in range(30):
        i, j, k = (rng.randrange(3) for _ in range(3))
        sc = [[[x for x in row] for row in plane] for plane in base.sc]
        sc[i][j][k] = base.field.sub(base.field.one, sc[i][j][k])
        try:
            FiniteDimAlgebra(F2, sc, unit=None, labels=base.labels)
            # A mutation may still be associative with a different unit;
            # it must at least differ from the original.
            assert sc != [[list(r) for r in p] for p in base.sc]
        except ValidationError:
            rejected += 1
    assert rejected >= 20


def test_validation_catches_a_product_that_only_one_side_reaches():
    """(a a) b = 0 but a (a b) = b: only the right-hand side is nonzero."""
    e, a, b = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    zero = (0, 0, 0)
    sc = [[e, a, b], [a, zero, b], [b, zero, zero]]
    with pytest.raises(ValidationError, match=r"associativity fails at basis triple \(1,1,2\)"):
        FiniteDimAlgebra(F2, sc, unit=e)


def test_unit_is_solved_when_missing():
    a = cyclic_group_algebra(F3, 2)
    assert a.unit == (1, 0)


def test_opposite_is_involution(corpus_by_name):
    for name in ["t2_f2", "m2_f3", "quiver.cycle.J2_f2"]:
        a = corpus_by_name[name]
        assert a.opposite().opposite().structurally_equal(a)


def test_opposite_commutative_fixed():
    a = companion_algebra(F2, [0, 0, 1])
    assert a.opposite().structurally_equal(a)


def test_opposite_transposes_triangular():
    t2 = upper_triangular_algebra(2, F2)
    op = t2.opposite()
    i12 = t2.labels.index("e12")
    i11, i22 = t2.labels.index("e11"), t2.labels.index("e22")
    # In the opposite, e11 * e12 = e12 * e11 (original) = 0.
    assert op.mul(op.basis_coords(i11), op.basis_coords(i12)) == \
        zero_vec(op.field, op.dim)
    assert op.mul(op.basis_coords(i12), op.basis_coords(i11)) == \
        op.basis_coords(i12)


def test_quotient_by_radical_of_truncated_poly():
    a = companion_algebra(F2, [0, 0, 1])       # F2[x]/(x^2)
    rad = jacobson_radical(a)
    quot, proj, section = quotient_algebra(a, rad)
    assert quot.dim == 1
    assert _is_algebra_hom(a, quot, proj)
    # Brute-check the 1-dim multiplication: it is the field.
    assert quot.mul(quot.unit, quot.unit) == quot.unit


def test_quotient_zero_ideal_is_identity():
    a = upper_triangular_algebra(2, F3)
    quot, proj, _ = quotient_algebra(a, Subspace.zero(F3, a.dim))
    assert quot.dim == a.dim
    assert quot.sc == a.sc


def test_quotient_by_whole_rejected():
    a = companion_algebra(F2, [0, 0, 1])
    with pytest.raises(ValidationError):
        quotient_algebra(a, Subspace.full(F2, a.dim))


def test_quotient_t2_by_strict_upper_is_product_of_fields():
    a = upper_triangular_algebra(2, F2)
    rad = jacobson_radical(a)
    quot, _, _ = quotient_algebra(a, rad)
    blocks = wedderburn_blocks(quot)
    assert [b.space.dim for b in blocks] == [1, 1]


def test_radical_examples():
    assert jacobson_radical(matrix_algebra(2, F3)).dim == 0
    t2 = upper_triangular_algebra(2, F2)
    j = jacobson_radical(t2)
    assert j.dim == 1
    assert j.basis_rows()[0] == (0, 1, 0)      # span{e12}
    tr4 = companion_algebra(F2, [0, 0, 0, 0, 1])
    assert jacobson_radical(tr4).dim == 3      # (x) inside F2[x]/(x^4)


def test_radical_matches_largest_nilpotent_ideal(small_f2_corpus):
    for name, a in small_f2_corpus:
        assert jacobson_radical(a) == brute_largest_nilpotent_ideal(a), name


def test_radical_quotient_semisimple(algebra_corpus):
    for name, a in algebra_corpus:
        rad = jacobson_radical(a)
        if rad.dim:
            quot, _, _ = quotient_algebra(a, rad)
            assert jacobson_radical(quot).dim == 0, name


def test_rational_radicals():
    assert jacobson_radical(matrix_algebra(2, QQ)).dim == 0
    assert jacobson_radical(companion_algebra(QQ, [0, 0, 1])).dim == 1
    assert jacobson_radical(cyclic_group_algebra(QQ, 3)).dim == 0


def test_wedderburn_product_of_fields():
    a = product_algebra(companion_algebra(F2, [1, 1]),
                        companion_algebra(F2, [1, 1]))
    blocks = wedderburn_blocks(a)
    assert [b.space.dim for b in blocks] == [1, 1]
    e1, e2 = blocks[0].idempotent, blocks[1].idempotent
    assert a.mul(e1, e2) == zero_vec(a.field, a.dim)
    assert tuple(a.field.add(x, y) for x, y in zip(e1, e2)) == a.unit


def test_wedderburn_simple_algebra_single_block():
    blocks = wedderburn_blocks(matrix_algebra(2, F3))
    assert len(blocks) == 1 and blocks[0].space.dim == 4


def test_wedderburn_f3_c2_characters():
    a = cyclic_group_algebra(F3, 2)
    blocks = wedderburn_blocks(a)
    assert sorted(b.space.dim for b in blocks) == [1, 1]
    # (1 + g)/2 = 2 + 2g and (1 - g)/2 = 2 + g over F3.
    idems = sorted(b.idempotent for b in blocks)
    assert idems == [(2, 1), (2, 2)]


def test_wedderburn_dims_sum_and_simplicity(algebra_corpus):
    from ringspectra.oracle import enumerate_two_sided_ideals
    for name, a in algebra_corpus:
        rad = jacobson_radical(a)
        quot = a if rad.dim == 0 else quotient_algebra(a, rad)[0]
        blocks = wedderburn_blocks(quot)
        assert sum(b.space.dim for b in blocks) == quot.dim, name
        if quot.field.p == 2 and quot.dim <= 4:
            ideals = enumerate_two_sided_ideals(quot)
            for b in blocks:
                # Oracle: a simple block holds exactly two two-sided ideals
                # of quot, zero and itself.
                inside = [i for i in ideals if b.space.contains(i)]
                assert len(inside) == 2, name


def test_group_algebra_f2_c3_splits_as_f2_times_f4():
    a = cyclic_group_algebra(F2, 3)
    blocks = wedderburn_blocks(a)
    assert sorted(b.space.dim for b in blocks) == [1, 2]


def test_subspace_product_matches_hand_computation():
    a = companion_algebra(F2, [0, 0, 0, 0, 1])   # F2[x]/(x^4)
    x_ideal = Subspace.from_vectors(F2, 4, [(0, 1, 0, 0), (0, 0, 1, 0),
                                            (0, 0, 0, 1)])
    sq = subspace_product(a, x_ideal, x_ideal)
    assert sq.dim == 2                           # (x^2) = span{x^2, x^3}


def test_minimal_polynomial_pieces_on_m2_q():
    """L_z on M_2(Q): e_11 has x(x - 1), whose kernels are the right
    ideals e_11 A and e_22 A; e_12 has x^2, whose one factor x has the
    right annihilator of e_12 as kernel; 1 has x - 1, whose piece is the
    space itself, taken as it is."""
    a = matrix_algebra(2, QQ)
    full = Subspace.full(QQ, 4)

    def span(*indices):
        return Subspace.from_vectors(QQ, 4, [a.basis_coords(i) for i in indices])

    def split(z):
        deg, factors, pieces = algebras.factor_minimal_polynomial(
            full, a.left_mult_matrix(z))
        return deg, [m for _fac, m in factors], list(pieces)

    assert split(a.basis_coords(0)) == (2, [1, 1], [span(0, 1), span(2, 3)])
    assert split(a.basis_coords(1)) == (2, [2], [span(0, 1)])
    deg, mults, [piece] = split(a.unit)
    assert (deg, mults) == (1, [1]) and piece is full


def _minimal_polynomial_by_solves(f, m):
    """Reference: the monic minimal polynomial of m, low to high, from one
    solve of power k against the powers below it, for k = 1, 2, ..."""
    n = m.nrows
    powers = [Matrix.identity(f, n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    flat = [tuple(x for row in p.rows for x in row) for p in powers]
    for deg in range(n + 1):
        sol = Matrix(f, flat[:deg], n * n).solve_left(flat[deg])
        if sol is not None:
            return tuple(f.neg(c) for c in sol) + (f.one,)
    raise AssertionError("no minimal polynomial within the dimension")


def _poly_of_matrix_by_products(f, poly, m):
    """Reference: poly(m), by its own round of matrix products."""
    acc = Matrix.zero(f, m.nrows, m.nrows)
    power = Matrix.identity(f, m.nrows)
    for c in poly:
        scaled = tuple(vec_scale(f, c, r) for r in power.rows)
        acc = acc + Matrix.trusted(f, scaled, power.ncols)
        power = power * m
    return acc


@pytest.mark.parametrize("extra", [False, True], ids=["corpus", "named"])
def test_minimal_polynomial_equals_the_solve_per_degree(algebra_corpus, extra):
    """On L_z and R_z for seeded random z, the one-kernel minimal polynomial
    and the kernel of each factor equal those from one solve per degree and
    a second round of products: on every corpus algebra, and on M_2(Q),
    T_3(Q), Q[C_6] and F_5[C_4]."""
    from ringspectra.commutative import factor_polynomial
    from ringspectra.errors import CapabilityError
    algs = ([matrix_algebra(2, QQ), upper_triangular_algebra(3, QQ),
             cyclic_group_algebra(QQ, 6), cyclic_group_algebra(GF(5), 4)]
            if extra else [a for _name, a in algebra_corpus])
    rng = random.Random(24)
    for a in algs:
        f = a.field
        full = Subspace.full(f, a.dim)
        for _ in range(3):
            z = tuple(f.scalar(rng.randint(-2, 2)) for _ in range(a.dim))
            for op in (a.left_mult_matrix(z), a.right_mult_matrix(z)):
                minpoly = _minimal_polynomial_by_solves(f, op)
                deg, factors, pieces = algebras.factor_minimal_polynomial(full, op)
                assert deg == len(minpoly) - 1, a.name
                try:
                    assert factors == factor_polynomial(f, minpoly), a.name
                except CapabilityError:
                    assert (factors, tuple(pieces)) == (None, ()), a.name
                    continue
                for (fac, _m), piece in zip(factors, pieces, strict=True):
                    kern = _poly_of_matrix_by_products(f, fac, op).left_kernel()
                    assert piece == Subspace.from_vectors(f, a.dim, kern.rows)


def test_rational_blocks_with_unfactorable_generator():
    """x has a rootless quartic minimal polynomial, but x^2 splits the
    center, so the two quadratic field blocks are still found."""
    a = companion_algebra(QQ, [6, 0, -5, 0, 1])  # (x^2-2)(x^2-3)
    blocks = wedderburn_blocks(a)
    assert sorted(b.space.dim for b in blocks) == [2, 2]
    for b in blocks:
        assert a.center().contains(b.space)


def test_rational_twisted_diagonal_center_splits():
    """Q(sqrt2) x Q(sqrt2): conjugate-diagonal elements have irreducible
    minimal polynomials, but no basis can avoid a splitting element."""
    k = companion_algebra(QQ, [-2, 0, 1])
    p = product_algebra(k, k)
    blocks = wedderburn_blocks(p)
    assert sorted(b.space.dim for b in blocks) == [2, 2]


def test_rational_group_algebra_c4():
    from ringspectra.algebras import cyclic_group_algebra
    c4 = cyclic_group_algebra(QQ, 4)
    assert sorted(b.space.dim for b in wedderburn_blocks(c4)) == [1, 1, 2]


def test_rational_c5_is_an_honest_capability_boundary():
    """The quartic cyclotomic factor is beyond desk factorization; the
    decomposition refuses rather than merging or inventing blocks."""
    from ringspectra.algebras import cyclic_group_algebra
    from ringspectra.errors import CapabilityError
    with pytest.raises(CapabilityError):
        wedderburn_blocks(cyclic_group_algebra(QQ, 5))


def _minimal_ideals(a):
    """Reference: the minimal nonzero two-sided ideals of a, read off the
    oracle's list of all of them."""
    nonzero = [s for s in enumerate_two_sided_ideals(a) if s.dim]
    return {s for s in nonzero
            if not any(t != s and s.contains(t) for t in nonzero)}


def test_fp_blocks_are_the_minimal_two_sided_ideals(algebra_corpus):
    """The blocks of a semisimple algebra are its minimal nonzero two-sided
    ideals: A/J of every corpus algebra, in its own basis and in a seeded
    random one, against the oracle's lattice."""
    rng = random.Random(40)
    for name, a in algebra_corpus:
        quot = semisimple_quotient(a)[0]
        for b in (quot, _in_random_basis(quot, rng)):
            spaces = [blk.space for blk in wedderburn_blocks(b)]
            assert len(spaces) == len(set(spaces)), name
            assert set(spaces) == _minimal_ideals(b), name


def test_fp_blocks_factor_no_polynomial(monkeypatch, corpus_by_name):
    """Over F_p the blocks are cut by Euler's criterion alone: with both
    factorizations made to raise, fresh copies of the corpus algebras give
    the same blocks, and F_5[C_4] and F_5[C_2], whose character values
    need shifted elements to be told apart, give their minimal ideals."""
    from ringspectra import commutative
    from ringspectra.oracle import corpus

    def refuse(*_args):
        raise AssertionError("a polynomial was factored")

    monkeypatch.setattr(algebras, "factor_minimal_polynomial", refuse)
    monkeypatch.setattr(commutative, "factor_polynomial", refuse)
    for name, a in corpus():
        quot = semisimple_quotient(a)[0]
        want = wedderburn_blocks(semisimple_quotient(corpus_by_name[name])[0])
        assert [(b.idempotent, b.space, b.center)
                for b in wedderburn_blocks(quot)] == \
            [(b.idempotent, b.space, b.center) for b in want], name
    for n in (4, 2):
        a = cyclic_group_algebra(GF(5), n)
        spaces = {blk.space for blk in wedderburn_blocks(a)}
        assert len(spaces) == n and spaces == _minimal_ideals(a)


def _split_field_power(field, r):
    """F_p^r on its r orthogonal idempotents."""
    return FiniteDimAlgebra(field, [[[int(i == j == k) for k in range(r)]
                                     for j in range(r)] for i in range(r)])


def test_verify_passes_on_f41_to_the_16_in_a_random_basis():
    """Sixteen blocks, in a basis where the fixed centre's basis elements
    take many values on them: the cutting ends with all sixteen, and the
    verifier passes."""
    from ringspectra.spectra import ArtinianBackend, verify_correspondence
    a = _random_change_of_basis(_split_field_power(GF(41), 16),
                                random.Random(1))[0]
    assert len(wedderburn_blocks(a)) == 16
    assert verify_correspondence(ArtinianBackend(a)).passed()


# -- the per-algebra structure ------------------------------------------------------

def _transposed(a):
    """An unpaired opposite, built and validated from transposed constants."""
    d = a.dim
    sc = [[a.sc[j][i] for j in range(d)] for i in range(d)]
    return FiniteDimAlgebra(a.field, sc, unit=a.unit, name=a.name + "^T")


def test_opposite_is_cached_and_paired(corpus_by_name):
    for name in ["t2_f2", "m2_f3", "quiver.cycle.J2_f2", "field_f3"]:
        a = corpus_by_name[name]
        assert a.opposite() is a.opposite()
        assert a.opposite().opposite() is a


def test_radical_of_opposite_equals_radical(algebra_corpus):
    """J(A^op) = J(A), computed on an opposite that shares nothing with A,
    and so is G; the paired opposite shares both."""
    assert len(algebra_corpus) == 43
    for name, a in algebra_corpus:
        assert jacobson_radical(_transposed(a)) == jacobson_radical(a), name
        assert radical_generators(_transposed(a)) == radical_generators(a), name
        assert jacobson_radical(a.opposite()) is jacobson_radical(a), name
        assert radical_generators(a.opposite()) is radical_generators(a), name


def test_paired_quotient_is_the_quotient_of_the_opposite(algebra_corpus):
    """The opposite's quotient, built from the radical it shares with A,
    equals a^op/J built directly, and its projection is an algebra map."""
    for name, a in algebra_corpus:
        rad = jacobson_radical(a)
        quot, proj, section = semisimple_quotient(a.opposite())
        if rad.dim == 0:
            assert quot is a.opposite() and proj is None, name
            continue
        direct, dproj, dsection = quotient_algebra(a.opposite(), rad)
        assert quot.structurally_equal(direct), name
        assert proj == dproj and section == dsection
        assert _is_algebra_hom(a.opposite(), quot, proj), name
        assert jacobson_radical(quot).dim == 0 == jacobson_radical(direct).dim


def test_opposite_blocks_equal_a_fresh_decomposition(algebra_corpus):
    """The quotient of the opposite, decomposed as it is built (it may be
    the opposite itself when J = 0), and an unpaired copy of it give the
    same subspaces and idempotents, in the same order."""
    for name, a in algebra_corpus:
        op = semisimple_quotient(a.opposite())[0]
        fresh = FiniteDimAlgebra(op.field, op.sc, unit=op.unit,
                                 labels=op.labels, name=op.name)
        paired, direct = wedderburn_blocks(op), wedderburn_blocks(fresh)
        assert [(b.space, b.idempotent) for b in paired] == \
            [(b.space, b.idempotent) for b in direct], name


def test_center_runs_once_per_opposite_pair(monkeypatch):
    """verify_correspondence decomposes A/J, never its opposite as well:
    the opposite's simples are read off A's, so it is never decomposed."""
    from ringspectra.spectra import ArtinianBackend, verify_correspondence
    for a in (upper_triangular_algebra(4, F2), matrix_algebra(2, F3),
              cyclic_group_algebra(QQ, 3)):
        calls = []
        real = FiniteDimAlgebra.center

        def counted(alg):
            calls.append(alg)
            return real(alg)

        monkeypatch.setattr(FiniteDimAlgebra, "center", counted)
        report = verify_correspondence(ArtinianBackend(a))
        monkeypatch.undo()
        assert all(r.passed or r.skipped for r in report.assertions)
        quot = semisimple_quotient(a)[0]
        assert quot.opposite().structure.blocks is None, a.name
        assert calls == [quot], (a.name, [c.name for c in calls])


def test_semisimple_quotient_is_stored_with_zero_radical():
    a = upper_triangular_algebra(3, F2)
    quot, proj, section = semisimple_quotient(a)
    assert semisimple_quotient(a)[0] is quot
    assert quot.structure.radical is not None and quot.structure.radical.dim == 0
    assert quot.structure.radical_generators.dim == 0
    assert semisimple_quotient(quot) == (quot, None, None)
    assert quot.dim == 3 and _is_algebra_hom(a, quot, proj)


def test_verify_correspondence_computes_the_radical_at_most_twice(monkeypatch):
    """Once on T_4(F_2) and once in its self-check on the quotient."""
    from ringspectra.spectra import ArtinianBackend, verify_correspondence
    calls = []
    real = algebras._radical_space

    def counted(a):
        calls.append(a.name)
        return real(a)

    monkeypatch.setattr(algebras, "_radical_space", counted)
    report = verify_correspondence(ArtinianBackend(upper_triangular_algebra(4, F2)))
    assert all(r.passed or r.skipped for r in report.assertions)
    assert len(calls) <= 2, calls


def _random_change_of_basis(a, rng):
    """(b, change): a in the basis given by the rows of a random invertible
    matrix, so coordinates y in b are y * change in a; over Q its entries
    are integers from -2 to 2."""
    f, d = a.field, a.dim
    draw = (lambda: rng.randrange(f.p)) if f.is_finite() \
        else (lambda: rng.randint(-2, 2))
    while True:
        change = Matrix(f, [[f.scalar(draw()) for _ in range(d)]
                            for _ in range(d)], d)
        if is_invertible(change):
            break
    rows = change.rows
    sc = [[change.solve_left(a.mul(u, v)) for v in rows]
          for u in rows]
    return FiniteDimAlgebra(f, sc), change


def _in_random_basis(a, rng):
    """a with its basis replaced by a random invertible change of basis."""
    return _random_change_of_basis(a, rng)[0]


@pytest.mark.parametrize("name", ["m2_f2", "m2_f3", "f9", "c3_f2",
                                  "m2f2_x_f2", "t2_f3"])
def test_inverse_element_is_two_sided(corpus_by_name, name):
    rng = random.Random(name)
    for a in (corpus_by_name[name], _in_random_basis(corpus_by_name[name], rng)):
        f = a.field
        units = 0
        for _ in range(40):
            x = tuple(f.scalar(rng.randrange(f.p)) for _ in range(a.dim))
            if not a.is_regular_element(x):
                continue
            y = a.inverse_element(x)
            assert a.mul(y, x) == a.unit == a.mul(x, y)
            units += 1
        assert units > 0


# -- the stored rows against a dense reference -------------------------------------

def _dense_table(a):
    """The reference constants of a in its natural basis: b_i b_j by ``mul``."""
    return tuple(tuple(a.mul(a.basis_coords(i), a.basis_coords(j))
                       for j in range(a.dim)) for i in range(a.dim))


def _dense_mul(f, table, x, y):
    """x y from dense constants: the sum of x_i y_j c[i][j] over all i, j."""
    out = [f.zero] * len(table)
    for (i, xi), (j, yj) in itertools.product(enumerate(x), enumerate(y)):
        if xi and yj:
            xy = f.mul(xi, yj)
            out = [f.add(o, f.mul(xy, c)) for o, c in zip(out, table[i][j])]
    return tuple(out)


def _assert_matches_dense(a, table, unit):
    """The rows, the ``sc`` view, products of basis elements and every
    multiplication matrix of a against the dense constants ``table``."""
    f, d = a.field, a.dim
    scalar = Fraction if f is QQ else int
    assert a.unit == unit and a.sc == table, a.name
    for i, j in itertools.product(range(d), repeat=2):
        assert a.rows[i][j] == tuple((k, c) for k, c in enumerate(table[i][j]) if c)
        assert all(type(c) is scalar for _k, c in a.rows[i][j])
        assert a.mul(a.basis_coords(i), a.basis_coords(j)) == table[i][j]
    right, left = a.right_mult_matrices(), a.left_mult_matrices()
    for j in range(d):
        assert right[j].rows == tuple(plane[j] for plane in table), (a.name, j)
        assert left[j].rows == table[j], (a.name, j)


def _assert_derived_match_dense(a, table, unit):
    """a, its opposite, a x a and a/J against dense constants built here."""
    f, d = a.field, a.dim
    _assert_matches_dense(a, table, unit)
    _assert_matches_dense(a.opposite(), tuple(zip(*table)), unit)
    zero = tuple(zero_vec(f, d))
    double = tuple(tuple(row + zero for row in plane) + (zero + zero,) * d
                   for plane in table) \
        + tuple((zero + zero,) * d + tuple(zero + row for row in plane)
                for plane in table)
    _assert_matches_dense(product_algebra(a, a), double, unit + unit)
    rad = jacobson_radical(a)
    comp = rad.complement_coords()

    def project(v):
        red = rad.reduce(v)
        return tuple(red[c] for c in comp)

    _assert_matches_dense(quotient_algebra(a, rad)[0],
                          tuple(tuple(project(table[i][j]) for j in comp)
                                for i in comp), project(unit))


RATIONAL_EXTRAS = [matrix_algebra(2, QQ), upper_triangular_algebra(3, QQ),
                   cyclic_group_algebra(QQ, 3)]


def test_stored_rows_match_a_dense_reference(algebra_corpus):
    """Every corpus algebra in its natural basis and in a seeded random
    basis, and three over Q in their natural basis.  The random basis is
    built by the public constructor from dense constants and its unit is
    solved, and its reference is computed here from the natural one by
    dense arithmetic alone."""
    rng = random.Random(64)
    for a in [a for _name, a in algebra_corpus] + RATIONAL_EXTRAS:
        table = _dense_table(a)
        _assert_derived_match_dense(a, table, a.unit)
        if a.field is QQ:
            continue
        b, change = _random_change_of_basis(a, rng)
        f, u = a.field, change.rows
        b_table = tuple(tuple(change.solve_left(_dense_mul(f, table, x, y))
                              for y in u) for x in u)
        _assert_derived_match_dense(b, b_table, change.solve_left(a.unit))


# -- the radical against the dense reference route ------------------------------

def _reference_radical_space(a):
    """The dense route the fast one replaced: the Gram matrix from d^2
    matrix products, then one lifted trace for every product u b_j of a
    basis vector u of the ideal with a basis element b_j, whose left
    multiplication is L_{u b_j} = L_{b_j} L_u on row vectors.  The integer
    powers are ``algebras._lifted_trace``'s, on the dense rows turned into
    sparse ones at the call, which
    ``test_lifted_trace_matches_plain_integer_power`` checks."""
    f, d = a.field, a.dim
    lm = [a.left_mult_matrix(a.basis_coords(i)) for i in range(d)]
    gram = Matrix(f, [[trace(lm[i] * lm[j]) for j in range(d)]
                      for i in range(d)], d)
    current = Subspace.from_vectors(f, d, gram.left_kernel().rows)
    if f.char == 0:
        return current
    p = f.char
    level = 0
    while p ** level < d:
        level += 1
    for i in range(1, level + 1):
        if current.dim == 0:
            break
        cond = Matrix(f, [[algebras._lifted_trace(_sparse_rows((lm[j] * lu).rows), p, i)
                           for j in range(d)]
                          for lu in map(a.left_mult_matrix, current.basis_rows())], d)
        vecs = [apply_vec(z, current.mat) for z in cond.left_kernel().rows]
        current = Subspace.from_vectors(f, d, vecs)
    return current


def _sparse_rows(rows):
    """Each dense row as its nonzero (k, c) entries."""
    return [[(k, c) for k, c in enumerate(row) if c] for row in rows]


def _plain_lifted_trace(rows, p, i):
    """tr(M^(p^i)) / p^i mod p by unreduced integer products; None when
    the trace is not divisible by p^i."""
    def times(u, v):
        cols = list(zip(*v))
        return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in u]
    power, base, e = None, rows, p ** i
    while e:
        if e & 1:
            power = base if power is None else times(power, base)
        e >>= 1
        if e:
            base = times(base, base)
    q, r = divmod(sum(power[t][t] for t in range(len(rows))), p ** i)
    return None if r else q % p


def test_lifted_trace_matches_plain_integer_power():
    """Random sparse matrices, the zero matrix and matrices with an empty
    row, handed over as sparse rows."""
    rng = random.Random(60)
    cases = [(p, i, d) for p in (2, 3, 5, 7) for i in (1, 2) for d in (1, 2, 4, 7)]
    cases += [(2, 4, 16), (3, 3, 27)]
    seen = set()
    for p, i, d in cases:
        matrices = [[[rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(d)]
                     for _ in range(d)] for _ in range(12)]
        matrices.append([[0] * d for _ in range(d)])
        matrices.append([[0] * d] + [[rng.randrange(1, p) for _ in range(d)]
                                     for _ in range(d - 1)])
        for rows in matrices:
            want = _plain_lifted_trace(rows, p, i)
            if want is None:
                with pytest.raises(ValidationError):
                    algebras._lifted_trace(_sparse_rows(rows), p, i)
            else:
                assert algebras._lifted_trace(_sparse_rows(rows), p, i) == want, \
                    (p, i, rows)
            seen.add(want is None)
    assert seen == {True, False}


def _radical_inputs():
    rng = random.Random(61)
    fields = [GF(p) for p in (2, 3, 5, 7)]
    out = [cyclic_group_algebra(f, n) for f in fields for n in range(2, 11)]
    out += [upper_triangular_algebra(n, f) for f in fields for n in (2, 3, 4)]
    for f in fields:
        for deg in (2, 3, 4, 5):
            poly = [rng.randrange(f.p) for _ in range(deg)] + [1]
            out.append(companion_algebra(f, poly, name=f"F{f.p}[x]/{poly}"))
    out += [cyclic_group_algebra(F2, 16), cyclic_group_algebra(F3, 27),
            product_algebra(upper_triangular_algebra(2, F3),
                            companion_algebra(F3, [0, 0, 1]))]
    return out


def test_radical_route_matches_dense_reference(algebra_corpus):
    """Same canonical subspace as the dense route, natural and random bases,
    on the inputs above and on every member of the corpus (all over F_p).

    The dense route costs about ten seconds on F_3[C_27] in a random basis,
    so there, and only there, the reference is the natural basis's radical
    moved through the change of basis: J does not depend on the basis.
    """
    rng = random.Random(62)
    assert all(a.field.char for _name, a in algebra_corpus)
    for a in _radical_inputs() + [a for _name, a in algebra_corpus]:
        want = _reference_radical_space(a)
        assert algebras._radical_space(a) == want, a.name
        b, change = _random_change_of_basis(a, rng)
        if a.dim < 27:
            want = _reference_radical_space(b)
        else:
            back = inverse(change)
            want = Subspace.from_vectors(a.field, a.dim,
                                         [apply_vec(v, back) for v in want.basis_rows()])
        assert algebras._radical_space(b) == want, a.name


def test_shrink_step_refuses_a_subspace_that_is_not_a_right_ideal():
    t2 = upper_triangular_algebra(2, F2)
    e11 = Subspace.from_vectors(F2, 3, [t2.basis_coords(t2.labels.index("e11"))])
    with pytest.raises(ValidationError, match="not a right ideal"):
        algebras._trace_kernel_chain(t2, e11)


def _power(a, s, k):
    """s^k, formed one factor at a time."""
    power = s
    for _ in range(k - 1):
        power = subspace_product(a, power, s)
    return power


def test_nilpotent_generators_match_one_factor_at_a_time(algebra_corpus):
    """The radical's self-check accepts exactly the nilpotent ideals among
    every two-sided ideal of the corpus algebras (over F_2 and F_3) of
    dimension <= 4, each with its exact index; reports the index n of (x)
    in k[x]/(x^n); and refuses the span of e11 in T_2(F_3), which is not
    an ideal, and the ideal e11 T_2(F_3), which holds an idempotent.  When
    it accepts J, dim G = dim J - dim J^2, and G generates J as a left and
    as a right ideal."""
    def check(a, s):
        try:
            gens, index = nilpotent_generators(a, s)
        except ValidationError:
            return None
        assert gens.dim == s.dim - subspace_product(a, s, s).dim
        for ops in (a.left_mult_matrices(), a.right_mult_matrices()):
            assert spin(a.field, a.dim, gens.basis_rows(), ops) == s
        return index

    checked = 0
    for _name, a in algebra_corpus:
        if a.dim <= 4:
            for s in enumerate_two_sided_ideals(a):
                index = check(a, s)
                assert (index is not None) == reference_is_nilpotent(a, s), _name
                if index is not None:
                    assert _power(a, s, index).dim == 0, _name
                    assert index == 1 or _power(a, s, index - 1).dim, _name
                checked += 1
    assert checked > 100
    for f in (F2, F3):
        for n in range(2, 18):
            a = companion_algebra(f, [0] * n + [1])
            x = a.basis_coords(1)
            assert a.power(x, n - 1) != zero_vec(f, n)
            assert a.power(x, n) == zero_vec(f, n)
            s = Subspace.from_vectors(f, n, [a.basis_coords(k) for k in range(1, n)])
            assert check(a, s) == n and reference_is_nilpotent(a, s), (f, n)
    t2 = upper_triangular_algebra(2, F3)
    e11, e12 = (t2.basis_coords(t2.labels.index(x)) for x in ("e11", "e12"))
    for seeds, refusal in (([e11], "non-ideal"), ([e11, e12], "non-nilpotent")):
        s = Subspace.from_vectors(F3, 3, seeds)
        assert not reference_is_nilpotent(t2, s)
        with pytest.raises(ValidationError, match=refusal):
            nilpotent_generators(t2, s)


def test_radical_matches_brute_force_in_random_bases():
    """The shrink loop runs (p <= d) on algebras with a nontrivial radical."""
    rng = random.Random(63)
    inputs = [upper_triangular_algebra(2, F2), upper_triangular_algebra(3, F2),
              cyclic_group_algebra(F2, 4), companion_algebra(F2, [0, 0, 0, 0, 0, 1]),
              cyclic_group_algebra(F3, 3), upper_triangular_algebra(2, F3),
              product_algebra(cyclic_group_algebra(F2, 2), companion_algebra(F2, [1, 1, 1]))]
    for a in inputs:
        assert a.field.p <= a.dim
        b = _in_random_basis(a, rng)
        assert jacobson_radical(b) == brute_largest_nilpotent_ideal(b), a.name
