"""Exact linear algebra kernel: rref, subspaces, spin."""

import itertools
import random
from fractions import Fraction

import pytest

from ringspectra.linalg import (F2, F3, GF, QQ, Matrix, Subspace, apply_vec,
                                common_left_kernel, spin, unit_vec)


def test_gf_arithmetic_exact():
    f = GF(5)
    for a in f.elements():
        if a:
            assert f.mul(a, f.inv(a)) == f.one
        assert pow(a, 5, 5) == a % 5   # Fermat identity


def test_gf_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)


def test_rational_exactness():
    x = QQ.scalar("2/3")
    assert QQ.mul(x, QQ.inv(x)) == QQ.one


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(7), QQ], ids=str)
def test_row_ops_equal_scalar_ops(field):
    rng = random.Random(17)

    def draw():
        return field.scalar(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                            if field == QQ else rng.randrange(field.char))

    for n in (0, 1, 3, 8):
        for _ in range(20):
            u, v, c = [draw() for _ in range(n)], [draw() for _ in range(n)], draw()
            assert field.axpy(u, c, v) == [field.add(a, field.mul(c, b))
                                           for a, b in zip(u, v)]
            assert field.row_scale(c, v) == [field.mul(c, b) for b in v]


def test_rational_kernels_keep_fractions():
    """Only Fractions pass through the trusted constructor over Q."""
    from ringspectra.algebras import upper_triangular_algebra
    from ringspectra.modules import RightModule

    def all_fractions(m):
        return all(type(x) is Fraction for row in m.rows for x in row)

    m = Matrix(QQ, [[0, 2, 1], [0, 4, 2], [3, 0, 0]])
    assert all_fractions(m.rref()[0]) and all_fractions(m.transpose())
    assert all_fractions(m * m) and all_fractions(m.right_kernel())
    reg = RightModule.regular(upper_triangular_algebra(2, QQ))
    assert all_fractions(reg.act_matrix((0, 3, Fraction(1, 2))))
    assert all_fractions(reg.act_matrix((0, 0, 0)))
    # Subspace.from_vectors takes the field scalars it is given as they are.
    for s in (Subspace.from_vectors(QQ, 3, m.rows),
              Subspace.from_vectors(QQ, 3, (m * m).rows + m.right_kernel().rows),
              reg.spin_submodule([(QQ.zero, Fraction(3), Fraction(1, 2))])):
        assert s.dim > 0 and all_fractions(s.mat)
    for p in (2, 5):
        f = GF(p)
        mp = Matrix(f, [[3, 7, 1], [4, 0, 9], [1, 1, 1]])
        reg_p = RightModule.regular(upper_triangular_algebra(2, f))
        for s in (Subspace.from_vectors(f, 3, mp.rows),
                  Subspace.from_vectors(f, 3, (mp * mp).rows + mp.left_kernel().rows),
                  reg_p.spin_submodule([(1, 1, 0)])):
            assert s.dim > 0
            assert all(type(x) is int and 0 <= x < p
                       for row in s.basis_rows() for x in row)


def test_public_constructor_coerces():
    assert Matrix(F3, [[4]]).rows == ((1,),)
    assert Matrix(QQ, [[1, "1/2"]]).rows == ((Fraction(1), Fraction(1, 2)),)


def test_rref_identity():
    m = Matrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    r, pivots = m.rref()
    assert r == m
    assert pivots == (0, 1, 2)
    assert m.rank() == 3


def test_rref_zero():
    m = Matrix(QQ, [[0, 0, 0, 0], [0, 0, 0, 0]])
    r, pivots = m.rref()
    assert r == m
    assert pivots == ()
    assert m.rank() == 0


def test_rref_rank_one_pair():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    r, pivots = m.rref()
    assert r.rows == ((QQ.one, QQ.scalar(2)), (QQ.zero, QQ.zero))
    assert pivots == (0,)
    # Row space is preserved: oracle check against the original rows.
    s1 = Subspace.from_vectors(QQ, 2, m.rows)
    s2 = Subspace.from_vectors(QQ, 2, r.rows)
    assert s1 == s2


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        m = Matrix(F3, rows)
        r, _ = m.rref()
        assert r.rref()[0] == r


def _minor_rank(m):
    """Rank by exhaustive minor expansion: the independent oracle."""
    best = 0
    for k in range(1, min(m.nrows, m.ncols) + 1):
        for rows in itertools.combinations(range(m.nrows), k):
            for cols in itertools.combinations(range(m.ncols), k):
                sub = Matrix(m.field, [[m.rows[i][j] for j in cols]
                                       for i in rows])
                if sub.det() != m.field.zero:
                    best = k
                    break
            else:
                continue
            break
    return best


def test_rank_equals_minor_rank_exhaustive_small():
    for r, c in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        for bits in itertools.product([0, 1], repeat=r * c):
            m = Matrix(F2, [bits[i * c:(i + 1) * c] for i in range(r)])
            assert m.rank() == _minor_rank(m)


def test_rank_equals_minor_rank_sampled_4x4():
    rng = random.Random(0)
    for _ in range(200):
        m = Matrix(F2, [[rng.randrange(2) for _ in range(4)] for _ in range(4)])
        assert m.rank() == _minor_rank(m)


def test_kernel_and_solve():
    m = Matrix(QQ, [[1, 2, 3], [0, 1, 1]])
    for v in m.left_kernel().rows:
        assert apply_vec(v, m) == (QQ.zero,) * 3
    x = m.solve_left((1, 3, 4))
    assert x is not None and apply_vec(x, m) == tuple(map(QQ.scalar, (1, 3, 4)))
    assert m.solve_left((0, 0, 1)) is None


def test_common_left_kernel_meets_the_left_kernels():
    rng = random.Random(3)
    assert common_left_kernel(F3, 3, []) == Subspace.full(F3, 3)
    for _ in range(20):
        mats = [Matrix(F3, [[rng.randrange(3) for _ in range(2)]
                            for _ in range(4)], 2) for _ in range(rng.randrange(1, 4))]
        meet = Subspace.full(F3, 4)
        for m in mats:
            meet = meet.intersect(Subspace.from_vectors(F3, 4, m.left_kernel().rows))
        assert common_left_kernel(F3, 4, mats) == meet


def test_inverse():
    m = Matrix(F3, [[1, 1], [0, 1]])
    assert m * m.inverse() == Matrix.identity(F3, 2)


def test_subspace_identity_cases():
    a = Subspace.from_vectors(F2, 2, [[1, 0], [0, 1]])
    assert a.sum(a) == a
    assert a.intersect(a) == a
    assert a.contains(a)


def test_two_lines_in_f2_plane():
    l1 = Subspace.from_vectors(F2, 2, [[1, 0]])
    l2 = Subspace.from_vectors(F2, 2, [[0, 1]])
    assert l1.sum(l2) == Subspace.full(F2, 2)
    assert l1.intersect(l2).dim == 0


def test_plane_intersection_in_q3():
    xy = Subspace.from_vectors(QQ, 3, Matrix(QQ, [[1, 0, 0], [0, 1, 0]]).rows)
    yz = Subspace.from_vectors(QQ, 3, Matrix(QQ, [[0, 1, 0], [0, 0, 1]]).rows)
    meet = xy.intersect(yz)
    join = xy.sum(yz)
    assert meet.basis_rows() == ((QQ.zero, QQ.one, QQ.zero),)
    assert join.dim + meet.dim == xy.dim + yz.dim == 4
    # Oracle: the joint linear system x = (0, t, 0) solves both memberships.
    assert xy.contains_vector((0, 5, 0)) and yz.contains_vector((0, 5, 0))


def test_dimension_formula_random():
    rng = random.Random(3)
    for _ in range(40):
        a = Subspace.from_vectors(F2, 4, [[rng.randrange(2) for _ in range(4)]
                                          for _ in range(2)])
        b = Subspace.from_vectors(F2, 4, [[rng.randrange(2) for _ in range(4)]
                                          for _ in range(2)])
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_canonical_form_is_representation_equality():
    a = Subspace.from_vectors(QQ, 3, Matrix(QQ, [[1, 1, 0], [0, 2, 2]]).rows)
    b = Subspace.from_vectors(QQ, 3, Matrix(QQ, [[1, 0, -1], [3, 3, 0]]).rows)
    assert a == b
    assert hash(a) == hash(b)
    assert a.mat.rows == b.mat.rows


def test_spin_zero_seed():
    ops = [Matrix.identity(F2, 3)]
    assert spin(F2, 3, [], ops).dim == 0


def test_spin_cycle_orbit():
    cyc = Matrix(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    s = spin(QQ, 3, [unit_vec(QQ, 3, 0)], [cyc])
    assert s.dim == 3


def test_spin_nilpotent_jordan():
    # J3 with e1 * J3 = 0 convention: e1 spans a stable line.
    j3 = Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert apply_vec(unit_vec(QQ, 3, 0), j3) == (QQ.zero,) * 3
    s = spin(QQ, 3, [unit_vec(QQ, 3, 0)], [j3])
    assert s.dim == 1
    # e3 generates everything by direct iteration.
    assert spin(QQ, 3, [unit_vec(QQ, 3, 2)], [j3]).dim == 3


def test_spin_minimality_exhaustive_f2():
    """spin output is the smallest invariant subspace containing the seed."""
    from ringspectra.oracle import enumerate_subspaces
    rng = random.Random(11)
    ops = [Matrix(F2, [[rng.randrange(2) for _ in range(3)] for _ in range(3)])
           for _ in range(2)]
    seed = (1, 0, 0)
    s = spin(F2, 3, [seed], ops)
    assert s.contains_vector(seed)
    for v in s.basis_rows():
        for op in ops:
            assert s.contains_vector(apply_vec(v, op))
    for t in enumerate_subspaces(F2, 3):
        if t.dim >= s.dim or not t.contains_vector(seed):
            continue
        closed = all(t.contains_vector(apply_vec(v, op))
                     for v in t.basis_rows() for op in ops)
        assert not closed


def test_meets_agrees_with_intersection():
    from ringspectra.oracle import enumerate_subspaces
    for field, dim in ((F2, 3), (F3, 2)):
        subs = enumerate_subspaces(field, dim)
        for s, t in itertools.product(subs, subs):
            assert s.meets(t) == (s.intersect(t).dim > 0), (s.mat, t.mat)
    half = Fraction(1, 2)
    pairs = [([(1, 0, 0)], [(0, 1, 0), (0, 0, 1)], False),     # complements
             ([(1, 1, 0)], [(1, 0, 0), (0, 1, 0)], True),      # line in plane
             ([(1, half, 0), (0, 0, 1)], [(2, 1, 0)], True),   # scaled line
             ([(1, 2, 3), (0, 1, 1)], [(1, 3, 4), (0, 0, 1)], True),
             ([(1, 2, 3), (4, 5, 6)], [(0, 0, 1)], False),
             ([], [(1, 0, 0)], False),
             ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(5, -3, half)], True)]
    for us, vs, want in pairs:
        s = Subspace.from_vectors(QQ, 3, Matrix(QQ, us, 3).rows)
        t = Subspace.from_vectors(QQ, 3, Matrix(QQ, vs, 3).rows)
        assert (s.intersect(t).dim > 0) == want, (us, vs)
        assert s.meets(t) == want and t.meets(s) == want, (us, vs)
    with pytest.raises(ValueError):
        Subspace.zero(QQ, 2).meets(Subspace.zero(QQ, 3))
