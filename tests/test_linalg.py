"""Exact linear algebra kernel: rref, subspaces, spin."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from ringspectra import linalg
from ringspectra.errors import CapabilityError
from ringspectra.linalg import (F2, F3, GF, QQ, Matrix, RowReducer, Subspace,
                                apply_vec, combine_matrices, common_left_kernel,
                                pack, spin, unit_vec, unpack)
from helpers import det, inverse, rref_reference


def test_gf_arithmetic_exact():
    f = GF(5)
    for a in f.elements():
        if a:
            assert f.mul(a, f.inv(a)) == f.one
        assert pow(a, 5, 5) == a % 5   # Fermat identity


def test_gf_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)


def test_gf_decides_small_moduli_by_remainders_alone(monkeypatch):
    """Below 43^2 no Miller-Rabin power runs, and the answer is trial
    division's."""
    def refuse(*_args):
        raise AssertionError("Miller-Rabin ran on a small modulus")

    monkeypatch.setattr(linalg, "is_certified_prime", refuse)
    for p in range(-3, 43 * 43):
        prime = p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
        if prime:
            assert GF(p).p == p
        else:
            with pytest.raises(ValueError, match="is not prime"):
                GF(p)


@pytest.mark.parametrize("p, prime", [
    (43 * 43, False), (1861, True), (3215031751, False),
    (10 ** 16 + 61, True), (10 ** 16 + 63, False),
    (318665857834031151167461, False), (2 ** 61 - 1, True),
    (10 ** 400 + 1, False)],
    ids=["43^2", "1861", "spsp-2-3-5-7", "1e16+61", "1e16+63", "psi_12",
         "2^61-1", "1e400+1"])
def test_gf_certifies_large_moduli_by_miller_rabin(p, prime):
    """Strong pseudoprimes to the first bases (psi_12 passes 2..37) are
    caught, and a modulus too large for a float is decided, not overflowed."""
    if prime:
        assert GF(p).p == p
    else:
        with pytest.raises(ValueError, match="is not prime"):
            GF(p)


@pytest.mark.parametrize("p", [2 ** 89 - 1, linalg.PSI_13],
                         ids=["2^89-1", "psi_13"])
def test_gf_refuses_a_modulus_miller_rabin_cannot_certify(p):
    """At psi_13 and above, passing every base proves nothing: the prime
    2^89 - 1 and the composite psi_13 are both refused, neither reported."""
    with pytest.raises(CapabilityError, match="psi_13"):
        GF(p)


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
                if det(sub) != m.field.zero:
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
    assert m * inverse(m) == Matrix.identity(F3, 2)


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


# -- packed F_2 rows against the tuple kernels -------------------------------------

# F_2 with the tuple kernels, the ones every other prime field runs: the
# packed kernels are compared with it.  Both formats run the same row
# reducer, so the tests below also compare each with ``rref_reference``.
# It equals F2, so matrices and subspaces over the two compare equal when
# their rows do.
F2_TUPLES = GF(2)
F2_TUPLES.packed = False

# (rows, ambient) shapes: ambient 0 and 1, rows that fill a machine word,
# pass it (65) and reach T_16(F_2)'s dimension 136.
PACKED_SHAPES = [(0, 0), (3, 0), (0, 1), (1, 1), (4, 1), (2, 2), (5, 3), (6, 8),
                 (9, 9), (12, 10), (40, 64), (20, 65), (70, 65), (12, 136)]


def _f2_rows(rng, r, n, density):
    return [tuple(int(rng.random() < density) for _ in range(n)) for _ in range(r)]


def _both(rows, n):
    return Matrix(F2, rows, n), Matrix(F2_TUPLES, rows, n)


def _packed_cases():
    """(rows, ambient) over F_2: random at three densities, all zero, and
    full rank (the identity and a random invertible matrix)."""
    rng = random.Random(2024)
    for r, n in PACKED_SHAPES:
        for density in (0.1, 0.5, 0.9) if n <= 10 else (0.5,):
            yield _f2_rows(rng, r, n, density), n
        yield _f2_rows(rng, r, n, 0.0), n
    for n in (1, 5, 65):
        yield [unit_vec(F2, n, i) for i in range(n)], n
        while True:
            rows = _f2_rows(rng, n, n, 0.5)
            if Matrix(F2_TUPLES, rows, n).rank() == n:
                yield rows, n
                break


def test_pack_round_trip():
    rng = random.Random(5)
    for n in (0, 1, 7, 8, 9, 63, 64, 65, 136):
        for v in [(0,) * n, (1,) * n] + _f2_rows(rng, 5, n, 0.5):
            x = pack(v)
            assert x == sum(1 << j for j, c in enumerate(v) if c)
            assert unpack(x, n) == v and type(unpack(x, n)) is tuple


def test_packed_matrix_kernels_agree_with_tuples():
    rng = random.Random(7)
    assert F2.packed and not F2_TUPLES.packed
    for rows, n in _packed_cases():
        m, t = _both(rows, n)
        (rm, piv), (rt, pivt) = m.rref(), t.rref()
        assert (rm.rows, piv) == (rt.rows, pivt) and rm._bits is not None
        assert m.rank() == t.rank()
        assert m.right_kernel().rows == t.right_kernel().rows
        assert m.left_kernel().rows == t.left_kernel().rows
        square, square_t = _both(_f2_rows(rng, n, n, 0.5), n)
        assert (m * square).rows == (t * square_t).rows
        for v in _f2_rows(rng, 3, len(rows), 0.5):
            assert apply_vec(v, m) == apply_vec(v, t)
            assert m.solve_left(apply_vec(v, m)) == t.solve_left(apply_vec(v, t))
        if rows and len(rows) == n and t.rank() == n:
            assert inverse(m).rows == inverse(t).rows
        mats = [_both(_f2_rows(rng, n, n, 0.3), n) for _ in range(3)]
        coeffs = _f2_rows(rng, 1, 3, 0.5)[0]
        assert combine_matrices(F2, n, coeffs, [a for a, _b in mats]).rows == \
            combine_matrices(F2_TUPLES, n, coeffs, [b for _a, b in mats]).rows


def test_packed_subspace_kernels_agree_with_tuples():
    rng = random.Random(11)
    for rows, n in _packed_cases():
        s, st = (Subspace.from_vectors(f, n, rows) for f in (F2, F2_TUPLES))
        assert (s.basis_rows(), s.pivots) == (st.basis_rows(), st.pivots)
        for v in _f2_rows(rng, 6, n, 0.5) + list(rows[:3]) + [(0,) * n]:
            assert s.reduce(v) == st.reduce(v)
            assert s.contains_vector(v) == st.contains_vector(v)
            assert s.coords_of(v) == st.coords_of(v)
        vecs = _f2_rows(rng, 3, n, 0.3)
        other, other_t = (Subspace.from_vectors(f, n, vecs) for f in (F2, F2_TUPLES))
        assert s.meets(other) == st.meets(other_t)
        assert other.meets(s) == other_t.meets(st)
        assert s.contains(other) == st.contains(other_t)
        ops = [_both(_f2_rows(rng, n, n, 0.4), n) for _ in range(2)]
        packed_ops, tuple_ops = [a for a, _b in ops], [b for _a, b in ops]
        assert s.is_stable(packed_ops) == st.is_stable(tuple_ops)
        for op, op_t in ops:
            assert s.restrict(op) == st.restrict(op_t)
        seeds = rows[:2]
        spun = spin(F2, n, seeds, packed_ops)
        spun_t = spin(F2_TUPLES, n, seeds, tuple_ops)
        assert (spun.basis_rows(), spun.pivots) == (spun_t.basis_rows(), spun_t.pivots)
        assert spun.is_stable(packed_ops) and spun_t.is_stable(tuple_ops)
        assert spun.restrict(packed_ops[0]).rows == spun_t.restrict(tuple_ops[0]).rows
        assert Subspace.full(F2, n).is_stable(packed_ops)
        assert Subspace.zero(F2, n).is_stable(packed_ops)


def test_packed_row_reducer_agrees_with_tuples():
    rng = random.Random(13)
    for n in (0, 1, 6, 65, 136):
        red, red_t = RowReducer(F2, n), RowReducer(F2_TUPLES, n)
        for v in _f2_rows(rng, 8, n, 0.3) + [(0,) * n]:
            assert red.contains(v) == red_t.contains(v)
            assert red.add(v) == red_t.add(v)
        ops = [_both(_f2_rows(rng, n, n, 0.2), n) for _ in range(2)]
        red.close([a for a, _b in ops])
        red_t.close([b for _a, b in ops])
        assert red.dim() == red_t.dim() and red.subspace() == red_t.subspace()


# -- every format against an independent Gauss-Jordan reference --------------------

REFERENCE_FIELDS = [F2, F2_TUPLES, F3, GF(5), QQ]
REFERENCE_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4),
                    (6, 6), (8, 5), (5, 9)]


def _random_rows(rng, field, r, n, density):
    def draw():
        if rng.random() >= density:
            return 0
        if field == QQ:
            return Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
        return rng.randrange(field.char)
    return [tuple(field.scalar(draw()) for _ in range(n)) for _ in range(r)]


def _reference_cases(rng, field):
    """(rows, ambient): random at two densities, all zero, and full rank
    (the identity and a random invertible matrix)."""
    for r, n in REFERENCE_SHAPES:
        for density in (0.0, 0.3, 0.7):
            yield _random_rows(rng, field, r, n, density), n
    for n in (1, 4, 6):
        yield [unit_vec(field, n, i) for i in range(n)], n
        while True:
            rows = _random_rows(rng, field, n, n, 0.7)
            if len(rref_reference(Matrix(field, rows, n))[1]) == n:
                yield rows, n
                break


def _right_kernel_reference(m):
    """The basis with 1 at one free column of the reference rref, 0 at the
    others."""
    f = m.field
    r, pivots = rref_reference(m)
    out = []
    for j in range(m.ncols):
        if j not in pivots:
            v = [f.zero] * m.ncols
            v[j] = f.one
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(r.rows[i][j])
            out.append(tuple(v))
    return out


def _solve_left_reference(m, b):
    """The x with x m = b that is 0 at each row depending on the rows
    before it, from the reference rref of [m^T | b]; None if b is not in
    the row space."""
    f = m.field
    aug = Matrix.trusted(f, tuple(r + (bi,) for r, bi in
                                  zip(m.transpose().rows, b)), m.nrows + 1)
    r, pivots = rref_reference(aug)
    if m.nrows in pivots:
        return None
    x = [f.zero] * m.nrows
    for i, pc in enumerate(pivots):
        x[pc] = r.rows[i][-1]
    return tuple(x)


def _span_reference(field, n, rows):
    r, pivots = rref_reference(Matrix.trusted(field, tuple(rows), n))
    return r.rows[:len(pivots)], pivots


def _spin_reference(field, n, seeds, ops):
    """Add the images of the basis until the dimension stops growing."""
    basis, pivots = _span_reference(field, n, seeds)
    while True:
        grown = _span_reference(field, n, list(basis) + [
            apply_vec(v, op) for v in basis for op in ops])
        if len(grown[1]) == len(pivots):
            return basis, pivots
        basis, pivots = grown


@pytest.mark.parametrize("field", REFERENCE_FIELDS,
                         ids=["F2", "F2-tuples", "F3", "F5", "Q"])
def test_kernels_agree_with_the_gauss_jordan_reference(field):
    rng = random.Random(29)
    for rows, n in _reference_cases(rng, field):
        m = Matrix(field, rows, n)
        r, pivots = m.rref()
        ref, ref_pivots = rref_reference(m)
        assert (r.rows, pivots) == (ref.rows, ref_pivots), (rows, n)
        assert m.rank() == len(ref_pivots)
        assert list(m.right_kernel().rows) == _right_kernel_reference(m)
        assert list(m.left_kernel().rows) == _right_kernel_reference(m.transpose())
        x = _random_rows(rng, field, 1, len(rows), 0.7)[0]
        for b in [apply_vec(x, m)] + _random_rows(rng, field, 2, n, 0.5):
            assert m.solve_left(b) == _solve_left_reference(m, b)
        s = Subspace.from_vectors(field, n, rows)
        basis, basis_pivots = _span_reference(field, n, rows)
        assert (s.basis_rows(), s.pivots) == (basis, basis_pivots)
        c = _random_rows(rng, field, 1, s.dim, 0.7)[0]
        assert s.coords_of(apply_vec(c, s.mat)) == c
        for v in _random_rows(rng, field, 2, n, 0.5):
            inside = len(_span_reference(field, n, list(rows) + [v])[1]) == s.dim
            assert (s.coords_of(v) is not None) == inside
        ops = [Matrix(field, _random_rows(rng, field, n, n, 0.3), n) for _ in range(2)]
        spun = spin(field, n, rows[:2], ops)
        assert (spun.basis_rows(), spun.pivots) == \
            _spin_reference(field, n, rows[:2], ops)


@pytest.mark.parametrize("field", [F3, QQ], ids=str)
def test_spin_runs_no_rref(monkeypatch, field):
    """spin reads its subspace off the row reducer's rows."""
    def refused(self):
        raise AssertionError("Matrix.rref called")
    rng = random.Random(31)
    ops = [Matrix(field, _random_rows(rng, field, 6, 6, 0.3), 6) for _ in range(2)]
    monkeypatch.setattr(Matrix, "rref", refused)
    spun = spin(field, 6, [unit_vec(field, 6, 0)], ops)
    assert spun.dim >= 1 and spun.is_stable(ops)
