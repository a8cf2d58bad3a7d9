"""The facts the artinian path reads off instead of recomputing, checked
against the computation they replace.

- The opposite's simples and primitive idempotents are read off its
  partner (docs/derivations.md, "Simples and primitive idempotents of the
  opposite").
- Annihilators are not checked to be ideals (docs/derivations.md,
  "Associated molecules").
- ``check_algebra_quotient_ring`` checks each distinct sample once.
- The opposite and quotient algebras take their entries unconverted
  (``FiniteDimAlgebra.trusted``).
- The primes and their intersections are not checked to be ideals
  (docs/derivations.md, "The primes are the preimages of the
  block-killing ideals of Lambda/J").
- The simples are read inside the blocks of A/J, and no algebra is built
  on a block (docs/derivations.md, "Simples inside the blocks of
  Lambda/J").

Each runs on every corpus algebra in its natural basis and in a seeded
random basis, and on a few algebras over Q.
"""

import random
from fractions import Fraction

import pytest

from ringspectra.algebras import (FiniteDimAlgebra, WedderburnBlock,
                                  companion_algebra,
                                  cyclic_group_algebra, matrix_algebra,
                                  product_algebra, quotient_algebra,
                                  semisimple_quotient,
                                  upper_triangular_algebra, wedderburn_blocks)
from ringspectra.errors import CapabilityError, ValidationError
from ringspectra.ideals import annihilator, minimal_primes
from ringspectra.linalg import F2, F3, QQ, Subspace, apply_vec
from ringspectra.modules import (RightModule, _idempotent_in_minimal_right_ideal,
                                 _minimal_right_ideal_space,
                                 _newton_idempotent_lift, dual_module,
                                 hom_basis, primitive_idempotents,
                                 simple_modules)
from ringspectra.oracle import corpus, standard_modules
from ringspectra.spectra import (ArtinianBackend, _sample_element,
                                 check_algebra_quotient_ring)
from ringspectra.subcats import radical_closed_descriptors
from test_algebras import _random_change_of_basis
from test_modules import _exhaustive_shrink, _rational_quaternions

RATIONAL = [("m2_q", matrix_algebra(2, QQ)),
            ("t3_q", upper_triangular_algebra(3, QQ)),
            ("qc3", cyclic_group_algebra(QQ, 3)),
            ("trunc2_q", companion_algebra(QQ, [0, 0, 1])),
            ("m2q_x_q", product_algebra(matrix_algebra(2, QQ),
                                        companion_algebra(QQ, [0, 1])))]


def _both_bases():
    """Every corpus algebra, then the same in a random basis (built fresh,
    so that nothing computed by other tests is read back)."""
    rng = random.Random(1701)
    for name, a in corpus():
        yield name, a
        yield name + "@random", _random_change_of_basis(a, rng)[0]


BOTH_BASES = list(_both_bases())
WITH_RATIONAL = BOTH_BASES + RATIONAL


def _fresh_opposite(a):
    """A^op built as a user algebra: nothing on it is read off a."""
    aop = a.opposite()
    return FiniteDimAlgebra(aop.field, aop.sc, unit=aop.unit, name=aop.name)


@pytest.mark.parametrize("name,a", WITH_RATIONAL,
                         ids=[n for n, _ in WITH_RATIONAL])
def test_mirrored_simples_match_the_opposites_own(name, a):
    aop = a.opposite()
    mirrored = simple_modules(aop)
    fresh_alg = _fresh_opposite(a)
    fresh = simple_modules(fresh_alg)
    assert fresh_alg.structure.mirror is False
    assert len(mirrored) == len(fresh) == len(simple_modules(a))
    for s, t in zip(mirrored, fresh):
        assert (s.label, s.block_index, s.dim, s.end_dim) == \
            (t.label, t.block_index, t.dim, t.end_dim), name
        # the fresh simple, moved onto aop (same constants, same action);
        # simples are isomorphic iff Hom between them is nonzero
        moved = RightModule(aop, t.module.action, validate=True)
        assert hom_basis(s.module, moved), (name, s.label)


@pytest.mark.parametrize("name,a", WITH_RATIONAL,
                         ids=[n for n, _ in WITH_RATIONAL])
def test_opposite_idempotents_have_the_dual_simples_as_tops(name, a):
    aop = a.opposite()
    for s, mine, prim in zip(simple_modules(aop), simple_modules(a),
                             primitive_idempotents(aop)):
        e = s.idempotent
        assert e == mine.idempotent == prim.idempotent
        assert aop.mul(e, e) == e
        assert s.module.action == dual_module(mine.module, aop).action
        RightModule(aop, s.module.action, validate=True)
        p = prim.projective
        top = p.quotient(p.radical_space())[0]
        # a nonzero map onto the simple s is onto; of equal dimension, iso
        assert top.dim == s.module.dim and hom_basis(top, s.module), \
            (name, s.label)


@pytest.mark.parametrize("name,a", BOTH_BASES, ids=[n for n, _ in BOTH_BASES])
def test_every_annihilator_is_a_two_sided_ideal(name, a):
    every = list(a.right_mult_matrices()) + list(a.left_mult_matrices())
    for label, m in standard_modules(a):
        ann = annihilator(m)
        assert ann.space.is_stable(every), (name, label)


def _reference_quotient_ring_counts(a, rng, samples):
    """The per-sample loop: every draw checked, repeats included."""
    one_inv = a.inverse_element(a.unit)
    elements = [_sample_element(a, rng) for _ in range(samples)]
    fractions = [a.mul(x, one_inv) for x in elements]
    distinct = len(set(elements))
    assert len(set(fractions)) == distinct
    regular = 0
    for x, q in zip(elements, fractions):
        assert q == x
        if a.is_regular_element(x):
            y = a.inverse_element(x)
            assert a.mul(x, y) == a.unit == a.mul(y, x)
            regular += 1
    return {"injective": distinct, "regular_invertible": regular,
            "fraction_form": len(elements)}


QUOTIENT_RING_INPUTS = [(n, a) for n, a in BOTH_BASES if a.dim <= 4] + RATIONAL


@pytest.mark.parametrize("name,a", QUOTIENT_RING_INPUTS,
                         ids=[n for n, _ in QUOTIENT_RING_INPUTS])
def test_quotient_ring_counts_match_the_per_sample_loop(name, a):
    for seed, samples in ((0, 100), (7, 30)):
        new = check_algebra_quotient_ring(a, random.Random(seed), samples)
        ref = _reference_quotient_ring_counts(a, random.Random(seed), samples)
        assert new == ref, name


def test_quotient_ring_samples_repeat_on_small_algebras():
    """The case the distinct-sample loop is for: F_3[C_2] has 9 elements."""
    a = cyclic_group_algebra(F3, 2)
    rng = random.Random(0)
    assert len({_sample_element(a, rng) for _ in range(100)}) == 9
    counts = check_algebra_quotient_ring(a, random.Random(0), 100)
    assert counts["injective"] == 9 and counts["fraction_form"] == 100
    assert counts["regular_invertible"] > 9


def _derived_algebras(a):
    """The algebras the package builds from a: its opposite and its
    quotient by J and by each prime."""
    out = [a.opposite()]
    quot = semisimple_quotient(a)[0]
    if quot is not a:
        out.append(quot)
    out += [quotient_algebra(a, w.ideal.space)[0] for w in minimal_primes(a)
            if w.ideal.dim]
    return out


@pytest.mark.parametrize("name,a", WITH_RATIONAL,
                         ids=[n for n, _ in WITH_RATIONAL])
def test_derived_algebras_hold_field_scalars(name, a):
    f = a.field
    for b in _derived_algebras(a):
        entries = [x for plane in b.sc for row in plane for x in row]
        entries += list(b.unit)
        if f.is_finite():
            assert all(type(x) is int and 0 <= x < f.p for x in entries), b.name
        else:
            assert all(type(x) is Fraction for x in entries), b.name
        # coerced and validated from scratch, it is the same algebra
        checked = FiniteDimAlgebra(f, b.sc, unit=b.unit)
        assert checked.structurally_equal(b), b.name


def test_trusted_keeps_validation_where_asked():
    a = upper_triangular_algebra(2, F2)
    rows = [list(plane) for plane in a.rows]
    rows[1][1] = () if rows[1][1] else ((1, 1),)
    with pytest.raises(ValidationError):
        FiniteDimAlgebra.trusted(F2, rows, a.unit)
    FiniteDimAlgebra.trusted(F2, a.rows, a.unit)
    assert FiniteDimAlgebra.trusted(F2, rows, a.unit, validate=False).dim == 3


@pytest.mark.parametrize("name,a", WITH_RATIONAL,
                         ids=[n for n, _ in WITH_RATIONAL])
def test_primes_and_their_intersections_are_two_sided_ideals(name, a):
    every = list(a.right_mult_matrices()) + list(a.left_mult_matrices())
    for w in minimal_primes(a):
        assert w.ideal.space.is_stable(every), (name, w.label)
    for d in radical_closed_descriptors(ArtinianBackend(a)):
        assert d.ideal.space.is_stable(every), (name, d.label)


# -- the simples against the block algebras they replace -------------------------

def _subalgebra_on(a, comp, unit_elem, name):
    """The block as an algebra of its own, on the canonical basis of comp,
    coerced and validated."""
    sc = []
    for u in comp.basis_rows():
        plane = []
        for v in comp.basis_rows():
            coords = comp.coords_of(a.mul(u, v))
            assert coords is not None, "component is not multiplicatively closed"
            plane.append(coords)
        sc.append(plane)
    return FiniteDimAlgebra(a.field, sc, unit=comp.coords_of(unit_elem),
                            name=name)


def _block_algebra_simple(quot, blk, bi):
    """The route through the block algebra B: B's minimal right ideal W,
    the simple W over B with dim End_B, and B's idempotent generating W;
    None where W is not certified.

    Over F_p, W is the exhaustive reference search on B; over Q, the
    candidate search run on B as the whole algebra."""
    b = _subalgebra_on(quot, blk.space, blk.idempotent, f"{quot.name}.B{bi + 1}")
    whole = Subspace.full(b.field, b.dim)
    try:
        w = _exhaustive_shrink(b, whole) if b.field.is_finite() \
            else _minimal_right_ideal_space(
                b, WedderburnBlock(b.unit, whole, b.center()))
    except CapabilityError:
        return None, None
    reg = RightModule.regular(b)
    is_field = w.dim == b.dim
    simple = reg if is_field else reg.submodule(w)[0]
    end = len(hom_basis(simple, simple))
    if not (b.field.is_finite() or is_field or end == 1):
        return w, None
    return w, (simple, end, _idempotent_in_minimal_right_ideal(b, w))


def _exact(rows):
    """Entries with their types, so that 1 and Fraction(1) differ."""
    return tuple(tuple((type(x), x) for x in r) for r in rows)


REFERENCE_INPUTS = WITH_RATIONAL + [("qc4", cyclic_group_algebra(QQ, 4)),
                                    ("h_q", _rational_quaternions())]


@pytest.mark.parametrize("name,a", REFERENCE_INPUTS,
                         ids=[n for n, _ in REFERENCE_INPUTS])
def test_simples_inside_the_blocks_match_the_block_algebras(name, a):
    quot, proj, section = semisimple_quotient(a)
    simples = simple_modules(a)
    for bi, (blk, s) in enumerate(zip(wedderburn_blocks(quot), simples)):
        w_ref, found = _block_algebra_simple(quot, blk, bi)
        if w_ref is None:
            with pytest.raises(CapabilityError):
                _minimal_right_ideal_space(quot, blk)
        else:
            w = _minimal_right_ideal_space(quot, blk)
            # B's rref rows, mapped by B's matrix, are the rref rows of W.
            assert tuple(apply_vec(r, blk.space.mat)
                         for r in w_ref.basis_rows()) == w.basis_rows(), name
        if found is None:
            assert (s.module, s.end_dim, s.idempotent) == (None, None, None)
            continue
        simple, end, ebar = found
        mats = []
        for i in range(a.dim):
            z = a.basis_coords(i) if proj is None else proj.rows[i]
            coords = blk.space.coords_of(quot.mul(blk.idempotent, z))
            mats.append(simple.act_matrix(coords))
        e_quot = apply_vec(ebar, blk.space.mat)
        e = _newton_idempotent_lift(
            a, e_quot if section is None else apply_vec(e_quot, section))
        assert s.end_dim == end, (name, s.label)
        assert _exact([s.idempotent]) == _exact([e]), (name, s.label)
        assert [_exact(m.rows) for m in s.module.action] == \
            [_exact(m.rows) for m in mats], (name, s.label)
