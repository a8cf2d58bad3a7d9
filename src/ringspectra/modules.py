"""Right modules over a finite-dimensional algebra.

A module is a list of action matrices, one per algebra basis element,
acting on row vectors.  Submodules are generated by ``spin`` closure and
carried canonically (rref bases), so equal submodules are identical.
Closure, submodule and module-map checks and ``hom_basis`` read only the
action of the algebra's generators (``FiniteDimAlgebra.generators``): for
a representation that is the action of every word in them, so of all of
the algebra (docs/derivations.md, "Generating sets").

The structural layers: socle and radical, both read through the
radical's generators G (A G = J = G A), simple modules realized as
certified minimal right ideals of the semisimple quotient A/J lying inside
its blocks, one primitive idempotent e_t per simple S_t, composition
multiplicities read off as [M : S_t] = dim M e_t / dim End(S_t), and
injective envelopes as duals of projective covers over the opposite
algebra.  The search and the idempotent run on A/J itself, inside the
block's subspace (docs/derivations.md, "Simples inside the blocks of
Lambda/J"), and the block's centre gives both the dimension that
certifies the simple and End(S) (docs/derivations.md, "Simples read off
the block's centre").  ``simple_modules`` is computed once per
algebra, so each block is searched once, and ``primitive_idempotents`` and
``composition_factors`` read e_t there.  The opposite algebra searches
nothing: its simple for block t is the k-dual D(S_t), with the same End
dimension, and e_t is primitive in it too, so ``simple_modules`` reads
both off its partner (docs/derivations.md, "Simples and primitive
idempotents of the opposite").

Object-level predicates (monoform, compressible, prime) use the
finite-length criteria recorded in ``docs/derivations.md`` and enumerate
no submodules; the raw definitional quantifiers live in ``oracle`` and
the two are compared on enumerated lattices in the test suite.  No
isomorphism is searched for: the oracle compares only simple modules,
and simples are isomorphic iff ``hom_basis`` between them is non-empty
(Schur's lemma; docs/derivations.md, "Simples are isomorphic iff Hom is
nonzero").  Over Q, a module over a block whose simple is not realized
raises ``CapabilityError`` through ``composition_factors`` rather than
guessing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .algebras import (FiniteDimAlgebra, WedderburnBlock,
                       factor_minimal_polynomial, radical_generators,
                       semisimple_quotient, wedderburn_blocks)
from .errors import CapabilityError, ValidationError
from .ideals import annihilator, is_prime
from .linalg import (Matrix, Subspace, apply_vec, combine_matrices,
                     common_left_kernel, spin, vec_add, vec_is_zero, vec_scale,
                     zero_vec)


class RightModule:
    __slots__ = ("algebra", "dim", "action", "name", "_socle", "_radical")

    def __init__(self, algebra: FiniteDimAlgebra, action, name="M", validate=True):
        self.algebra = algebra
        self.action = tuple(action)
        if len(self.action) != algebra.dim:
            raise ValidationError("one action matrix per algebra basis element")
        self.dim = self.action[0].nrows if self.action else 0
        for m in self.action:
            if m.nrows != self.dim or m.ncols != self.dim:
                raise ValidationError("action matrices must be square of equal size")
        self.name = name
        self._socle = None
        self._radical = None
        if validate:
            self._validate()

    def _validate(self):
        """rho(1) = I, then rho(b_i) rho(b_g) = rho(b_i b_g) for every
        generator g; the y with rho(x) rho(y) = rho(x y) for all x then form
        a subalgebra holding 1 and S, so all of A."""
        a = self.algebra
        if self.act_matrix(a.unit) != Matrix.identity(a.field, self.dim):
            raise ValidationError("unit must act as the identity")
        for i, g in itertools.product(range(a.dim), a.generators()):
            want = self.act_matrix(a.basis_product(i, g))
            if self.action[i] * self.action[g] != want:
                raise ValidationError(
                    f"action breaks structure constants at ({i},{g})")

    # -- basic structure -----------------------------------------------------

    @classmethod
    def regular(cls, algebra, name=None):
        return cls(algebra, algebra.right_mult_matrices(),
                   name=name or algebra.name, validate=False)

    @classmethod
    def zero(cls, algebra):
        z = Matrix.zero(algebra.field, 0, 0)
        return cls(algebra, [z] * algebra.dim, name="0", validate=False)

    def act_matrix(self, a_coords) -> Matrix:
        """The action of sum_k a_k b_k."""
        return combine_matrices(self.algebra.field, self.dim, a_coords, self.action)

    def act(self, v, a_coords):
        return apply_vec(v, self.act_matrix(a_coords))

    def __repr__(self):
        return f"RightModule({self.name}, dim {self.dim} over {self.algebra.name})"

    def direct_sum(self, other: "RightModule", name=None):
        if other.algebra is not self.algebra:
            raise ValidationError("direct sum needs a common algebra")
        f = self.algebra.field
        n = self.dim + other.dim
        mats = []
        for m1, m2 in zip(self.action, other.action):
            rows = []
            for r in m1.rows:
                rows.append(tuple(r) + zero_vec(f, other.dim))
            for r in m2.rows:
                rows.append(zero_vec(f, self.dim) + tuple(r))
            mats.append(Matrix(f, rows, n))
        return RightModule(self.algebra, mats,
                           name=name or f"{self.name}+{other.name}",
                           validate=False)

    # -- submodules and quotients ---------------------------------------------

    def generator_action(self):
        """The action matrices of the algebra's generators.

        A subspace stable under them (``Subspace.is_stable``) is a
        submodule, because ``action`` is a representation: validated at
        construction, or built from modules that are.
        """
        return [self.action[g] for g in self.algebra.generators()]

    def spin_submodule(self, seeds) -> Subspace:
        return spin(self.algebra.field, self.dim, seeds, self.generator_action())

    def submodule(self, space: Subspace, name="L"):
        """(module on the subspace, inclusion map); a subspace that some
        action matrix does not map into itself raises."""
        mats = [space.restrict(m) for m in self.action]
        if None in mats:
            raise ValidationError("subspace is not action-invariant")
        sub = RightModule(self.algebra, mats, name=name, validate=False)
        incl = ModuleMap(sub, self, space.mat)
        return sub, incl

    def quotient(self, space: Subspace, name="Q"):
        """(module on the complement coordinates, projection map)."""
        if not space.is_stable(self.generator_action()):
            raise ValidationError("cannot quotient by a non-submodule")
        f = self.algebra.field
        proj = space.complement_projection_matrix()
        comp = space.complement_coords()
        mats = []
        for m in self.action:
            # Row j of m is the image of the j-th unit vector.
            mats.append(Matrix.trusted(f, tuple(apply_vec(m.rows[j], proj)
                                                for j in comp), len(comp)))
        quot = RightModule(self.algebra, mats, name=name, validate=False)
        return quot, ModuleMap(self, quot, proj)

    # -- socle / radical -------------------------------------------------------

    def killed_by(self, space: Subspace) -> Subspace:
        """{v : v x = 0 for every x in space}, for a subspace of the algebra,
        one action matrix per basis row.  An ideal is best passed by its
        generators as a right ideal, T with T A = I, since v I = v T A is 0
        iff v T is (``radical_generators``, ``PrimeWitness.generators``)."""
        return common_left_kernel(self.algebra.field, self.dim,
                                  [self.act_matrix(x) for x in space.basis_rows()])

    def socle_space(self) -> Subspace:
        """{v : v J = 0}, the largest semisimple submodule: what G kills,
        since G A = J."""
        if self._socle is None:
            self._socle = self.killed_by(radical_generators(self.algebra))
        return self._socle

    def radical_space(self) -> Subspace:
        """M J, the radical submodule, which is M G, since A G = J."""
        if self._radical is None:
            # Row i of act_matrix(g) is v_i g for the i-th basis vector v_i
            # of M, so these rows, over a basis of G, span M G.
            vecs = [row for g in radical_generators(self.algebra).basis_rows()
                    for row in self.act_matrix(g).rows]
            self._radical = Subspace.from_vectors(self.algebra.field, self.dim, vecs)
        return self._radical


class ModuleMap:
    """Module homomorphism recorded by a matrix on row vectors."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: RightModule, target: RightModule, matrix: Matrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def __call__(self, v):
        return apply_vec(v, self.matrix)

    def is_module_map(self):
        """rho_M(b_g) X = X rho_N(b_g) for every generator g; a map that
        intertwines the b_g intertwines their products."""
        return all(ms * self.matrix == self.matrix * mt for ms, mt in
                   zip(self.source.generator_action(),
                       self.target.generator_action()))

    def is_injective(self):
        return self.matrix.rank() == self.source.dim

    def is_surjective(self):
        return self.matrix.rank() == self.target.dim

    def image_space(self) -> Subspace:
        return Subspace.from_vectors(self.target.algebra.field,
                                     self.target.dim, self.matrix.rows)


# -- simple modules ------------------------------------------------------------

@dataclass
class SimpleClass:
    """Isomorphism class of a simple right module.

    ``idempotent`` is a primitive idempotent e of the algebra with S the
    top of eA.  ``module`` and ``idempotent`` are None exactly when the
    class sits over a rational block whose division part could not be
    resolved at desk scale; consumers needing the representative must
    call ``require_module``.
    """
    label: str
    block_index: int
    module: RightModule | None
    end_dim: int | None
    dim: int | None
    idempotent: tuple | None

    def require_module(self) -> RightModule:
        if self.module is None:
            raise CapabilityError(
                f"simple class {self.label}: division part unresolved over Q")
        return self.module


def pull_back(a: FiniteDimAlgebra, space: Subspace, name="M") -> RightModule:
    """The right ideal ``space`` of a/J as a right a-module: x acts as its
    image under the projection a -> a/J that ``semisimple_quotient``
    stores.  A simple S_t is a minimal right ideal inside block B_t, and
    a/P_t is B_t itself (docs/derivations.md, "Lambda/P is its block")."""
    quot, proj, _section = semisimple_quotient(a)
    m = RightModule.regular(quot).submodule(space)[0]
    mats = m.action if proj is None else [m.act_matrix(z) for z in proj.rows]
    return RightModule(a, mats, name=name, validate=False)


def _rational_right_submodule_candidates(quot, block: Subspace):
    """Right ideals of quot inside the block, from kernels of f(L_z) on it,
    yielded as found: the pieces of each z in turn, then the nonzero
    meets of pairs among the first twelve pieces."""
    f = quot.field
    first = []
    basis = block.basis_rows()
    elements = list(basis) + [vec_add(f, u, v)
                              for u, v in itertools.combinations(basis, 2)]
    for z in elements:
        _deg, _factors, pieces = factor_minimal_polynomial(
            block, quot.left_mult_matrix(z))
        for p in pieces:
            if 0 < p.dim < block.dim:
                if len(first) < 12:
                    first.append(p)
                yield p
    for s, t in itertools.combinations(first, 2):
        meet = s.intersect(t)
        if meet.dim > 0:
            yield meet


def simple_modules(a: FiniteDimAlgebra) -> list[SimpleClass]:
    """Complete irredundant list; one class per Wedderburn block of a/J.

    The simple of block B is a minimal right ideal S of a/J inside B, on
    which a acts through the projection a -> a/J (``pull_back``), or,
    when none is certified, a class with no module.  So End_a(S) =
    End_B(S) (docs/derivations.md), which is the block's centre Z(B) once
    S is certified ("Simples read off the block's centre"), and
    ``end_dim`` is dim Z(B).  The idempotent generating S in a/J is
    lifted here to a primitive idempotent of a, so every later reader
    finds it computed.

    An algebra built by ``opposite()`` reads its classes off its partner:
    block t has the simple D(S_t), the same End dimension and the same
    primitive idempotent e_t, with D(S_t) the top of e_t a (the note
    "Simples and primitive idempotents of the opposite").
    """
    st = a.structure
    if st.simples is not None:
        return st.simples
    if st.mirror:
        st.simples = [s if s.module is None else
                      replace(s, module=dual_module(s.module, a, name=s.label))
                      for s in simple_modules(st.opposite)]
        return st.simples
    quot, _proj, section = semisimple_quotient(a)
    out = []
    for t, blk in enumerate(wedderburn_blocks(quot)):
        label = f"S{t + 1}"
        try:
            space = _minimal_right_ideal_space(quot, blk)
        except CapabilityError:
            out.append(SimpleClass(label, t, None, None, None, None))
            continue
        mod = pull_back(a, space, name=label)
        e = _idempotent_in_minimal_right_ideal(quot, space)
        e = _newton_idempotent_lift(a, e if section is None else apply_vec(e, section))
        out.append(SimpleClass(label, t, mod, blk.center.dim, mod.dim, e))
    st.simples = out
    return out


def composition_factors(m: RightModule):
    """Multiset {simple label: multiplicity} of m's composition factors.

    With e_t the primitive idempotent of block t, m e_t = Hom(e_t A, m)
    has dimension [m : S_t] dim End(S_t) (docs/derivations.md,
    "Multiplicities from one idempotent per simple"), so each count is a
    rank.  A remainder, or counts whose simples do not fill dim m, raise
    ``ValidationError``.
    """
    counts = {}
    total = 0
    for s in simple_modules(m.algebra):
        if s.idempotent is None:
            raise CapabilityError(
                f"composition factors need all simples realized; {s.label} is not")
        mult, rest = divmod(m.act_matrix(s.idempotent).rank(), s.end_dim)
        if rest:
            raise ValidationError(f"dim M e for {s.label} is not a multiple "
                                  "of dim End")
        if mult:
            counts[s.label] = mult
        total += mult * s.dim
    if total != m.dim:
        raise ValidationError("composition factors do not add up to dim M")
    return counts


def module_length(m: RightModule) -> int:
    return sum(composition_factors(m).values())


def is_simple_module(m: RightModule) -> bool:
    if m.dim == 0:
        return False
    return module_length(m) == 1


# -- homomorphisms ---------------------------------------------------------------

def hom_basis(m: RightModule, n: RightModule) -> list[Matrix]:
    """Basis of Hom(m, n): solutions X of M_g X = X N_g for every generator
    g, which is what ``ModuleMap.is_module_map`` asks of X."""
    if m.algebra is not n.algebra:
        raise ValidationError("hom needs a common algebra")
    f = m.algebra.field
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return []
    pairs = list(zip(m.generator_action(), n.generator_action()))
    rows = []
    for r in range(dm):
        for c in range(dn):
            cond = []
            for mi, ni in pairs:
                for u in range(dm):
                    for v in range(dn):
                        x = f.zero
                        if v == c:
                            x = f.add(x, mi.rows[u][r])
                        if u == r:
                            x = f.sub(x, ni.rows[c][v])
                        cond.append(x)
            rows.append(tuple(cond))
    big = Matrix(f, rows, len(pairs) * dm * dn)
    kern = big.left_kernel()
    out = []
    for lam in kern.rows:
        mat = [[lam[r * dn + c] for c in range(dn)] for r in range(dm)]
        out.append(Matrix(f, mat, dn))
    return out


# -- duality, projective covers, injective envelopes ------------------------------

def dual_module(m: RightModule, opposite_algebra: FiniteDimAlgebra,
                name=None) -> RightModule:
    """k-dual as a right module over the opposite algebra (transposed action)."""
    mats = [mat.transpose() for mat in m.action]
    return RightModule(opposite_algebra, mats, name=name or f"D({m.name})",
                       validate=False)


@dataclass
class PrimitiveIdempotentData:
    block_index: int
    idempotent: tuple          # honest idempotent of the algebra
    projective: RightModule    # e*A as a right module
    projective_space: Subspace


def primitive_idempotents(a: FiniteDimAlgebra) -> list[PrimitiveIdempotentData]:
    """One primitive idempotent per block, the one ``simple_modules``
    lifted, with its projective eA."""
    if a.structure.primitive_idempotents is not None:
        return a.structure.primitive_idempotents
    reg = RightModule.regular(a)
    out = []
    for s in simple_modules(a):
        t, e = s.block_index, s.idempotent
        if e is None:
            raise CapabilityError(
                f"block {t}: no primitive idempotent at desk scale (non-split over Q)")
        space = reg.spin_submodule([e])
        pmod, _ = reg.submodule(space, name=f"P{t + 1}")
        out.append(PrimitiveIdempotentData(t, e, pmod, space))
    a.structure.primitive_idempotents = out
    return out


def _idempotent_in_minimal_right_ideal(quot, space: Subspace):
    """Idempotent generating ``space``, a minimal right ideal of the
    semisimple ``quot``.

    For a minimal right ideal W with wW = W, the solution e in W of
    w e = w is idempotent: w(e^2 - e) = 0 and the left-annihilator of w
    inside W is a proper right subideal, hence zero.
    """
    f = quot.field
    basis = space.basis_rows()
    for w in basis:
        w_im = [quot.mul(w, u) for u in basis]
        if Subspace.from_vectors(f, quot.dim, w_im).dim == space.dim:
            mat = Matrix(f, w_im, quot.dim)
            coeffs = mat.solve_left(w)
            if coeffs is None:
                continue
            e = apply_vec(coeffs, space.mat)
            if quot.mul(e, e) == e and not vec_is_zero(f, e):
                return e
    raise ValidationError("no idempotent found in a minimal right ideal")


def _minimal_right_ideal_space(quot, block: WedderburnBlock) -> Subspace:
    """A minimal right ideal of the semisimple ``quot`` inside its block,
    certified by its dimension.

    With B = M_n(D) and K = Z(B), every right ideal of B has dimension
    m n dim D, and one of dimension sqrt(dim B dim K) exists exactly when
    D = K; it is then minimal (docs/derivations.md, "Simples read off the
    block's centre").  Over F_p D = K always, and the search shrinks to
    the first right ideal generated by a vector of the current one that
    is smaller, walking one vector per line (first nonzero coefficient 1)
    lazily, in ``itertools.product`` order of the coefficients, until the
    target dimension: c v, c != 1, comes after v and spins the same right
    ideal, so the walk over all vectors finds the same one.  Over Q the
    smallest candidate kernel is certified iff it has that dimension, and
    the search stops at the first candidate of the target dimension: each
    is a nonzero right ideal of the block, so none is smaller.  A
    commutative block, a field, is its own target.
    """
    f = quot.field
    space = block.space
    target = math.isqrt(space.dim * block.center.dim)
    if not f.is_finite():
        if space.dim > target:
            space = next((s for s in _rational_right_submodule_candidates(
                quot, space) if s.dim == target), space)
        if space.dim != target:
            raise CapabilityError("minimal right ideal unresolved over Q")
        return space
    ops = [quot.right_mult_by(g) for g in quot.generators()]
    while space.dim > target:
        n, p = space.dim, f.p
        # The n base-p digits of each m in [p^k, 2 p^k): leading digit 1.
        lines = (tuple(m // p ** j % p for j in range(n - 1, -1, -1))
                 for k in range(n) for m in range(p ** k, 2 * p ** k))
        gens = (spin(f, quot.dim, [apply_vec(c, space.mat)], ops)
                for c in lines)
        space = next((g for g in gens if g.dim < space.dim), None)
        if space is None:
            raise ValidationError("no right ideal of the target dimension")
    return space


def _newton_idempotent_lift(a: FiniteDimAlgebra, e):
    """e with e^2 = e mod J, iterated 3e^2 - 2e^3 to an honest idempotent."""
    f = a.field
    three = f.scalar(3)
    two = f.scalar(2)
    for _ in range(a.dim + 2):
        if a.mul(e, e) == e:
            return e
        e2 = a.mul(e, e)
        e3 = a.mul(e2, e)
        e = vec_add(f, vec_scale(f, three, e2),
                    vec_scale(f, f.neg(two), e3))
    raise ValidationError("idempotent lifting did not converge")


def projective_cover(n: RightModule):
    """(P, cover map P -> n) with P minimal projective, kernel in rad P.

    Each generator g is a row of act_matrix(e_t), so g = g e_t, outside
    rad n plus the spins of the generators so far: g A then adds one copy
    of S_t to the top, and once every row of every e_t is spanned the
    copies make up the top of n.  Minimal: P/rad P has the dimension of
    the top of n.  rad P = P J and rad n are submodules by construction,
    so both tops are read as dimension differences, and no quotient
    module is built.
    """
    a = n.algebra
    f = a.field
    if n.dim == 0:
        z = RightModule.zero(a)
        return z, ModuleMap(z, n, Matrix(f, [], n.dim))
    rad = n.radical_space()
    spanned = rad
    summands = []     # (prim data, generator g in n)
    for prim in primitive_idempotents(a):
        for g in n.act_matrix(prim.idempotent).rows:
            if not spanned.contains_vector(g):
                summands.append((prim, g))
                spanned = spanned.sum(n.spin_submodule([g]))
    big = None
    maps = []
    for prim, g in summands:
        pmod = prim.projective
        rows = [n.act(g, p_elt) for p_elt in prim.projective_space.basis_rows()]
        maps.append(Matrix(f, rows, n.dim))
        big = pmod if big is None else big.direct_sum(pmod)
    if big is None:
        raise ValidationError("nonzero module with empty top")
    cover_rows = [row for mat in maps for row in mat.rows]
    cover = ModuleMap(big, n, Matrix(f, cover_rows, n.dim))
    if not cover.is_surjective():
        raise ValidationError("projective cover map is not surjective")
    if big.dim - big.radical_space().dim != n.dim - rad.dim:
        raise ValidationError("projective cover is not minimal")
    return big, cover


def injective_envelope(m: RightModule):
    """(E, essential embedding m -> E) via duality with the opposite algebra.

    E(M) is the dual of the projective cover of the dual of M; the double
    dual is literally M in coordinates, so the embedding is the transpose
    of the cover matrix.  The opposite algebra is the one cached on ``a``,
    so its radical, quotient and primitive idempotents are computed once.
    """
    a = m.algebra
    aop = a.opposite()
    dm = dual_module(m, aop)
    p, cover = projective_cover(dm)
    e_mod = dual_module(p, a, name=f"E({m.name})")
    embed = ModuleMap(m, e_mod, cover.matrix.transpose())
    if not embed.is_injective():
        raise ValidationError("injective envelope embedding is not injective")
    if not embed.is_module_map():
        raise ValidationError("injective envelope embedding is not a module map")
    if not embed.image_space().contains(e_mod.socle_space()):
        raise ValidationError("injective envelope embedding is not essential")
    return e_mod, embed


# -- object-level predicates -----------------------------------------------------

def is_monoform(m: RightModule) -> bool:
    """No common submodule class with any proper quotient.

    Finite length reduction (docs/derivations.md, "Monoform, finite
    length"): m is monoform iff its socle is a simple S and [m : S] = 1,
    both read off ``composition_factors``.
    """
    if m.dim == 0:
        raise ValidationError("monoform is about nonzero modules")
    soc, _ = m.submodule(m.socle_space(), name="soc")
    soc_factors = composition_factors(soc)
    if list(soc_factors.values()) != [1]:
        return False                    # the socle is not simple
    (label,) = soc_factors
    return composition_factors(m)[label] == 1


def is_compressible(m: RightModule) -> bool:
    """Every nonzero submodule contains a copy of m; finite length: simple."""
    if m.dim == 0:
        raise ValidationError("compressible is about nonzero modules")
    return is_simple_module(m)


def is_prime_object(m: RightModule) -> bool:
    """All nonzero submodules share the annihilator; iff Ann(m) is prime."""
    if m.dim == 0:
        raise ValidationError("prime is about nonzero modules")
    ann = annihilator(m)
    if ann.is_whole():
        raise ValidationError("nonzero module with full annihilator")
    return is_prime(ann)
