"""Fixture file format: line-oriented key = value inside [section] headers.

One [backend] section picks the ring; optional [module NAME] sections add
right modules by action matrices; [graded_module NAME] sections describe
graded modules for the graded backend; an optional [window] section sets
the default window for infinite spectra.  Polynomials are coefficient
lists low-to-high; matrices are rows of entries separated by ';'.  The
grammar is documented with EBNF in docs/fixture_format.md.

Parsing is strict and reports line numbers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .algebras import (BoundQuiver, FiniteDimAlgebra, bound_quiver_algebra,
                       check_arrow, check_group_table, check_length,
                       check_relation, check_size, companion_algebra,
                       group_algebra, matrix_algebra,
                       upper_triangular_algebra)
from .commutative import (GradedModuleDescriptor, GradedPolyBackend,
                          IntegerBackend, IntModBackend, PolyBackend,
                          PolyQuotBackend)
from .errors import RingSpectraError, ValidationError
from .linalg import Matrix, field_by_name
from .modules import RightModule
from .spectra import ArtinianBackend


class FixtureParseError(RingSpectraError):
    def __init__(self, message, line=None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


@dataclass
class Section:
    name: str
    entries: list          # list of (key, value) strings, order preserved
    line: int = 0
    entry_lines: list = dc_field(default_factory=list)   # line of each entry

    def get(self, key, default=None):
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def get_all(self, key):
        """(value, line) of every entry for key, in order."""
        return [(v, n) for (k, v), n in zip(self.entries, self.entry_lines)
                if k == key]

    def require(self, key):
        v = self.get(key)
        if v is None:
            raise FixtureParseError(f"[{self.name}] needs '{key} = ...'",
                                    self.line)
        return v

    def check_keys(self, allowed):
        """Refuse, at its line, an entry whose key is not in ``allowed``."""
        for (k, _v), n in zip(self.entries, self.entry_lines):
            if k not in allowed:
                raise FixtureParseError(f"[{self.name}] unknown key {k!r}", n)

    def parse(self, key, convert, default=None):
        """``convert`` of the value of key (required unless a default is
        given); a value that fails to convert is reported at its line."""
        value = self.require(key) if default is None else self.get(key, default)
        line = next((n for (k, _v), n in zip(self.entries, self.entry_lines)
                     if k == key), self.line)
        with _reported_at(self, line):
            return convert(value)


@dataclass
class FixtureFile:
    sections: list = dc_field(default_factory=list)

    def section(self, name):
        for s in self.sections:
            if s.name == name:
                return s
        return None

    def sections_named(self, prefix):
        return [s for s in self.sections if s.name.split(" ")[0] == prefix]


SECTION_KINDS = ("backend", "window", "module", "graded_module")
REPEATABLE_KEYS = frozenset({"c", "arrow", "relation"})

# The keys a [backend] section is read for: by kind, and for kind = algebra
# by source.  Any other key is an error at its line.
SYMBOLIC_KEYS = {"int": {"kind"}, "int_mod": {"kind", "modulus"},
                 "poly": {"kind", "field"}, "poly_quot": {"kind", "field", "modulus"},
                 "graded_poly": {"kind", "field"}}
ALGEBRA_KEYS = {"kind", "field", "source", "name"}
SOURCE_KEYS = {"matrix": {"n"}, "triangular": {"n"}, "companion": {"poly"},
               "group": {"table"},
               "quiver": {"vertices", "arrow", "relation", "nilpotency_bound"},
               "structure_constants": {"dim", "c", "unit", "labels"}}
# The kinds whose spectrum is finite and listed whole, so that no
# [window] 'bound' is read for them.
FINITE_SPECTRUM_KINDS = ("algebra", "int_mod", "poly_quot")


def parse_fixture(text: str) -> FixtureFile:
    """Sections and entries, in order.  An unknown section kind, a repeated
    section header and a repeated key other than ``REPEATABLE_KEYS`` are
    errors at their line, so nothing in a fixture is silently ignored."""
    fixture = FixtureFile()
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise FixtureParseError("unterminated section header", lineno)
            name = line[1:-1].strip()
            if not name:
                raise FixtureParseError("empty section name", lineno)
            if name.split(" ")[0] not in SECTION_KINDS:
                raise FixtureParseError(f"unknown section [{name}]", lineno)
            if fixture.section(name) is not None:
                raise FixtureParseError(f"repeated section [{name}]", lineno)
            current = Section(name, [], lineno)
            fixture.sections.append(current)
            continue
        if "=" not in line:
            raise FixtureParseError(f"expected 'key = value', got {line!r}",
                                    lineno)
        if current is None:
            raise FixtureParseError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in REPEATABLE_KEYS and current.get(key) is not None:
            raise FixtureParseError(f"[{current.name}] repeated key {key!r}",
                                    lineno)
        current.entries.append((key, value.strip()))
        current.entry_lines.append(lineno)
    if fixture.section("backend") is None:
        raise FixtureParseError("fixture needs a [backend] section")
    return fixture


# -- building backends from fixtures ---------------------------------------------

def _scalar(field, token):
    try:
        if "/" in token:
            return field.scalar(Fraction(token))
        return field.scalar(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar {token!r}: {exc}") from None


def _int_list(value):
    return [int(t) for t in value.replace(",", " ").split()]


def _scalar_list(field, value):
    return [_scalar(field, t) for t in value.replace(",", " ").split()]


def _matrix(field, value):
    rows = [r.strip() for r in value.split(";")]
    return Matrix(field, [_scalar_list(field, r) for r in rows if r],
                  ncols=None)


@dataclass
class LoadedFixture:
    backend: object
    modules: dict           # name -> RightModule (artinian backends)
    graded_modules: dict    # name -> GradedModuleDescriptor
    window: object          # int, (lo, hi) or None
    fixture: FixtureFile


@contextmanager
def _reported_at(section, line=None):
    """Re-raise a bad value met in a section as a parse error at ``line``,
    by default the section header's."""
    try:
        yield
    except (ValueError, ValidationError) as exc:
        raise FixtureParseError(f"[{section.name}] {exc}",
                                section.line if line is None else line) from None


def load_fixture(text: str) -> LoadedFixture:
    fixture = parse_fixture(text)
    b = fixture.section("backend")
    kind = b.require("kind")
    keys = _backend_keys(b, kind)
    if keys is not None:
        b.check_keys(keys)
    with _reported_at(fixture.section("window")):
        window = _parse_window(fixture.section("window"), kind)

    _require_backend_kind(fixture, "graded_module", kind, "graded_poly")
    if kind == "algebra":
        with _reported_at(b):
            algebra = _build_algebra(b)
        backend = ArtinianBackend(algebra, label=b.get("name", algebra.name))
        modules = {}
        for s in fixture.sections_named("module"):
            name = _section_label(s, modules)
            with _reported_at(s):
                modules[name] = _build_module(algebra, s, name)
        return LoadedFixture(backend, modules, {}, window, fixture)

    _require_backend_kind(fixture, "module", kind, "algebra")
    with _reported_at(b):
        backend = _symbolic_backend(b, kind)
    graded = {}
    if kind == "graded_poly":
        for s in fixture.sections_named("graded_module"):
            name = _section_label(s, graded)
            with _reported_at(s):
                graded[name] = _build_graded_module(s)
    return LoadedFixture(backend, {}, graded, window, fixture)


def _backend_keys(b: Section, kind):
    """The keys a [backend] of this kind is read for; None for an unknown
    kind or source, which is refused where the backend is built."""
    if kind != "algebra":
        return SYMBOLIC_KEYS.get(kind)
    source = SOURCE_KEYS.get(b.get("source"))
    return None if source is None else ALGEBRA_KEYS | source


def _section_label(section, taken):
    """NAME of a [module NAME] or [graded_module NAME] section, M<k> if
    absent; a name an earlier section in ``taken`` has is an error."""
    name = section.name.partition(" ")[2] or f"M{len(taken) + 1}"
    if name in taken:
        raise FixtureParseError(f"a second module named {name!r}", section.line)
    return name


def _require_backend_kind(fixture, section_kind, kind, needed):
    """A section of ``section_kind`` is only read on a ``needed`` backend."""
    sections = fixture.sections_named(section_kind)
    if sections and kind != needed:
        raise FixtureParseError(
            f"[{sections[0].name}] needs 'kind = {needed}' in [backend]",
            sections[0].line)


def _symbolic_backend(b: Section, kind):
    if kind == "int":
        return IntegerBackend()
    if kind == "int_mod":
        return IntModBackend(b.parse("modulus", int))
    if kind == "poly":
        return PolyBackend(b.parse("field", field_by_name))
    if kind == "poly_quot":
        fld = b.parse("field", field_by_name)
        return PolyQuotBackend(
            fld, b.parse("modulus", lambda v: _scalar_list(fld, v)))
    if kind == "graded_poly":
        return GradedPolyBackend(b.parse("field", field_by_name))
    raise FixtureParseError(f"unknown backend kind {kind!r}", b.line)


def _parse_window(section, kind):
    """``bound``, which only the backends with an infinite spectrum read,
    or the (lo, hi) shift range, which only the graded backend reads; an
    error names the first 'lo' or 'hi' line, or the 'bound' line.  A
    negative bound is refused at its line, and hi < lo at the 'hi' line."""
    if section is None:
        return None
    section.check_keys({"bound", "lo", "hi"})
    ranged = [n for (k, _v), n in zip(section.entries, section.entry_lines)
              if k in ("lo", "hi")]
    bounds = section.get_all("bound")
    if ranged and bounds:
        raise FixtureParseError("[window] gives both 'bound' and 'lo'/'hi'",
                                ranged[0])
    if ranged and kind != "graded_poly":
        hint = "" if kind in FINITE_SPECTRUM_KINDS else "; use 'bound'"
        raise FixtureParseError("[window] 'lo'/'hi' are the shift range of "
                                f"'kind = graded_poly'{hint}", ranged[0])
    if bounds and kind in FINITE_SPECTRUM_KINDS:
        raise FixtureParseError(
            f"[window] 'bound' is not read: 'kind = {kind}' has a finite "
            "spectrum, listed whole", bounds[0][1])
    if bounds:
        bound = section.parse("bound", int)
        if bound < 0:
            raise FixtureParseError(
                f"[window] 'bound' must be non-negative, got {bound}",
                bounds[0][1])
        return bound
    if section.get("lo") is not None and section.get("hi") is not None:
        lo, hi = section.parse("lo", int), section.parse("hi", int)
        if hi < lo:
            raise FixtureParseError(
                f"[window] 'hi' = {hi} is below 'lo' = {lo}",
                section.get_all("hi")[0][1])
        return lo, hi
    raise FixtureParseError("[window] needs 'bound' or 'lo'/'hi'", section.line)


def _build_algebra(b: Section) -> FiniteDimAlgebra:
    fld = b.parse("field", field_by_name)
    source = b.require("source")
    name = b.get("name", "A")
    if source == "matrix":
        return matrix_algebra(b.parse("n", int), fld, name=name)
    if source == "triangular":
        return upper_triangular_algebra(b.parse("n", int), fld, name=name)
    if source == "companion":
        return companion_algebra(
            fld, b.parse("poly", lambda v: _scalar_list(fld, v)), name=name)
    if source == "group":
        table = b.parse("table", lambda v: check_group_table(
            [_int_list(row) for row in v.split(";")]))
        return group_algebra(fld, table, name=name)
    if source == "quiver":
        return bound_quiver_algebra(fld, _build_quiver(b), name=name)
    if source == "structure_constants":
        dim = check_size("structure constants dimension", b.parse("dim", int))
        rows = [[{} for _ in range(dim)] for _ in range(dim)]
        for line, lineno in b.get_all("c"):
            parts = line.replace(",", " ").split()
            if len(parts) != 4:
                raise FixtureParseError(
                    f"'c = i j k value' expected, got {line!r}", lineno)
            with _reported_at(b, lineno):
                i, j, k = (int(p) for p in parts[:3])
                if not all(0 <= t < dim for t in (i, j, k)):
                    raise ValueError(f"index outside 0..{dim - 1} in {line!r}")
                if k in rows[i][j]:
                    raise ValueError(
                        f"a second constant c[{i}][{j}][{k}] in {line!r}")
                rows[i][j][k] = _scalar(fld, parts[3])
        unit = b.get("unit")
        labels = b.get("labels")
        return FiniteDimAlgebra.trusted(
            fld, ([sorted((k, c) for k, c in row.items() if c) for row in plane]
                  for plane in rows),
            unit=b.parse("unit", lambda v: check_length(
                _scalar_list(fld, v), dim, "unit")) if unit else None,
            labels=b.parse("labels", lambda v: check_length(
                v.split(), dim, "labels")) if labels else None, name=name)
    raise FixtureParseError(f"unknown algebra source {source!r}", b.line)


def _build_quiver(b: Section) -> BoundQuiver:
    vertices = b.parse("vertices", int)
    arrows = []
    for spec, lineno in b.get_all("arrow"):
        parts = spec.split()
        if len(parts) != 3:
            raise FixtureParseError(
                f"'arrow = label source target' expected, got {spec!r}", lineno)
        with _reported_at(b, lineno):
            arrows.append(check_arrow(vertices, (parts[0], int(parts[1]) - 1,
                                                 int(parts[2]) - 1)))
    arrow_index = {a[0]: i for i, a in enumerate(arrows)}
    relations = []
    for spec, lineno in b.get_all("relation"):
        with _reported_at(b, lineno):
            relations.append(check_relation(
                arrows, _parse_relation(spec, arrow_index, lineno)))
    bound = b.parse("nilpotency_bound", int, "16")
    return BoundQuiver(vertices, tuple(arrows), tuple(relations), bound)


def _parse_relation(spec, arrow_index, lineno):
    """Terms like 'a.b - b.a' or '2*a.a'; paths are dot-joined arrow labels."""
    terms = []
    chunks = []
    current = ""
    sign = 1
    for ch in spec:
        if ch in "+-":
            if current.strip():
                chunks.append((sign, current.strip()))
            current = ""
            sign = 1 if ch == "+" else -1
        else:
            current += ch
    if current.strip():
        chunks.append((sign, current.strip()))
    for sgn, chunk in chunks:
        coeff = sgn
        if "*" in chunk:
            c, _, chunk = chunk.partition("*")
            coeff = sgn * int(c.strip())
        path = []
        for lbl in chunk.split("."):
            lbl = lbl.strip()
            if lbl not in arrow_index:
                raise FixtureParseError(f"unknown arrow {lbl!r} in relation",
                                        lineno)
            path.append(arrow_index[lbl])
        terms.append((coeff, tuple(path)))
    if not terms:
        raise FixtureParseError("empty relation", lineno)
    return tuple(terms)


def _build_module(algebra, s: Section, name) -> RightModule:
    dim = s.parse("dim", int)
    fld = algebra.field
    mats = [None] * algebra.dim
    for (key, value), lineno in zip(s.entries, s.entry_lines):
        if key == "dim":
            continue
        if key.startswith("action"):
            idx_token = key[len("action"):].strip()
            try:
                idx = int(idx_token)
            except ValueError:
                raise FixtureParseError(
                    f"'action <index> = rows' expected, got {key!r}", lineno)
            if not 0 <= idx < algebra.dim:
                raise FixtureParseError(f"action index {idx} out of range",
                                        lineno)
            if mats[idx] is not None:
                raise FixtureParseError(f"repeated action index {idx}", lineno)
            with _reported_at(s, lineno):
                mat = _matrix(fld, value)
            if mat.nrows != dim or mat.ncols != dim:
                raise FixtureParseError(
                    f"action {idx} must be {dim}x{dim}", lineno)
            mats[idx] = mat
        else:
            raise FixtureParseError(f"unknown module key {key!r}", lineno)
    if any(m is None for m in mats):
        missing = [i for i, m in enumerate(mats) if m is None]
        raise FixtureParseError(
            f"module {name!r} missing action matrices {missing}", s.line)
    return RightModule(algebra, mats, name=name)


def _build_graded_module(s: Section) -> GradedModuleDescriptor:
    s.check_keys({"free", "torsion"})
    free_shifts = tuple(sorted(s.parse("free", _int_list, "")))
    tors = s.parse("torsion", _torsion_list, "")
    return GradedModuleDescriptor(free_shifts, tuple(sorted(tors)))


def _torsion_list(value):
    tors = []
    for tok in value.replace(",", " ").split():
        if ":" not in tok:
            raise ValueError(
                f"torsion entries are 'length:socle_shift', got {tok!r}")
        length, _, shift = tok.partition(":")
        if int(length) < 1:
            raise ValueError("torsion length must be >= 1")
        tors.append((int(length), int(shift)))
    return tors
