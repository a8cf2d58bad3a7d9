"""Command-line front end: analyze, verify, hasse, oracle.

Reports are JSON with a versioned schema and deterministic key order, so
identical inputs produce byte-identical output.  Exit codes: 0 success,
1 failed verification (an assertion that fails, or a self-check that
raises ``ValidationError``), 2 fixture parse error or usage error (a
fixture path that cannot be read, an output path that cannot be
written, a negative ``--window``, ``oracle`` with nothing to do),
3 capability or budget error.  The Lambda-level sections and checks run
where the backend declares an ``algebra``.  An ``analyze`` listing (only
``--atoms`` and/or ``--molecules``, no ``--dot``) runs no assertions,
only the self-checks of what it computes; every other ``analyze``,
``verify`` and ``hasse`` run the whole suite.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .errors import BudgetExceeded, CapabilityError, ValidationError
from .fixtures import FixtureParseError, load_fixture
from .goldie import goldie_localizing, validate_quotient_ring
from .linalg import GF
from .oracle import corpus, count_subspaces, enumerate_subspaces
from .spectra import (AssertionRecord, atom_spectrum, hasse_edges,
                      molecule_spectrum, verify_correspondence)
from .subcats import (artinianization, classify_localizing,
                      classify_locally_closed_localizing,
                      radical_lattice_dot, reduced_part)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_CAPABILITY = 3


class UsageError(Exception):
    """A command line that names no readable fixture, an unwritable output
    path, a negative window or no oracle task."""


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FixtureParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CapabilityError, BudgetExceeded) as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except ValidationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="ringspectra",
        description="Atom and molecule spectra of concrete noetherian rings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="JSON report for one fixture")
    p.add_argument("path")
    p.add_argument("--atoms", action="store_true")
    p.add_argument("--molecules", action="store_true")
    p.add_argument("--phi-psi", action="store_true", dest="phi_psi")
    p.add_argument("--radical", action="store_true")
    p.add_argument("--subcats", action="store_true")
    p.add_argument("--goldie", action="store_true")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the report here instead of stdout")
    p.add_argument("--dot", dest="dot_path", default=None,
                   help="also write a DOT diagram: the radical closed "
                        "subcategory lattice with --subcats, the two "
                        "spectra otherwise")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="pass/fail invariant suite for one fixture")
    p.add_argument("path")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="also compare fast predicates against brute force")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hasse", help="DOT diagram of both spectra and phi/psi")
    p.add_argument("path")
    p.add_argument("--dot", dest="dot_path", default=None)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("oracle", help="expose the enumeration harness")
    p.add_argument("--corpus", action="store_true",
                   help="list the fixture corpus")
    p.add_argument("--subspaces", nargs=2, type=int, metavar=("DIM", "P"),
                   action=_SubspacesArgs,
                   help="count subspaces of F_p^dim against the formula")
    p.set_defaults(func=cmd_oracle)
    return parser


class _SubspacesArgs(argparse.Action):
    """``--subspaces DIM P``: a usage error unless DIM >= 0 and P is prime,
    and a capability error when P cannot be certified prime."""

    def __call__(self, parser, namespace, values, option_string=None):
        dim, p = values
        if dim < 0:
            parser.error(f"{option_string}: DIM must be non-negative, got {dim}")
        try:
            GF(p)
        except ValueError as exc:
            parser.error(f"{option_string}: P: {exc}")
        except CapabilityError as exc:
            parser.exit(EXIT_CAPABILITY, f"capability error: {exc}\n")
        setattr(namespace, self.dest, values)


def _load(args):
    """The fixture at ``args.path``, with ``--window`` in place of its
    [window].  A path that cannot be read and a negative ``--window`` are
    usage errors; a byte that is not UTF-8 is a parse error at its line."""
    window = getattr(args, "window", None)
    if window is not None and window < 0:
        raise UsageError(f"--window must be non-negative, got {window}")
    try:
        with open(args.path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FixtureParseError(
            f"byte {data[exc.start]:#04x} is not UTF-8",
            data.count(b"\n", 0, exc.start) + 1) from None
    loaded = load_fixture(text)
    if window is not None:
        loaded.window = window
    return loaded


def _out(text: str):
    """Print a line of output.  A reader that stops reading ends the output,
    not the command: it still finishes and returns its own exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Send later lines, and the flush at exit, to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@contextlib.contextmanager
def _claimed(paths):
    """Check, before any work, that each output path can be written: each
    is opened to append, which changes no file.  A path that cannot be is a
    usage error.  The files made on the way are removed when the command
    then fails."""
    made = []
    try:
        for path in filter(None, paths):
            try:
                existed = os.path.lexists(path)
                open(path, "a").close()
            except OSError as exc:
                raise UsageError(f"cannot write {path}: {exc.strerror}") from None
            if not existed:
                made.append(path)
        yield
    except BaseException:
        for path in made:
            os.remove(path)
        raise


def _write(path, text):
    """Write text to a path that ``_claimed`` checked."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def cmd_analyze(args) -> int:
    """The requested sections; a listing (only --atoms and/or --molecules,
    no --dot) reads its spectra without ``verify_correspondence`` and
    exits 0 unless a self-check raises (docs/report_schema.md)."""
    with _claimed((args.dot_path, args.json_path)):
        return _analyze(args)


def _analyze(args) -> int:
    loaded = _load(args)
    backend = loaded.backend
    window = loaded.window
    want_all = not any((args.atoms, args.molecules, args.phi_psi,
                        args.radical, args.subcats, args.goldie))
    payload = {"schema_version": 1, "backend": backend.label,
               "kind": backend.kind}
    if (args.atoms or args.molecules) and not (
            args.phi_psi or args.radical or args.subcats or args.goldie
            or args.dot_path):
        report = None
        for name, read in (("atoms", atom_spectrum),
                           ("molecules", molecule_spectrum)):
            if getattr(args, name):
                spec = read(backend, window)
                payload[name] = _spectrum_section(
                    spec.elements, spec.order, spec.minimal, backend.complete)
    else:
        report = verify_correspondence(backend, window)
        if args.atoms or want_all:
            payload["atoms"] = _spectrum_section(
                report.atoms, report.atom_order, report.minimal_atoms,
                report.complete)
        if args.molecules or want_all:
            payload["molecules"] = _spectrum_section(
                report.molecules, report.molecule_order,
                report.minimal_molecules, report.complete)
    if args.phi_psi or want_all:
        payload["phi"] = report.phi_table
        payload["psi"] = report.psi_table
        payload["notes"] = report.notes
    if args.radical or want_all:
        payload["flags"] = {"atomic": report.atomic_flags,
                            "molecular": report.molecular_flags}
        try:
            red = report.reduced_part or reduced_part(backend)
            payload["reduced_part"] = (red.descriptor.label
                                       if red.descriptor is not None
                                       else str(red.atomic_route_ideal))
        except CapabilityError as exc:
            payload["reduced_part"] = f"unavailable: {exc}"
        try:
            art = artinianization(backend)
            payload["artinianization"] = {"kind": art.kind,
                                          "description": art.description,
                                          "atoms": art.atoms}
        except CapabilityError as exc:
            payload["artinianization"] = f"unavailable: {exc}"
    if args.subcats or want_all:
        payload["subcategories"] = _subcat_section(backend, window)
    if (args.goldie or want_all) and backend.algebra is not None:
        payload["goldie"] = goldie_localizing(backend).as_dict()
        try:
            payload["goldie"]["quotient_ring_validation"] = \
                validate_quotient_ring(backend, samples=100, seed=args.seed)
        except (CapabilityError, BudgetExceeded) as exc:
            payload["goldie"]["quotient_ring_validation"] = f"unavailable: {exc}"
    if loaded.graded_modules:
        payload["graded_modules"] = {
            name: {"mass": sorted(mol.label for mol in backend.mass(descr)),
                   "ass": sorted(at.label
                                 for at in backend.ass_atoms(descr)),
                   "prime_object": (backend.is_prime_object(descr)
                                    if not descr.is_zero() else None)}
            for name, descr in loaded.graded_modules.items()}
    if loaded.modules:
        payload["modules"] = {
            name: {"ass": sorted(a.label for a in backend.ass_atoms(mod)),
                   "asupp": sorted(a.label for a in backend.asupp(mod)),
                   "mass": sorted(r.label for r in backend.mass(mod)),
                   "msupp": sorted(r.label for r in backend.msupp(mod))}
            for name, mod in loaded.modules.items()}
    if args.dot_path:
        _write(args.dot_path, radical_lattice_dot(backend)
               if args.subcats and backend.algebra is not None
               else render_hasse_dot(report))
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if args.json_path:
        _write(args.json_path, text + "\n")
    else:
        _out(text)
    return EXIT_OK if report is None or report.passed() else EXIT_VERIFY_FAILED


def _spectrum_section(elements, order, minimal, complete):
    return {"elements": [x.label for x in elements], "order": order,
            "minimal": [x.label for x in minimal], "complete": complete}


def _subcat_section(backend, window):
    out = {}
    try:
        lcl = classify_locally_closed_localizing(backend, window)
        out["locally_closed_localizing_count"] = len(lcl)
        out["locally_closed_localizing"] = sorted(d.label for d in lcl)
    except (CapabilityError, BudgetExceeded) as exc:
        out["locally_closed_localizing_count"] = f"unavailable: {exc}"
    if backend.algebra is not None:
        try:
            descriptors, prime_ones, max_proper = classify_localizing(backend)
            out["localizing_count"] = len(descriptors)
            out["localizing"] = sorted(d.label for d in descriptors)
            out["prime_localizing_count"] = len(prime_ones)
            out["maximal_proper_localizing_count"] = len(max_proper)
        except BudgetExceeded as exc:
            out["localizing_count"] = f"unavailable: {exc}"
    return out


def cmd_verify(args) -> int:
    loaded = _load(args)
    backend = loaded.backend
    report = verify_correspondence(backend, loaded.window)
    records = list(report.assertions)
    if backend.algebra is not None:
        records.extend(_verify_algebra_extras(backend, report, args))
    for name, mod in sorted(loaded.modules.items()):
        ass = backend.ass_atoms(mod)
        records.append(AssertionRecord(
            "module_" + name + "_ass_in_asupp", ass <= backend.asupp(mod),
            f"AAss {sorted(a.label for a in ass)}"))
        mass = backend.mass(mod)
        records.append(AssertionRecord(
            "module_" + name + "_mass_in_msupp", mass <= backend.msupp(mod),
            f"MAss {sorted(r.label for r in mass)}"))
    for name, descr in sorted(loaded.graded_modules.items()):
        records.append(AssertionRecord(
            "graded_" + name + "_mass", True,
            f"MAss = {sorted(r.label for r in backend.mass(descr))}"))

    for rec in records:
        status = "SKIP" if rec.skipped else ("PASS" if rec.passed else "FAIL")
        detail = f"  [{rec.detail}]" if rec.detail else ""
        _out(f"{status} {rec.name}{detail}")
    ok = all(rec.passed or rec.skipped for rec in records)
    _out(f"{'pass' if ok else 'FAIL'}: {len(records)} assertions "
         f"({sum(1 for r in records if r.skipped)} skipped)")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _verify_algebra_extras(backend, report, args):
    """The Lambda-level checks; the reduced part's two routes were compared
    when ``report`` was made, which raises if they disagree."""
    out = [AssertionRecord("reduced_part_two_routes_agree", True,
                           f"flags {report.atomic_flags}")]
    try:
        gol = goldie_localizing(backend)
        out.append(AssertionRecord("goldie_surviving_in_minimal",
                                   gol.surviving_in_minimal,
                                   f"surviving {gol.surviving_atoms}"))
        out.append(AssertionRecord("goldie_artinianization_iff_reduced", True,
                                   f"equal: {gol.goldie_equals_artinianization}"))
        if gol.quotient_ring is not None:
            checked = validate_quotient_ring(
                backend, samples=100, seed=args.seed)["checked"]
            out.append(AssertionRecord("quotient_ring_clauses_sampled", True,
                                       f"{checked}"))
    except (CapabilityError, BudgetExceeded) as exc:
        out.append(AssertionRecord("goldie_analysis", True, f"skipped: {exc}"))
    if args.exhaustive and backend.algebra.field.is_finite() \
            and backend.algebra.dim <= 4:
        out.extend(_exhaustive_checks(backend.algebra))
    return out


def _exhaustive_checks(a):
    from .ideals import TwoSidedIdeal, is_prime
    from .modules import RightModule, is_monoform, is_prime_object
    from .oracle import (brute_is_monoform, brute_is_prime,
                         brute_is_prime_object, brute_singular_subspace,
                         enumerate_submodules, enumerate_two_sided_ideals)
    from .goldie import singular_subspace
    lattice = enumerate_two_sided_ideals(a)
    proper = [TwoSidedIdeal(a, s, validate=False)
              for s in lattice if s.dim != a.dim]
    ok = all(is_prime(i) == brute_is_prime(i, lattice) for i in proper)
    reg = RightModule.regular(a)
    right_ideals = enumerate_submodules(reg)
    return [
        AssertionRecord("exhaustive_is_prime_agrees", ok,
                        f"{len(lattice)} ideals checked"),
        AssertionRecord("exhaustive_monoform_agrees",
                        is_monoform(reg) == brute_is_monoform(reg, right_ideals),
                        "regular module"),
        AssertionRecord("exhaustive_prime_object_agrees",
                        is_prime_object(reg)
                        == brute_is_prime_object(reg, right_ideals),
                        "regular module"),
        AssertionRecord("exhaustive_singular_agrees",
                        singular_subspace(reg)
                        == brute_singular_subspace(reg, right_ideals),
                        "regular module")]


def cmd_hasse(args) -> int:
    with _claimed((args.dot_path,)):
        loaded = _load(args)
        dot = render_hasse_dot(verify_correspondence(loaded.backend,
                                                     loaded.window))
        if args.dot_path:
            _write(args.dot_path, dot)
        else:
            _out(dot)
    return EXIT_OK


def render_hasse_dot(report) -> str:
    """One digraph: atoms, molecules, Hasse edges, dashed phi, dotted psi."""
    lines = ["digraph spectra {", "  rankdir=BT;"]
    atom_ids = {a.label: f"a{i}" for i, a in enumerate(sorted(
        report.atoms, key=lambda x: x.label))}
    mol_ids = {m.label: f"m{i}" for i, m in enumerate(sorted(
        report.molecules, key=lambda x: x.label))}
    for label, node in sorted(atom_ids.items()):
        lines.append(f'  {node} [label="{label}", shape=ellipse];')
    for label, node in sorted(mol_ids.items()):
        lines.append(f'  {node} [label="{label}", shape=box];')
    lines.extend(_hasse_lines(report.atom_order, atom_ids))
    lines.extend(_hasse_lines(report.molecule_order, mol_ids))
    for a_label, m_label in sorted(report.phi_table.items()):
        lines.append(f"  {atom_ids[a_label]} -> {mol_ids[m_label]} "
                     "[style=dashed, constraint=false];")
    for m_label, a_label in sorted(report.psi_table.items()):
        lines.append(f"  {mol_ids[m_label]} -> {atom_ids[a_label]} "
                     "[style=dotted, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _hasse_lines(order, ids):
    """DOT edges of the covering pairs of an order given as label pairs."""
    labels = sorted(ids)
    index = {label: i for i, label in enumerate(labels)}
    up = [[] for _ in labels]
    for lo, hi in sorted(order):
        up[index[lo]].append(index[hi])
    return [f"  {ids[labels[i]]} -> {ids[labels[j]]};"
            for i, j in hasse_edges(up)]


def cmd_oracle(args) -> int:
    if args.subspaces:
        dim, p = args.subspaces
        subs = enumerate_subspaces(GF(p), dim)
        expected = count_subspaces(dim, p)
        _out(f"subspaces of F_{p}^{dim}: enumerated {len(subs)}, "
             f"formula {expected}")
        return EXIT_OK if len(subs) == expected else EXIT_VERIFY_FAILED
    if args.corpus:
        for name, alg in corpus():
            _out(f"{name}: dim {alg.dim}")
        return EXIT_OK
    raise UsageError("oracle needs --corpus or --subspaces DIM P")


if __name__ == "__main__":
    sys.exit(main())
