"""The package's public surface is the pipeline.

Every module-level public function and class of `src/fracspec` must be read
by some other code of the package: a function, a method or a module-level
statement, found by walking the syntax trees (a regex would count the names
that docstrings mention).  So must every public member of a package class:
a method, property, class-level alias or field (a dataclass field, or an
attribute `__init__` sets on self), read as an attribute outside its own
body by code that is not itself such a member without a reader.  Test-only
helpers belong in `tests/`, shared ones in `tests/oracles.py`.  The few
names the package keeps without a caller are listed below, each with its
reason.  So is every settable parameter (one with a default) and every
dataclass field with a default: adding or removing one means updating
`SETTABLE`.

A field that only echoes its call's argument has a reader of the same name
(`args.depth` reads `depth`), so the syntax trees cannot tell it from a
used one: every dataclass field must also be read at run time, by package
code, on the way from a command line to its output.
"""

import ast
import dataclasses
import pathlib
import sys

import pytest

from fracspec import cli, system

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fracspec"

ALLOWED = {
    "chi_B": "the exact mask at one rational frequency; the benchmark traces chi_B_batch "
             "below it",
    "chi_B_sq_grad": "the analytic gradient of |chi_B|^2, for the certified contraction "
                     "condition",
    "apply_C": "one step of the transfer operator; the benchmark traces it",
    "q1_profile": "the completeness sums without a verdict; the benchmark traces it",
    "simplex_Y": "the exact invariant simplex, the benchmark's oracle for every tower hull",
    "max_orthogonal_family": "exact maximum orthogonal families, for the exact "
                             "orthogonality route",
}

ALLOWED_MEMBERS = {
    "SelfSimilarMeasure.mu_hat_batch": "the transform at an array of frequencies; the "
                                       "benchmark traces it",
}


SETTABLE = {
    "cli.main.argv": "the command line; None reads sys.argv",
    "cli.build_parser.common.depth_default": "the --depth default of spectrum and attractor",
    "geometry.dual_hull.depth": "the hull depth; the pipeline reads 4, the tests other depths",
    "geometry.Polytope.contains.strict": "interior membership, for the exact overlap decision",
    "measure.SelfSimilarMeasure.mu_hat_batch.depth": "a fixed product depth over the adaptive one",
    "spectrum.q1_profile.p_depth": "the layer depth of the sums; None reads q1_depth(system)",
    "spectrum.q1_profile.eps_conv": "an early stop of the layer loop",
    "spectrum.completeness_test.eps_conv": "the q1 command's --tol",
    "spectrum.completeness_test.p_depth_cap": "the q1 command's --p-depth",
    "system.point.dim": "the dimension a point must have",
    "system.make_system.name": "a system's catalog name",
    "system.two_digit_system.name": "a system's catalog name",
    "system.system_from_json.name": "a system file's name",
    "transfer.iterate_fixed_point.max_iters": "the transfer command's --max-iters",
    "transfer.iterate_fixed_point.tol": "the transfer command's --tol",
    "system.AffineSystem.name": "a system's catalog name",
    "system.AxiomCheck.witness": "the counterexample of a failed axiom",
    "system.AxiomCheck.mandatory": "an informational axiom that does not fail validation",
}


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def _public_definitions(modules) -> dict:
    return {node.name: mod for mod, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _readers(modules) -> dict:
    """name -> {(module, top-level definition or None)} of every Name and
    Attribute node that reads it."""
    out: dict = {}
    for mod, tree in modules.items():
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    out.setdefault(name, set()).add((mod, owner))
    return out


def _without_caller() -> set:
    modules = _modules()
    readers = _readers(modules)
    return {name for name, mod in _public_definitions(modules).items()
            if not readers.get(name, set()) - {(mod, name)}}


def _public_members(modules) -> dict:
    """"Class.member" -> (member name, its defining node) for every public
    method, property, class-level alias and field of a module-level class."""
    out = {}
    for tree in modules.values():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    found = [(node.name, node)]
                    if node.name == "__init__":         # a field is its `self.x =` target
                        found += [(t.attr, t) for t in ast.walk(node)
                                  if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                                  and isinstance(t.value, ast.Name) and t.value.id == "self"]
                elif isinstance(node, ast.Assign):
                    found = [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    found = [(node.target.id, node)]
                else:
                    continue
                out.update({f"{cls.name}.{name}": (name, defn) for name, defn in found
                            if not name.startswith("_")})
    return out


def _members_without_reader(allowed=()) -> set:
    """Members no attribute read reaches, except from their own body or
    from members in the same state (so a chain of wrappers that nothing
    reads is found whole); the `allowed` members count as read."""
    modules = _modules()
    members = _public_members(modules)
    owner = {}          # id of a node -> the member whose definition holds it
    for key, (_, node) in members.items():
        for sub in ast.walk(node):
            owner.setdefault(id(sub), key)
    reads: dict = {}    # attribute name -> the member (or None) of every read
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(owner.get(id(node)))
    dead: set = set()
    while True:
        new = {key for key, (name, _) in members.items()
               if key not in dead and key not in allowed
               and all(r == key or r in dead for r in reads.get(name, []))}
        if not new:
            return dead
        dead |= new


def test_every_public_name_has_a_caller_or_a_reason():
    unlisted = _without_caller() - set(ALLOWED)
    assert not unlisted, (f"public names no other package code reads: {sorted(unlisted)}; "
                          f"move them into tests/ or give a reason in ALLOWED")


def test_no_stale_allowlist_entry():
    modules = _modules()
    gone = set(ALLOWED) - set(_public_definitions(modules))
    assert not gone, f"allowlisted names that are gone: {sorted(gone)}"
    called = set(ALLOWED) - _without_caller()
    assert not called, f"allowlisted names that now have a caller: {sorted(called)}"


def test_every_public_member_has_a_reader_or_a_reason():
    unread = _members_without_reader(ALLOWED_MEMBERS)
    assert not unread, (f"class members no other package code reads: {sorted(unread)}; "
                        f"delete them, move them into tests/ or give a reason in "
                        f"ALLOWED_MEMBERS")


def test_no_stale_member_allowlist_entry():
    gone = set(ALLOWED_MEMBERS) - set(_public_members(_modules()))
    assert not gone, f"allowlisted members that are gone: {sorted(gone)}"
    read = set(ALLOWED_MEMBERS) - _members_without_reader()
    assert not read, f"allowlisted members that now have a reader: {sorted(read)}"


def _settable(modules) -> set:
    """"module.qualified function.parameter" of every parameter with a
    default, and "module.Class.field" of every class-level annotated field
    with a default."""
    out = set()

    def visit(prefix, parent):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.ClassDef):
                out.update(f"{prefix}{node.name}.{s.target.id}" for s in node.body
                           if isinstance(s, ast.AnnAssign) and s.value is not None)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                pos = a.posonlyargs + a.args
                names = [x.arg for x in pos[len(pos) - len(a.defaults):]]
                names += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out.update(f"{prefix}{getattr(node, 'name', '<lambda>')}.{n}" for n in names)
            named = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(f"{prefix}{node.name}." if named else prefix, node)

    for mod, tree in modules.items():
        visit(f"{mod}.", tree)
    return out


def test_settable_parameters_are_pinned():
    found = _settable(_modules())
    new, gone = found - set(SETTABLE), set(SETTABLE) - found
    assert not new, (f"new settable parameters or fields: {sorted(new)}; add them to "
                     f"SETTABLE with a reason, or make them constants")
    assert not gone, f"SETTABLE entries that are gone: {sorted(gone)}"


@pytest.mark.parametrize("mod", sorted(p.stem for p in SRC.glob("*.py")))
def test_package_imports_no_test_code(mod):
    tree = ast.parse((SRC / f"{mod}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
    bad = {n for n in imported if n.split(".")[0] in ("tests", "oracles")}
    assert not bad, f"fracspec.{mod} imports test code: {sorted(bad)}"


# the commands of the run-time field test, each on every system below in CSV and JSON
RUNTIME_COMMANDS = (["validate"], ["spectrum"], ["gram"], ["q1", "--p-depth", "3"],
                    ["transfer"], ["gamma"], ["attractor"], ["report"])
RUNTIME_SYSTEMS = ("scale4", "triadic", "planar-collapse", "eiffel(2)")


def test_every_record_field_is_read_at_run_time(monkeypatch, tmp_path):
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("fracspec.")}
    files = {mod.__file__ for mod in modules.values()}
    fields = {obj: {f.name for f in dataclasses.fields(obj)}
              for name, mod in modules.items() for obj in vars(mod).values()
              if isinstance(obj, type) and dataclasses.is_dataclass(obj)
              and obj.__module__ == name}
    read = set()

    def watching(cls):
        names = fields[cls]

        def __getattribute__(self, name):
            # the methods dataclasses generates (__init__, __eq__, __repr__,
            # ...) are compiled from strings, so no file of the package holds them
            if name in names and sys._getframe(1).f_code.co_filename in files:
                read.add(f"{cls.__name__}.{name}")
            return object.__getattribute__(self, name)
        return __getattribute__

    for cls in fields:
        monkeypatch.setattr(cls, "__getattribute__", watching(cls))
    # a new system per command, so its facts are computed, not read from its memo
    monkeypatch.setattr(system, "_catalog_system", system._catalog_system.__wrapped__)
    out = str(tmp_path / "out")
    for name in RUNTIME_SYSTEMS:
        for argv in RUNTIME_COMMANDS:
            if argv[0] == "report" and name == "eiffel(2)":
                continue            # its completeness sums at the default depth take seconds
            for fmt in ("csv", "json"):
                assert cli.main(argv + ["--system", name, "--format", fmt, "--out", out]) in (0, 1)
    unread = {f"{cls.__name__}.{f}" for cls, names in fields.items() for f in names} - read
    assert not unread, (f"record fields no package code reads on the way from a command "
                        f"line to its output: {sorted(unread)}")
