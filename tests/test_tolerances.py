"""Guards that keep `entanglia.tolerances` the only tolerance knob: no gate
literal elsewhere in the package, no per-call tolerance parameter, no
constant nobody reads, a report block and a README table that list every
constant, no tolerance in the family decision; no error class nobody
raises, and no exported function nobody reads."""

import ast
import importlib
import inspect
import io
import pathlib
import pkgutil
import tokenize

import entanglia
from entanglia import family_classes, tolerances
from entanglia.bound_entangled import verify_family

PACKAGE = pathlib.Path(entanglia.__file__).parent
TOLERANCES = PACKAGE / "tolerances.py"
ERRORS = PACKAGE / "errors.py"
OTHER_SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p != TOLERANCES)
ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _tokens(path):
    with open(path) as fh:
        return list(tokenize.generate_tokens(fh.readline))


def _constants():
    """Module-level upper-case names assigned in tolerances.py."""
    tree = ast.parse(TOLERANCES.read_text())
    return [
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    ]


def _small_float_literals(tokens):
    """(line, text) of each real number literal in (0, 1e-5): a gate
    literal.  Any literal Python accepts is read, hex, octal, binary and
    underscored ones included."""
    return [
        (tok.start[0], tok.string)
        for tok in tokens
        if tok.type == tokenize.NUMBER
        and not tok.string.lower().endswith("j")
        and 0.0 < ast.literal_eval(tok.string) < 1e-5
    ]


def test_small_float_literal_scan_reads_every_integer_form():
    source = "mask = 0xFFFFFFFF\nbig = 1_000_000\nbits = 0b101 | 0o17\ntiny = 1e-6\nunit = 2.5e-6j\nok = 1e-5\n"
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    assert _small_float_literals(tokens) == [(4, "1e-6")]


def test_no_small_float_literal_outside_tolerances():
    found = [
        f"{path.name}:{line}: {text}" for path in OTHER_SOURCES for line, text in _small_float_literals(_tokens(path))
    ]
    assert not found, found


def _public_callables():
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"entanglia.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for meth_name, meth in vars(obj).items():
                    if inspect.isfunction(meth) and not meth_name.startswith("_"):
                        yield f"{module.__name__}.{name}.{meth_name}", meth


def test_no_tolerance_parameters():
    callables = dict(_public_callables())
    assert "entanglia.majorization.majorizes" in callables
    offenders = []
    for qualname, obj in callables.items():
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # builtin-backed classes carry no signature
            continue
        offenders += [f"{qualname}({p})" for p in params if p in ("tol", "clamp", "npt_tol")]
    assert not offenders, offenders


def _names(paths):
    return {tok.string for path in paths for tok in _tokens(path) if tok.type == tokenize.NAME}


def test_every_constant_is_read_elsewhere():
    names = _names(OTHER_SOURCES)
    unread = [c for c in _constants() if c not in names]
    assert not unread, unread


def test_every_error_class_is_named_elsewhere():
    classes = [node.name for node in ast.parse(ERRORS.read_text()).body if isinstance(node, ast.ClassDef)]
    assert "TraceMismatch" in classes
    names = _names(p for p in OTHER_SOURCES if p != ERRORS)
    unnamed = [c for c in classes if c != "EntangliaError" and c not in names]
    assert not unnamed, unnamed


# Exported functions that no package module, perfbench workload or
# acceptance test reads, each kept for the reason given.
KEPT = {
    "read_matrix": "file I/O: loads what write_matrix and `bound build --out` write",
    "read_state": "file I/O: loads what write_state writes",
    "write_state": "file I/O: the state file format the CLI reads",
    "random_pure": "seeded random pure states for callers' own experiments",
    "ds_witness": "ROADMAP item 12: the T-transform chain certificate",
    "ensemble_exists": "ROADMAP item 12: a yes/no question the paper asks",
    "is_doubly_stochastic": "ROADMAP item 12: checks item 12's certificate",
}


def _reads(paths):
    """Every name the files read: loaded names, attributes and imports
    (a def or class statement names what it defines, and is not a read)."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return found


def test_every_exported_function_is_read_elsewhere():
    """A function in entanglia.__all__ is read by a package module (its own
    included: witness_report reads reduction_check), by perfbench or by the
    acceptance tests; else it is listed in KEPT, and KEPT lists nothing
    else."""
    functions = [n for n in entanglia.__all__ if inspect.isfunction(inspect.unwrap(getattr(entanglia, n)))]
    assert "schmidt_vector" in functions
    read = _reads([*PACKAGE.glob("*.py"), *ROOT.glob("perfbench/*.py"), ROOT / "tests" / "test_acceptance.py"])
    assert sorted(n for n in functions if n not in read) == sorted(KEPT)


def test_family_checks_read_no_tolerance():
    """verify_family, the unlock table it reads through `BEFamily._unlock`,
    and every function of their module and of `family_classes` (the class
    checks) that they call, at any depth (cached ones included), name no
    tolerance constant: the family decision stays exact."""
    functions = {}
    for module in (inspect.getmodule(verify_family), family_classes):
        unwrapped = {name: inspect.unwrap(obj) for name, obj in vars(module).items() if callable(obj)}
        functions |= {name: obj for name, obj in unwrapped.items() if inspect.isfunction(obj)}
    names, todo = {}, ["verify_family", "_unlock_table"]
    while todo:
        name = todo.pop()
        source = io.StringIO(inspect.getsource(functions[name]))
        names[name] = {tok.string for tok in tokenize.generate_tokens(source.readline) if tok.type == tokenize.NAME}
        todo += [f for f in names[name] & functions.keys() if f not in names and f not in todo]
    assert {
        "_check_dyadic",
        "pt_min_eigenvalues",
        "_class_table",
        "_outcome_parts",
        "verify_classes",
        "_coupling_table",
        "_outcome_classes",
        "_unlocks",
    } <= names.keys()
    read = {name: sorted(found & set(_constants())) for name, found in names.items()}
    assert not any(read.values()), read


def test_readme_table_lists_every_constant():
    section = README.read_text().split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    table = {name.strip().strip("`"): float(value) for name, value in rows}
    assert table == {c: getattr(tolerances, c) for c in _constants()}


def test_as_dict_lists_every_constant():
    constants = _constants()
    assert len(constants) == len(set(constants))
    doc = tolerances.as_dict()
    assert sorted(doc) == sorted(c.lower() for c in constants)
    assert all(doc[c.lower()] == getattr(tolerances, c) for c in constants)
