"""Command-line front end.

Vectors are given inline as comma-separated decimals (or a path to a JSON
array file); matrices and states are given by file path only.  Exit codes:
0 success, 2 usage error, 3 numeric-precondition failure.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import os
import re
import sys
from dataclasses import asdict, is_dataclass
from itertools import accumulate

from . import tolerances
from .errors import BadParam, EntangliaError, TooLarge
from .family_labels import CHECKS, LABELS
from .pairs import _SHORT, pair_class, pair_flags, power, power_copies, prob_sorted, rank, require_copies
from .pairs import sorted_pair, verdict
from .tolerances import ORTHO_TOL, ZERO_TOL

# Points of one `angle --sweep` CSV (under a millisecond each).
MAX_SWEEP = 10**4


def _floats(text):
    """Inline comma-separated decimals as Python floats."""
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise BadParam(f"cannot parse vector {text!r}: {exc}") from None


def parse_vector(text):
    """Inline comma-separated decimals, or a JSON-array file path."""
    import numpy as np

    if os.path.exists(text):
        try:
            with open(text) as fh:
                v = np.asarray(json.load(fh), dtype=float)
        except (OSError, ValueError, TypeError) as exc:
            raise BadParam(f"cannot load vector file {text!r}: {exc}") from None
        if v.ndim != 1:
            raise BadParam(f"vector file {text!r} must hold a flat JSON array of numbers")
        return v
    return np.asarray(_floats(text), dtype=float)


# Each subcommand imports the modules it needs when it runs.  majorize,
# nielsen, classify and multicopy answer inline vectors of at most _SHORT
# entries on the pair core (pairs), which imports no numpy.  The input
# alone sends them to numpy instead, which then raises and warns as it
# always has: a vector file, more than _SHORT entries, a -0.0 entry, a
# multicopy power of more than _LONG_POWER entries, or what the pair core
# leaves to numpy (a NaN or an infinity, an entry past _SUM_BOUND / d, a
# total too close to TRACE_TOL for fsum to decide, or a probability
# vector whose total fails, since its message prints numpy's sum).


class _ArrayPath(Exception):
    """The pair core leaves this input to numpy."""


def _short(value):
    """A pair-core answer; _ArrayPath for its None."""
    if value is None:
        raise _ArrayPath
    return value


def _short_vectors(*texts):
    """The vectors as lists of Python floats for the pair core: each given
    inline, with at most _SHORT entries and no -0.0, else _ArrayPath.
    np.sort and Python's sort order 0.0 and -0.0 differently, which a
    printed partial sum can show."""
    vectors = []
    for text in texts:
        if os.path.exists(text):
            raise _ArrayPath
        v = _floats(text)
        if len(v) > _SHORT or any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in v):
            raise _ArrayPath
        vectors.append(v)
    return vectors


def parse_cut(text):
    """Comma-separated subsystem indices."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise BadParam(f"cannot parse cut {text!r}: {exc}") from None


def load_any(path):
    """Load either a state file ('amp') or a matrix file ('re'/'im'), with
    its dims; malformed content is a BadParam naming the file."""
    from .linalg import load_doc, matrix_from_doc
    from .states import state_from_doc

    doc = load_doc(path)
    if "amp" in doc:
        return ("state", *state_from_doc(doc, path))
    return ("matrix", *matrix_from_doc(doc, path))


def _jsonify(obj):
    """The report as a JSON document: the one place that reads numpy, enum
    and dataclass values.  A numpy value exists only once numpy is loaded,
    so numpy is read from sys.modules and never imported here."""
    np = sys.modules.get("numpy")
    if is_dataclass(obj):
        return _jsonify(asdict(obj))
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if np is not None and isinstance(obj, np.ndarray):  # flattened, as floats or [re, im] pairs
        return _jsonify(obj.astype(complex if np.iscomplexobj(obj) else float).ravel().tolist())
    if isinstance(obj, complex) or (np is not None and isinstance(obj, np.complexfloating)):
        return [_jsonify(obj.real), _jsonify(obj.imag)]
    if isinstance(obj, float) or (np is not None and isinstance(obj, np.floating)):
        return float(obj)
    if np is not None and isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (int, bool, str)) or obj is None:
        return obj
    return str(obj)


def _human(doc, indent=0):
    """Print a JSON document as an outline: a dict one key a line, a list
    one item a line, and a list of numbers inline."""
    pad = "  " * indent
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)) and not _is_number_seq(v):
                print(f"{pad}{k}:")
                _human(v, indent + 1)
            else:
                print(f"{pad}{k}: {_fmt(v)}")
        return
    for v in doc:
        if isinstance(v, (dict, list)) and not _is_number_seq(v):
            _human(v, indent + 1)
        else:
            print(f"{pad}- {_fmt(v)}")


def _is_number_seq(v):
    return isinstance(v, list) and all(isinstance(x, (int, float)) for x in v)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, list):  # beside a float, an int prints as one, as in an array
        spec = ".6g" if any(isinstance(x, float) for x in v) else ""
        return "[" + ", ".join(format(x, spec) for x in v) + "]"
    return str(v)


def emit(report, args):
    """Print a report from its one JSON document.  Structured output adds
    the seed and the tolerances; human output prints the document without
    its `diagnostics` block, as an outline, then a footer."""
    doc = _jsonify(report)
    if args.output == "structured":
        doc["seed"] = args.seed
        doc["tolerances"] = tolerances.as_dict()
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        doc.pop("diagnostics", None)
        _human(doc)
        tol = " ".join(f"{k}={v:g}" for k, v in tolerances.as_dict().items())
        print(f"[seed {args.seed}; {tol}]")


def _sum_table(a, b, names=("source", "target")):
    """The partial sums every verdict reads: both vectors zero-padded to a
    common length, then sorted descending."""
    import numpy as np

    from .majorization import sorted_padded

    xs, ys = sorted_padded(a, b)
    return {
        f"{names[0]}_partial_sums": np.cumsum(xs),
        f"{names[1]}_partial_sums": np.cumsum(ys),
    }


def _short_sums(xs, ys, names=("source", "target")):
    """_sum_table of a pair sorted_pair sorted: accumulate adds in
    np.cumsum's order."""
    return {f"{names[0]}_partial_sums": list(accumulate(xs)), f"{names[1]}_partial_sums": list(accumulate(ys))}


# ---------------------------------------------------------------------------
# subcommand handlers: majorize, nielsen, classify and multicopy take the
# pair core's steps in the library's order, so each raises what the library
# raises, and any _ArrayPath on the way runs the whole command on numpy


def cmd_majorize(args):
    try:
        xs, ys = _short(sorted_pair(*_short_vectors(args.x, args.y)))
    except _ArrayPath:
        from .majorization import compare

        x, y = parse_vector(args.x), parse_vector(args.y)
        return {"verdict": compare(x, y), **_sum_table(x, y, ("x", "y"))}
    return {"verdict": verdict(*pair_flags(xs, ys)), **_short_sums(xs, ys, ("x", "y"))}


def cmd_nielsen(args):
    try:
        a, b = _short_vectors(args.a, args.b)
        sa, sb = _short(prob_sorted(a)), _short(prob_sorted(b))
    except _ArrayPath:
        from .locc import nielsen

        a, b = parse_vector(args.a), parse_vector(args.b)
        return {"convertible": nielsen(a, b), **_sum_table(a, b)}
    convertible = pair_flags(sa, sb)[0]
    return {"convertible": convertible, **_short_sums(*sorted_pair(a, b))}  # valid entries are bounded


def cmd_classify(args):
    try:
        a, b = _short_vectors(args.a, args.b)
        xs, ys = _short(sorted_pair(a[:], b[:]))
        v = verdict(*pair_flags(xs, ys))
        sa, sb = _short(prob_sorted(a, xs)), _short(prob_sorted(b, ys))
    except _ArrayPath:
        from .locc import classify

        a, b = parse_vector(args.a), parse_vector(args.b)
        pc, table = classify(a, b), _sum_table(a, b)
    else:
        pc, table = pair_class(v, sa, sb, rank(sa), rank(sb)), _short_sums(xs, ys)
    return {
        "verdict": pc.verdict,
        "pattern_3x3": pc.pattern_3x3,
        "strong": pc.strong,
        "catalysis_possible": pc.catalysis_possible,
        **table,
    }


def cmd_catalyst(args):
    import numpy as np

    from .locc import catalyst_search, nielsen, vec_kron

    a, b = parse_vector(args.a), parse_vector(args.b)
    search = catalyst_search(a, b, grid_step=args.step)
    c = search.c
    report = {"found": c is not None, "catalyst_c": c}
    if c is not None:
        chi = np.array([c, 1.0 - c])
        report["catalyst"] = chi
        report["joint_source"] = np.sort(vec_kron(a, chi))[::-1]
        report["joint_target"] = np.sort(vec_kron(b, chi))[::-1]
        report.update(_sum_table(report["joint_source"], report["joint_target"]))
        report["certified"] = nielsen(report["joint_source"], report["joint_target"])
    report["diagnostics"] = {
        "window": [list(w) for w in search.window],
        "width": sum((hi - lo for lo, hi in search.window), 0.0),
        "on_grid": search.on_grid,
        "certified_points": search.certified,
        "off_grid_c": search.off_grid_c,
    }
    return report


# A k-fold power of more than _LONG_POWER entries is formed and sorted
# sooner on numpy, its import included: a multicopy whose larger power had
# 1.2 * 10^5 entries took 91 ms as Python floats against 140 ms on numpy,
# and at 2.6 * 10^5 entries both took 142 ms (2-core x86, numpy 2.4.6,
# median of 5 runs).
_LONG_POWER = 2**17


def cmd_multicopy(args):
    try:
        a, b = _short_vectors(args.a, args.b)
        k = require_copies(args.k)
        sa, sb = _short(prob_sorted(a)), _short(prob_sorted(b))
        sa, sb = sa[: rank(sa)], sb[: rank(sb)]
        k = power_copies(len(sa), len(sb), k)
        if max(len(sa), len(sb)) ** k > _LONG_POWER:
            raise _ArrayPath
    except _ArrayPath:
        from .locc import multicopy

        a, b = parse_vector(args.a), parse_vector(args.b)
        return {"k": args.k, "convertible": multicopy(a, b, args.k)}
    return {"k": args.k, "convertible": pair_flags(power(sa, k), power(sb, k))[0]}


def cmd_assist(args):
    import numpy as np

    from .locc import assist_max_entangled, assist_max_entangled_direct, min_assist_3x3, nielsen, vec_kron

    a, b = parse_vector(args.a), parse_vector(args.b)
    if args.min:
        plan = min_assist_3x3(a, b)
        joint_src = vec_kron(a, plan.resource)
        d = plan.resource.size
        target = vec_kron(b, np.eye(1, d, 0).reshape(-1))
        return {
            "kind": plan.kind,
            "c0": plan.c0,
            "e0_ebits": plan.e0,
            "resource": plan.resource,
            "consumed": plan.consumed,
            "certified": nielsen(joint_src, target),
            **_sum_table(joint_src, target),
        }
    ok = assist_max_entangled(a, b)
    try:
        direct = assist_max_entangled_direct(a, b)
    except TooLarge:  # d(d-1) > 10^6: the O(d) check answers alone
        direct = None
    return {"possible": ok, "cross_check_direct": direct}


def cmd_coop(args):
    from .locc import coop_construct, vec_kron

    a, b = parse_vector(args.a), parse_vector(args.b)
    plan = coop_construct(a, b, seed=args.seed)
    return {
        "chi": plan.chi,
        "eta": plan.eta,
        "joint_ok": plan.joint_ok,
        "cross_incomparable": plan.cross_incomparable,
        **_sum_table(vec_kron(a, plan.chi), vec_kron(b, plan.eta), ("joint_source", "joint_target")),
        "diagnostics": {"cell": plan.cell, "margin": plan.margin},
    }


def cmd_split2(args):
    from .locc import split_two_copies, vec_kron

    a, b = parse_vector(args.a), parse_vector(args.b)
    r = split_two_copies(a, b)
    return {
        "case": r.case,
        "param_interval": list(r.param_interval),
        "eta": r.eta,
        **_sum_table(vec_kron(a, a), vec_kron(b, r.eta), ("joint_source", "joint_target")),
        "diagnostics": {"window": r.window, "margin": r.margin},
    }


def _density(kind, obj):
    """A loaded file's density matrix: a state file's amplitudes pass the
    size cap and the norm check before their projector is formed."""
    from .linalg import MAX_DIM, projector
    from .states import check_pure

    if kind != "state":
        return obj
    if obj.size > MAX_DIM:
        raise TooLarge(f"a state of {obj.size} amplitudes exceeds the {MAX_DIM} x {MAX_DIM} density-matrix cap")
    return projector(check_pure(obj))


def cmd_measure(args):
    from .measures import concurrence_2q, concurrence_pure, entanglement_entropy, eof_2q, log_negativity
    from .measures import negativity, von_neumann_entropy

    kind, obj, dims = load_any(args.file)
    cut = parse_cut(args.cut)
    what = args.kind
    if what == "entropy":
        value = entanglement_entropy(obj, dims, cut) if kind == "state" else von_neumann_entropy(obj)
        return {"measure": what, "value": value}
    if what == "concurrence":
        value = concurrence_pure(obj, dims, cut) if kind == "state" else concurrence_2q(obj)
        return {"measure": what, "value": value}
    rho = _density(kind, obj)
    if what == "eof":
        return {"measure": what, "value": eof_2q(rho)}
    return {
        "measure": what,
        "negativity": negativity(rho, dims, cut),
        "log_negativity": log_negativity(rho, dims, cut),
    }


def cmd_witness(args):
    from .witness import witness_report

    kind, obj, dims = load_any(args.file)
    rho = _density(kind, obj)
    return witness_report(rho, dims, cut=parse_cut(args.cut), seed=args.seed, copies=args.copies)


def _gadget_report(res):
    import numpy as np

    out = {
        "verdict": res.verdict,
        "initial_schmidt": res.initial_schmidt,
        "final_schmidt": res.final_schmidt,
        "entropy_initial": res.entropy_initial,
        "entropy_final": res.entropy_final,
        "A_initial": res.a_initial,
        "B_initial": res.b_initial,
        "A_final": res.a_final,
        "B_final": res.b_final,
        "cardan_initial": res.cardan_initial,
        "cardan_final": res.cardan_final,
        "cardan_max_delta": max(
            np.abs(res.cardan_initial - res.initial_schmidt).max(),
            np.abs(res.cardan_final - res.final_schmidt).max(),
        ),
    }
    out.update(res.diagnostics)
    return out


def cmd_flip(args):
    from .gadgets import flip_gadget

    return _gadget_report(flip_gadget(args.a, args.b, args.c, args.d, args.theta, args.mu, args.nu))


def cmd_antiunitary(args):
    from .gadgets import antiunitary_gadget

    return _gadget_report(antiunitary_gadget(args.theta, args.alpha, args.beta))


def cmd_angle(args):
    from .gadgets import angle_preserving_gadget

    if args.sweep < 0:
        raise BadParam(f"--sweep must be >= 0, got {args.sweep}")
    if args.sweep > MAX_SWEEP:
        raise TooLarge(f"--sweep = {args.sweep} exceeds {MAX_SWEEP}")
    if args.sweep:
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(["alpha", "beta", "A", "B", "verdict", "entropy_initial", "entropy_final"])
        for i in range(args.sweep):
            t = 2.0 * math.pi * i / args.sweep
            res = angle_preserving_gadget(math.cos(t), math.sin(t))
            writer.writerow(
                [
                    f"{math.cos(t):.12g}",
                    f"{math.sin(t):.12g}",
                    f"{res.a_final:.12g}",
                    f"{res.b_final:.12g}",
                    res.verdict,
                    f"{res.entropy_initial:.12g}",
                    f"{res.entropy_final:.12g}",
                ]
            )
        return None
    return _gadget_report(angle_preserving_gadget(args.alpha, args.beta))


def cmd_bound(args):
    # each action imports what it reads: verify decides the family on its
    # class values, without numpy
    if args.action == "build":
        import numpy as np

        from .bound_entangled import be_family, be_family_direct, support_strings
        from .linalg import write_matrix

        fam = be_family(args.n)
        direct = be_family_direct(args.n)
        # the dense delta: every entry off the diagonal and anti-diagonal is 0 in both
        delta = max(float(np.abs(x - y).max()) for x, y in ((fam.d, direct.d), (fam.o, direct.o)))
        strings = support_strings(args.n)
        report = {
            "n": args.n,
            "labels": list(LABELS),
            "recursive_vs_direct_max_delta": delta,
            "support_sizes": {lab: len(strings[lab[:-1]]) for lab in LABELS},
        }
        if args.out:
            try:
                os.makedirs(args.out, exist_ok=True)
                for lab in LABELS:
                    fname = os.path.join(args.out, lab.replace("+", "p").replace("-", "m") + ".json")
                    write_matrix(fname, fam.states[lab], dims=fam.dims)
            except OSError as exc:
                raise BadParam(f"cannot write the family to directory {args.out!r}: {exc}") from None
            report["written_to"] = args.out
        return report
    if args.action == "verify":
        from .family_classes import _check_n, recursive_classes, verify_classes

        _check_n(args.n)
        rep = verify_classes(args.n, *recursive_classes(args.n))
        out = {"n": rep.n_qubits, **{check: getattr(rep, check) for check in CHECKS}, "all_pass": rep.all_pass}
        out["cuts"] = [
            {"state": lab, "cut": list(cut), "min_pt_eigenvalue": m} for lab, cut, m in rep.cut_evidence
        ]
        return out
    if args.action == "unlock":
        from .bound_entangled import be_family, unlock

        fam = be_family(args.n)
        outs = unlock(fam, args.state)
        return {
            "n": args.n,
            "state": args.state,
            "outcomes": [
                {
                    "outcome": o["outcome"],
                    "probability": o["probability"],
                    "predicted_bell": o["predicted_bell"],
                    "fidelity": o["fidelity"],
                }
                for o in outs
            ],
        }
    from .witness import is_ppt

    if args.action == "horodecki":
        from .bound_entangled import horodecki_insep, horodecki_state
        from .linalg import min_eigenvalue

        rho = horodecki_state(args.a)
        ppt, pt_min = is_ppt(rho, (3, 3), (1,))
        ins_ppt, ins_min = is_ppt(horodecki_insep(), (3, 3), (1,))
        return {
            "a": args.a,
            "min_eigenvalue": min_eigenvalue(rho),
            "min_pt_eigenvalue": pt_min,
            "ppt": ppt,
            "insep_part_min_pt_eigenvalue": ins_min,
            "insep_part_npt": not ins_ppt,
        }
    import numpy as np

    from .bound_entangled import tiles_upb, upb_complement, upb_unextendibility_score

    states = tiles_upb()
    gram = np.array([[abs(np.vdot(x, y)) for y in states] for x in states])
    comp = upb_complement()
    ppt, pt_min = is_ppt(comp, (3, 3), (1,))
    score = upb_unextendibility_score(trials=args.trials, seed=args.seed)
    trunc = upb_unextendibility_score(trials=args.trials, seed=args.seed, states=states[:4])
    return {
        "pairwise_orthogonal": bool(np.max(np.abs(gram - np.eye(5))) < ORTHO_TOL),
        "complement_rank": int(np.linalg.matrix_rank(comp, tol=ZERO_TOL, hermitian=True)),
        "complement_min_pt_eigenvalue": pt_min,
        "complement_ppt": ppt,
        "seesaw_score": score,
        "truncated_seesaw_score": trunc,
        "restarts": args.trials,
    }


def cmd_hide(args):
    from .hiding import run_demo

    return run_demo(args.n, args.trials, seed=args.seed, shots=args.shots)


# ---------------------------------------------------------------------------


def _seed(text):
    """numpy seeds must be non-negative integers; anything else is a usage error."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"want a non-negative integer, got {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """Takes -0.2,1.2, -1e-3 or -inf,0 for a value, not an option, as argparse takes -1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=("human", "structured"), default="human", help="report format"
    )
    common.add_argument(
        "--seed",
        type=_seed,
        default=os.environ.get("ENTANGLIA_SEED", "0"),  # a string default goes through _seed
        help="seed for any randomized search (default: ENTANGLIA_SEED or 0)",
    )

    p = _Parser(prog="entanglia", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def vector_pair(name, fn, text, names=("a", "b")):
        """A subcommand that reads two vectors."""
        sp = sub.add_parser(name, parents=[common], help=text)
        for arg in names:
            sp.add_argument(arg)
        sp.set_defaults(fn=fn)
        return sp

    vector_pair("majorize", cmd_majorize, "compare two vectors", ("x", "y"))
    vector_pair("nielsen", cmd_nielsen, "deterministic LOCC convertibility")
    vector_pair("classify", cmd_classify, "incomparability classification")
    sp = vector_pair("catalyst", cmd_catalyst, "2x2 catalyst: first certified grid point in the exact window")
    sp.add_argument("--step", type=float, default=1e-3)
    sp = vector_pair("multicopy", cmd_multicopy, "k-copy joint conversion")
    sp.add_argument("k", type=int)
    sp = vector_pair("assist", cmd_assist, "entanglement-assisted conversion")
    sp.add_argument("--min", action="store_true", help="cheapest 2x2 assisting state (3x3 pairs)")
    vector_pair("coop", cmd_coop, "mutual-cooperation auxiliary pair")
    vector_pair("split2", cmd_split2, "two copies into two incomparable targets")

    sp = sub.add_parser("measure", parents=[common], help="entropy/entanglement measures")
    sp.add_argument("kind", choices=("entropy", "concurrence", "eof", "negativity"))
    sp.add_argument("file")
    sp.add_argument("--cut", default="0", help="comma-separated subsystem indices")
    sp.set_defaults(fn=cmd_measure)

    sp = sub.add_parser("witness", parents=[common], help="entanglement detection report")
    sp.add_argument("file")
    sp.add_argument("--cut", default="0")
    sp.add_argument("--copies", type=int, default=1)
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("flip", parents=[common], help="exact-flip probe")
    for name in ("a", "b", "c", "d", "theta"):
        sp.add_argument(name, type=float)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--nu", type=float, default=0.0)
    sp.set_defaults(fn=cmd_flip)

    sp = sub.add_parser("antiunitary", parents=[common], help="conjugation-unitary probe")
    for name in ("theta", "alpha", "beta"):
        sp.add_argument(name, type=float)
    sp.set_defaults(fn=cmd_antiunitary)

    sp = sub.add_parser("angle", parents=[common], help="angle-preserving probe")
    sp.add_argument("alpha", type=float)
    sp.add_argument("beta", type=float)
    sp.add_argument("--sweep", type=int, default=0, help="emit a CSV over N real points")
    sp.set_defaults(fn=cmd_angle)

    sp = sub.add_parser("bound", parents=[common], help="activable bound entangled states")
    sp.add_argument("action", choices=("build", "verify", "unlock", "horodecki", "upb"))
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--state", choices=LABELS, default="rho+")
    sp.add_argument("--a", type=float, default=0.5, help="parameter of the 3x3 state")
    sp.add_argument("--out", default=None, help="directory for written matrices (build)")
    sp.add_argument("--trials", type=int, default=64, help="seesaw restarts (upb)")
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("hide", parents=[common], help="data-hiding protocol demo")
    sp.add_argument("action", choices=("demo",))
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--shots", type=int, default=500)
    sp.set_defaults(fn=cmd_hide)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
    except EntangliaError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    if report is not None:
        emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
