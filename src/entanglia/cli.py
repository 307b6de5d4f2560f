"""Command-line front end.

Vectors are given inline as comma-separated decimals (or a path to a JSON
array file); matrices and states are given by file path only.  Exit codes:
0 success, 2 usage error, 3 numeric-precondition failure.
"""

from __future__ import annotations

import argparse
import csv
import enum
import json
import math
import os
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

from . import tolerances
from .bound_entangled import (
    LABELS,
    be_family,
    be_family_direct,
    horodecki_insep,
    horodecki_state,
    support_strings,
    tiles_upb,
    unlock,
    upb_complement,
    upb_unextendibility_score,
    verify_family,
)
from .errors import BadParam, EntangliaError, TooLarge
from .gadgets import angle_preserving_gadget, antiunitary_gadget, flip_gadget
from .hiding import run_demo
from .linalg import min_eigenvalue, projector, read_matrix, write_matrix
from .locc import (
    assist_max_entangled,
    assist_max_entangled_direct,
    classify,
    coop_construct,
    catalyst_search,
    min_assist_3x3,
    multicopy,
    nielsen,
    split_two_copies,
    vec_kron,
)
from .majorization import compare, sorted_padded
from .measures import (
    concurrence_2q,
    concurrence_pure,
    eof_2q,
    entanglement_entropy,
    log_negativity,
    negativity,
    von_neumann_entropy,
)
from .states import read_state
from .tolerances import ORTHO_TOL, ZERO_TOL
from .witness import is_ppt, witness_report

# Points of one `angle --sweep` CSV (under a millisecond each).
MAX_SWEEP = 10**4


def parse_vector(text):
    """Inline comma-separated decimals, or a JSON-array file path."""
    if os.path.exists(text):
        try:
            with open(text) as fh:
                v = np.asarray(json.load(fh), dtype=float)
        except (OSError, ValueError, TypeError) as exc:
            raise BadParam(f"cannot load vector file {text!r}: {exc}") from None
        if v.ndim != 1:
            raise BadParam(f"vector file {text!r} must hold a flat JSON array of numbers")
        return v
    try:
        return np.asarray([float(x) for x in text.split(",") if x.strip()], dtype=float)
    except ValueError as exc:
        raise BadParam(f"cannot parse vector {text!r}: {exc}") from None


def parse_cut(text):
    """Comma-separated subsystem indices."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise BadParam(f"cannot parse cut {text!r}: {exc}") from None


def load_any(path):
    """Load either a state file ('amp') or a matrix file ('re'/'im')."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if "amp" in doc:
            amp, dims = read_state(path)
            return "state", amp, dims
        mat, dims = read_matrix(path)
        return "matrix", mat, dims
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise BadParam(f"cannot load state/matrix file {path!r}: {exc}") from None


def _jsonify(obj):
    if is_dataclass(obj):
        return _jsonify(asdict(obj))
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [_jsonify(complex(v)) for v in obj.reshape(-1)]
        return [_jsonify(float(v)) for v in obj.reshape(-1)]
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return [_jsonify(c.real), _jsonify(c.imag)]
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (int, np.integer, bool, str)) or obj is None:
        return obj
    return str(obj)


def _human(obj, indent=0):
    pad = "  " * indent
    if is_dataclass(obj):
        obj = asdict(obj)
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list, tuple, np.ndarray)) and not _is_number_seq(v):
                print(f"{pad}{k}:")
                _human(v, indent + 1)
            else:
                print(f"{pad}{k}: {_fmt(v)}")
        return
    if isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)) and not _is_number_seq(v):
                _human(v, indent + 1)
            else:
                print(f"{pad}- {_fmt(v)}")
        return
    print(f"{pad}{_fmt(obj)}")


def _is_number_seq(v):
    if isinstance(v, np.ndarray):
        return v.ndim == 1
    return isinstance(v, (list, tuple)) and all(
        isinstance(x, (int, float, np.integer, np.floating)) for x in v
    )


def _fmt(v):
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.6g}"
    if isinstance(v, np.ndarray) or _is_number_seq(v):
        return "[" + ", ".join(_fmt(x) for x in np.asarray(v).reshape(-1)) + "]"
    return str(v)


def emit(report, args):
    """Print a report; its `diagnostics` block goes to structured output
    only, so human output stays stable."""
    if args.output == "structured":
        doc = _jsonify(report)
        doc["seed"] = args.seed
        doc["tolerances"] = tolerances.as_dict()
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        if isinstance(report, dict):
            report = {k: v for k, v in report.items() if k != "diagnostics"}
        _human(report)
        tol = " ".join(f"{k}={v:g}" for k, v in tolerances.as_dict().items())
        print(f"[seed {args.seed}; {tol}]")


def _sum_table(a, b, names=("source", "target")):
    """The partial sums every verdict reads: both vectors zero-padded to a
    common length, then sorted descending."""
    xs, ys = sorted_padded(a, b)
    return {
        f"{names[0]}_partial_sums": np.cumsum(xs),
        f"{names[1]}_partial_sums": np.cumsum(ys),
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_majorize(args):
    x, y = parse_vector(args.x), parse_vector(args.y)
    return {"verdict": compare(x, y), **_sum_table(x, y, ("x", "y"))}


def cmd_nielsen(args):
    a, b = parse_vector(args.a), parse_vector(args.b)
    return {"convertible": nielsen(a, b), **_sum_table(a, b)}


def cmd_classify(args):
    a, b = parse_vector(args.a), parse_vector(args.b)
    pc = classify(a, b)
    return {
        "verdict": pc.verdict,
        "pattern_3x3": pc.pattern_3x3,
        "strong": pc.strong,
        "catalysis_possible": pc.catalysis_possible,
        **_sum_table(a, b),
    }


def cmd_catalyst(args):
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


def cmd_multicopy(args):
    a, b = parse_vector(args.a), parse_vector(args.b)
    return {"k": args.k, "convertible": multicopy(a, b, args.k)}


def cmd_assist(args):
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
    a, b = parse_vector(args.a), parse_vector(args.b)
    plan = coop_construct(a, b, seed=args.seed)
    return {
        "chi": plan.chi,
        "eta": plan.eta,
        "joint_ok": plan.joint_ok,
        "cross_incomparable": plan.cross_incomparable,
        **_sum_table(vec_kron(a, plan.chi), vec_kron(b, plan.eta), ("joint_source", "joint_target")),
        "diagnostics": {"branch": plan.branch, "candidates": plan.candidates, "margin": plan.margin},
    }


def cmd_split2(args):
    a, b = parse_vector(args.a), parse_vector(args.b)
    r = split_two_copies(a, b)
    return {
        "case": r.case,
        "subcase": r.subcase,
        "param_interval": list(r.param_interval),
        "eta": r.eta,
        **_sum_table(vec_kron(a, a), vec_kron(b, r.eta), ("joint_source", "joint_target")),
    }


def cmd_measure(args):
    kind, obj, dims = load_any(args.file)
    cut = parse_cut(args.cut)
    what = args.kind
    if what == "entropy":
        if kind == "state":
            value = entanglement_entropy(obj, dims, cut)
        else:
            value = von_neumann_entropy(obj)
        return {"measure": what, "value": value}
    if what == "concurrence":
        if kind == "state":
            return {"measure": what, "value": concurrence_pure(obj, dims, cut)}
        return {"measure": what, "value": concurrence_2q(obj)}
    rho = projector(obj) if kind == "state" else obj
    if what == "eof":
        return {"measure": what, "value": eof_2q(rho)}
    if what == "negativity":
        return {
            "measure": what,
            "negativity": negativity(rho, dims, cut),
            "log_negativity": log_negativity(rho, dims, cut),
        }
    raise BadParam(f"unknown measure {what!r}")


def cmd_witness(args):
    kind, obj, dims = load_any(args.file)
    rho = projector(obj) if kind == "state" else obj
    rep = witness_report(rho, dims, cut=parse_cut(args.cut), seed=args.seed, copies=args.copies)
    return rep


def _gadget_report(res):
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
        "cardan_max_delta": float(
            max(
                np.max(np.abs(res.cardan_initial - res.initial_schmidt)),
                np.max(np.abs(res.cardan_final - res.final_schmidt)),
            )
        ),
    }
    out.update({k: v for k, v in res.diagnostics.items()})
    return out


def cmd_flip(args):
    return _gadget_report(flip_gadget(args.a, args.b, args.c, args.d, args.theta, args.mu, args.nu))


def cmd_antiunitary(args):
    return _gadget_report(antiunitary_gadget(args.theta, args.alpha, args.beta))


def cmd_angle(args):
    if args.sweep < 0:
        raise BadParam(f"--sweep must be >= 0, got {args.sweep}")
    if args.sweep > MAX_SWEEP:
        raise TooLarge(f"--sweep = {args.sweep} exceeds {MAX_SWEEP}")
    if args.sweep:
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
    if args.action == "build":
        fam = be_family(args.n)
        direct = be_family_direct(args.n)
        # the dense delta: every entry off the diagonal and anti-diagonal is 0 in both
        pairs = (zip(fam.parts[lab], direct.parts[lab]) for lab in LABELS)
        delta = max(float(np.max(np.abs(x - y))) for pair in pairs for x, y in pair)
        strings = support_strings(args.n)
        report = {
            "n": args.n,
            "labels": list(LABELS),
            "recursive_vs_direct_max_delta": delta,
            "support_sizes": {lab: len(strings[lab[:-1]]) for lab in LABELS},
        }
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            for lab in LABELS:
                fname = os.path.join(args.out, lab.replace("+", "p").replace("-", "m") + ".json")
                write_matrix(fname, fam.states[lab], dims=fam.dims)
            report["written_to"] = args.out
        return report
    if args.action == "verify":
        fam = be_family(args.n)
        rep = verify_family(fam, quick=args.quick)
        out = {
            "n": rep.n_qubits,
            "orthogonal": rep.orthogonal,
            "permutation_symmetric": rep.permutation_symmetric,
            "even_cut_ppt": rep.even_cut_ppt,
            "single_vs_rest_npt": rep.single_vs_rest_npt,
            "pauli_connected": rep.pauli_connected,
            "reduced_max_mixed": rep.reduced_max_mixed,
            "unlock_ok": rep.unlock_ok,
            "all_pass": rep.all_pass,
        }
        if rep.cut_evidence:
            out["cuts"] = [
                {"state": lab, "cut": list(cut), "min_pt_eigenvalue": m}
                for lab, cut, m in rep.cut_evidence
            ]
        return out
    if args.action == "unlock":
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
    if args.action == "horodecki":
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
    if args.action == "upb":
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
    raise BadParam(f"unknown bound action {args.action!r}")


def cmd_hide(args):
    if args.action != "demo":
        raise BadParam(f"unknown hide action {args.action!r}")
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

    p = argparse.ArgumentParser(prog="entanglia", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("majorize", parents=[common], help="compare two vectors")
    sp.add_argument("x")
    sp.add_argument("y")
    sp.set_defaults(fn=cmd_majorize)

    sp = sub.add_parser("nielsen", parents=[common], help="deterministic LOCC convertibility")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=cmd_nielsen)

    sp = sub.add_parser("classify", parents=[common], help="incomparability classification")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser(
        "catalyst", parents=[common], help="2x2 catalyst: first certified grid point in the exact window"
    )
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--step", type=float, default=1e-3)
    sp.set_defaults(fn=cmd_catalyst)

    sp = sub.add_parser("multicopy", parents=[common], help="k-copy joint conversion")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("k", type=int)
    sp.set_defaults(fn=cmd_multicopy)

    sp = sub.add_parser("assist", parents=[common], help="entanglement-assisted conversion")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--min", action="store_true", help="cheapest 2x2 assisting state (3x3 pairs)")
    sp.set_defaults(fn=cmd_assist)

    sp = sub.add_parser("coop", parents=[common], help="mutual-cooperation auxiliary pair")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=cmd_coop)

    sp = sub.add_parser("split2", parents=[common], help="two copies into two incomparable targets")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=cmd_split2)

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
    sp.add_argument(
        "--quick",
        action="store_true",
        help="leave the per-cut PT list out; the PPT flags read one cut per size (exact) when the symmetry "
        "check passes, else every cut",
    )
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
