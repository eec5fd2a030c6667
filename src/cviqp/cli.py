"""Experiment driver.

Subcommands: ``fourier-gadget``, ``error-correct``, ``scaling``, ``dv``,
``readout``.  Parameters come from flags or from a JSON file via ``--config``
(flags override file values).  Results are CSV files whose first line is a
``#``-prefixed JSON dump of the fully resolved configuration, so every output
is self-describing, and identical configurations with identical seeds produce
byte-identical files.  Randomized commands require an explicit ``--seed``.

Exit codes: 0 success, 2 validation error (no result file is written),
3 numerical failure (zero-mass post-selection bin, failed root-find).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .errors import NumericalError, ValidationError
from .gadgets import (
    ShiftNoise,
    dv_hadamard_gadget,
    dv_iqp_circuit,
    fourier_gadget,
    gkp_error_correct,
    outcome_distribution,
    qubit_state,
)
from .gates import displace_q
from .homodyne import (
    DetectorParams,
    ensemble_fidelity,
    gkp_readout,
    sample_outcome,
)
from .quadgrid import ModeState, Rep, fidelity_pure, make_grid, normalized
from .states import GkpParams, gkp_minus, gkp_one, gkp_plus, gkp_zero, squeezed_momentum

_GKP_STATES = {"plus": gkp_plus, "minus": gkp_minus, "zero": gkp_zero, "one": gkp_one}


def _parse_list(value, convert, scalar_types) -> list:
    """A scalar, a comma-separated string or a list, converted item by item."""
    if isinstance(value, scalar_types):
        items = [value]
    elif isinstance(value, str):
        items = [tok for tok in value.split(",") if tok.strip()]
    else:
        items = value
    try:
        return [convert(item) for item in items]
    except (TypeError, ValueError):
        raise ValidationError(f"expected one {convert.__name__} or a comma list of them, got {value!r}") from None


def _float_list(value) -> list[float]:
    return _parse_list(value, float, (int, float))


def _int_list(value) -> list[int]:
    return _parse_list(value, int, (int, np.integer))


def _number(cfg: dict, key: str, kind: type = float, optional: bool = False):
    """cfg[key] as ``kind``, or None for an absent optional key.  Flags arrive typed;
    file values must be JSON numbers (integers for ``kind=int``), else ValidationError."""
    value = cfg.get(key)
    if value is None and optional:
        return None
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"{key} must be {what}, got {value!r}")
    return kind(value)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _write_csv(path: str, config: dict, header: list[str], rows: list[list]) -> None:
    # the header records the experiment, not the file location: identical
    # configurations and seeds must produce byte-identical files
    config = {k: v for k, v in config.items() if k not in ("out", "config")}
    lines = ["# " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _merge_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """File config overridden by any explicitly supplied flags."""
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(json.loads(Path(args.config).read_text(encoding="utf-8")))
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _input_state(kind: str, grid, delta: float | None, delta_env: float | None) -> ModeState:
    if kind == "vacuum":
        q = grid.points
        return normalized(ModeState(grid, Rep.POSITION, np.exp(-(q**2) / 2.0)))
    if kind in _GKP_STATES:
        if delta is None:
            raise ValidationError(f"--delta is required for input '{kind}'")
        params = GkpParams.tied(delta, delta_env)
        return _GKP_STATES[kind](params, grid)
    raise ValidationError(f"unknown input state {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_fourier_gadget(args: argparse.Namespace) -> int:
    cfg = _merge_config(
        args, ["sigma", "eta", "grid_points", "extent", "out", "input", "delta", "delta_env", "postselect_k"]
    )
    cfg.setdefault("grid_points", 4096)
    cfg.setdefault("extent", 256.0)
    cfg.setdefault("input", "vacuum")
    cfg.setdefault("postselect_k", 0)
    if "sigma" not in cfg or "eta" not in cfg:
        raise ValidationError("fourier-gadget needs --sigma and --eta")
    if not cfg.get("out"):
        raise ValidationError("fourier-gadget needs --out")
    sigmas = _float_list(cfg["sigma"])
    etas = _float_list(cfg["eta"])
    grid = make_grid(_number(cfg, "grid_points", int), _number(cfg, "extent"))
    delta, delta_env = (_number(cfg, key, optional=True) for key in ("delta", "delta_env"))
    psi = _input_state(cfg["input"], grid, delta, delta_env)
    postselect_k = _number(cfg, "postselect_k", int)
    # validate every point before any computation or file output
    for sigma in sigmas:
        squeezed_momentum(sigma, grid)
    dets = [DetectorParams(eta=eta) for eta in etas]
    rows = []
    for sigma in sigmas:
        for det in dets:
            rep = fourier_gadget(psi, sigma, det, postselect_k)
            lead = rep.diagnostics["leading_order_probability"]
            rows.append(
                [
                    sigma,
                    det.eta,
                    rep.success_probability,
                    lead,
                    rep.success_probability / lead - 1.0,
                    rep.diagnostics["fidelity_vs_ideal_fourier"],
                    rep.diagnostics["fidelity_vs_finite_squeezing_target"],
                    rep.diagnostics["ensemble_purity"],
                ]
            )
    _write_csv(
        cfg["out"],
        cfg,
        [
            "sigma",
            "eta",
            "success_probability",
            "leading_order",
            "relative_deviation",
            "fidelity_vs_ideal_fourier",
            "fidelity_vs_finite_squeezing_target",
            "ensemble_purity",
        ],
        rows,
    )
    return 0


def cmd_error_correct(args: argparse.Namespace) -> int:
    cfg = _merge_config(
        args, ["delta", "delta_env", "eta", "u1", "trials", "seed", "grid_points", "extent", "out"]
    )
    cfg.setdefault("grid_points", 4096)
    cfg.setdefault("extent", 96.0)
    cfg.setdefault("u1", 0.2)
    cfg.setdefault("trials", 1)
    for key in ("delta", "eta", "seed"):
        if key not in cfg or cfg[key] is None:
            raise ValidationError(f"error-correct needs --{key.replace('_', '-')}")
    if not cfg.get("out"):
        raise ValidationError("error-correct needs --out")
    grid = make_grid(_number(cfg, "grid_points", int), _number(cfg, "extent"))
    det = DetectorParams(eta=_number(cfg, "eta"))
    det.require_gkp_compatible()
    params = GkpParams.tied(_number(cfg, "delta"), _number(cfg, "delta_env", optional=True))
    u1 = _number(cfg, "u1")
    seed = _number(cfg, "seed", int)
    clean = gkp_plus(params, grid)
    data = displace_q(clean, u1)
    pre_fid = fidelity_pure(clean, data)
    ancilla = gkp_zero(params, grid)
    # one conditioning per distinct outcome; trials resample the outcome only
    dist = outcome_distribution(data, ancilla, det)
    outcomes: dict[int, tuple] = {}
    rows = []
    for trial in range(_number(cfg, "trials", int)):
        trial_seed = seed + trial
        k = sample_outcome(dist, trial_seed)
        if k not in outcomes:
            rep = gkp_error_correct(
                data,
                params,
                ShiftNoise.none(),
                det,
                fixed_outcome_k=k,
                known_data_shift=(u1, 0.0),
                ancilla_state=ancilla,
            )
            outcomes[k] = (rep, ensemble_fidelity(rep.output, clean))
        rep, post_fid = outcomes[k]
        diag = rep.diagnostics
        rows.append(
            [
                trial,
                trial_seed,
                k,
                rep.outcome_value,
                diag["applied_correction"],
                diag["net_position_offset"],
                diag["threshold_held"],
                diag["logical_miscorrection"],
                pre_fid,
                post_fid,
            ]
        )
    _write_csv(
        cfg["out"],
        cfg,
        [
            "trial",
            "seed",
            "outcome_k",
            "p_k",
            "correction",
            "net_offset",
            "threshold_held",
            "miscorrected",
            "pre_fidelity",
            "post_fidelity",
        ],
        rows,
    )
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, ["n", "l", "eta", "sigma", "solve_ft_error", "out"])
    cfg.setdefault("n", "1,10,100,1000")
    ns = _int_list(cfg["n"])
    rows = []
    header = ["n", "min_delta_sq", "min_squeezing_db", "mean_photon_lower", "pe_bound_at_min"]
    include_composed = all(cfg.get(key) is not None for key in ("l", "eta", "sigma"))
    if include_composed:
        header += ["log10_composed_postselection"]
    for n in ns:
        report = analysis.min_squeezing_db(n)
        row = [
            n,
            report.min_delta_sq,
            report.min_squeezing_db,
            report.mean_photon_lower,
            report.pe_bound_at_min,
        ]
        if include_composed:
            comp = analysis.composed_postselection(
                n, _number(cfg, "l", int), _float_list(cfg["eta"])[0], _float_list(cfg["sigma"])[0]
            )
            row.append(comp.log10_probability)
        rows.append(row)
    print(" ".join(f"{h:>22s}" for h in header))
    for row in rows:
        print(" ".join(f"{_fmt(v):>22s}" for v in row))
    if cfg.get("solve_ft_error") is not None:
        target = _number(cfg, "solve_ft_error")
        sigma = analysis.solve_ft_error(target)
        db = analysis.squeezing_db(sigma**2)
        print(
            f"fault-tolerant Fourier error {target:g}: sigma = {sigma:.6f}, "
            f"sigma^2 = {sigma**2:.6f}, squeezing = {db:.3f} dB"
        )
        cfg["solved_sigma"] = sigma
        cfg["solved_db"] = db
    if cfg.get("out"):
        _write_csv(cfg["out"], cfg, header, rows)
    return 0


def cmd_dv(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, ["mode", "trials", "seed", "postselect", "out"])
    cfg.setdefault("mode", "hadamard-gadget")
    cfg.setdefault("trials", 1)
    if not cfg.get("out"):
        raise ValidationError("dv needs --out")
    mode = cfg["mode"]
    if mode == "hadamard-gadget":
        if cfg.get("seed") is None and cfg.get("postselect") in (None, "none"):
            raise ValidationError("sampled hadamard-gadget runs need --seed")
        post = cfg.get("postselect")
        postsel = {"+": 1, "-": -1}.get(post) if post not in (None, "none") else None
        psi = qubit_state(1.0, 0.0)
        seed = _number(cfg, "seed", int, optional=True)
        rows = []
        for trial in range(_number(cfg, "trials", int)):
            _out, h, prob = dv_hadamard_gadget(psi, postselect=postsel, seed=None if seed is None else seed + trial)
            rows.append([trial, h, prob])
        _write_csv(cfg["out"], cfg, ["trial", "h", "probability"], rows)
        return 0
    if mode == "iqp":
        circuit = cfg.get("iqp")
        if not circuit:
            raise ValidationError(
                "iqp mode needs an 'iqp' config entry: "
                '{"n_qubits": int, "gates": [[[qubits], theta], ...], "postselect": [[qubit, outcome], ...]}'
            )
        try:
            n = int(circuit["n_qubits"])
            gates = [(tuple(int(q) for q in subset), float(theta)) for subset, theta in circuit["gates"]]
            postselect = [(int(q), int(o)) for q, o in circuit.get("postselect", [])]
        except KeyError as exc:
            raise ValidationError(f"iqp config entry is missing {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed iqp config entry: {exc}") from None
        probs = dv_iqp_circuit(n, gates, postselect or None)
        rows = [[format(x, f"0{n}b")[::-1], p] for x, p in enumerate(probs)]
        _write_csv(cfg["out"], cfg, ["outcome_bits_q0_first", "probability"], rows)
        return 0
    raise ValidationError(f"unknown dv mode {mode!r}")


def cmd_readout(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, ["delta", "delta_env", "eta", "state", "grid_points", "extent", "out"])
    cfg.setdefault("grid_points", 8192)
    cfg.setdefault("extent", 170.0)
    cfg.setdefault("state", "minus")
    for key in ("delta", "eta"):
        if cfg.get(key) is None:
            raise ValidationError(f"readout needs --{key}")
    if not cfg.get("out"):
        raise ValidationError("readout needs --out")
    deltas = _float_list(cfg["delta"])
    det = DetectorParams(eta=_number(cfg, "eta"))
    det.require_gkp_compatible()
    grid = make_grid(_number(cfg, "grid_points", int), _number(cfg, "extent"))
    maker = _GKP_STATES.get(cfg["state"])
    if maker is None:
        raise ValidationError(f"unknown GKP state {cfg['state']!r}")
    rows = []
    delta_env = _number(cfg, "delta_env", optional=True)
    for delta in deltas:
        params = GkpParams.tied(delta, delta_env)
        result = gkp_readout(maker(params, grid), det)
        rows.append(
            [delta, params.delta_envelope, det.eta, result.p_plus, result.p_minus, result.p_error, analysis.pe_bound(delta)]
        )
    _write_csv(
        cfg["out"],
        cfg,
        ["delta", "delta_env", "eta", "p_plus", "p_minus", "p_error", "pe_bound"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cviqp",
        description="CV-IQP gadget experiments: post-selected Fourier gadgets, GKP error "
        "correction, squeezing scaling tables, GKP readout, and DV reference circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with parameters (flags override)")
        p.add_argument("--out", help="result CSV path")
        p.add_argument("--seed", type=int, help="base seed (randomized commands require it)")
        p.add_argument("--grid-points", dest="grid_points", type=int, help="grid size (power of two)")
        p.add_argument("--extent", type=float, help="grid extent L")

    p = sub.add_parser(
        "fourier-gadget",
        help="post-selected Fourier gadget sweep over sigma and eta",
        description="Writes one record per (sigma, eta): pixel probability vs the "
        "2*eta*sigma/sqrt(pi) leading order, and output fidelities.",
    )
    common(p)
    p.add_argument("--sigma", help="ancilla squeezing (comma list allowed)")
    p.add_argument("--eta", help="detector half-width (comma list allowed)")
    p.add_argument("--input", choices=["vacuum", "plus", "minus", "zero", "one"], help="input state")
    p.add_argument("--delta", type=float, help="GKP spike width for GKP inputs")
    p.add_argument("--delta-env", dest="delta_env", type=float, help="GKP envelope parameter")
    p.add_argument("--postselect-k", dest="postselect_k", type=int, help="post-selected pixel index")
    p.set_defaults(func=cmd_fourier_gadget)

    p = sub.add_parser(
        "error-correct",
        help="GKP error-correction trials on a displaced |+> comb",
        description="Displaces a clean |+> comb by u1, runs the syndrome measurement with "
        "seeded outcomes, and records correction, net offset, threshold and "
        "miscorrection flags, and pre/post fidelities.",
    )
    common(p)
    p.add_argument("--delta", type=float, help="GKP spike width (data and ancilla)")
    p.add_argument("--delta-env", dest="delta_env", type=float, help="GKP envelope parameter")
    p.add_argument("--eta", type=float, help="detector half-width (sqrt(pi)/eta must be integer)")
    p.add_argument("--u1", type=float, help="data position displacement")
    p.add_argument("--trials", type=int, help="number of seeded outcome draws")
    p.set_defaults(func=cmd_error_correct)

    p = sub.add_parser(
        "scaling",
        help="squeezing scaling table and fault-tolerance root-find",
        description="Prints n -> (minimum squeezing dB, mean-photon lower bound, Pe bound); "
        "--solve-ft-error finds sigma with the stated error per Fourier transform.",
    )
    common(p)
    p.add_argument("--n", help="circuit sizes (comma list)")
    p.add_argument("--l", type=int, help="number of Fourier gadgets for the composed probability")
    p.add_argument("--eta", help="detector half-width for the composed probability")
    p.add_argument("--sigma", help="squeezing for the composed probability")
    p.add_argument(
        "--solve-ft-error",
        dest="solve_ft_error",
        type=float,
        help="target error probability per Fourier transform",
    )
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser(
        "dv",
        help="DV reference simulations (Hadamard gadget, IQP circuits)",
        description="hadamard-gadget mode records (trial, h, probability); iqp mode takes "
        "the circuit from the config file and writes the outcome distribution.",
    )
    common(p)
    p.add_argument("--mode", choices=["hadamard-gadget", "iqp"], help="what to simulate")
    p.add_argument("--trials", type=int, help="number of seeded gadget runs")
    p.add_argument("--postselect", choices=["+", "-", "none"], help="gadget post-selection")
    p.set_defaults(func=cmd_dv)

    p = sub.add_parser(
        "readout",
        help="sqrt(pi)-window GKP readout masses vs the misidentification bound",
        description="Writes (p_plus, p_minus, p_error) for GKP states over a delta sweep, "
        "next to the closed-form bound.",
    )
    common(p)
    p.add_argument("--delta", help="GKP spike width (comma list allowed)")
    p.add_argument("--delta-env", dest="delta_env", type=float, help="GKP envelope parameter")
    p.add_argument("--eta", type=float, help="detector half-width (sqrt(pi)/eta must be integer)")
    p.add_argument("--state", choices=["plus", "minus", "zero", "one"], help="which comb to read out")
    p.set_defaults(func=cmd_readout)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
