"""Command-line front end: demos, sweeps, size audits, micro-benchmarks.

All subcommands are deterministic under --seed (bench timings aside).
CSV outputs always carry a header row.  Exit code 0 means no assertion
or audit check failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import random
import statistics
import sys
import time

from . import gf, node as node_mod, pipcore, sigcrypto, sim as sim_mod, validity
from .node import Verdict
from .pipcore import ParentInput, Protocol
from .profiles import PROFILES, TEST, Profile, get_profile
from .sim import Behavior, BehaviorKind, SweepConfig

TABLE_PARENT_COUNTS = (1, 2, 3, 5, 7, 10, 15, 50)


# ---------------------------------------------------------------------------
# Token fixtures shared by the size audit and the benchmarks


def build_token_fixture(d: int, profile: Profile, seed: int = 1234, n_chunks: int = 2):
    """A sender with d verified parents, ready to build either token.

    Returns (parent_inputs, params, sender context dict).  Parents all
    emit valid combinations of two originals; ids are fixed-width so
    framing bytes are predictable.
    """
    rng = random.Random(seed)
    m = 2
    master = sigcrypto.keygen(rng, b"src")
    originals = gf.standard_basis_originals(
        [[rng.randrange(profile.q) for _ in range(n_chunks)] for _ in range(m)], profile.q
    )
    params = validity.epoch_setup(master, originals, 1, rng, profile)
    sender = sigcrypto.keygen(rng, b"nde")

    inputs = []
    parent_pks = {}
    expected = {}
    for i in range(d):
        pid = f"p{i:02d}".encode()
        ident = sigcrypto.keygen(rng, pid)
        combo = [gf.random_nonzero(profile.q, rng) for _ in range(m)]
        E = gf.linear_combine(originals, combo, profile.q)
        sigma = validity.sign_validity(params, E)
        helper = pipcore.make_helper_token(ident.sk, sigma, pid, sender.node_id, params)
        coeff = node_mod.derive_coefficient(
            b"\x07" * 32, pid, sender.node_id, params.epoch_pk_bytes(), profile.q
        )
        inputs.append(ParentInput(pid, sigma, helper, coeff))
        parent_pks[pid] = ident.pk
        expected[pid] = coeff
    ctx = {
        "master": master,
        "sender": sender,
        "parent_pks": parent_pks,
        "expected": expected,
        "originals": originals,
    }
    return inputs, params, ctx


def measure_token_sizes(d: int, profile: Profile) -> dict:
    """Serialized bit counts for both protocols at one parent count.

    The audit opens challenge index 0, whose path always has
    ceil(log2 d) real sibling levels, matching the closed form's
    balanced-tree convention.
    """
    inputs, params, ctx = build_token_fixture(d, profile)
    sender = ctx["sender"]
    h_bytes = profile.h_bytes
    sig_bits = 8 * sigcrypto.SIG_BYTES

    pip_token = pipcore.pip_combine(inputs)
    pip_bytes = pipcore.serialize_token(pip_token, params)
    id_overhead = sum(1 + len(e.parent_id) for e in pip_token.entries)
    pip_framing_bits = 8 * (1 + 2 + id_overhead + d * params.q_bytes)
    pip_measured = 8 * len(pip_bytes) + sig_bits  # token plus the sender's helper

    # Log-PIP counts the committed root plus the opened challenge data; the
    # sender's own helper token is ordinary packet overhead and is audited
    # on the PIP side, so it is not double-counted here.
    log_token, tree = pipcore.logpip_build(inputs, params, h_bytes)
    log_bytes = pipcore.serialize_token(log_token, params)
    proof = pipcore.logpip_respond(tree, 0, sender.sk)
    proof_bytes = pipcore.serialize_proof(proof, params)
    log_framing_bits = 8 * (
        1  # token tag
        + 1 + len(proof.leaf.parent_id)  # opened parent id
        + params.q_bytes  # opened coefficient
        + 1  # sibling count
        + sigcrypto.SIG_BYTES  # signed response (non-repudiation)
    )
    log_measured = 8 * (len(log_bytes) + len(proof_bytes))

    return {
        "d": d,
        "sigma_bits": profile.sigma_bits,
        "h_bits": 8 * h_bytes,
        "sig_bits": sig_bits,
        "pip_measured_bits": pip_measured,
        "pip_framing_bits": pip_framing_bits,
        "logpip_measured_bits": log_measured,
        "logpip_framing_bits": log_framing_bits,
        "logpip_sibling_levels": len(proof.path),
    }


# ---------------------------------------------------------------------------
# demo


def cmd_demo(args) -> int:
    protocol = Protocol(args.protocol)
    seed = args.seed
    out = []

    topo = sim_mod.butterfly_topology()
    honest = sim_mod.run_simulation(topo, Protocol.NONE, m=2, rng_seed=seed)
    out.append("butterfly, all nodes honest:")
    for s, r in sorted(honest.sink_ranks.items()):
        out.append(f"  sink {s}: rank={r}")
    ok = all(r == 2 for r in honest.sink_ranks.values())

    fwd = topo.with_behavior("n1", Behavior(BehaviorKind.FORWARD_ONLY))
    unverified = sim_mod.run_simulation(fwd, Protocol.NONE, m=2, rng_seed=seed)
    out.append("butterfly, n1 forwards instead of coding, no verification:")
    for s, r in sorted(unverified.sink_ranks.items()):
        out.append(f"  sink {s}: rank={r}")
    ok = ok and min(unverified.sink_ranks.values()) == 1

    challenges = 2 if protocol is Protocol.LOGPIP else 1  # t=d at the bottleneck
    simulation = sim_mod.Simulation(
        fwd, protocol, m=2, rng_seed=seed, challenges=challenges, collect_proofs=True
    )
    report = simulation.run()
    out.append(f"butterfly, n1 forwards, protocol={protocol.value}:")
    for ev in report.detections[:4]:
        out.append(f"  round {ev.round}: {ev.verifier} flags {ev.culprit} ({ev.kind.value})")
    culprits = report.detected_culprits()
    ok = ok and "n1" in culprits

    verdict = None
    for proof in report.proofs:
        if proof.sender_id == b"n1":
            verdict = node_mod.adjudicate(proof, simulation.master.pk, simulation.master.pk)
            break
    if verdict is not None and verdict.verdict is Verdict.GUILTY:
        out.append(f"misbehavior proof adjudicated: GUILTY ({verdict.violation.kind.value})")
    else:
        out.append("misbehavior proof adjudicated: FAILED")
        ok = False

    print("\n".join(out))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# simulate

# One row per transmission and sink, the fields of sim.SweepRow; fallbacks
# counts the rounds Mode-1 nodes coded honestly for want of a
# non-innovative choice.
RUN_COLUMNS = ["seed", "min_cut", "mode", "sink_id", "rank", "detections", "fallbacks"]


def _write_runs(path: str, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RUN_COLUMNS)
        for row in rows:
            w.writerow([getattr(row, col) for col in RUN_COLUMNS])


def _at_least(minimum: int):
    """An argparse type: an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_at_least_one, _non_negative = _at_least(1), _at_least(0)
# a source, a sink and two interior nodes, the fewest random_topology builds
_node_count = _at_least(4)


def cmd_simulate(args) -> int:
    profile = get_profile(args.profile)
    out_path = args.out or "sweep.csv"
    if not os.path.isdir(os.path.dirname(out_path) or "."):
        print(f"rlncheck simulate: {out_path}: no such directory", file=sys.stderr)
        return 2
    if os.path.isdir(out_path):
        print(f"rlncheck simulate: {out_path}: is a directory", file=sys.stderr)
        return 2

    if args.topology == "random":
        cuts = tuple(range(1, args.mincut + 1))
        config = SweepConfig(
            node_count=args.nodes,
            edge_count=args.edges,
            m=args.packets,
            min_cuts=cuts,
            byzantine_count=args.byzantine,
            seeds=tuple(range(args.seed, args.seed + args.trials)),
            profile=profile,
        )
        rows, summary = sim_mod.mode_sweep(config)
        # A random topology has one sink, so a pair with no row was skipped.
        done = {(row.min_cut, row.seed) for row in rows}
        for cut in cuts:
            for seed in config.seeds:
                if (cut, seed) not in done:
                    print(f"rlncheck simulate: skipped cut {cut}, seed {seed}: "
                          f"no topology met the parameters", file=sys.stderr)
        if not rows:
            print("rlncheck simulate: every (cut, seed) pair was skipped; nothing written",
                  file=sys.stderr)
            return 1
        runs_path = out_path + ".runs.csv"
        _write_runs(runs_path, rows)
        with open(out_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["min_cut", "mode", "mean_rank", "runs"])
            runs_per = {}
            for row in rows:
                runs_per[(row.min_cut, row.mode)] = runs_per.get((row.min_cut, row.mode), 0) + 1
            for cut, mode, mean in summary:
                w.writerow([cut, mode, f"{mean:.4f}", runs_per.get((cut, mode), 0)])
        print(f"wrote {out_path} ({len(summary)} summary rows) and {runs_path} ({len(rows)} runs)")
        return 0

    if args.topology == "butterfly":
        topo = sim_mod.butterfly_topology()
    else:
        try:
            with open(args.topology) as f:
                topo = sim_mod.parse_topology(f.read())
        except (OSError, ValueError) as e:
            print(f"rlncheck simulate: {args.topology}: {e}", file=sys.stderr)
            return 2
    cuts = {sink: sim_mod.min_cut(topo, topo.source, sink) for sink in topo.sinks}
    _write_runs(out_path, [
        row
        for seed in range(args.seed, args.seed + args.trials)
        for row in sim_mod.mode_rows(topo, cuts, seed, args.packets, profile)
    ])
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# sizes


def cmd_sizes(args) -> int:
    mismatch = False
    print("closed-form token bits (sig=320, h=160):")
    print(f"{'d':>4} {'pip@160':>10} {'pip@1024':>10} {'logpip@160':>12} {'logpip@1024':>12}")
    for d in TABLE_PARENT_COUNTS:
        p160 = pipcore.token_size_bits(Protocol.PIP, d, 160, 320, 160)
        p1024 = pipcore.token_size_bits(Protocol.PIP, d, 1024, 320, 160)
        l160 = pipcore.token_size_bits(Protocol.LOGPIP, d, 160, 320, 160)
        l1024 = pipcore.token_size_bits(Protocol.LOGPIP, d, 1024, 320, 160)
        print(f"{d:>4} {p160:>10} {p1024:>10} {l160:>12} {l1024:>12}")
        if p160 != 480 * d + 320:
            print(f"  MISMATCH: pip closed form at d={d}")
            mismatch = True
    print("(log term uses ceil(log2 d); the idealized form leaves rounding open)")

    # Measured audit at an |h| == |sigma| configuration, where the closed
    # form and the byte layout coincide exactly.
    audit_profile = TEST.with_hash_width(TEST.p_bytes)
    print(f"\nmeasured sizes, audit profile (|sigma|={audit_profile.sigma_bits} bits, "
          f"|h|={8 * audit_profile.h_bytes} bits, |sig|=512 bits):")
    print(f"{'d':>4} {'protocol':>9} {'measured':>9} {'formula':>9} {'framing':>8} {'match':>6}")
    for d in TABLE_PARENT_COUNTS:
        r = measure_token_sizes(d, audit_profile)
        for proto, measured, framing in (
            ("pip", r["pip_measured_bits"], r["pip_framing_bits"]),
            ("logpip", r["logpip_measured_bits"], r["logpip_framing_bits"]),
        ):
            formula = pipcore.token_size_bits(
                Protocol(proto), d, r["sigma_bits"], r["sig_bits"], r["h_bits"]
            )
            match = measured == formula + framing
            mismatch = mismatch or not match
            print(f"{d:>4} {proto:>9} {measured:>9} {formula:>9} {framing:>8} "
                  f"{'ok' if match else 'FAIL'}")

    print("\nmeasured growth at the sim profile (PIP linear in d, Log-PIP root constant):")
    prev_pip = None
    for d in TABLE_PARENT_COUNTS:
        r = measure_token_sizes(d, get_profile(args.profile))
        print(f"  d={d:>3}: pip={r['pip_measured_bits']} bits, "
              f"logpip token+challenge={r['logpip_measured_bits']} bits")
        if prev_pip is not None and r["pip_measured_bits"] <= prev_pip:
            mismatch = True
        prev_pip = r["pip_measured_bits"]
    return 1 if mismatch else 0


# ---------------------------------------------------------------------------
# bench


MIN_SAMPLES = 5  # timed samples per point, at least
SAMPLE_S = 0.002  # a sample times a loop of calls lasting about this long


def _per_call_samples(fns, samples: int) -> list[list[float]]:
    """Seconds per call of each of ``fns``, max(samples, MIN_SAMPLES) times.

    Each function's loop length is fixed first: the number of calls,
    doubled from 1, until one loop takes SAMPLE_S, so a sub-millisecond
    call is not timed alone.  Samples of the functions are interleaved,
    so host load that drifts during a run shifts them alike.
    """
    def loop(fn, calls: int) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    lengths = []
    for fn in fns:
        calls = 1
        while loop(fn, calls) < SAMPLE_S:
            calls *= 2
        lengths.append(calls)
    rounds = [[loop(fn, calls) / calls for fn, calls in zip(fns, lengths)]
              for _ in range(max(samples, MIN_SAMPLES))]
    return [list(col) for col in zip(*rounds)]


def _time_op(fn, samples: int) -> float:
    """Median ms per call of ``fn``."""
    return statistics.median(_per_call_samples([fn], samples)[0]) * 1000.0


def _time_ratio(fn, base, samples: int) -> float:
    """Median over paired samples of fn's time per call over base's."""
    times, base_times = _per_call_samples([fn, base], samples)
    return statistics.median(t / b for t, b in zip(times, base_times))


def _bench_validity(profile: Profile, n: int, samples: int) -> tuple[float, float, float]:
    """ms per sign_validity, per verify_validity, and per verify_validity
    against a verified span of full rank, of one n-chunk packet."""
    _, params, ctx = build_token_fixture(1, profile, n_chunks=n)
    originals = ctx["originals"]
    rng = random.Random(n)
    E = gf.linear_combine(
        originals, [gf.random_nonzero(profile.q, rng) for _ in originals], profile.q
    )
    sigma = validity.sign_validity(params, E)
    span = gf.Span(params.q, params.m + params.n)
    for o in originals:
        validity.verify_validity(params, o, validity.sign_validity(params, o), span)
    return (
        _time_op(lambda: validity.sign_validity(params, E), samples),
        _time_op(lambda: validity.verify_validity(params, E, sigma), samples),
        _time_op(lambda: validity.verify_validity(params, E, sigma, span), samples),
    )


PRODUCT_D = (1, 2, 10)  # signature counts of the combine_validity rows
G_BASES = 36  # generators of the G(E) row: n+m of a relay_production packet


def _bench_products(profile: Profile, samples: int) -> dict[str, float]:
    """ms per combine_validity of d received signatures, for each d in
    PRODUCT_D, per H(c), the product a node signs its draft with, per
    single-base power, per G(E) over G_BASES generators, and per
    ``epoch_setup`` of an epoch with G_BASES generators, the source's cost
    of each new epoch."""
    inputs, params, _ = build_token_fixture(max(PRODUCT_D), profile)
    rng = random.Random(len(inputs))
    c = tuple(gf.random_nonzero(profile.q, rng) for _ in range(params.m))
    out = {}
    for d in PRODUCT_D:
        sigmas, coeffs = [i.sigma for i in inputs[:d]], [i.coeff for i in inputs[:d]]
        out[f"combine d={d}"] = _time_op(
            lambda: validity.combine_validity(sigmas, coeffs, params), samples
        )
    out["H(c)"] = _time_op(lambda: validity.claimed_validity(params, c), samples)
    base, e = inputs[0].sigma, inputs[0].coeff
    out["power"] = _time_op(lambda: validity.power_product((base,), (e,), params.p, params.q), samples)
    _, wide, ctx = build_token_fixture(1, profile, n_chunks=G_BASES - params.m)
    E = gf.linear_combine(ctx["originals"], c, profile.q)
    out[f"G(E) n+m={G_BASES}"] = _time_op(lambda: validity.sign_validity(wide, E), samples)
    master, originals, draws = ctx["master"], ctx["originals"], random.Random(G_BASES)
    out[f"epoch_setup n+m={G_BASES}"] = _time_op(
        lambda: validity.epoch_setup(master, originals, 1, draws, profile), samples
    )
    return out


CODING_D = (5, 20, 40)  # vector counts of the linear_combine rows
CODING_CHUNKS = (2, 5)  # payload and coding chunks of each vector, as in the mode sweep


def _bench_coding(profile: Profile, samples: int) -> dict[int, tuple[float, float]]:
    """µs per ``gf.linear_combine`` of d vectors, for each d in CODING_D:
    on its first use of the vectors, timed on fresh copies of them so that
    each call packs them, and on a repeat, over vectors already packed."""
    q = profile.q
    n, m = CODING_CHUNKS
    rng = random.Random(n + m)
    out = {}
    for d in CODING_D:
        vecs = [gf.vector([rng.randrange(q) for _ in range(n)], [rng.randrange(q) for _ in range(m)], q)
                for _ in range(d)]
        coeffs = [gf.random_nonzero(q, rng) for _ in range(d)]
        first = _time_op(lambda: gf.linear_combine(
            [gf.CodedVector(v.payload, v.coding_vector) for v in vecs], coeffs, q), samples)
        repeat = _time_op(lambda: gf.linear_combine(vecs, coeffs, q), samples)
        out[d] = (first * 1000.0, repeat * 1000.0)
    return out


PRF_PARENTS = 20  # one node's parents, about the mean in-degree in the mode-sweep topologies


def _bench_prf(profile: Profile, samples: int) -> dict[str, float]:
    """µs per prescribed coefficient at ``profile``'s q, for one node with
    PRF_PARENTS parents and the crypto-free context b"lite": derived one
    at a time (``node.derive_coefficient``) and as the node's one batch
    (``node.derive_coefficients``)."""
    q, seed, node_id = profile.q, bytes(range(32)), b"n000"
    parents = [f"p{i:02d}".encode() for i in range(PRF_PARENTS)]
    out = {
        "one at a time": _time_op(lambda: [
            node_mod.derive_coefficient(seed, p, node_id, b"lite", q) for p in parents
        ], samples),
        "batch": _time_op(
            lambda: node_mod.derive_coefficients(seed, parents, node_id, b"lite", q), samples
        ),
    }
    return {name: ms * 1000.0 / PRF_PARENTS for name, ms in out.items()}


TOPOLOGY_SHAPE = (50, 1000)  # nodes and edges of a criterion-6 sweep topology
TOPOLOGY_CUTS = (1, 5, 10)


def _bench_topology(samples: int) -> dict[int, float]:
    """ms per ``sim.random_topology`` of TOPOLOGY_SHAPE with one Byzantine
    node, for each min-cut in TOPOLOGY_CUTS: generation, the flow that
    places the node, and validation, which a sweep point pays once."""
    nodes, edges = TOPOLOGY_SHAPE
    return {cut: _time_op(lambda: sim_mod.random_topology(nodes, edges, cut, 1, rng_seed=cut),
                          samples)
            for cut in TOPOLOGY_CUTS}


ED25519_MESSAGE_BYTES = 256


def _bench_ed25519(samples: int) -> dict[str, float]:
    """µs per Ed25519 sign, per verify, and per repeat of a verify that
    already passed inside a ``sigcrypto.shared_verifications()`` scope,
    the repeat a simulation answers from its set."""
    rng = random.Random(ED25519_MESSAGE_BYTES)
    ident = sigcrypto.keygen(rng)
    message = rng.randbytes(ED25519_MESSAGE_BYTES)
    sig = sigcrypto.sign(ident.sk, message)
    out = {
        "sign": _time_op(lambda: sigcrypto.sign(ident.sk, message), samples),
        "verify": _time_op(lambda: sigcrypto.verify(ident.pk, message, sig), samples),
    }
    with sigcrypto.shared_verifications():
        sigcrypto.verify(ident.pk, message, sig)
        out["repeat verify"] = _time_op(lambda: sigcrypto.verify(ident.pk, message, sig), samples)
    return {name: ms * 1000.0 for name, ms in out.items()}


def cmd_bench(args) -> int:
    profile = get_profile(args.profile)
    payload_sizes = (10, 100, 1000)
    d_values = (1, 2, 3, 5, 7, 10, 15, 50)
    ratio_d = (3, 10)  # parent counts whose verify time is compared across payload sizes
    lo_n, hi_n = payload_sizes[0], payload_sizes[-1]
    samples = args.trials
    print(f"{'proto':>7} {'d':>4} {'n':>5} {'prep_ms':>9} {'verify_ms':>10}")
    verifiers = {}
    for d in d_values:
        for n in payload_sizes:
            inputs, params, ctx = build_token_fixture(d, profile, n_chunks=n)
            sender = ctx["sender"]

            prep_pip = functools.partial(pipcore.pip_combine, inputs)
            token = prep_pip()
            sigma = validity.combine_validity(
                [e.sigma for e in token.entries], [e.coeff for e in token.entries], params
            )
            verify_pip = functools.partial(
                pipcore.pip_verif_test, sigma, token, sender.node_id, set(ctx["parent_pks"]),
                ctx["parent_pks"], ctx["expected"], params,
            )

            prep_logpip = functools.partial(pipcore.logpip_build, inputs, params, profile.h_bytes)
            log_token, tree = prep_logpip()
            proof = pipcore.logpip_respond(tree, 0, sender.sk)
            first = tree.inputs[0]
            ctx_obj = pipcore.ChallengeContext(
                sender_id=sender.node_id, packet_sigma=tree.root.sigma, params=params,
                h_bytes=profile.h_bytes, parents=tuple(inp.parent_id for inp in tree.inputs),
            )
            verify_logpip = functools.partial(
                pipcore.logpip_verify, proof, log_token, ctx_obj, first.parent_id,
                ctx["parent_pks"][first.parent_id], ctx["expected"][first.parent_id],
            )

            for proto, prep, verify in (("pip", prep_pip, verify_pip),
                                        ("logpip", prep_logpip, verify_logpip)):
                prep_ms = _time_op(prep, samples)
                verify_ms = _time_op(verify, samples)
                if d in ratio_d and n in (lo_n, hi_n):
                    verifiers[(proto, d, n)] = verify
                print(f"{proto:>7} {d:>4} {n:>5} {prep_ms:>9.4f} {verify_ms:>10.4f}")

    validity_ms = {n: _bench_validity(profile, n, samples) for n in payload_sizes}
    print(f"\nvalidity signatures ({profile.name}, m=2):")
    print(f"{'n':>5} {'sign_ms':>9} {'verify_ms':>10}")
    for n, (sign_ms, verify_ms, _) in validity_ms.items():
        print(f"{n:>5} {sign_ms:>9.4f} {verify_ms:>10.4f}")

    print(f"\nvalidity in a verified span of rank m ({profile.name}, m=2):")
    print(f"{'n':>5} {'verify_ms':>10}")
    for n, (_, _, span_ms) in validity_ms.items():
        print(f"{n:>5} {span_ms:>10.4f}")

    print(f"\nvalidity products ({profile.name}, m=2, {validity.route(profile.p)}):")
    print(f"{'product':>18} {'ms':>10}")
    for name, ms in _bench_products(profile, samples).items():
        print(f"{name:>18} {ms:>10.4f}")

    print(f"\nGF(q) coding ({profile.name}, {sum(CODING_CHUNKS)} chunks per vector):")
    print(f"{'d':>4} {'first_us':>10} {'repeat_us':>10}")
    for d, (first_us, repeat_us) in _bench_coding(profile, samples).items():
        print(f"{d:>4} {first_us:>10.2f} {repeat_us:>10.2f}")

    print(f"\nPRF coefficients ({profile.name}, {PRF_PARENTS} parents):")
    print(f"{'derived':>14} {'us':>10}")
    for name, us in _bench_prf(profile, samples).items():
        print(f"{name:>14} {us:>10.2f}")

    print(f"\nrandom topology ({TOPOLOGY_SHAPE[0]} nodes, {TOPOLOGY_SHAPE[1]} edges, 1 Byzantine):")
    print(f"{'cut':>4} {'ms':>10}")
    for cut, ms in _bench_topology(samples).items():
        print(f"{cut:>4} {ms:>10.4f}")

    print(f"\nEd25519 ({ED25519_MESSAGE_BYTES}-byte message, {sigcrypto.route()}):")
    print(f"{'operation':>14} {'us':>10}")
    for name, us in _bench_ed25519(samples).items():
        print(f"{name:>14} {us:>10.2f}")

    print(f"\npayload-independence ratios (verify time, n={hi_n} vs n={lo_n}, paired samples):")
    for proto in ("pip", "logpip"):
        for d in ratio_d:
            ratio = _time_ratio(verifiers[(proto, d, hi_n)], verifiers[(proto, d, lo_n)], samples)
            print(f"  {proto} d={d}: {ratio:.2f}x")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rlncheck",
        description="Verified random linear network coding: demos, sweeps, audits.",
    )
    parser.add_argument("--profile", default="sim", choices=sorted(PROFILES),
                        help="parameter profile")
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="butterfly walkthrough with detection")
    p_demo.add_argument("--protocol", default="pip", choices=["pip", "logpip"])
    p_demo.add_argument("--seed", type=int, default=7)
    p_demo.set_defaults(func=cmd_demo)

    p_sim = sub.add_parser("simulate", help="throughput mode sweep to CSV")
    p_sim.add_argument("--topology", default="random",
                       help="random, butterfly, or a topology file path")
    p_sim.add_argument("--nodes", type=_node_count, default=50)
    p_sim.add_argument("--edges", type=_non_negative, default=1000)
    p_sim.add_argument("--mincut", type=_at_least_one, default=10, help="sweep cuts 1..N")
    p_sim.add_argument("--byzantine", type=_non_negative, default=1)
    p_sim.add_argument("--packets", type=_at_least_one, default=5)
    p_sim.add_argument("--trials", type=_at_least_one, default=20, help="seeds per point")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="sweep.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_sizes = sub.add_parser("sizes", help="token size formulas vs measured bytes")
    p_sizes.set_defaults(func=cmd_sizes)

    p_bench = sub.add_parser("bench", help="transmit-prep / verification timings")
    p_bench.add_argument("--trials", type=int, default=30,
                         help=f"timed samples per point, median (at least {MIN_SAMPLES})")
    p_bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
