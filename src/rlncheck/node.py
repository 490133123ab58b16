"""The per-node engine: verify parents, code, emit, attest, adjudicate.

A node ingests one packet per parent per round, runs the check
pipeline (attest signature, epoch binding, validity signature, token
type and full PIP token, helper token), then codes over its required
set, which is all of its registered parents, with PRF-derived
coefficients and assembles the outgoing packet.  On the wire it is

    E, sigma, test token, epoch reference, sender id   (the signed prefix)
    helper token, attest signature over the signed prefix.

The attest is signed once per emission (``build_draft``) and every
child gets the same one; only the helper token is made per child
(``finalize_packet``).  The attest does not need to cover the helper:
the helper alone binds a packet to its edge.  sigma binds E, because a
receiver checks E's validity signature against it, and the helper is
the sender's signature on sigma and on the names of the sender and of
the receiver.  So a sibling that holds the same packet cannot show it
as one sent to another node: it has no helper that names that node.

Receivers and ``adjudicate`` run the same pipeline (``_check_packet``)
and Log-PIP response check (``_check_response``), so a violation in
what the attest covers is provable to a third party: a bad epoch
binding aside, every violation of the content stage (validity
signature, token type, full PIP token and its entries' helpers), a
helper on a zero packet, and a failed challenge response, which the
sender signs.  A bad edge helper is not provable, since the attest does
not cover the helper bytes and anyone can swap them; it only gets the
packet dropped, which proves no more than silence.  A sender with a
required set must carry a full PIP token, checked under either
protocol, or, to a Log-PIP receiver, a Merkle root that the receiver
challenges.  ``enter_epoch`` checks the epoch's master signature once;
a packet's epoch reference must then equal it.

A receiver also keeps, per epoch, the span of the packets whose
validity signatures it has checked in full (``NodeState.verified``).
The validity check of a packet inside that span skips the product over
all n+m generators, so a receiver pays for that product at most m
times per epoch when its packets pass; ``adjudicate`` keeps no span
and checks every packet in full.  The verdicts are the same (see
``validity``).

Of the pipeline, only the helper signature belongs to one edge; the
rest, the attest and the packet's content, is the same for every child
of a sender.  Inside a ``shared_content_checks()`` scope, which
``sim.Simulation.run`` enters for a whole run, that verdict is computed
once for every receiver with the same view of the sender and reused by
the others (``_check_packet``).  Outside a scope, as in
``adjudicate`` and in a caller that drives nodes itself, every check
does the full work.

Failures never abort a round; each parent gets a verdict.  A node
codes only once every registered parent has a verified packet
buffered, because a child blames a packet that leaves out a parent on
its sender.  ``build_draft`` is the shared tail of every emission,
the source's included: it signs a coded vector and builds its test
token, for ``process_round`` and for callers that choose their own
coefficients and token entries (``buffered_inputs``), and it signs
the draft's one attest.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from . import gf, pipcore, sigcrypto, validity
from .gf import CodedVector
from .pipcore import (
    ChallengeContext,
    ChallengeProof,
    LogPipTestToken,
    ParentInput,
    PipTestToken,
    Protocol,
    Violation,
    ViolationKind,
)
from .profiles import Profile
from .validity import SourceEpochParams
from .wire import DecodeError, Reader, Writer

_COEFF_CONTEXT = b"rlncheck-coeff-v1"


@dataclass(frozen=True)
class EpochRef:
    """Binds a packet to one transmission epoch: (k, master signature)."""

    k: int
    master_sig: bytes


@dataclass(frozen=True)
class Packet:
    E: CodedVector
    sigma: int
    test_token: PipTestToken | LogPipTestToken
    helper: bytes
    epoch_ref: EpochRef
    sender_id: bytes
    attest: bytes


# ---------------------------------------------------------------------------
# Coefficient derivation


def derive_coefficient(
    seed: bytes,
    parent_id: bytes,
    node_id: bytes,
    epoch_pk_bytes: bytes,
    q: int,
) -> int:
    """The prescribed coding coefficient for (parent -> node): the
    ``derive_coefficients`` of the one parent."""
    return derive_coefficients(seed, (parent_id,), node_id, epoch_pk_bytes, q)[0]


def derive_coefficients(
    seed: bytes,
    parent_ids: Sequence[bytes],
    node_id: bytes,
    epoch_pk_bytes: bytes,
    q: int,
) -> list[int]:
    """The prescribed coding coefficient of each (parent -> node), in
    ``parent_ids`` order, from one PRF pass (``sigcrypto.prf_to_fields``).

    PRF input is the length-prefixed tuple of ids plus the epoch public
    key, so coefficients differ across epochs; output is mapped into
    Z_q^* and is never zero.  The message is the ``wire.Writer`` layout
    raw(context), var_bytes(parent), var_bytes(node), var_bytes(b""),
    u64(len(key)), raw(key); everything after the parent is the same for
    every parent and is built once.
    """
    if not 0 < len(node_id) < 256 or not all(0 < len(p) < 256 for p in parent_ids):
        raise ValueError("parent_id and node_id must be 1 to 255 bytes")
    tail = b"".join((
        bytes((len(node_id),)), node_id,
        b"\x00",  # an empty child id, so coefficients keep their values
        len(epoch_pk_bytes).to_bytes(8, "big"), epoch_pk_bytes,
    ))
    return sigcrypto.prf_to_fields(
        seed, [b"".join((_COEFF_CONTEXT, bytes((len(p),)), p, tail)) for p in parent_ids], q
    )


# ---------------------------------------------------------------------------
# Packet serialization (canonical field order: the signed prefix, the
# helper, then the attest over the prefix)


# h_bytes is unread; it stays while rlnbench/workloads.py passes it positionally.
def packet_signed_bytes(
    pkt: "Packet | OutgoingDraft", params: SourceEpochParams, h_bytes: int = 20
) -> bytes:
    """The signed prefix, everything the attest signature covers, in
    canonical order: E, sigma, test token, epoch reference and sender id.
    The same for every child of an emission, so a draft has it too."""
    w = Writer()
    w.u16(pkt.E.n).u16(pkt.E.m)
    qw = params.q_bytes
    for c in pkt.E.chunks:
        w.uint(c, qw)
    w.uint(pkt.sigma, params.p_bytes)
    w.raw(pipcore.serialize_token(pkt.test_token, params))
    w.u64(pkt.epoch_ref.k).raw(pkt.epoch_ref.master_sig)
    w.var_bytes(pkt.sender_id)
    return w.getvalue()


# h_bytes is unread; it stays while rlnbench/workloads.py passes it positionally.
def serialize_packet(pkt: Packet, params: SourceEpochParams, h_bytes: int = 20) -> bytes:
    return packet_signed_bytes(pkt, params) + pkt.helper + pkt.attest


def deserialize_packet(data: bytes, params: SourceEpochParams, h_bytes: int = 20) -> Packet:
    """Parse a canonical packet; raises DecodeError (never crashes)."""
    r = Reader(data)
    n = r.u16()
    m = r.u16()
    chunks = [r.uint(params.q_bytes) for _ in range(n + m)]
    if any(c >= params.q for c in chunks):
        raise DecodeError("chunk out of field range", r.pos)
    sigma = r.uint(params.p_bytes)
    token = pipcore.parse_token(r, params, h_bytes)
    k = r.u64()
    master_sig = r.take(sigcrypto.SIG_BYTES)
    sender_id = r.var_bytes()
    helper = r.take(sigcrypto.SIG_BYTES)
    attest = r.take(sigcrypto.SIG_BYTES)
    r.expect_end()
    return Packet(
        E=CodedVector(payload=tuple(chunks[:n]), coding_vector=tuple(chunks[n:])),
        sigma=sigma,
        test_token=token,
        helper=helper,
        epoch_ref=EpochRef(k=k, master_sig=master_sig),
        sender_id=sender_id,
        attest=attest,
    )


def attest_packet(sk: bytes, packet_bytes: bytes) -> bytes:
    return sigcrypto.sign(sk, packet_bytes)


def verify_attest(pk: bytes, packet_bytes: bytes, sig: bytes) -> bool:
    return sigcrypto.verify(pk, packet_bytes, sig)


# ---------------------------------------------------------------------------
# Node state and the per-round protocol


@dataclass
class ParentInfo:
    pk: bytes
    cert: sigcrypto.Certificate | None = None
    required_set: frozenset = frozenset()  # the parent's own required set (its parents)
    grandparent_pks: dict = field(default_factory=dict)


@dataclass
class NodeState:
    identity: sigcrypto.NodeIdentity
    seed: bytes
    authority_pk: bytes
    master_pk: bytes
    profile: Profile
    protocol: Protocol = Protocol.PIP
    params: SourceEpochParams | None = None
    parents: dict = field(default_factory=dict)  # parent_id -> ParentInfo
    buffers: dict = field(default_factory=dict)  # parent_id -> verified Packet
    current_tree: pipcore.MerkleTreeState | None = None
    # Rows coding_vector + payload of the packets whose validity signature
    # passed the full check in this epoch, whatever the rest of the pipeline
    # made of them; only validity.verify_validity adds to it (or
    # validity.record_verified, for a check shared with another receiver),
    # and enter_epoch starts an empty one.  None before the first epoch.
    verified: gf.Span | None = None

    @property
    def node_id(self) -> bytes:
        return self.identity.node_id

    def register_parent(self, parent_id: bytes, info: "ParentInfo") -> None:
        self.parents[parent_id] = info

    def enter_epoch(self, params: SourceEpochParams) -> None:
        """Activate master-signed ``params`` (else ValueError); buffers and
        the verified span do not carry over."""
        if not validity.verify_epoch(params, self.master_pk):
            raise ValueError(f"epoch {params.k} parameters not signed by the master")
        self.params = params
        self.buffers.clear()
        self.current_tree = None
        self.verified = gf.Span(params.q, params.m + params.n)


# Content verdicts of the innermost active shared_content_checks() scope,
# keyed by everything _check_content reads; None outside any scope.
_shared_content: ContextVar[dict | None] = ContextVar("rlncheck_shared_content", default=None)


@contextmanager
def shared_content_checks():
    """Scope in which ``_check_packet`` checks each packet content once.

    The attest and content of a packet (``_check_content``: attest
    signature, epoch binding, validity signature, token type and full
    PIP token) are the part of the check that does not depend on who
    receives it: a sender sends every child the same E, sigma, token and
    attest, and only the helper token differs per edge.  Inside a scope
    the first receiver to reach that stage runs it, and every later
    receiver of the same content, under the same view of its sender,
    takes the stored verdict.  Each scope starts empty and the enclosing
    one (or none) is restored on exit, also after an exception; it
    yields its dict of verdicts.  The dict lives in a ``ContextVar``, so
    a scope covers only the thread or task that entered it.
    ``sim.Simulation.run`` enters one per run; outside any scope every
    check does the full work.
    """
    verdicts: dict = {}
    token = _shared_content.set(verdicts)
    try:
        yield verdicts
    finally:
        _shared_content.reset(token)


def _check_content(
    pkt: Packet, sender: ParentInfo, seed: bytes, params: SourceEpochParams,
    protocol: Protocol, verified: gf.Span | None,
) -> tuple[Violation | None, bool]:
    """The receiver-independent stage of ``_check_packet``: attest
    signature over the signed prefix, epoch binding, validity signature,
    then token type and full PIP token (senders with a required set
    only).  Returns the first Violation or None, and whether the
    validity signature passed."""
    sender_id = pkt.sender_id
    if not verify_attest(sender.pk, packet_signed_bytes(pkt, params), pkt.attest):
        return Violation(ViolationKind.BAD_ATTEST, sender_id), False
    if pkt.epoch_ref != EpochRef(k=params.k, master_sig=params.master_sig):
        return Violation(ViolationKind.BAD_EPOCH, sender_id, f"epoch {pkt.epoch_ref.k}"), False
    if not validity.verify_validity(params, pkt.E, pkt.sigma, verified):
        return Violation(ViolationKind.POLLUTED_PACKET, sender_id), False

    if sender.required_set:
        if isinstance(pkt.test_token, PipTestToken):
            required = list(sender.required_set)
            expected = dict(zip(required, derive_coefficients(
                seed, required, sender_id, params.epoch_pk_bytes(), params.q
            )))
            v = pipcore.pip_verif_test(
                pkt.sigma, pkt.test_token, sender_id,
                set(sender.required_set), sender.grandparent_pks, expected, params,
            )
            if v is not None:
                return v, True
        elif protocol is not Protocol.LOGPIP:
            return Violation(ViolationKind.MISSING_ENTRY, sender_id, "wrong token type"), True
    return None, True


def _content_verdict(
    pkt: Packet, sender: ParentInfo, seed: bytes, params: SourceEpochParams,
    protocol: Protocol, verified: gf.Span | None,
) -> Violation | None:
    """``_check_content``'s Violation, or None; inside a
    ``shared_content_checks()`` scope, computed once per key.

    The verdict is stored under every input ``_check_content`` reads but
    the receiver's span, so a receiver with another view of the sender
    (its key, its key registry, its required set) gets a verdict of its
    own.  A receiver that takes a stored verdict grows its span as its
    own check would have (``validity.record_verified``); the verdict of
    ``verify_validity`` does not depend on the span, save on a
    discrete-log collision (see ``validity``).
    """
    shared = _shared_content.get()
    if shared is None:
        return _check_content(pkt, sender, seed, params, protocol, verified)[0]
    key = (
        sender.pk, pkt.attest, pkt.sender_id, pkt.E, pkt.sigma, pkt.test_token, pkt.epoch_ref,
        frozenset(sender.required_set), frozenset(sender.grandparent_pks.items()),
        seed, params, protocol,
    )
    found = shared.get(key)
    if found is None:
        v, _ = shared[key] = _check_content(pkt, sender, seed, params, protocol, verified)
        return v
    v, valid = found
    if valid and verified is not None:
        validity.record_verified(params, pkt.E, verified)
    return v


def _check_edge(
    pkt: Packet, sender: ParentInfo, receiver_id: bytes, params: SourceEpochParams,
) -> Violation | None:
    """The per-edge stage of ``_check_packet``: the helper token must not
    cover a zero packet and must be the sender's signature on sigma for
    this receiver (``pipcore.check_helper``)."""
    return pipcore.check_helper(
        all(c == 0 for c in pkt.E.coding_vector),
        pkt.sigma, pkt.helper, sender.pk, pkt.sender_id, receiver_id, params,
    )


def _check_packet(
    pkt: Packet, sender: ParentInfo, receiver_id: bytes, seed: bytes,
    params: SourceEpochParams, protocol: Protocol, verified: gf.Span | None = None,
) -> Violation | None:
    """Check one packet against the verifier's view of its sender.

    Order: attest signature and content (``_check_content``: attest,
    epoch binding, validity signature, token type and full PIP token),
    then the edge's helper token (``_check_edge``).  Returns the first
    Violation, or None when the packet is good.  ``verified`` is the
    receiver's span for ``validity.verify_validity``.

    Only the helper belongs to one edge and is checked for every
    receiver; inside a ``shared_content_checks()`` scope the attest and
    content verdict is shared (``_content_verdict``).
    """
    v = _content_verdict(pkt, sender, seed, params, protocol, verified)
    return v if v is not None else _check_edge(pkt, sender, receiver_id, params)


def _check_response(
    pkt: Packet, sender: ParentInfo, seed: bytes,
    params: SourceEpochParams, h_bytes: int, target: bytes, proof: ChallengeProof,
) -> Violation | None:
    """Check one opened Log-PIP path of ``pkt`` for the challenged parent
    ``target``, which must be in the sender's required set; the set fixes
    the path's shape, and ``h_bytes`` is the verifier's digest width, not
    the sender's.  ``pkt`` must have passed ``_check_packet``, which
    checked its sender's helper token."""
    ctx = ChallengeContext(
        sender_id=pkt.sender_id, packet_sigma=pkt.sigma, params=params, h_bytes=h_bytes,
        parents=tuple(sorted(sender.required_set)),
    )
    return pipcore.logpip_verify(
        proof, pkt.test_token, ctx, target, sender.grandparent_pks[target],
        derive_coefficient(seed, target, pkt.sender_id, params.epoch_pk_bytes(), params.q),
    )


def verify_incoming(state: NodeState, pkt: Packet) -> Violation | None:
    """Run the check pipeline on one parent packet, against the registered parent.

    Merkle challenges are driven separately: ``challenge_targets`` picks
    the parents to challenge and ``check_challenge`` checks each response.
    Returns the first Violation, or None when the packet is good.
    """
    if state.params is None:
        return Violation(ViolationKind.BAD_EPOCH, pkt.sender_id, "no active epoch")
    info = state.parents.get(pkt.sender_id)
    if info is None:
        return Violation(ViolationKind.POLICY_VIOLATION, pkt.sender_id, "unregistered parent")
    return _check_packet(
        pkt, info, state.node_id, state.seed, state.params, state.protocol, state.verified
    )


def challenge_targets(state: NodeState, pkt: Packet, t: int, rng: random.Random) -> list[bytes]:
    """The parents to challenge on a sender's packet: t of its required
    set, sampled from ``rng`` without replacement.  Empty, with no draw
    from ``rng``, unless the packet carries a Log-PIP root and its sender
    has a required set."""
    info = state.parents[pkt.sender_id]
    if not isinstance(pkt.test_token, LogPipTestToken) or not info.required_set:
        return []
    targets = sorted(info.required_set)
    return rng.sample(targets, k=min(t, len(targets)))


def check_challenge(
    state: NodeState,
    pkt: Packet,
    target: bytes,
    sender_tree: pipcore.MerkleTreeState | None,
    sender_sk: bytes | None,
) -> tuple[ChallengeProof | None, Violation | None]:
    """Challenge a sender's packet on one parent and verify the response.

    ``sender_tree``/``sender_sk`` stand in for the request round-trip:
    the responder opens its retained tree and signs the response.  A
    missing response (no retained tree) counts as a violation, which is
    how the simulator treats refusal to answer.  Returns (response or
    None, violation or None).

    Call it on a packet that passed ``verify_incoming``: the response
    check relies on that check of the sender's helper token.
    """
    params = state.params
    assert params is not None
    proof = None
    if sender_tree is not None:
        # A cheating tree without a leaf for the challenged parent can only
        # open another leaf, which fails the check for the challenged parent.
        ids = [inp.parent_id for inp in sender_tree.inputs]
        idx = ids.index(target) if target in ids else 0
        proof = pipcore.logpip_respond(sender_tree, idx, sender_sk)
    if proof is None:
        return None, Violation(ViolationKind.BAD_MERKLE_PATH, pkt.sender_id, "no response")
    info = state.parents[pkt.sender_id]
    return proof, _check_response(
        pkt, info, state.seed, params, state.profile.h_bytes, target, proof
    )


def challenge_parent(
    state: NodeState,
    pkt: Packet,
    sender_tree: pipcore.MerkleTreeState | None,
    sender_sk: bytes | None,
    t: int,
    rng: random.Random,
) -> list[tuple[bytes, ChallengeProof | None, Violation | None]]:
    """Issue t Merkle challenges on a sender's packet and verify responses.

    Call it on a packet that passed ``verify_incoming``, which checked a
    full PIP token in full and the sender's helper token; the responses
    are not checked against that helper again.  It picks the targets
    (``challenge_targets``) and checks each one afresh
    (``check_challenge``), returning (target, response, violation) per
    challenge.
    """
    return [
        (target, *check_challenge(state, pkt, target, sender_tree, sender_sk))
        for target in challenge_targets(state, pkt, t, rng)
    ]


@dataclass
class OutgoingDraft:
    """Per-round output, attest signed, before the per-child helper is attached."""

    E: CodedVector
    sigma: int
    test_token: PipTestToken | LogPipTestToken
    epoch_ref: EpochRef
    sender_id: bytes
    attest: bytes
    # Always False: no draft leaves out a parent.  Kept while rlnbench reads it.
    degraded: bool = False


def buffered_inputs(state: NodeState, pairs: list[tuple[bytes, int]]) -> list[ParentInput]:
    """Token entries (parent id, sigma, helper, coefficient) for
    (parent id, coefficient) pairs, from the packets in ``state.buffers``."""
    return [ParentInput(pid, state.buffers[pid].sigma, state.buffers[pid].helper, coeff)
            for pid, coeff in pairs]


def build_draft(
    state: NodeState,
    E: CodedVector,
    coded: list[ParentInput],
    claims: list[ParentInput],
) -> OutgoingDraft:
    """Sign one round's coded vector, build its test token and sign its attest.

    Precondition: ``E`` is sum a_i E_i mod q over the inputs in
    ``coded`` (coefficient a_i), and every E_i is the vector of the
    packet in ``state.buffers`` that carried sigma_i.  Each of those passed
    ``validity.verify_validity``, on its span path or its full path, so
    sigma_i == H(c_i); H is a homomorphism, so the combination
    prod sigma_i^{a_i} is exactly H(c_E), and the draft is signed with
    that one fixed-base product.

    The test token commits to ``claims``: an honest node claims exactly
    what it coded, and a caller simulating an adversary passes whatever
    its token should state.  Under Log-PIP the node keeps the tree so
    that it can answer challenges; when the claims are what it coded,
    the tree's root already carries the combined sigma.

    A sender with no inputs, the source, passes no ``coded`` and no
    ``claims``: ``E`` is its own combination of the originals, so H(c_E)
    equals ``validity.sign_validity`` of it, and under either protocol
    it sends an empty PIP token, which its children do not check (it has
    no required set).

    The attest over the signed prefix (``packet_signed_bytes``) is
    signed here, once per draft; ``finalize_packet`` adds only each
    child's helper.
    """
    params = state.params
    if state.protocol is Protocol.LOGPIP and claims:
        token, state.current_tree = pipcore.logpip_build(claims, params, state.profile.h_bytes)
    else:
        token = pipcore.pip_combine(claims)
        state.current_tree = None
    if state.current_tree is not None and sorted(coded) == sorted(claims):
        sigma = state.current_tree.root.sigma
    else:
        sigma = validity.claimed_validity(params, E.coding_vector)
    draft = OutgoingDraft(
        E=E,
        sigma=sigma,
        test_token=token,
        epoch_ref=EpochRef(k=params.k, master_sig=params.master_sig),
        sender_id=state.node_id,
        attest=b"",
    )
    draft.attest = attest_packet(state.identity.sk, packet_signed_bytes(draft, params))
    return draft


def process_round(
    state: NodeState, incoming: list[Packet]
) -> tuple[OutgoingDraft | None, list[tuple[bytes, Violation | None]]]:
    """Ingest one round of parent packets and prepare the outgoing packet.

    Every incoming packet gets a verdict; verified packets are buffered
    (latest per parent).  Once every registered parent has a verified
    packet buffered, the node codes over all of them with their
    prescribed coefficients and builds the protocol's test token.  Until
    then it returns no draft: a draft over fewer parents would break
    the coding rule, and its children would find its sender guilty.
    """
    params = state.params
    if params is None:
        raise ValueError("node has no active epoch")

    verdicts: list[tuple[bytes, Violation | None]] = []
    for pkt in incoming:
        v = verify_incoming(state, pkt)
        verdicts.append((pkt.sender_id, v))
        if v is None:
            state.buffers[pkt.sender_id] = pkt

    parents = sorted(state.parents)
    if not parents or any(rp not in state.buffers for rp in parents):
        return None, verdicts

    coeffs = derive_coefficients(
        state.seed, parents, state.node_id, params.epoch_pk_bytes(), params.q
    )
    inputs = buffered_inputs(state, list(zip(parents, coeffs)))
    E = gf.linear_combine(
        [state.buffers[rp].E for rp in parents], [i.coeff for i in inputs], params.q
    )
    return build_draft(state, E, inputs, inputs), verdicts


def finalize_packet(state: NodeState, draft: OutgoingDraft, child_id: bytes) -> Packet:
    """The draft's packet to one child: the draft's attest, plus the
    per-child helper token."""
    assert state.identity.sk is not None and state.params is not None
    return Packet(
        E=draft.E,
        sigma=draft.sigma,
        test_token=draft.test_token,
        helper=pipcore.make_helper_token(
            state.identity.sk, draft.sigma, state.node_id, child_id, state.params
        ),
        epoch_ref=draft.epoch_ref,
        sender_id=draft.sender_id,
        attest=draft.attest,
    )


# ---------------------------------------------------------------------------
# Misbehavior proofs and adjudication


# A proof of these adjudicates INADMISSIBLE: without a valid attest the
# packet is not bound to its sender, and a stale packet does not show when
# it was sent.  So does a bad edge helper (see adjudicate), which shares
# its kind with a bad token entry's helper and so is not listed here.
UNPROVABLE = frozenset({ViolationKind.BAD_ATTEST, ViolationKind.BAD_EPOCH})


class Verdict(enum.Enum):
    GUILTY = "guilty"
    INNOCENT = "innocent"
    INADMISSIBLE = "inadmissible"


@dataclass(frozen=True)
class Adjudication:
    verdict: Verdict
    violation: Violation | None = None
    reason: str = ""


@dataclass(frozen=True)
class MisbehaviorProof:
    """Self-contained evidence: packet, context, and (Log-PIP) transcript."""

    packet_bytes: bytes
    sender_id: bytes
    sender_pk: bytes
    sender_cert: sigcrypto.Certificate
    receiver_id: bytes
    protocol: Protocol
    required_set: frozenset
    parent_pks: dict
    params: SourceEpochParams
    seed: bytes
    transcript: tuple = ()  # (challenged parent_id, serialized ChallengeProof) pairs
    h_bytes: int = 20


def build_misbehavior_proof(
    state: NodeState,
    pkt: Packet,
    transcript: list[tuple[bytes, ChallengeProof]] | None = None,
) -> MisbehaviorProof:
    """Package a suspicious packet (and any challenge transcript) as evidence."""
    assert state.params is not None
    info = state.parents[pkt.sender_id]
    serialized = tuple(
        (pid, pipcore.serialize_proof(pf, state.params))
        for pid, pf in (transcript or [])
    )
    return MisbehaviorProof(
        packet_bytes=serialize_packet(pkt, state.params),
        sender_id=pkt.sender_id,
        sender_pk=info.pk,
        sender_cert=info.cert,
        receiver_id=state.node_id,
        protocol=state.protocol,
        required_set=frozenset(info.required_set),
        parent_pks=dict(info.grandparent_pks),
        params=state.params,
        seed=state.seed,
        transcript=serialized,
        h_bytes=state.profile.h_bytes,
    )


def adjudicate(
    proof: MisbehaviorProof, authority_pk: bytes, master_pk: bytes
) -> Adjudication:
    """Re-run the receiver's checks on a misbehavior proof.

    After the admissibility checks (master-signed epoch, certified
    sender, decodable packet from the named sender, a key for every
    required parent), the packet goes through the receiver's
    ``_check_packet``, token-type rule and epoch binding included, and
    each signed transcript response through ``_check_response``.  A bad
    attest or epoch reference, an unsigned response, or a response filed
    under a parent outside the required set (which fixes the path's
    shape) makes the proof inadmissible, so honest nodes cannot be
    framed with doctored packets; any other violation is guilty.

    A bad edge helper (``_check_edge``'s BadHelperSig) also makes the
    proof inadmissible: the attest does not cover the helper bytes, so
    anyone holding the packet can swap them.  The content stage runs first, so a packet that
    breaks an attested rule is guilty whatever its helper; a helper on a
    zero packet is guilty too, since it depends on attested content
    alone.
    """
    params = proof.params
    if not validity.verify_epoch(params, master_pk):
        return Adjudication(Verdict.INADMISSIBLE, reason="bad epoch parameters")
    if proof.sender_cert is None or not sigcrypto.verify_cert(
        proof.sender_cert, proof.sender_pk, proof.sender_id, authority_pk
    ):
        return Adjudication(Verdict.INADMISSIBLE, reason="uncertified sender key")
    try:
        pkt = deserialize_packet(proof.packet_bytes, params, proof.h_bytes)
    except DecodeError as e:
        return Adjudication(Verdict.INADMISSIBLE, reason=f"undecodable packet: {e}")
    if pkt.sender_id != proof.sender_id:
        return Adjudication(Verdict.INADMISSIBLE, reason="sender mismatch")
    if not proof.required_set <= proof.parent_pks.keys():
        return Adjudication(Verdict.INADMISSIBLE, reason="missing parent key")

    sender = ParentInfo(
        pk=proof.sender_pk, required_set=proof.required_set, grandparent_pks=proof.parent_pks
    )
    v = _content_verdict(pkt, sender, proof.seed, params, proof.protocol, None)
    if v is None:
        v = _check_edge(pkt, sender, proof.receiver_id, params)
        if v is not None and v.kind is ViolationKind.BAD_HELPER_SIG:
            return Adjudication(Verdict.INADMISSIBLE, reason=f"{v}: edge helper not attested")
    if v is None and isinstance(pkt.test_token, LogPipTestToken):
        for pid, proof_bytes in proof.transcript:
            try:
                challenge = pipcore.parse_proof(proof_bytes, params, proof.h_bytes)
            except DecodeError as e:
                return Adjudication(Verdict.INADMISSIBLE, reason=f"undecodable response: {e}")
            body = pipcore.response_signed_bytes(
                challenge, pkt.test_token.root, params.p_bytes, params.q_bytes
            )
            if not sigcrypto.verify(proof.sender_pk, body, challenge.response_sig):
                return Adjudication(Verdict.INADMISSIBLE, reason="unsigned challenge response")
            if pid not in proof.required_set:
                return Adjudication(Verdict.INADMISSIBLE, reason="challenge outside required set")
            v = _check_response(
                pkt, sender, proof.seed, params, proof.h_bytes, pid, challenge
            )
            if v is not None:
                break
    if v is None:
        return Adjudication(Verdict.INNOCENT)
    if v.kind in UNPROVABLE:
        return Adjudication(Verdict.INADMISSIBLE, reason=str(v))
    return Adjudication(Verdict.GUILTY, v)
