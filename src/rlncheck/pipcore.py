"""Coding-verification tokens: full test tokens and Merkle-challenge trees.

Two interchangeable verification protocols over the same per-parent
data (coefficient, parent validity signature, parent helper token):

* PIP -- the full token concatenates one entry per required parent, and
  a child checks every entry plus the homomorphic combination against
  the packet's validity signature.  Detection of a skipped/miscoded
  parent is certain; token size grows linearly with the parent count.

* Log-PIP -- the sender commits to the same entries in a modified
  Merkle tree whose interior nodes carry both a hash and the partial
  homomorphic combination of the leaves below; the token is just the
  root hash.  A child challenges random parents and verifies opened
  paths, detecting a cheat on any single parent with probability t/d
  per round of t challenges.  A response carries only the opened leaf
  and its real siblings: the challenger derives the leaf's index (the
  challenged parent's position in the sender's sorted required set,
  which must hold it) and each sibling's side from d, the size of that
  set, so the root binds the canonical d-leaf tree and a tree with an
  extra, missing or reordered leaf fails at one or more of the d
  parents.

Helper tokens bind a validity signature to a specific (sender,
receiver) pair so a colluding node cannot re-use another node's data.

Both protocols check one relation among exponents, the packet's
validity signature against the combination of its parents' signatures.
A sender that knows the discrete logs of those signatures can meet it
with q^(d-1) - 1 codings other than the prescribed one, and neither
protocol tells them apart.  So detection is certain (PIP) or t/d per
round (Log-PIP) only against a sender that computes no discrete logs:
at the ``test`` profile a forwarding relay passes both protocols,
``sim`` results assume such a sender, and only ``production`` claims
more (see ``profiles``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import sigcrypto
from .validity import SourceEpochParams, combine_validity, power_product
from .wire import DecodeError, Reader, Writer


class Protocol(enum.Enum):
    PIP = "pip"
    LOGPIP = "logpip"
    NONE = "none"


class ViolationKind(enum.Enum):
    MISSING_ENTRY = "MissingEntry"
    BAD_HELPER_SIG = "BadHelperSig"
    ZERO_COEFFICIENT = "ZeroCoefficient"
    WRONG_COEFFICIENT = "WrongCoefficient"
    SIGNATURE_COMBINE_MISMATCH = "SignatureCombineMismatch"
    BAD_MERKLE_PATH = "BadMerklePath"
    ROOT_SIG_MISMATCH = "RootSigMismatch"
    BAD_ATTEST = "BadAttest"
    POLLUTED_PACKET = "PollutedPacket"
    HELPER_ON_ZERO = "HelperOnZero"
    BAD_EPOCH = "BadEpoch"
    POLICY_VIOLATION = "PolicyViolation"


@dataclass(frozen=True)
class Violation:
    """One failed check: what kind, whose fault, and free-form detail."""

    kind: ViolationKind
    culprit: bytes
    detail: str = ""

    def __str__(self) -> str:
        who = self.culprit.decode("utf-8", "replace")
        return f"{self.kind.value}({who}{': ' + self.detail if self.detail else ''})"


class ParentInput(NamedTuple):
    """Per-parent token material: (id, sigma, helper signature, coefficient)."""

    parent_id: bytes
    sigma: int
    helper_sig: bytes
    coeff: int


# ---------------------------------------------------------------------------
# Helper tokens


def helper_context(sender_id: bytes, receiver_id: bytes) -> bytes:
    """The transfer-binding context string signed into a helper token."""
    return b"from " + sender_id + b" to " + receiver_id


def make_helper_token(
    sender_sk: bytes,
    sigma: int,
    sender_id: bytes,
    receiver_id: bytes,
    params: SourceEpochParams,
) -> bytes:
    """Sender's signature over (sigma || "from <sender> to <receiver>")."""
    msg = params.sigma_to_bytes(sigma) + helper_context(sender_id, receiver_id)
    return sigcrypto.sign(sender_sk, msg)


def verify_helper(
    sender_pk: bytes,
    sigma: int,
    sender_id: bytes,
    receiver_id: bytes,
    helper_sig: bytes,
    params: SourceEpochParams,
) -> bool:
    if not 0 < sigma < params.p:
        return False
    msg = params.sigma_to_bytes(sigma) + helper_context(sender_id, receiver_id)
    return sigcrypto.verify(sender_pk, msg, helper_sig)


def check_helper(
    coding_vector_zero: bool,
    sigma: int,
    helper_sig: bytes,
    sender_pk: bytes,
    sender_id: bytes,
    receiver_id: bytes,
    params: SourceEpochParams,
) -> Violation | None:
    """A helper must be a valid signature on sigma and not cover a zero packet."""
    if coding_vector_zero or sigma % params.p in (0, 1):
        return Violation(ViolationKind.HELPER_ON_ZERO, sender_id)
    if not verify_helper(sender_pk, sigma, sender_id, receiver_id, helper_sig, params):
        return Violation(ViolationKind.BAD_HELPER_SIG, sender_id)
    return None


def _check_entry(
    entry: ParentInput,
    parent_id: bytes,
    parent_pk: bytes,
    sender_id: bytes,
    expected_coeff: int,
    params: SourceEpochParams,
) -> Violation | None:
    """The rule for one parent's entry, in a PIP token or an opened
    Log-PIP leaf: the entry is ``parent_id``'s, its helper verifies under
    that parent's key for this sender, and its coefficient is the
    nonzero prescribed one."""
    who = parent_id.decode("utf-8", "replace")
    if entry.parent_id != parent_id or not verify_helper(
        parent_pk, entry.sigma, parent_id, sender_id, entry.helper_sig, params
    ):
        return Violation(ViolationKind.BAD_HELPER_SIG, sender_id, who)
    if entry.coeff % params.q == 0:
        return Violation(ViolationKind.ZERO_COEFFICIENT, sender_id, who)
    if entry.coeff % params.q != expected_coeff % params.q:
        return Violation(ViolationKind.WRONG_COEFFICIENT, sender_id, who)
    return None


# ---------------------------------------------------------------------------
# PIP: full test token


@dataclass(frozen=True)
class PipTestToken:
    entries: tuple[ParentInput, ...]  # canonical order: sorted by parent_id

    def entry_map(self) -> dict[bytes, ParentInput]:
        return {e.parent_id: e for e in self.entries}


def pip_combine(parent_inputs: list[ParentInput]) -> PipTestToken:
    """Assemble the full token, one entry per parent, in canonical order."""
    ids = [p.parent_id for p in parent_inputs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate parent_id in token inputs")
    return PipTestToken(entries=tuple(sorted(parent_inputs, key=lambda e: e.parent_id)))


def pip_verif_test(
    packet_sigma: int,
    token: PipTestToken,
    sender_id: bytes,
    required_set: set[bytes],
    parent_pks: dict[bytes, bytes],
    expected_coeffs: dict[bytes, int],
    params: SourceEpochParams,
) -> Violation | None:
    """Check a sender's full token against its required set.

    Returns None when every check passes, otherwise the Violation for
    the first failed check: exactly one entry per required parent
    (an unchecked extra entry could steer the combination anywhere),
    each helper must verify under that parent's key for this sender,
    each coefficient must be the nonzero prescribed one, and the
    homomorphic combination of all entries must equal the packet's
    validity signature.  Never raises on adversarial tokens.
    """
    entries = token.entry_map()
    for rp in sorted(required_set):
        if rp not in entries:
            return Violation(ViolationKind.MISSING_ENTRY, sender_id, rp.decode("utf-8", "replace"))
    if len(token.entries) != len(required_set):
        return Violation(ViolationKind.POLICY_VIOLATION, sender_id, "entry outside required set")
    for rp in sorted(required_set):
        v = _check_entry(entries[rp], rp, parent_pks[rp], sender_id, expected_coeffs[rp], params)
        if v is not None:
            return v
    combined = combine_validity(
        [e.sigma for e in token.entries], [e.coeff for e in token.entries], params
    )
    if combined != packet_sigma:
        return Violation(ViolationKind.SIGNATURE_COMBINE_MISMATCH, sender_id)
    return None


# ---------------------------------------------------------------------------
# Log-PIP: modified Merkle tree

_TREE_LEAF = b"\x00"
_TREE_INTERIOR = b"\x01"
_RESPONSE_CONTEXT = b"rlncheck-challenge-response-v1:"


@dataclass(frozen=True)
class TreeNode:
    digest: bytes
    sigma: int


@dataclass(frozen=True)
class LogPipTestToken:
    root: bytes


@dataclass(frozen=True)
class MerkleTreeState:
    """Everything the sender must retain to answer challenges.

    ``levels[0]`` holds the first-level nodes (leaf hash paired with
    sigma^coeff); the last level is the single root whose sigma equals
    the homomorphic combination over all parents.
    """

    inputs: tuple[ParentInput, ...]  # canonical order; index = challenge index
    levels: tuple[tuple[TreeNode, ...], ...]
    p_bytes: int
    q_bytes: int

    @property
    def root(self) -> TreeNode:
        return self.levels[-1][0]


def _leaf_bytes(inp: ParentInput, p_bytes: int, q_bytes: int) -> bytes:
    return (
        inp.sigma.to_bytes(p_bytes, "big")
        + inp.helper_sig
        + inp.coeff.to_bytes(q_bytes, "big")
    )


def _node_bytes(node: TreeNode, p_bytes: int) -> bytes:
    return node.digest + node.sigma.to_bytes(p_bytes, "big")


def _leaf_node(inp: ParentInput, params: SourceEpochParams, h_bytes: int) -> TreeNode:
    """A first-level node: the leaf hash paired with sigma^coeff."""
    return TreeNode(
        digest=sigcrypto.hash_bytes(
            _TREE_LEAF + _leaf_bytes(inp, params.p_bytes, params.q_bytes), h_bytes
        ),
        sigma=power_product((inp.sigma,), (inp.coeff,), params.p, params.q),
    )


def _join(left: TreeNode, right: TreeNode, params: SourceEpochParams, h_bytes: int) -> TreeNode:
    """An interior node: the hash of both children and the product of their sigmas."""
    return TreeNode(
        digest=sigcrypto.hash_bytes(
            _TREE_INTERIOR + _node_bytes(left, params.p_bytes) + _node_bytes(right, params.p_bytes),
            h_bytes,
        ),
        sigma=(left.sigma * right.sigma) % params.p,
    )


def logpip_build(
    parent_inputs: list[ParentInput],
    params: SourceEpochParams,
    h_bytes: int = 20,
) -> tuple[LogPipTestToken, MerkleTreeState]:
    """Build the commitment tree over per-parent data.

    Leaves are sigma || helper || coefficient; first-level nodes pair
    the leaf hash with sigma^coeff; each interior node hashes its two
    children and multiplies their sigmas, so the root carries the
    validity signature of the outgoing packet.  An unpaired node is
    promoted unchanged, preserving that product for any parent count.
    """
    if not parent_inputs:
        raise ValueError("logpip_build requires at least one parent")
    ids = [p.parent_id for p in parent_inputs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate parent_id in tree inputs")
    return _tree(tuple(sorted(parent_inputs, key=lambda e: e.parent_id)), params, h_bytes)


def _tree(
    inputs: tuple[ParentInput, ...], params: SourceEpochParams, h_bytes: int
) -> tuple[LogPipTestToken, MerkleTreeState]:
    """The tree over ``inputs`` in the given order, duplicates allowed."""
    level = [_leaf_node(inp, params, h_bytes) for inp in inputs]
    levels = [tuple(level)]
    while len(level) > 1:
        nxt = [_join(level[i], level[i + 1], params, h_bytes) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
        levels.append(tuple(level))

    state = MerkleTreeState(
        inputs=inputs, levels=tuple(levels), p_bytes=params.p_bytes, q_bytes=params.q_bytes
    )
    return LogPipTestToken(root=state.root.digest), state


def _path_shape(index: int, d: int) -> list[tuple[int, int]]:
    """(level, sibling position) for each level at which leaf ``index`` of
    the d-leaf tree ``logpip_build`` makes has a sibling; a promoted level
    has none.  A sibling at an even position is the left child."""
    shape = []
    level = 0
    while d > 1:
        sib = index ^ 1
        if sib < d:
            shape.append((level, sib))
        index, d, level = index // 2, (d + 1) // 2, level + 1
    return shape


@dataclass(frozen=True)
class ChallengeProof:
    """One opened path: the challenged leaf, which names its parent, and
    its real siblings from the leaf level up (a promoted level has no
    entry).  Nothing in it states the path's shape: the verifier derives
    the index and the sibling sides from the sender's required set."""

    leaf: ParentInput
    path: tuple[TreeNode, ...]
    response_sig: bytes = b""


def logpip_respond(
    state: MerkleTreeState, parent_index: int, responder_sk: bytes | None = None
) -> ChallengeProof:
    """Open the path for one parent; optionally sign the response.

    The signature (over the root and the opened data) is what lets a
    challenger later prove misbehavior to a third party without being
    able to forge a failing response.
    """
    if not 0 <= parent_index < len(state.inputs):
        raise IndexError(f"parent index {parent_index} out of range 0..{len(state.inputs) - 1}")
    proof = ChallengeProof(
        leaf=state.inputs[parent_index],
        path=tuple(
            state.levels[lvl][sib] for lvl, sib in _path_shape(parent_index, len(state.inputs))
        ),
    )
    if responder_sk is not None:
        body = response_signed_bytes(proof, state.root.digest, state.p_bytes, state.q_bytes)
        proof = replace(proof, response_sig=sigcrypto.sign(responder_sk, body))
    return proof


def _write_proof_body(w: Writer, proof: ChallengeProof, p_bytes: int, q_bytes: int) -> Writer:
    """The opened data of a response: the leaf (its parent id first) and
    the siblings."""
    w.var_bytes(proof.leaf.parent_id)
    w.uint(proof.leaf.sigma, p_bytes).raw(proof.leaf.helper_sig)
    w.uint(proof.leaf.coeff, q_bytes)
    w.u8(len(proof.path))
    for sib in proof.path:
        w.raw(sib.digest).uint(sib.sigma, p_bytes)
    return w


def response_signed_bytes(proof: ChallengeProof, root: bytes, p_bytes: int, q_bytes: int) -> bytes:
    """Bytes covered by the responder's signature: a context string, the
    root, then the opened data as ``serialize_proof`` writes it."""
    w = Writer().raw(_RESPONSE_CONTEXT).raw(root)
    return _write_proof_body(w, proof, p_bytes, q_bytes).getvalue()


@dataclass(frozen=True)
class ChallengeContext:
    """What a challenger already knows when verifying an opened path:
    the sender, its packet's sigma, the epoch, its own digest width, and
    the sender's required set in sorted order, which fixes the tree's
    shape.  The width is the verifier's, never the root's length: a
    sender that picks its own width (an empty root hashes nothing) could
    open any path."""

    sender_id: bytes
    packet_sigma: int
    params: SourceEpochParams
    h_bytes: int
    parents: tuple[bytes, ...]


def logpip_verify(
    proof: ChallengeProof,
    token: LogPipTestToken,
    ctx: ChallengeContext,
    parent_id: bytes,
    parent_pk: bytes,
    expected_coeff: int,
) -> Violation | None:
    """Verify one opened challenge path against the committed root.

    Precondition: ``parent_id`` is in ``ctx.parents``.  The path must be
    that of leaf i of the d-leaf tree, where d = len(ctx.parents) and i is
    ``parent_id``'s position in it: exactly the siblings ``_path_shape``
    names, each on the side it gives, hashed at ``ctx.h_bytes``.  So a
    tree with another leaf count or order fails at one or more of the d
    parents.

    Checks, in order: the opened leaf belongs to the challenged parent
    (its helper verifies under that parent's key, for this sender) with
    the nonzero prescribed coefficient; the path has that shape and the
    recomputed root hash equals the token; and the recomputed root sigma
    equals the packet's validity signature.  Never raises on adversarial
    proofs.

    Call it on a packet that passed ``node.verify_incoming`` (or, in
    ``node.adjudicate``, the same ``_check_packet``): that check already
    verified the sender's own helper token on the packet's sigma, so it
    is not checked again here.
    """
    params = ctx.params
    v = _check_entry(proof.leaf, parent_id, parent_pk, ctx.sender_id, expected_coeff, params)
    if v is not None:
        return v

    shape = _path_shape(ctx.parents.index(parent_id), len(ctx.parents))
    if len(proof.path) != len(shape):
        return Violation(ViolationKind.BAD_MERKLE_PATH, ctx.sender_id, "wrong sibling count")
    node = _leaf_node(proof.leaf, params, ctx.h_bytes)
    for (_, sib_pos), sib in zip(shape, proof.path):
        if not 0 < sib.sigma < params.p:
            return Violation(ViolationKind.BAD_MERKLE_PATH, ctx.sender_id, "malformed level")
        left, right = (sib, node) if sib_pos % 2 == 0 else (node, sib)
        node = _join(left, right, params, ctx.h_bytes)
    if node.digest != token.root:
        return Violation(ViolationKind.BAD_MERKLE_PATH, ctx.sender_id)
    if node.sigma != ctx.packet_sigma:
        return Violation(ViolationKind.ROOT_SIG_MISMATCH, ctx.sender_id)
    return None


# ---------------------------------------------------------------------------
# Serialization

_TAG_PIP = 0
_TAG_LOGPIP = 1


def serialize_token(token: PipTestToken | LogPipTestToken, params: SourceEpochParams) -> bytes:
    w = Writer()
    if isinstance(token, PipTestToken):
        w.u8(_TAG_PIP).u16(len(token.entries))
        q, qw, pw = params.q, params.q_bytes, params.p_bytes
        for e in token.entries:
            w.var_bytes(e.parent_id)
            w.uint(e.coeff % q, qw)
            w.uint(e.sigma, pw)
            w.raw(e.helper_sig)
    else:
        w.u8(_TAG_LOGPIP).raw(token.root)
    return w.getvalue()


def parse_token(r: Reader, params: SourceEpochParams, h_bytes: int = 20) -> PipTestToken | LogPipTestToken:
    tag = r.u8()
    if tag == _TAG_PIP:
        count = r.u16()
        entries = []
        for _ in range(count):
            pid = r.var_bytes()
            coeff = r.uint(params.q_bytes)
            sigma = r.uint(params.p_bytes)
            helper = r.take(sigcrypto.SIG_BYTES)
            entries.append(ParentInput(pid, sigma, helper, coeff))
        return PipTestToken(entries=tuple(entries))
    if tag == _TAG_LOGPIP:
        return LogPipTestToken(root=r.take(h_bytes))
    raise DecodeError(f"unknown token tag {tag}", r.pos - 1)


# h_bytes is unread; it stays while rlnbench/workloads.py passes it positionally.
def serialize_proof(proof: ChallengeProof, params: SourceEpochParams, h_bytes: int = 20) -> bytes:
    w = _write_proof_body(Writer(), proof, params.p_bytes, params.q_bytes)
    w.raw(proof.response_sig if proof.response_sig else bytes(sigcrypto.SIG_BYTES))
    return w.getvalue()


def parse_proof(data: bytes, params: SourceEpochParams, h_bytes: int = 20) -> ChallengeProof:
    r = Reader(data)
    parent_id = r.var_bytes()
    sigma = r.uint(params.p_bytes)
    helper = r.take(sigcrypto.SIG_BYTES)
    coeff = r.uint(params.q_bytes)
    path = tuple(TreeNode(r.take(h_bytes), r.uint(params.p_bytes)) for _ in range(r.u8()))
    response_sig = r.take(sigcrypto.SIG_BYTES)
    r.expect_end()
    return ChallengeProof(
        leaf=ParentInput(parent_id, sigma, helper, coeff), path=path, response_sig=response_sig
    )


# ---------------------------------------------------------------------------
# Size accounting


def token_size_bits(protocol: Protocol, d: int, sigma_bits: int, sig_bits: int, h_bits: int) -> int:
    """Closed-form verification overhead in bits for d required parents.

    PIP counts the full token plus the sender's own helper token:
    d*(|sigma| + |sig|) + |sig|.  Log-PIP counts the root, one opened
    leaf, and the per-level path data: |h| + |sigma| + |sig| +
    2*|sigma|*ceil(log2 d).  The ceiling convention matches the number
    of sibling levels actually serialized for a balanced tree; a
    promoted level has no sibling and costs nothing on the wire, and
    the d=1 tree has no levels, so the log term is 0.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if protocol is Protocol.PIP:
        return d * (sigma_bits + sig_bits) + sig_bits
    if protocol is Protocol.LOGPIP:
        return h_bits + sigma_bits + sig_bits + 2 * sigma_bits * math.ceil(math.log2(d))
    raise ValueError(f"no size formula for protocol {protocol}")
