"""Verified random linear network coding.

Library, simulator, and CLI for network coding where every child node
can cryptographically check that a parent coded validly *and* with the
prescribed pseudorandom coefficients over every parent in its required
set.  Two verification protocols are provided: a full per-parent test
token (certain detection, linear size) and a Merkle-challenge variant
(probabilistic detection, logarithmic size), plus homomorphic validity
signatures, replay-resistant epochs, provable-misbehavior attestation,
and a deterministic adversarial throughput simulator.
"""

import logging as _logging

from .gf import CodedVector, linear_combine, rank, random_nonzero, solve_originals
from .node import (
    NodeState,
    Packet,
    adjudicate,
    build_misbehavior_proof,
    derive_coefficient,
    deserialize_packet,
    process_round,
    serialize_packet,
)
from .pipcore import (
    ChallengeProof,
    LogPipTestToken,
    PipTestToken,
    Protocol,
    Violation,
    ViolationKind,
    logpip_build,
    logpip_respond,
    logpip_verify,
    pip_combine,
    pip_verif_test,
    token_size_bits,
)
from .profiles import PRODUCTION, SIM, TEST, Profile, get_profile
from .sigcrypto import certify, keygen, prf, sign, verify, verify_cert
from .sim import (
    Behavior,
    BehaviorKind,
    Topology,
    TransmissionReport,
    butterfly_topology,
    min_cut,
    mode_sweep,
    random_topology,
    run_simulation,
)
from .validity import SourceEpochParams, combine_validity, epoch_setup, sign_validity, verify_validity

__version__ = "0.1.0"

_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__all__ = [name for name in dir() if not name.startswith("_")]
