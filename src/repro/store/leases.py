"""Claim-before-compute: the one lease loop over a shared result store.

Several nodes pointed at one store partition the work instead of
duplicating it.  Whoever wins an item's lease
(:meth:`~repro.store.resultstore.ResultStore.claim`) computes it;
everyone else defers, then polls until the winner's record lands or its
lease expires and a re-claim wins.  :func:`resolve_leased` is that
protocol, shared by whole experiments (:func:`repro.store.run_suite`)
and suite cells (:meth:`repro.experiments.runner.SuiteRunner.speedup_suite`).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Hashable, List, Optional

from repro.log import get_logger
from repro.store.resultstore import ResultStore, lease_ttl

_log = get_logger("store")

#: ``compute(batch, landed)`` computes and persists every item of
#: ``batch``, calling ``landed(item)`` as soon as its record is stored.
Compute = Callable[[List[Hashable], Callable[[Hashable], None]], None]

__all__ = ["Compute", "resolve_leased"]


def resolve_leased(
    store: Optional[ResultStore],
    keys: Dict[Hashable, object],
    lookup: Callable[[Hashable], bool],
    compute: Compute,
    leftover: Optional[Compute] = None,
    on_claimed: Optional[Callable[[List[Hashable]], None]] = None,
    what: str = "record",
) -> None:
    """Compute the missing items ``keys`` names, once across all nodes.

    Args:
        store: the shared store; ``None`` simply computes every item.
        keys: ``{item: store key}`` for every item still missing, in
            claim order.
        lookup: ``lookup(item)`` reads the item's record and returns
            whether it was there (a peer's record landed).
        compute: computes the items this node claimed, as one batch.
        leftover: computes deferred items whose lease this node later
            won (or, past the deadline, took without one); defaults to
            ``compute``.
        on_claimed: called once, after the claims, with the items
            another node held.
        what: the noun naming an item in the fail-open warning.

    The claimed batch computes first, each lease released as soon as
    its record lands.  Deferred items are then polled with a growing
    backoff (0.05 s, ×1.6, capped at 2 s).  Lease expiry guarantees
    progress: a crashed peer's claim frees within the TTL.  After
    2·TTL + 60 s a wedged peer is given up on and the rest computes
    here: duplicated work is byte-identical, a hung suite is worse.
    Every lease still held is released on any exit.
    """
    items = list(keys)
    held = set()

    def landed(item: Hashable) -> None:
        if item in held:
            store.release(keys[item])
            held.discard(item)

    if store is None:
        if on_claimed is not None:
            on_claimed([])
        if items:
            compute(items, landed)
        return
    ttl = lease_ttl()
    try:
        deferred = []
        for item in items:
            if store.claim(keys[item], ttl):
                held.add(item)
            else:
                deferred.append(item)
        if on_claimed is not None:
            on_claimed(deferred)
        claimed = [item for item in items if item in held]
        if claimed:
            compute(claimed, landed)
        leftover = compute if leftover is None else leftover
        poll = 0.05
        give_up_at = time.monotonic() + 2.0 * ttl + 60.0
        while deferred:
            won: List[Hashable] = []
            still: List[Hashable] = []
            for item in deferred:
                if lookup(item):
                    continue
                if store.claim(keys[item], ttl):
                    held.add(item)
                    won.append(item)
                else:
                    still.append(item)
            if won:
                leftover(won, landed)
            deferred = still
            if not deferred:
                return
            if time.monotonic() > give_up_at:
                _log.warning(
                    "deferred %s(s) still leased elsewhere after %.0fs; "
                    "computing locally: %s",
                    what,
                    2.0 * ttl + 60.0,
                    ", ".join(map(str, deferred)),
                )
                leftover(deferred, landed)
                return
            time.sleep(poll)
            poll = min(poll * 1.6, 2.0)
    finally:
        for item in held:
            store.release(keys[item])
