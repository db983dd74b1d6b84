//! Transport-agnostic receipt dissemination.
//!
//! The paper assumes receipts are disseminated with authenticity and
//! integrity guarantees (assumption #2) and a privacy rule (§2.1): "a
//! receipt is made available only to the domains that observed the
//! corresponding traffic." [`ReceiptTransport`] is that contract as an
//! API — `publish` / `fetch` / `subscribe` over encoded
//! [`WireFrame`]s — with the enforcement points fixed by the trait's
//! documented semantics rather than by any one backing store:
//!
//! * **Authenticity at publish**: a frame must carry an HMAC-SHA-256
//!   MAC trailer that verifies under the publishing HOP's registered
//!   [`HopKey`] at the epoch the frame claims (and its batch's legacy
//!   tag must verify under the key's tag prefix), so an unsigned,
//!   forged, or tampered batch never enters circulation. Keys are
//!   epoch-tagged: re-registering a *different* key for a HOP is
//!   rejected ([`TransportError::KeyAlreadyRegistered`]) — replacing a
//!   key requires an explicit [`ReceiptTransport::rotate_key`], which
//!   bumps the epoch and keeps old epochs verifiable.
//! * **Authenticity at fetch**: fetched entries re-verify their MAC
//!   against the key registry before they are returned, so a store
//!   that silently corrupted a frame cannot serve it.
//! * **Visibility at fetch/poll**: a frame is returned only to
//!   requesters on the `on_path` list the publisher declared.
//! * **Shared, immutable frames**: published entries are handed out as
//!   [`Arc<Published>`] — fetching never deep-clones a batch, and two
//!   fetches of the same entry return pointers to the same allocation.
//!
//! Two implementations ship here: [`InMemoryBus`], the single-lock
//! reference store (kept for tests and small topologies), and
//! [`ShardedBus`], which spreads frames across `PathID`-hashed,
//! internally-locked shards so many domains publish and fetch
//! concurrently without contending on one `RwLock`. Both present
//! identical observable behaviour — same errors, same frame order
//! (global publish order), byte-identical fetch results — with one
//! documented exception: a sharded path-filtered stream orders racing
//! same-path publishers by shard arrival (see
//! [`ReceiptTransport::subscribe_path`]).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::PathId;
use vpm_hash::{HopKey, KeyEpoch};
use vpm_packet::{DomainId, HopId};

use crate::codec::{Profile, WireDecoder, WireEncoder, WireError, WireFrame};

/// The per-HOP key registry shared by both bus implementations: the
/// `Vec` index **is** the [`KeyEpoch`] — rotation appends, old epochs
/// stay verifiable for frames already in circulation.
type KeyRegistry = RwLock<HashMap<HopId, Vec<HopKey>>>;

/// A published frame with its provenance, shared by reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Published {
    /// Global publish sequence number (fetch order).
    pub seq: u64,
    /// The publishing domain.
    pub domain: DomainId,
    /// The reporting HOP.
    pub hop: HopId,
    /// The encoded frame as published.
    pub frame: WireFrame,
    /// The decoded batch (MAC- and tag-verified against the HOP's key
    /// at publish).
    pub batch: ReceiptBatch,
    /// The key epoch the frame's MAC trailer verified under.
    pub epoch: KeyEpoch,
    /// The frame's `PathID` table (shard routing, path-scoped fetch).
    pub paths: Vec<PathId>,
    /// Domains that observed the corresponding traffic — the only ones
    /// allowed to see this entry.
    pub on_path: Vec<DomainId>,
}

impl Published {
    fn visible_to(&self, requester: DomainId) -> bool {
        self.on_path.contains(&requester)
    }
}

/// A subscription handle returned by [`ReceiptTransport::subscribe`].
///
/// Handles are never reused: once [`ReceiptTransport::unsubscribe`]
/// drops a subscription, its id stays dead — polling it is a typed
/// [`TransportError::UnknownSubscription`], never a silent re-read of
/// someone else's cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(pub u64);

/// Result of a blocking [`ReceiptTransport::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// New entries may be available for the subscription — poll now.
    /// (For a filtered subscription the entries that woke the wait may
    /// turn out invisible or foreign; `Ready` is a hint, not a
    /// delivery guarantee.)
    Ready,
    /// The timeout elapsed with no completed publish in the
    /// subscription's scope.
    TimedOut,
}

/// A monotone wakeup counter: waiters snapshot it, re-check their
/// condition, and block until it moves past the snapshot. Publishers
/// bump it **after** an insert completes, so a publisher that claimed
/// a sequence number and died never produces a wakeup — the waiter
/// times out instead of spinning on a stream that cannot advance.
///
/// Built on `std::sync::{Mutex, Condvar}` (the `parking_lot` shim has
/// no condvar). Lock poisoning is recovered, not propagated: the
/// protected state is a bare counter whose every intermediate value is
/// valid, so a panicking bumper cannot leave it corrupt — recovery
/// converts a would-be poison panic into a spurious (harmless) wakeup.
#[derive(Default)]
struct Notifier {
    count: std::sync::Mutex<u64>,
    cond: Condvar,
}

impl Notifier {
    /// Current wakeup count (snapshot before checking the condition).
    fn current(&self) -> u64 {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one completed publish and wake every waiter. The guard
    /// is released before notifying so woken waiters never stall on a
    /// mutex the notifier still holds.
    fn bump(&self) {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count += 1;
        drop(count);
        self.cond.notify_all();
    }

    /// Block until the count moves past `seen` or `deadline` passes.
    /// Returns `true` when woken by a bump, `false` on timeout.
    fn wait_past(&self, seen: u64, deadline: Instant) -> bool {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        while *count <= seen {
            let now = Instant::now(); // vpm-lint: allow(R2, bounds a blocking-wait timeout; never feeds a verdict)
            if now >= deadline {
                return false;
            }
            let (guard, timeout) = self
                .cond
                .wait_timeout(count, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            count = guard;
            if timeout.timed_out() && *count <= seen {
                return false;
            }
        }
        true
    }
}

/// Errors from transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The batch's authenticity tag did not verify under the
    /// publisher's registered key.
    BadTag {
        /// Offending HOP.
        hop: HopId,
    },
    /// The frame's HMAC-SHA-256 trailer did not verify under the
    /// registered key for the epoch the frame claims.
    BadMac {
        /// Offending HOP.
        hop: HopId,
    },
    /// The frame carries no MAC trailer; the transport only circulates
    /// signed frames.
    Unsigned {
        /// Offending HOP.
        hop: HopId,
    },
    /// The frame claims a key epoch the registry has never issued for
    /// this HOP.
    UnknownKeyEpoch {
        /// Offending HOP.
        hop: HopId,
        /// The epoch the frame claimed.
        epoch: KeyEpoch,
    },
    /// A *different* key is already registered for the HOP. Silent
    /// overwrite would let anyone forge receipts for an established
    /// HOP; replacing a key requires an explicit
    /// [`ReceiptTransport::rotate_key`].
    KeyAlreadyRegistered {
        /// The HOP whose key registration was refused.
        hop: HopId,
    },
    /// The requesting domain is not on the path the receipts describe.
    NotOnPath {
        /// The requester.
        requester: DomainId,
    },
    /// No key registered for the HOP.
    UnknownHop(HopId),
    /// The published frame does not decode.
    Malformed(WireError),
    /// The subscription handle was never issued by this transport, or
    /// was already dropped by [`ReceiptTransport::unsubscribe`].
    UnknownSubscription(SubscriptionId),
    /// The subscription's cursor fell behind the retention horizon: a
    /// [`ReceiptTransport::compact_before`] pass reclaimed entries the
    /// stream had not delivered yet. The transport refuses to resume
    /// the stream with a silent gap — the subscriber must drop the
    /// subscription and re-subscribe at or past `horizon` (the lowest
    /// sequence number still retained), accepting that the reclaimed
    /// prefix is now only available as [`IntervalSummary`] digests.
    LaggedBehind {
        /// The lowest global sequence number still retained.
        horizon: u64,
    },
    /// The connection to a remote transport endpoint failed: the
    /// server is unreachable, or the connection dropped mid-operation
    /// and could not be re-established.
    Connection(String),
    /// The remote peer violated the session protocol: bad handshake,
    /// unknown opcode, an oversized or malformed message, or a frame
    /// the server admitted but this client cannot decode.
    Protocol(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::BadTag { hop } => write!(f, "authenticity tag failed for {hop}"),
            TransportError::BadMac { hop } => {
                write!(f, "HMAC verification failed for {hop}")
            }
            TransportError::Unsigned { hop } => {
                write!(f, "unsigned frame from {hop}: only signed frames circulate")
            }
            TransportError::UnknownKeyEpoch { hop, epoch } => {
                write!(f, "{hop} has no key at {epoch}")
            }
            TransportError::KeyAlreadyRegistered { hop } => {
                write!(
                    f,
                    "a different key is already registered for {hop}; use rotate_key"
                )
            }
            TransportError::NotOnPath { requester } => {
                write!(f, "{requester} did not observe this traffic")
            }
            TransportError::UnknownHop(h) => write!(f, "no key registered for {h}"),
            TransportError::Malformed(e) => write!(f, "malformed frame: {e}"),
            TransportError::UnknownSubscription(s) => write!(f, "unknown subscription {}", s.0),
            TransportError::LaggedBehind { horizon } => {
                write!(
                    f,
                    "subscription lagged behind the retention horizon {horizon}; re-subscribe"
                )
            }
            TransportError::Connection(e) => write!(f, "transport connection failed: {e}"),
            TransportError::Protocol(e) => write!(f, "transport protocol violation: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Malformed(e)
    }
}

/// What one [`ReceiptTransport::compact_before`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Distinct entries reclaimed by this pass (a multi-shard entry
    /// counts once).
    pub reclaimed: u64,
    /// The retention horizon after the pass: the lowest global
    /// sequence number still served as a full entry.
    pub horizon: u64,
}

/// The per-HOP digest a compaction pass leaves behind for the entries
/// it reclaims: enough to audit *that* the traffic was receipted (and
/// to bind the reclaimed frames' exact bytes) without retaining the
/// frames themselves. One summary is appended per HOP per compaction
/// pass, in HOP order within the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSummary {
    /// The reporting HOP the reclaimed frames belonged to.
    pub hop: HopId,
    /// Lowest global sequence number folded into this summary.
    pub first_seq: u64,
    /// Highest global sequence number folded into this summary.
    pub last_seq: u64,
    /// Reclaimed frames from this HOP.
    pub frames: u64,
    /// Sample receipts across those frames.
    pub samples: u64,
    /// Aggregate receipts across those frames.
    pub aggregates: u64,
    /// Total packet count claimed by those aggregate receipts.
    pub pkt_cnt: u64,
    /// Chained lookup3 digest over the reclaimed frames' exact wire
    /// bytes, folded in global sequence order — the compact stand-in
    /// for the bytes the pass dropped.
    pub digest: u64,
}

/// Fold reclaimed entries (in global sequence order) into per-HOP
/// [`IntervalSummary`] records and append them to `sink`. Shared by
/// both bus implementations so their summary semantics cannot drift.
fn fold_summaries<'a, I>(sink: &RwLock<Vec<IntervalSummary>>, dropped: I)
where
    I: Iterator<Item = &'a Arc<Published>>,
{
    let mut per_hop: BTreeMap<HopId, IntervalSummary> = BTreeMap::new();
    for p in dropped {
        let s = per_hop.entry(p.hop).or_insert(IntervalSummary {
            hop: p.hop,
            first_seq: p.seq,
            last_seq: p.seq,
            frames: 0,
            samples: 0,
            aggregates: 0,
            pkt_cnt: 0,
            digest: 0,
        });
        s.first_seq = s.first_seq.min(p.seq);
        s.last_seq = s.last_seq.max(p.seq);
        s.frames += 1;
        s.samples += p
            .batch
            .samples
            .iter()
            .map(|sr| sr.samples.len() as u64)
            .sum::<u64>();
        s.aggregates += p.batch.aggregates.len() as u64;
        s.pkt_cnt += p.batch.aggregates.iter().map(|a| a.pkt_cnt).sum::<u64>();
        s.digest = vpm_hash::lookup3::hash64(p.frame.as_bytes(), s.digest);
    }
    if !per_hop.is_empty() {
        sink.write().extend(per_hop.into_values());
    }
}

/// The dissemination API every receipt transport implements.
///
/// Implementations must preserve the paper's two receipt-plane
/// guarantees — authenticity at publish, on-path visibility at
/// fetch/poll — and must return entries in global publish order so
/// different transports are byte-for-byte interchangeable.
pub trait ReceiptTransport: Send + Sync {
    /// Register a HOP's signing key (out-of-band trust establishment)
    /// at [`KeyEpoch`] 0. Re-registering the *same* key is an
    /// idempotent no-op returning the current epoch; registering a
    /// *different* key for an established HOP is refused with
    /// [`TransportError::KeyAlreadyRegistered`] — replacing a key is
    /// [`Self::rotate_key`]'s job, so a second registrant can never
    /// silently overwrite a HOP's identity.
    fn register_key(&self, hop: HopId, key: HopKey) -> Result<KeyEpoch, TransportError>;

    /// Explicitly rotate a HOP's key: appends `new_key` at the next
    /// epoch and returns it. Old epochs remain in the registry so
    /// frames signed before the rotation keep verifying. Rotating a
    /// HOP that was never registered is
    /// [`TransportError::UnknownHop`].
    fn rotate_key(&self, hop: HopId, new_key: HopKey) -> Result<KeyEpoch, TransportError>;

    /// The HOP's current (most recent) key epoch, or `None` if no key
    /// was ever registered.
    fn key_epoch(&self, hop: HopId) -> Option<KeyEpoch>;

    /// Publish an encoded frame. Decodes it, requires a MAC trailer
    /// ([`TransportError::Unsigned`]), verifies the HMAC under the
    /// HOP's registered key at the claimed epoch
    /// ([`TransportError::BadMac`] / [`TransportError::UnknownKeyEpoch`])
    /// and the batch tag under that key's tag prefix
    /// ([`TransportError::BadTag`]) — a forged, tampered, or malformed
    /// frame never enters circulation — then stores it visible to
    /// `on_path`. Returns the entry's global sequence number.
    fn publish(
        &self,
        domain: DomainId,
        frame: WireFrame,
        on_path: Vec<DomainId>,
    ) -> Result<u64, TransportError>;

    /// Every entry the requester may see for a HOP, in publish order.
    /// Entries are `Arc`-shared, never cloned: fetching twice returns
    /// pointers to the same allocations.
    fn fetch(&self, requester: DomainId, hop: HopId)
        -> Result<Vec<Arc<Published>>, TransportError>;

    /// Every entry the requester may see whose frame references `path`,
    /// in publish order. On a sharded transport this touches only the
    /// path's shard.
    fn fetch_path(
        &self,
        requester: DomainId,
        path: &PathId,
    ) -> Result<Vec<Arc<Published>>, TransportError>;

    /// Open a subscription for a requester: subsequent [`Self::poll`]
    /// calls return entries published since the previous poll (starting
    /// from the subscription point), filtered to what the requester may
    /// see.
    fn subscribe(&self, requester: DomainId) -> SubscriptionId;

    /// Open a **path-filtered** subscription: [`Self::poll`] returns
    /// only entries whose frames reference `path`, each exactly once.
    /// On a sharded transport this is the cheap way to follow one path
    /// — polling touches exactly the path's shard (and, when the shard
    /// is idle, no lock at all). Entries within one poll are returned
    /// in publish order; across polls, publishers racing each other on
    /// the same path may be delivered in shard-arrival order instead.
    fn subscribe_path(&self, requester: DomainId, path: &PathId) -> SubscriptionId;

    /// Open a global subscription whose stream starts at global
    /// sequence number `from_seq` instead of "now" — the resume
    /// primitive a checkpointed verifier restarts from. `from_seq`
    /// past the current publish sequence is clamped (a resume point
    /// cannot lie in the future); `from_seq` below the retention
    /// horizon is a typed [`TransportError::LaggedBehind`] — the
    /// suffix the resume owes was reclaimed, and resuming would mean
    /// silently missing frames.
    fn subscribe_from(
        &self,
        requester: DomainId,
        from_seq: u64,
    ) -> Result<SubscriptionId, TransportError>;

    /// Drain a subscription: visible entries published since the last
    /// poll. Entries the requester may not see are skipped silently (a
    /// stream, unlike a targeted fetch, is not an assertion that
    /// specific traffic was observed).
    ///
    /// Ordering: a subscription from [`Self::subscribe`] delivers
    /// strictly in global publish order. A **path-filtered**
    /// subscription ([`Self::subscribe_path`]) delivers each entry
    /// exactly once and in publish order within one poll, but a
    /// sharded transport may order entries across polls by
    /// shard-arrival when publishers race each other on the same path
    /// (see [`Self::subscribe_path`]).
    fn poll(&self, sub: SubscriptionId) -> Result<Vec<Arc<Published>>, TransportError>;

    /// Block until the subscription plausibly has something to poll,
    /// or `timeout` elapses — the event-driven alternative to a
    /// spin-poll loop. Returns [`WaitOutcome::Ready`] when a completed
    /// publish may have produced entries for this subscription (poll
    /// to collect them; a filtered subscription may still poll empty),
    /// and [`WaitOutcome::TimedOut`] when nothing landed in time.
    ///
    /// Crucially, readiness is keyed on **completed** publishes, not
    /// claimed sequence numbers: a publisher that claimed a number and
    /// died never signals `Ready`, so a waiting consumer times out
    /// instead of burning CPU on a stream that cannot advance. An idle
    /// wait on a sharded transport holds no shard lock and performs no
    /// shard scan while blocked.
    fn wait(&self, sub: SubscriptionId, timeout: Duration) -> Result<WaitOutcome, TransportError>;

    /// Drop a subscription and its cursor state. The handle is dead
    /// afterwards: polling, waiting on, or re-unsubscribing it is
    /// [`TransportError::UnknownSubscription`]. Long-lived services
    /// must pair every `subscribe` with an `unsubscribe` or the
    /// transport accumulates cursors for the life of the process.
    fn unsubscribe(&self, sub: SubscriptionId) -> Result<(), TransportError>;

    /// Open subscriptions currently holding cursor state (diagnostics;
    /// the lifecycle tests pin that this returns to zero).
    fn subscriptions(&self) -> usize;

    /// Total **retained** entries (diagnostics): published entries not
    /// yet reclaimed by [`Self::compact_before`]. The long-horizon
    /// audit workload pins this flat under periodic compaction.
    fn len(&self) -> usize;

    /// Reclaim every entry below `before_seq`: drop the stored frames
    /// and fold them into per-HOP [`IntervalSummary`] digests
    /// ([`Self::summaries`]). Entries at or past `before_seq` are
    /// untouched. Callers must only compact below sequence numbers
    /// whose publishes have **completed**; an entry whose publisher is
    /// still mid-insert below the new horizon is swept by the next
    /// pass, never lost silently and never a panic.
    ///
    /// After the pass, any subscription whose cursor is below the new
    /// horizon gets a typed [`TransportError::LaggedBehind`] from
    /// `poll`/`wait` — never a silently gapped stream. `before_seq`
    /// past the current publish sequence is clamped; a `before_seq` at
    /// or below the current horizon is a no-op reporting 0 reclaimed.
    ///
    /// The default implementation retains everything (a transport
    /// without retention support reports a no-op pass).
    fn compact_before(&self, before_seq: u64) -> Result<CompactionReport, TransportError> {
        let _ = before_seq;
        Ok(CompactionReport {
            reclaimed: 0,
            horizon: self.horizon()?,
        })
    }

    /// The retention horizon: the lowest global sequence number still
    /// served as a full entry (0 when nothing was ever compacted).
    /// Fallible because a remote transport answers it with a round
    /// trip.
    fn horizon(&self) -> Result<u64, TransportError> {
        Ok(0)
    }

    /// Interval summaries left behind by compaction passes, in pass
    /// order (per-HOP order within each pass). Empty when nothing was
    /// ever compacted.
    fn summaries(&self) -> Result<Vec<IntervalSummary>, TransportError> {
        Ok(Vec::new())
    }

    /// Is the transport empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convenience: sign `batch` with `key` at the HOP's current
    /// epoch, encode it in `profile`, and publish it. The key must be
    /// the one registered for `batch.hop` at that epoch or the publish
    /// is refused ([`TransportError::BadMac`]).
    fn publish_batch(
        &self,
        domain: DomainId,
        batch: &ReceiptBatch,
        profile: Profile,
        on_path: Vec<DomainId>,
        key: &HopKey,
    ) -> Result<u64, TransportError> {
        let epoch = self
            .key_epoch(batch.hop)
            .ok_or(TransportError::UnknownHop(batch.hop))?;
        let frame = WireEncoder::new(profile).encode_signed(batch, key, epoch)?;
        self.publish(domain, frame, on_path)
    }
}

/// [`ReceiptTransport::register_key`] semantics over the shared
/// registry: first registration lands at epoch 0, the same key is
/// idempotent, a different key is refused.
fn register_key_in(
    keys: &KeyRegistry,
    hop: HopId,
    key: HopKey,
) -> Result<KeyEpoch, TransportError> {
    let mut keys = keys.write();
    match keys.get(&hop) {
        None => {
            keys.insert(hop, vec![key]);
            Ok(KeyEpoch(0))
        }
        Some(ring) => {
            let current = KeyEpoch(ring.len() as u32 - 1);
            // vpm-lint: allow(R1, key rings are created non-empty and never shrink)
            if ring[current.0 as usize] == key {
                Ok(current)
            } else {
                Err(TransportError::KeyAlreadyRegistered { hop })
            }
        }
    }
}

/// [`ReceiptTransport::rotate_key`] semantics: append at the next
/// epoch, keeping every old epoch verifiable.
fn rotate_key_in(
    keys: &KeyRegistry,
    hop: HopId,
    new_key: HopKey,
) -> Result<KeyEpoch, TransportError> {
    let mut keys = keys.write();
    let ring = keys.get_mut(&hop).ok_or(TransportError::UnknownHop(hop))?;
    ring.push(new_key);
    Ok(KeyEpoch(ring.len() as u32 - 1))
}

fn key_epoch_in(keys: &KeyRegistry, hop: HopId) -> Option<KeyEpoch> {
    keys.read()
        .get(&hop)
        .map(|ring| KeyEpoch(ring.len() as u32 - 1))
}

/// Look up the key a frame claims (by HOP + epoch) and verify its MAC
/// trailer. The shared authenticity kernel of [`admit`] and the fetch
/// re-check.
fn verify_frame(
    keys: &KeyRegistry,
    hop: HopId,
    epoch: Option<KeyEpoch>,
    frame: &WireFrame,
) -> Result<(KeyEpoch, HopKey), TransportError> {
    let keys = keys.read();
    let ring = keys.get(&hop).ok_or(TransportError::UnknownHop(hop))?;
    let epoch = epoch.ok_or(TransportError::Unsigned { hop })?;
    let key = *ring
        .get(epoch.0 as usize)
        .ok_or(TransportError::UnknownKeyEpoch { hop, epoch })?;
    if !frame.verify_mac(&key) {
        return Err(TransportError::BadMac { hop });
    }
    Ok((epoch, key))
}

/// Decode + verify a frame against the key registry; shared by both
/// implementations so their admission behaviour cannot drift. The
/// checks run in trust order: decode, key lookup, signature presence,
/// epoch validity, HMAC over the whole frame, then the batch's legacy
/// tag under the key's tag prefix.
fn admit(
    keys: &KeyRegistry,
    seq: u64,
    domain: DomainId,
    frame: WireFrame,
    on_path: Vec<DomainId>,
) -> Result<Published, TransportError> {
    let decoded = WireDecoder::decode(frame.as_bytes())?;
    let hop = decoded.batch.hop;
    let (epoch, key) = verify_frame(keys, hop, decoded.signature.map(|s| s.epoch), &frame)?;
    if !decoded.batch.verify_tag(key.tag_key()) {
        return Err(TransportError::BadTag { hop });
    }
    Ok(Published {
        seq,
        domain,
        hop,
        frame,
        batch: decoded.batch,
        epoch,
        paths: decoded.paths,
        on_path,
    })
}

/// The fetch-side re-check: every entry about to be returned must
/// still MAC-verify against the registry. Admission already proved
/// this once; re-proving it on the way out means a store that
/// corrupted a frame (or a registry that lost an epoch) serves a typed
/// error instead of bad bytes.
fn reverify(keys: &KeyRegistry, entries: &[Arc<Published>]) -> Result<(), TransportError> {
    for p in entries {
        verify_frame(keys, p.hop, Some(p.epoch), &p.frame)?;
    }
    Ok(())
}

/// The privacy rule shared by `fetch`/`fetch_path`: visible entries are
/// returned; an empty result caused by hidden entries is an explicit
/// [`TransportError::NotOnPath`] refusal, not silence.
fn apply_visibility(
    requester: DomainId,
    matching: Vec<Arc<Published>>,
) -> Result<Vec<Arc<Published>>, TransportError> {
    let any_hidden = matching.iter().any(|p| !p.visible_to(requester));
    let visible: Vec<Arc<Published>> = matching
        .into_iter()
        .filter(|p| p.visible_to(requester))
        .collect();
    if visible.is_empty() && any_hidden {
        return Err(TransportError::NotOnPath { requester });
    }
    Ok(visible)
}

#[derive(Debug, Clone, Copy)]
struct SubCursor {
    requester: DomainId,
    next_seq: u64,
    /// When set, the stream only carries entries referencing this path.
    path: Option<PathId>,
}

/// The retained suffix of the publish stream: entry `i` of `entries`
/// holds global sequence number `base + i`. Compaction drains a prefix
/// and advances `base` — sequence numbers are forever, storage is not.
#[derive(Default)]
struct Store {
    /// The retention horizon: the sequence number of `entries[0]`.
    base: u64,
    entries: Vec<Arc<Published>>,
}

impl Store {
    /// The next sequence number a publish claims.
    fn next_seq(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// The retained entries at or past `from_seq`, or `LaggedBehind`
    /// when `from_seq` predates the horizon.
    fn suffix(&self, from_seq: u64) -> Result<&[Arc<Published>], TransportError> {
        if from_seq < self.base {
            return Err(TransportError::LaggedBehind { horizon: self.base });
        }
        let at = ((from_seq - self.base) as usize).min(self.entries.len());
        Ok(&self.entries[at..]) // vpm-lint: allow(R1, at is clamped to entries.len())
    }
}

/// The single-lock reference transport: one `RwLock` over one entry
/// vector. Simple, obviously correct, and the behavioural baseline the
/// sharded transport is tested against.
#[derive(Default)]
pub struct InMemoryBus {
    keys: KeyRegistry,
    entries: RwLock<Store>,
    subs: Mutex<HashMap<u64, SubCursor>>,
    next_sub: AtomicU64,
    notify: Notifier,
    summaries: RwLock<Vec<IntervalSummary>>,
}

impl InMemoryBus {
    /// Empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_sub(&self, cursor: SubCursor) -> SubscriptionId {
        let id = self.next_sub.fetch_add(1, Ordering::Relaxed);
        self.subs.lock().insert(id, cursor);
        SubscriptionId(id)
    }
}

impl ReceiptTransport for InMemoryBus {
    fn register_key(&self, hop: HopId, key: HopKey) -> Result<KeyEpoch, TransportError> {
        register_key_in(&self.keys, hop, key)
    }

    fn rotate_key(&self, hop: HopId, new_key: HopKey) -> Result<KeyEpoch, TransportError> {
        rotate_key_in(&self.keys, hop, new_key)
    }

    fn key_epoch(&self, hop: HopId) -> Option<KeyEpoch> {
        key_epoch_in(&self.keys, hop)
    }

    fn publish(
        &self,
        domain: DomainId,
        frame: WireFrame,
        on_path: Vec<DomainId>,
    ) -> Result<u64, TransportError> {
        let seq = {
            let mut store = self.entries.write();
            let seq = store.next_seq();
            let published = admit(&self.keys, seq, domain, frame, on_path)?;
            store.entries.push(Arc::new(published));
            seq
        };
        // Wake waiters only after the insert is visible (and outside
        // the entry lock, so woken pollers never contend with us).
        self.notify.bump();
        Ok(seq)
    }

    fn fetch(
        &self,
        requester: DomainId,
        hop: HopId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        let matching: Vec<Arc<Published>> = self
            .entries
            .read()
            .entries
            .iter()
            .filter(|p| p.hop == hop)
            .cloned()
            .collect();
        let visible = apply_visibility(requester, matching)?;
        reverify(&self.keys, &visible)?;
        Ok(visible)
    }

    fn fetch_path(
        &self,
        requester: DomainId,
        path: &PathId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        let matching: Vec<Arc<Published>> = self
            .entries
            .read()
            .entries
            .iter()
            .filter(|p| p.paths.contains(path))
            .cloned()
            .collect();
        let visible = apply_visibility(requester, matching)?;
        reverify(&self.keys, &visible)?;
        Ok(visible)
    }

    fn subscribe(&self, requester: DomainId) -> SubscriptionId {
        self.add_sub(SubCursor {
            requester,
            next_seq: self.entries.read().next_seq(),
            path: None,
        })
    }

    fn subscribe_path(&self, requester: DomainId, path: &PathId) -> SubscriptionId {
        self.add_sub(SubCursor {
            requester,
            next_seq: self.entries.read().next_seq(),
            path: Some(*path),
        })
    }

    fn subscribe_from(
        &self,
        requester: DomainId,
        from_seq: u64,
    ) -> Result<SubscriptionId, TransportError> {
        let store = self.entries.read();
        if from_seq < store.base {
            return Err(TransportError::LaggedBehind {
                horizon: store.base,
            });
        }
        Ok(self.add_sub(SubCursor {
            requester,
            next_seq: from_seq.min(store.next_seq()),
            path: None,
        }))
    }

    fn poll(&self, sub: SubscriptionId) -> Result<Vec<Arc<Published>>, TransportError> {
        let mut subs = self.subs.lock();
        let cursor = subs
            .get_mut(&sub.0)
            .ok_or(TransportError::UnknownSubscription(sub))?;
        let store = self.entries.read();
        // A cursor behind the horizon errors and stays put: every poll
        // repeats `LaggedBehind` until the subscriber re-subscribes —
        // the stream never silently resumes past a gap.
        let fresh: Vec<Arc<Published>> = store
            .suffix(cursor.next_seq)?
            .iter()
            .filter(|p| p.visible_to(cursor.requester))
            .filter(|p| cursor.path.as_ref().is_none_or(|f| p.paths.contains(f)))
            .cloned()
            .collect();
        cursor.next_seq = store.next_seq();
        Ok(fresh)
    }

    fn wait(&self, sub: SubscriptionId, timeout: Duration) -> Result<WaitOutcome, TransportError> {
        let deadline = Instant::now() + timeout; // vpm-lint: allow(R2, bounds a blocking-wait timeout; never feeds a verdict)
        loop {
            // Snapshot the wakeup count *before* checking the
            // condition: a publish completing in between bumps past
            // the snapshot and `wait_past` returns immediately — no
            // lost wakeup.
            let seen = self.notify.current();
            let next_seq = self
                .subs
                .lock()
                .get(&sub.0)
                .ok_or(TransportError::UnknownSubscription(sub))?
                .next_seq;
            {
                let store = self.entries.read();
                // A compaction pass bumps the notifier, so a parked
                // waiter re-judges and surfaces the overrun instead of
                // sleeping on (or delivering) a reclaimed page.
                if next_seq < store.base {
                    return Err(TransportError::LaggedBehind {
                        horizon: store.base,
                    });
                }
                if store.next_seq() > next_seq {
                    return Ok(WaitOutcome::Ready);
                }
            }
            if !self.notify.wait_past(seen, deadline) {
                return Ok(WaitOutcome::TimedOut);
            }
        }
    }

    fn unsubscribe(&self, sub: SubscriptionId) -> Result<(), TransportError> {
        self.subs
            .lock()
            .remove(&sub.0)
            .map(|_| ())
            .ok_or(TransportError::UnknownSubscription(sub))
    }

    fn subscriptions(&self) -> usize {
        self.subs.lock().len()
    }

    fn len(&self) -> usize {
        self.entries.read().entries.len()
    }

    fn compact_before(&self, before_seq: u64) -> Result<CompactionReport, TransportError> {
        let dropped = {
            let mut store = self.entries.write();
            let cut = before_seq.min(store.next_seq());
            if cut <= store.base {
                return Ok(CompactionReport {
                    reclaimed: 0,
                    horizon: store.base,
                });
            }
            let n = (cut - store.base) as usize;
            let dropped: Vec<Arc<Published>> = store.entries.drain(..n).collect();
            store.base = cut;
            dropped
        };
        fold_summaries(&self.summaries, dropped.iter());
        // Wake parked waiters so a cursor the pass overran reports
        // `LaggedBehind` now, not at its next timeout.
        self.notify.bump();
        Ok(CompactionReport {
            reclaimed: dropped.len() as u64,
            horizon: self.entries.read().base,
        })
    }

    fn horizon(&self) -> Result<u64, TransportError> {
        Ok(self.entries.read().base)
    }

    fn summaries(&self) -> Result<Vec<IntervalSummary>, TransportError> {
        Ok(self.summaries.read().clone())
    }
}

/// The path-shard hash lives on `PathId` itself
/// ([`PathId::shard_key`], seeded with [`vpm_core::SHARD_SEED`]) so
/// any plane that partitions work by path agrees with this bus on
/// shard assignment by construction. Only the HOP-key derivation is
/// bus-local.
fn shard_key_path(path: &PathId) -> u64 {
    path.shard_key()
}

fn shard_key_hop(hop: HopId) -> u64 {
    vpm_hash::lookup3::hash64(&hop.0.to_le_bytes(), vpm_core::SHARD_SEED ^ 0x55)
}

/// One shard: its entries behind a private `RwLock`, plus a high-water
/// mark (the number of fully inserted entries) readable without the
/// lock so idle shards can be skipped for free.
///
/// Cursor positions into a shard are **logical**: position `p` means
/// "the `p`-th entry ever inserted into this shard", and the physical
/// vector index is `p - trimmed`. Compaction removes a prefix and
/// advances `trimmed` by the same amount, so `high_water` (a logical
/// count) never moves backwards and caught-up cursors stay valid
/// across GC passes.
struct Shard {
    entries: RwLock<Vec<Arc<Published>>>,
    high_water: AtomicUsize,
    /// Entries ever reclaimed from this shard; only mutated under the
    /// shard's write lock, read with `Acquire` for the lock-free lag
    /// check.
    trimmed: AtomicUsize,
    /// Per-shard wakeups: bumped after an insert into *this* shard
    /// completes, so a path-filtered waiter blocks through foreign-
    /// shard traffic and wakes only for its own shard.
    notify: Notifier,
}

impl Shard {
    fn new() -> Self {
        Shard {
            entries: RwLock::new(Vec::new()),
            high_water: AtomicUsize::new(0),
            trimmed: AtomicUsize::new(0),
            notify: Notifier::default(),
        }
    }
}

/// A global subscription's cursor: per-shard scan positions plus a
/// reorder buffer, so a poll touches only shards with new entries and
/// never rescans what it has already seen.
struct GlobalCursor {
    requester: DomainId,
    /// Next global sequence number the stream owes the subscriber;
    /// everything below it was delivered (or skipped as invisible).
    next_seq: u64,
    /// How far into each shard's entry vector this subscription has
    /// scanned.
    shard_pos: Vec<usize>,
    /// Entries scanned but not yet released: they wait here until the
    /// contiguous sequence prefix reaches them (a publisher between
    /// claiming seq N and inserting must not be skipped when N+1 is
    /// polled first).
    pending: BTreeMap<u64, Arc<Published>>,
}

/// A path-filtered subscription's cursor: one shard, one position.
struct PathCursor {
    requester: DomainId,
    path: PathId,
    shard: usize,
    pos: usize,
    /// Entries below this global sequence number are suppressed — a
    /// resumed subscription ([`ShardedBus::subscribe_path_from`])
    /// rescans its shard from its oldest retained entry and relies on
    /// this filter to deliver exactly the not-yet-seen suffix.
    min_seq: u64,
}

enum ShardSub {
    Global(GlobalCursor),
    Path(PathCursor),
}

/// A `PathID`-sharded transport: entries land in the shard of each path
/// they reference (pathless frames shard by HOP), every shard behind
/// its own `RwLock`, so publishes and fetches for different paths
/// proceed without touching a common lock. A global atomic sequence
/// number preserves publish order, and every read path merges shards in
/// that order — fetch results are byte-identical to [`InMemoryBus`] for
/// the same publish sequence, for any shard count.
///
/// Subscriptions carry **per-shard cursors**: [`ReceiptTransport::poll`]
/// scans each shard only from where the previous poll left off, skips
/// shards whose high-water mark has not moved without taking their
/// lock, and a path-filtered subscription
/// ([`ReceiptTransport::subscribe_path`]) touches exactly one shard —
/// an idle poll on it reads a single atomic and no global state.
/// [`Self::poll_shard_scans`] exposes how many shard scans polling has
/// performed so tests can pin these fast paths.
///
/// The one observable divergence from [`InMemoryBus`]: a path-filtered
/// stream orders entries by shard arrival across polls (exact publish
/// order within each poll), so publishers racing each other on the
/// same path may be delivered slightly out of publish order — the
/// global stream's contiguous-prefix ordering is unaffected.
pub struct ShardedBus {
    shards: Vec<Shard>,
    keys: KeyRegistry,
    seq: AtomicU64,
    subs: Mutex<HashMap<u64, ShardSub>>,
    next_sub: AtomicU64,
    poll_shard_scans: AtomicU64,
    /// Bus-wide wakeups for global subscriptions (path-filtered ones
    /// wait on their shard's notifier instead).
    notify: Notifier,
    /// The retention horizon: the lowest global sequence number still
    /// served as a full entry. Raised (never lowered) at the *start*
    /// of a compaction pass, so a racing poller sees a conservative
    /// typed `LaggedBehind` rather than a silently gapped stream.
    horizon: AtomicU64,
    /// Serializes compaction passes (publish/poll never take this).
    gc_lock: Mutex<()>,
    summaries: RwLock<Vec<IntervalSummary>>,
}

impl ShardedBus {
    /// A bus with `shards` internally-locked shards (at least 1).
    pub fn new(shards: usize) -> Self {
        ShardedBus {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
            keys: RwLock::new(HashMap::new()),
            seq: AtomicU64::new(0),
            subs: Mutex::new(HashMap::new()),
            next_sub: AtomicU64::new(0),
            poll_shard_scans: AtomicU64::new(0),
            notify: Notifier::default(),
            horizon: AtomicU64::new(0),
            gc_lock: Mutex::new(()),
            summaries: RwLock::new(Vec::new()),
        }
    }

    fn add_sub(&self, sub: ShardSub) -> SubscriptionId {
        let id = self.next_sub.fetch_add(1, Ordering::Relaxed);
        self.subs.lock().insert(id, sub);
        SubscriptionId(id)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// How many shard scans (shard read-lock acquisitions) polling has
    /// performed since construction. An idle poll — global or
    /// path-filtered — must not move this counter: that is the
    /// observable the fast-path tests pin.
    pub fn poll_shard_scans(&self) -> u64 {
        self.poll_shard_scans.load(Ordering::Relaxed)
    }

    /// The next global sequence number a publish would claim — the
    /// "now" point a freshly established remote subscription records
    /// as its resume position before any entry is delivered.
    pub fn publish_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Open a global subscription whose stream starts at global
    /// sequence number `from_seq` instead of "now" — the cursor-resume
    /// primitive a reconnecting remote client uses to pick its stream
    /// back up without duplicating or skipping entries. `from_seq`
    /// past the current sequence counter is clamped (a resume point
    /// cannot lie in the future); `from_seq` below the retention
    /// horizon is a typed [`TransportError::LaggedBehind`] — the
    /// suffix the resume owes was reclaimed, and resuming would mean
    /// silently missing frames.
    pub fn subscribe_from(
        &self,
        requester: DomainId,
        from_seq: u64,
    ) -> Result<SubscriptionId, TransportError> {
        let horizon = self.horizon.load(Ordering::Acquire);
        if from_seq < horizon {
            return Err(TransportError::LaggedBehind { horizon });
        }
        Ok(self.add_sub(ShardSub::Global(GlobalCursor {
            requester,
            next_seq: from_seq.min(self.seq.load(Ordering::Relaxed)),
            shard_pos: vec![0; self.shards.len()],
            pending: BTreeMap::new(),
        })))
    }

    /// Open a path-filtered subscription resuming at global sequence
    /// number `from_seq`: the shard is rescanned from its oldest
    /// retained entry and entries below `from_seq` are suppressed, so
    /// a reconnecting client sees exactly the suffix it has not been
    /// delivered. A `from_seq` below the retention horizon is a typed
    /// [`TransportError::LaggedBehind`], exactly as for
    /// [`Self::subscribe_from`].
    pub fn subscribe_path_from(
        &self,
        requester: DomainId,
        path: &PathId,
        from_seq: u64,
    ) -> Result<SubscriptionId, TransportError> {
        let horizon = self.horizon.load(Ordering::Acquire);
        if from_seq < horizon {
            return Err(TransportError::LaggedBehind { horizon });
        }
        let shard = self.shard_of_path(path);
        // Logical position of the shard's oldest retained entry.
        let pos = self.shards[shard].trimmed.load(Ordering::Acquire); // vpm-lint: allow(R1, shard indices are reduced modulo the shard count)
        Ok(self.add_sub(ShardSub::Path(PathCursor {
            requester,
            path: *path,
            shard,
            pos,
            min_seq: from_seq,
        })))
    }

    /// Test hook: claim a global sequence number and never insert the
    /// entry — exactly what a publisher that dies between
    /// `seq.fetch_add` and its shard insert leaves behind. A global
    /// subscription's contiguous-prefix stream stalls at this number
    /// forever; the hook exists so the `wait`/`DrainTimeout` paths can
    /// be pinned against that failure without a racing thread.
    #[doc(hidden)]
    pub fn claim_seq_and_die(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Would a poll of this cursor plausibly return or park entries?
    /// Readiness is judged from completed inserts only — parked
    /// out-of-order entries count only when the stream's next sequence
    /// number is among them, and shard movement is read from the
    /// high-water marks (atomics, no shard lock, no scan) — so a
    /// claimed-but-never-inserted sequence number never reports ready.
    fn global_ready(&self, c: &GlobalCursor) -> bool {
        c.pending.contains_key(&c.next_seq)
            || self
                .shards
                .iter()
                .zip(&c.shard_pos)
                .any(|(s, &pos)| s.high_water.load(Ordering::Acquire) > pos)
    }

    fn shard_of_path(&self, path: &PathId) -> usize {
        (shard_key_path(path) % self.shards.len() as u64) as usize
    }

    /// Shard indices an entry is stored under: one per distinct path,
    /// or the HOP shard for a pathless (empty) batch.
    fn shard_set(&self, published: &Published) -> Vec<usize> {
        let mut set: Vec<usize> = published
            .paths
            .iter()
            .map(|p| self.shard_of_path(p))
            .collect();
        if set.is_empty() {
            set.push((shard_key_hop(published.hop) % self.shards.len() as u64) as usize);
        }
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Collect entries matching `pred` across all shards, deduplicated
    /// (multi-path entries are stored once per path shard) and merged
    /// in global publish order.
    fn collect<F: Fn(&Published) -> bool>(&self, pred: F) -> Vec<Arc<Published>> {
        let mut seen = HashSet::new();
        let mut out: Vec<Arc<Published>> = Vec::new();
        for shard in &self.shards {
            for p in shard.entries.read().iter() {
                if pred(p) && seen.insert(p.seq) {
                    out.push(Arc::clone(p));
                }
            }
        }
        out.sort_by_key(|p| p.seq);
        out
    }

    /// Incremental poll of a global subscription: scan only shards
    /// whose high-water mark moved, park out-of-order arrivals in the
    /// cursor's reorder buffer, and release the contiguous sequence
    /// prefix. A cursor behind the retention horizon is a typed
    /// [`TransportError::LaggedBehind`], repeated on every poll until
    /// the subscriber re-subscribes — never a silently gapped stream.
    fn poll_global(&self, c: &mut GlobalCursor) -> Result<Vec<Arc<Published>>, TransportError> {
        let horizon = self.horizon.load(Ordering::Acquire);
        if c.next_seq < horizon {
            return Err(TransportError::LaggedBehind { horizon });
        }
        // Idle fast path: nothing has claimed a sequence number past
        // the cursor and nothing is parked — no shard is touched.
        if c.pending.is_empty() && self.seq.load(Ordering::Relaxed) <= c.next_seq {
            return Ok(Vec::new());
        }
        for (i, shard) in self.shards.iter().enumerate() {
            // vpm-lint: allow(R1, shard_pos has one entry per shard)
            if shard.high_water.load(Ordering::Acquire) <= c.shard_pos[i] {
                continue; // shard idle since the last poll: skip lock-free
            }
            self.poll_shard_scans.fetch_add(1, Ordering::Relaxed);
            let entries = shard.entries.read();
            // Physical scan start: the cursor's logical position minus
            // the reclaimed prefix. Entries GC removed below it all had
            // `seq < horizon <= next_seq` (checked above), so skipping
            // them drops nothing the stream still owes.
            let trimmed = shard.trimmed.load(Ordering::Acquire);
            let start = c.shard_pos[i] // vpm-lint: allow(R1, shard_pos has one entry per shard)
                .saturating_sub(trimmed)
                .min(entries.len());
            // vpm-lint: allow(R1, the start index is clamped to the entry count)
            for e in &entries[start..] {
                // `>= next_seq` drops the second copy of a multi-shard
                // entry whose first copy was already released.
                if e.seq >= c.next_seq {
                    c.pending.entry(e.seq).or_insert_with(|| Arc::clone(e));
                }
            }
            c.shard_pos[i] = trimmed + entries.len(); // vpm-lint: allow(R1, shard_pos has one entry per shard)
        }
        let mut fresh = Vec::new();
        while let Some(e) = c.pending.remove(&c.next_seq) {
            c.next_seq += 1;
            if e.visible_to(c.requester) {
                fresh.push(e);
            }
        }
        Ok(fresh)
    }

    /// Poll of a path-filtered subscription: exactly one shard, and an
    /// idle shard costs one atomic load — no lock, no global sequence
    /// read. A cursor whose shard position fell behind the shard's
    /// reclaimed prefix is a typed [`TransportError::LaggedBehind`]
    /// (the reclaimed entries *may* have referenced the watched path;
    /// the transport refuses to guess).
    fn poll_path(&self, c: &mut PathCursor) -> Result<Vec<Arc<Published>>, TransportError> {
        let shard = &self.shards[c.shard]; // vpm-lint: allow(R1, shard indices are reduced modulo the shard count)
        if c.pos < shard.trimmed.load(Ordering::Acquire) {
            return Err(TransportError::LaggedBehind {
                horizon: self.horizon.load(Ordering::Acquire),
            });
        }
        if shard.high_water.load(Ordering::Acquire) <= c.pos {
            return Ok(Vec::new());
        }
        self.poll_shard_scans.fetch_add(1, Ordering::Relaxed);
        let entries = shard.entries.read();
        // Re-check under the lock: a GC pass may have trimmed past the
        // cursor between the lock-free check and the lock.
        let trimmed = shard.trimmed.load(Ordering::Acquire);
        if c.pos < trimmed {
            return Err(TransportError::LaggedBehind {
                horizon: self.horizon.load(Ordering::Acquire),
            });
        }
        let start = (c.pos - trimmed).min(entries.len());
        let mut fresh: Vec<Arc<Published>> = entries[start..] // vpm-lint: allow(R1, the start index is clamped to the entry count)
            .iter()
            .filter(|e| {
                e.seq >= c.min_seq && e.paths.contains(&c.path) && e.visible_to(c.requester)
            })
            .cloned()
            .collect();
        c.pos = trimmed + entries.len();
        fresh.sort_by_key(|e| e.seq);
        Ok(fresh)
    }

    /// The pre-cursor poll algorithm, kept as a reference: rescan
    /// *every* shard for entries past the cursor's sequence number and
    /// release the contiguous prefix. Behaviourally equivalent to
    /// [`ReceiptTransport::poll`] on a global subscription (the
    /// differential tests pin this), but O(total entries) per call —
    /// `vpm bench-verifier` measures exactly this gap. Only meaningful
    /// on subscriptions from [`ReceiptTransport::subscribe`];
    /// path-filtered subscriptions are delegated to the regular poll.
    pub fn poll_full_rescan(
        &self,
        sub: SubscriptionId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        let mut subs = self.subs.lock();
        let cursor = subs
            .get_mut(&sub.0)
            .ok_or(TransportError::UnknownSubscription(sub))?;
        let c = match cursor {
            ShardSub::Path(c) => return self.poll_path(c),
            ShardSub::Global(c) => c,
        };
        let since = c.next_seq;
        let horizon = self.horizon.load(Ordering::Acquire);
        if since < horizon {
            return Err(TransportError::LaggedBehind { horizon });
        }
        if self.seq.load(Ordering::Relaxed) <= since {
            return Ok(Vec::new());
        }
        let arrived = self.collect(|p| p.seq >= since);
        let mut fresh = Vec::new();
        for p in arrived {
            if p.seq != c.next_seq {
                break; // a lower seq is still in flight — stop here
            }
            c.next_seq += 1;
            if p.visible_to(c.requester) {
                fresh.push(p);
            }
        }
        // Keep the cursor-poll state consistent in case the two poll
        // flavours are interleaved on one subscription: anything now
        // below the released prefix must never be re-delivered.
        let next = c.next_seq;
        c.pending.retain(|&s, _| s >= next);
        Ok(fresh)
    }
}

impl ReceiptTransport for ShardedBus {
    fn register_key(&self, hop: HopId, key: HopKey) -> Result<KeyEpoch, TransportError> {
        register_key_in(&self.keys, hop, key)
    }

    fn rotate_key(&self, hop: HopId, new_key: HopKey) -> Result<KeyEpoch, TransportError> {
        rotate_key_in(&self.keys, hop, new_key)
    }

    fn key_epoch(&self, hop: HopId) -> Option<KeyEpoch> {
        key_epoch_in(&self.keys, hop)
    }

    fn publish(
        &self,
        domain: DomainId,
        frame: WireFrame,
        on_path: Vec<DomainId>,
    ) -> Result<u64, TransportError> {
        // Admit before consuming a sequence number so rejected frames
        // leave no gap in the fetch order.
        let published = admit(&self.keys, 0, domain, frame, on_path)?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let published = Arc::new(Published { seq, ..published });
        let touched = self.shard_set(&published);
        for &shard in &touched {
            let shard = &self.shards[shard]; // vpm-lint: allow(R1, shard indices are reduced modulo the shard count)
            let mut entries = shard.entries.write();
            entries.push(Arc::clone(&published));
            // Published under the write lock, so a poller that sees
            // the new high-water mark and then locks sees the entry.
            // `trimmed` only mutates under this same lock, so the sum
            // is the consistent logical insert count.
            let trimmed = shard.trimmed.load(Ordering::Relaxed);
            shard
                .high_water
                .store(trimmed + entries.len(), Ordering::Release);
        }
        // Wake blocked waiters only after every insert completed:
        // path waiters on exactly the shards touched, global waiters
        // on the bus-wide notifier. Bumping outside the write locks
        // keeps publishers from serializing on waiter wakeup.
        for &shard in &touched {
            self.shards[shard].notify.bump(); // vpm-lint: allow(R1, shard indices are reduced modulo the shard count)
        }
        self.notify.bump();
        Ok(seq)
    }

    fn fetch(
        &self,
        requester: DomainId,
        hop: HopId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        let visible = apply_visibility(requester, self.collect(|p| p.hop == hop))?;
        reverify(&self.keys, &visible)?;
        Ok(visible)
    }

    fn fetch_path(
        &self,
        requester: DomainId,
        path: &PathId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        // The whole point of path sharding: one shard holds every frame
        // referencing this path.
        let shard = &self.shards[self.shard_of_path(path)]; // vpm-lint: allow(R1, shard indices are reduced modulo the shard count)
        let mut matching: Vec<Arc<Published>> = shard
            .entries
            .read()
            .iter()
            .filter(|p| p.paths.contains(path))
            .cloned()
            .collect();
        matching.sort_by_key(|p| p.seq);
        let visible = apply_visibility(requester, matching)?;
        reverify(&self.keys, &visible)?;
        Ok(visible)
    }

    fn subscribe(&self, requester: DomainId) -> SubscriptionId {
        // `shard_pos` starts at 0: every entry already present has a
        // sequence number below the subscription point (publishers
        // claim their number before inserting), so the first poll's
        // scan filters them out by `seq` and later polls never revisit
        // them.
        self.add_sub(ShardSub::Global(GlobalCursor {
            requester,
            next_seq: self.seq.load(Ordering::Relaxed),
            shard_pos: vec![0; self.shards.len()],
            pending: BTreeMap::new(),
        }))
    }

    fn subscribe_path(&self, requester: DomainId, path: &PathId) -> SubscriptionId {
        let shard = self.shard_of_path(path);
        // Start at the logical end of the shard: reclaimed prefix + retained.
        let pos = {
            let s = &self.shards[shard]; // vpm-lint: allow(R1, shard indices are reduced modulo the shard count)
            let entries = s.entries.read();
            s.trimmed.load(Ordering::Relaxed) + entries.len()
        };
        self.add_sub(ShardSub::Path(PathCursor {
            requester,
            path: *path,
            shard,
            pos,
            min_seq: 0,
        }))
    }

    fn subscribe_from(
        &self,
        requester: DomainId,
        from_seq: u64,
    ) -> Result<SubscriptionId, TransportError> {
        ShardedBus::subscribe_from(self, requester, from_seq)
    }

    fn poll(&self, sub: SubscriptionId) -> Result<Vec<Arc<Published>>, TransportError> {
        let mut subs = self.subs.lock();
        let cursor = subs
            .get_mut(&sub.0)
            .ok_or(TransportError::UnknownSubscription(sub))?;
        match cursor {
            ShardSub::Global(c) => self.poll_global(c),
            ShardSub::Path(c) => self.poll_path(c),
        }
    }

    fn wait(&self, sub: SubscriptionId, timeout: Duration) -> Result<WaitOutcome, TransportError> {
        let deadline = Instant::now() + timeout; // vpm-lint: allow(R2, bounds a blocking-wait timeout; never feeds a verdict)
        loop {
            // Snapshot the relevant notifier *before* judging
            // readiness: a publish that lands between the check and
            // the block moves the count past the snapshot, so
            // `wait_past` returns immediately — no lost wakeup.
            // Compaction passes bump the same notifiers, so a parked
            // waiter the GC overran wakes here and surfaces
            // `LaggedBehind` instead of sleeping on a reclaimed page.
            let (ready, notifier, seen) = {
                let mut subs = self.subs.lock();
                let cursor = subs
                    .get_mut(&sub.0)
                    .ok_or(TransportError::UnknownSubscription(sub))?;
                match cursor {
                    ShardSub::Global(c) => {
                        let seen = self.notify.current();
                        let horizon = self.horizon.load(Ordering::Acquire);
                        if c.next_seq < horizon {
                            return Err(TransportError::LaggedBehind { horizon });
                        }
                        (self.global_ready(c), &self.notify, seen)
                    }
                    ShardSub::Path(c) => {
                        let shard = &self.shards[c.shard]; // vpm-lint: allow(R1, shard indices are reduced modulo the shard count)
                        let seen = shard.notify.current();
                        if c.pos < shard.trimmed.load(Ordering::Acquire) {
                            return Err(TransportError::LaggedBehind {
                                horizon: self.horizon.load(Ordering::Acquire),
                            });
                        }
                        let ready = shard.high_water.load(Ordering::Acquire) > c.pos;
                        (ready, &shard.notify, seen)
                    }
                }
            };
            if ready {
                return Ok(WaitOutcome::Ready);
            }
            if !notifier.wait_past(seen, deadline) {
                return Ok(WaitOutcome::TimedOut);
            }
        }
    }

    fn unsubscribe(&self, sub: SubscriptionId) -> Result<(), TransportError> {
        self.subs
            .lock()
            .remove(&sub.0)
            .map(|_| ())
            .ok_or(TransportError::UnknownSubscription(sub))
    }

    fn subscriptions(&self) -> usize {
        self.subs.lock().len()
    }

    fn len(&self) -> usize {
        let mut seen = HashSet::new();
        self.shards
            .iter()
            .flat_map(|s| s.entries.read().iter().map(|p| p.seq).collect::<Vec<_>>())
            .filter(|&s| seen.insert(s))
            .count()
    }

    fn compact_before(&self, before_seq: u64) -> Result<CompactionReport, TransportError> {
        let _pass = self.gc_lock.lock();
        let cut = before_seq.min(self.seq.load(Ordering::Relaxed));
        let old = self.horizon.load(Ordering::Acquire);
        if cut <= old {
            return Ok(CompactionReport {
                reclaimed: 0,
                horizon: old,
            });
        }
        // Raise the horizon before touching any shard: a poller racing
        // this pass sees a conservative typed `LaggedBehind` (the
        // entries may still be present for a moment), never a stream
        // that silently resumed past reclaimed entries.
        self.horizon.store(cut, Ordering::Release);
        // Dedup by sequence number: a multi-path entry lives in several
        // shards but is reclaimed (and folded into its HOP's summary)
        // once, in global sequence order.
        let mut dropped: BTreeMap<u64, Arc<Published>> = BTreeMap::new();
        for shard in &self.shards {
            let mut entries = shard.entries.write();
            let before = entries.len();
            entries.retain(|e| {
                if e.seq < cut {
                    dropped.entry(e.seq).or_insert_with(|| Arc::clone(e));
                    false
                } else {
                    true
                }
            });
            let removed = before - entries.len();
            // Mutated under the shard write lock; `high_water` (a
            // logical count) is deliberately untouched.
            shard.trimmed.fetch_add(removed, Ordering::Release);
        }
        fold_summaries(&self.summaries, dropped.values());
        // The horizon, trims, and summaries are all published; release
        // the pass guard before waking waiters so wakeups never
        // serialize behind a concurrent GC pass.
        drop(_pass);
        // Wake every parked waiter so cursors the pass overran report
        // `LaggedBehind` now, not at their next timeout.
        for shard in &self.shards {
            shard.notify.bump();
        }
        self.notify.bump();
        Ok(CompactionReport {
            reclaimed: dropped.len() as u64,
            horizon: cut,
        })
    }

    fn horizon(&self) -> Result<u64, TransportError> {
        Ok(self.horizon.load(Ordering::Acquire))
    }

    fn summaries(&self) -> Result<Vec<IntervalSummary>, TransportError> {
        Ok(self.summaries.read().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpm_core::receipt::{AggId, AggReceipt, SampleReceipt, SampleRecord};
    use vpm_hash::Digest;
    use vpm_packet::{HeaderSpec, SimDuration, SimTime};

    fn path(n: u8) -> PathId {
        PathId {
            spec: HeaderSpec::new(
                format!("10.{n}.0.0/16").parse().unwrap(),
                "192.168.0.0/24".parse().unwrap(),
            ),
            prev_hop: Some(HopId(3)),
            next_hop: Some(HopId(5)),
            max_diff: SimDuration::from_millis(2),
        }
    }

    /// The deterministic per-HOP test key: seed-derived, so its tag
    /// prefix matches the legacy `0xabc ^ hop` u64 keys the fixtures
    /// were signed with.
    fn hop_key(hop: HopId) -> HopKey {
        HopKey::from_seed(0xabc ^ hop.0 as u64)
    }

    fn batch(hop: HopId, seq: u64, path_n: u8) -> (ReceiptBatch, HopKey) {
        let mut b = ReceiptBatch {
            hop,
            batch_seq: seq,
            samples: vec![SampleReceipt {
                path: path(path_n),
                samples: vec![SampleRecord {
                    pkt_id: Digest(0x1000 + seq),
                    time: SimTime::from_micros(10 * seq),
                }],
            }],
            aggregates: vec![AggReceipt {
                path: path(path_n),
                agg: AggId {
                    first: Digest(1),
                    last: Digest(2),
                },
                pkt_cnt: 100,
                agg_trans: vec![],
            }],
            auth_tag: 0,
        };
        let key = hop_key(hop);
        b.auth_tag = b.compute_tag(key.tag_key());
        (b, key)
    }

    /// Sign-and-encode with the HOP's epoch-0 key (every suite HOP
    /// registers exactly once).
    fn frame(b: &ReceiptBatch) -> WireFrame {
        WireEncoder::precise()
            .encode_signed(b, &hop_key(b.hop), KeyEpoch(0))
            .expect("test batch encodes")
    }

    /// Every transport behaviour the paper requires, exercised
    /// identically against any implementation.
    fn transport_suite(t: &dyn ReceiptTransport) {
        let (b, key) = batch(HopId(5), 0, 1);
        assert_eq!(t.register_key(HopId(5), key), Ok(KeyEpoch(0)));
        // Same-key re-registration is idempotent; a different key is a
        // refused overwrite, not a silent one.
        assert_eq!(t.register_key(HopId(5), key), Ok(KeyEpoch(0)));
        let wrong = HopKey::from_seed(0xdead_beef);
        assert_eq!(
            t.register_key(HopId(5), wrong),
            Err(TransportError::KeyAlreadyRegistered { hop: HopId(5) })
        );
        assert_eq!(t.key_epoch(HopId(5)), Some(KeyEpoch(0)));
        assert_eq!(t.key_epoch(HopId(99)), None);
        t.publish(
            DomainId(2),
            frame(&b),
            vec![DomainId(0), DomainId(1), DomainId(2)],
        )
        .unwrap();

        // On-path fetch returns the decoded batch, Arc-shared.
        let got = t.fetch(DomainId(1), HopId(5)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].hop, HopId(5));
        assert_eq!(got[0].batch, b);
        let again = t.fetch(DomainId(1), HopId(5)).unwrap();
        assert!(
            Arc::ptr_eq(&got[0], &again[0]),
            "fetch must share entries, not deep-clone them"
        );

        // Path-scoped fetch finds the same entry; a foreign path is empty.
        let by_path = t.fetch_path(DomainId(0), &path(1)).unwrap();
        assert_eq!(by_path.len(), 1);
        assert!(Arc::ptr_eq(&by_path[0], &got[0]));
        assert!(t.fetch_path(DomainId(0), &path(9)).unwrap().is_empty());

        // Privacy rule: an off-path domain gets an explicit refusal.
        assert_eq!(
            t.fetch(DomainId(9), HopId(5)),
            Err(TransportError::NotOnPath {
                requester: DomainId(9)
            })
        );
        assert_eq!(
            t.fetch_path(DomainId(9), &path(1)),
            Err(TransportError::NotOnPath {
                requester: DomainId(9)
            })
        );

        // A tampered batch never enters circulation: the publisher can
        // re-MAC the tampered bytes (it holds the key), but the batch
        // tag no longer verifies.
        let (mut doctored, _) = batch(HopId(5), 1, 1);
        doctored.aggregates[0].pkt_cnt += 1; // tamper after signing
        assert_eq!(
            t.publish(DomainId(2), frame(&doctored), vec![DomainId(2)]),
            Err(TransportError::BadTag { hop: HopId(5) })
        );

        // A frame signed with the wrong key — the forgery the key
        // registry exists to stop — is refused before tag checking.
        let forged = WireEncoder::precise()
            .encode_signed(&b, &wrong, KeyEpoch(0))
            .unwrap();
        assert_eq!(
            t.publish(DomainId(2), forged, vec![DomainId(2)]),
            Err(TransportError::BadMac { hop: HopId(5) })
        );

        // An unsigned frame is refused even though its tag verifies.
        let unsigned = WireEncoder::precise().encode(&b).unwrap();
        assert_eq!(
            t.publish(DomainId(2), unsigned, vec![DomainId(2)]),
            Err(TransportError::Unsigned { hop: HopId(5) })
        );

        // A frame claiming an epoch the registry never issued is
        // refused even when signed with the right key material.
        let future = WireEncoder::precise()
            .encode_signed(&b, &key, KeyEpoch(5))
            .unwrap();
        assert_eq!(
            t.publish(DomainId(2), future, vec![DomainId(2)]),
            Err(TransportError::UnknownKeyEpoch {
                hop: HopId(5),
                epoch: KeyEpoch(5)
            })
        );

        // Unknown HOPs and malformed frames are refused.
        let (unknown, _) = batch(HopId(77), 0, 1);
        assert_eq!(
            t.publish(DomainId(2), frame(&unknown), vec![DomainId(2)]),
            Err(TransportError::UnknownHop(HopId(77)))
        );
        assert!(matches!(
            t.publish(DomainId(2), WireFrame::from_bytes(vec![1, 2, 3]), vec![]),
            Err(TransportError::Malformed(_))
        ));
        assert_eq!(t.len(), 1);

        // Subscriptions see exactly what is published after them, once.
        let sub = t.subscribe(DomainId(1));
        assert!(t.poll(sub).unwrap().is_empty());
        let (b2, key2) = batch(HopId(6), 0, 2);
        t.register_key(HopId(6), key2).unwrap();
        t.publish(DomainId(3), frame(&b2), vec![DomainId(1), DomainId(3)])
            .unwrap();
        let polled = t.poll(sub).unwrap();
        assert_eq!(polled.len(), 1);
        assert_eq!(polled[0].batch, b2);
        assert!(t.poll(sub).unwrap().is_empty(), "a poll drains the stream");
        // A hidden publish is skipped silently by the stream.
        let (b3, key3) = batch(HopId(7), 0, 3);
        t.register_key(HopId(7), key3).unwrap();
        t.publish(DomainId(4), frame(&b3), vec![DomainId(4)])
            .unwrap();
        assert!(t.poll(sub).unwrap().is_empty());
        assert_eq!(
            t.poll(SubscriptionId(999)),
            Err(TransportError::UnknownSubscription(SubscriptionId(999)))
        );
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());

        // Path-filtered subscriptions deliver exactly the entries whose
        // frames reference the path, each exactly once, in publish
        // order; foreign paths and hidden entries are skipped silently.
        let psub = t.subscribe_path(DomainId(1), &path(4));
        assert!(t.poll(psub).unwrap().is_empty());
        let (b4, key4) = batch(HopId(8), 0, 4);
        t.register_key(HopId(8), key4).unwrap();
        t.publish(DomainId(5), frame(&b4), vec![DomainId(1), DomainId(5)])
            .unwrap();
        let (b5, key5) = batch(HopId(9), 0, 5); // foreign path
        t.register_key(HopId(9), key5).unwrap();
        t.publish(DomainId(5), frame(&b5), vec![DomainId(1), DomainId(5)])
            .unwrap();
        let polled = t.poll(psub).unwrap();
        assert_eq!(polled.len(), 1, "only the watched path's frame");
        assert_eq!(polled[0].batch, b4);
        assert!(t.poll(psub).unwrap().is_empty(), "exactly once");
        let (b4b, _) = batch(HopId(8), 1, 4);
        t.publish(DomainId(5), frame(&b4b), vec![DomainId(5)])
            .unwrap(); // hidden from DomainId(1)
        assert!(t.poll(psub).unwrap().is_empty());
        assert_eq!(t.len(), 6);

        // Explicit rotation: the new key signs at the next epoch; the
        // epoch-0 frame already in circulation keeps verifying at
        // fetch because old epochs stay in the registry.
        let rotated = HopKey::from_seed(0xabc ^ 5 ^ 0x0f0f_0f0f);
        assert_eq!(
            t.rotate_key(HopId(55), rotated),
            Err(TransportError::UnknownHop(HopId(55))),
            "rotation is not registration"
        );
        assert_eq!(t.rotate_key(HopId(5), rotated), Ok(KeyEpoch(1)));
        assert_eq!(t.key_epoch(HopId(5)), Some(KeyEpoch(1)));
        let (mut brot, _) = batch(HopId(5), 3, 1);
        brot.auth_tag = brot.compute_tag(rotated.tag_key());
        t.publish_batch(
            DomainId(2),
            &brot,
            Profile::Precise,
            vec![DomainId(1), DomainId(2)],
            &rotated,
        )
        .unwrap();
        let got = t.fetch(DomainId(1), HopId(5)).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].epoch, KeyEpoch(0));
        assert_eq!(got[1].epoch, KeyEpoch(1));
        assert_eq!(got[1].batch, brot);
        // The pre-rotation key no longer signs at the current epoch.
        let (bold, old_key) = batch(HopId(5), 4, 1);
        assert_eq!(
            t.publish_batch(
                DomainId(2),
                &bold,
                Profile::Precise,
                vec![DomainId(2)],
                &old_key
            ),
            Err(TransportError::BadMac { hop: HopId(5) })
        );
        assert_eq!(t.len(), 7);

        // Event-driven lifecycle: a subscription with undelivered
        // entries is ready immediately; once drained, `wait` blocks
        // until the timeout; `unsubscribe` drops the cursor and turns
        // the id into a typed error on every entry point.
        assert_eq!(t.subscriptions(), 2);
        assert_eq!(
            t.wait(sub, Duration::from_millis(500)),
            Ok(WaitOutcome::Ready)
        );
        assert!(!t.poll(sub).unwrap().is_empty());
        assert_eq!(
            t.wait(sub, Duration::from_millis(5)),
            Ok(WaitOutcome::TimedOut)
        );
        assert_eq!(
            t.wait(SubscriptionId(999), Duration::from_millis(5)),
            Err(TransportError::UnknownSubscription(SubscriptionId(999)))
        );
        t.unsubscribe(sub).unwrap();
        t.unsubscribe(psub).unwrap();
        assert_eq!(t.subscriptions(), 0, "unsubscribe drops cursor state");
        assert_eq!(t.poll(sub), Err(TransportError::UnknownSubscription(sub)));
        assert_eq!(
            t.wait(sub, Duration::from_millis(5)),
            Err(TransportError::UnknownSubscription(sub))
        );
        assert_eq!(
            t.unsubscribe(sub),
            Err(TransportError::UnknownSubscription(sub))
        );
        // Ids are never reused: a fresh subscription gets a new id even
        // though the old cursors are gone.
        let fresh = t.subscribe(DomainId(1));
        assert_ne!(fresh, sub);
        assert_ne!(fresh, psub);
        t.unsubscribe(fresh).unwrap();
    }

    #[test]
    fn in_memory_bus_passes_the_suite() {
        transport_suite(&InMemoryBus::new());
    }

    #[test]
    fn sharded_bus_passes_the_suite_for_1_4_16_shards() {
        for shards in [1, 4, 16] {
            let bus = ShardedBus::new(shards);
            assert_eq!(bus.shards(), shards);
            transport_suite(&bus);
        }
    }

    /// The same publish sequence produces byte-identical fetch results
    /// on every implementation and shard count — transports are
    /// interchangeable.
    #[test]
    fn fetch_results_are_byte_identical_across_transports() {
        let make: Vec<Box<dyn Fn() -> Box<dyn ReceiptTransport>>> = vec![
            Box::new(|| Box::new(InMemoryBus::new())),
            Box::new(|| Box::new(ShardedBus::new(1))),
            Box::new(|| Box::new(ShardedBus::new(4))),
            Box::new(|| Box::new(ShardedBus::new(16))),
        ];
        let mut snapshots: Vec<Vec<u8>> = Vec::new();
        for mk in &make {
            let t = mk();
            // Interleave hops and paths so sharding actually spreads.
            for i in 0..12u64 {
                let hop = HopId(4 + (i % 3) as u16);
                let (b, key) = batch(hop, i, (i % 5) as u8);
                t.register_key(hop, key).unwrap();
                t.publish(DomainId(1), frame(&b), vec![DomainId(1), DomainId(2)])
                    .unwrap();
            }
            // Snapshot: every hop fetch and every path fetch, in order,
            // as raw frame bytes plus sequence numbers.
            let mut snap = Vec::new();
            for hop in 4..7u16 {
                for p in t.fetch(DomainId(2), HopId(hop)).unwrap() {
                    snap.extend_from_slice(&p.seq.to_le_bytes());
                    snap.extend_from_slice(p.frame.as_bytes());
                }
            }
            for n in 0..5u8 {
                for p in t.fetch_path(DomainId(2), &path(n)).unwrap() {
                    snap.extend_from_slice(&p.seq.to_le_bytes());
                    snap.extend_from_slice(p.frame.as_bytes());
                }
            }
            snapshots.push(snap);
        }
        for s in &snapshots[1..] {
            assert_eq!(
                s, &snapshots[0],
                "every transport must serve the same bytes in the same order"
            );
        }
    }

    /// The cursor design's observable contract: an idle poll costs no
    /// shard scan (global subscriptions skip unmoved shards via their
    /// high-water marks; a path-filtered subscription checks only its
    /// own shard's mark and never reads the global sequence), and a
    /// busy poll scans exactly the shards that moved.
    #[test]
    fn idle_polls_touch_no_shard() {
        let bus = ShardedBus::new(8);
        let (_, key1) = batch(HopId(1), 0, 1);
        bus.register_key(HopId(1), key1).unwrap();
        let gsub = bus.subscribe(DomainId(0));
        let psub = bus.subscribe_path(DomainId(0), &path(1));
        assert!(bus.poll(gsub).unwrap().is_empty());
        assert!(bus.poll(psub).unwrap().is_empty());
        assert_eq!(bus.poll_shard_scans(), 0, "idle polls must be free");

        // Publish onto a path whose shard differs from path 1's.
        let other = (2..64u8)
            .find(|&n| bus.shard_of_path(&path(n)) != bus.shard_of_path(&path(1)))
            .expect("some path lands in another shard");
        let (b, keyb) = batch(HopId(2), 0, other);
        bus.register_key(HopId(2), keyb).unwrap();
        bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
            .unwrap();

        // The path subscription's shard did not move: its poll is still
        // free even though the global sequence advanced.
        assert!(bus.poll(psub).unwrap().is_empty());
        assert_eq!(
            bus.poll_shard_scans(),
            0,
            "a foreign-shard publish must not cost the path sub a scan"
        );

        // The global subscription scans exactly the one moved shard…
        assert_eq!(bus.poll(gsub).unwrap().len(), 1);
        assert_eq!(bus.poll_shard_scans(), 1);
        // …and is free again once drained.
        assert!(bus.poll(gsub).unwrap().is_empty());
        assert_eq!(bus.poll_shard_scans(), 1);

        // Traffic on the watched path costs the path sub one scan.
        let (b1, _) = batch(HopId(1), 1, 1);
        bus.publish(DomainId(1), frame(&b1), vec![DomainId(0), DomainId(1)])
            .unwrap();
        assert_eq!(bus.poll(psub).unwrap().len(), 1);
        assert_eq!(bus.poll_shard_scans(), 2);
    }

    /// The incremental cursor poll and the pre-cursor full-rescan poll
    /// release identical streams for the same publish sequence.
    #[test]
    fn cursor_poll_matches_full_rescan_poll() {
        let bus = ShardedBus::new(4);
        for h in 1..=3u16 {
            let (_, key) = batch(HopId(h), 0, h as u8);
            bus.register_key(HopId(h), key).unwrap();
        }
        let cursor_sub = bus.subscribe(DomainId(0));
        let rescan_sub = bus.subscribe(DomainId(0));
        let mut cursor_seqs: Vec<u64> = Vec::new();
        let mut rescan_seqs: Vec<u64> = Vec::new();
        for i in 0..24u64 {
            let hop = HopId(1 + (i % 3) as u16);
            let (b, _) = batch(hop, i, (i % 6) as u8);
            let on_path = if i % 4 == 3 {
                vec![DomainId(9)] // hidden from the subscriber
            } else {
                vec![DomainId(0), DomainId(9)]
            };
            bus.publish(DomainId(9), frame(&b), on_path).unwrap();
            cursor_seqs.extend(bus.poll(cursor_sub).unwrap().iter().map(|p| p.seq));
            rescan_seqs.extend(
                bus.poll_full_rescan(rescan_sub)
                    .unwrap()
                    .iter()
                    .map(|p| p.seq),
            );
        }
        assert_eq!(cursor_seqs, rescan_seqs);
        assert_eq!(cursor_seqs.len(), 18, "6 of 24 publishes are hidden");
        assert!(bus.poll(cursor_sub).unwrap().is_empty());
        assert!(bus.poll_full_rescan(rescan_sub).unwrap().is_empty());
    }

    #[test]
    fn sharded_bus_spreads_entries_across_shards() {
        let bus = ShardedBus::new(4);
        let mut used = std::collections::HashSet::new();
        for n in 0..16u8 {
            used.insert(bus.shard_of_path(&path(n)));
        }
        assert!(
            used.len() >= 3,
            "16 distinct paths landed in only {} of 4 shards",
            used.len()
        );
    }

    /// A subscription must deliver every visible entry exactly once
    /// even while publishers race: a publisher that claimed sequence N
    /// but has not yet inserted into its shard when a later entry is
    /// polled must not be skipped (the cursor advances only through
    /// the contiguous sequence prefix).
    #[test]
    fn polling_under_concurrent_publishers_loses_nothing() {
        let bus = ShardedBus::new(8);
        for h in 1..=4u16 {
            let (_, key) = batch(HopId(h), 0, h as u8);
            bus.register_key(HopId(h), key).unwrap();
        }
        let sub = bus.subscribe(DomainId(0));
        let total = 4 * 16;
        let mut seen: Vec<u64> = Vec::new();
        std::thread::scope(|s| {
            for h in 1..=4u16 {
                let bus = &bus;
                s.spawn(move || {
                    for i in 0..16u64 {
                        let (b, _) = batch(HopId(h), i, (i % 7) as u8);
                        bus.publish(DomainId(h), frame(&b), vec![DomainId(0), DomainId(h)])
                            .unwrap();
                    }
                });
            }
            // Poll concurrently with the publishers.
            while seen.len() < total {
                seen.extend(bus.poll(sub).unwrap().iter().map(|p| p.seq));
            }
        });
        assert_eq!(seen.len(), total);
        assert!(
            seen.windows(2).all(|w| w[1] == w[0] + 1),
            "stream must be gap-free and in publish order: {seen:?}"
        );
        assert!(bus.poll(sub).unwrap().is_empty());
    }

    /// A path-filtered subscription under racing publishers still
    /// delivers exactly its path's entries, exactly once, with
    /// monotonically increasing sequence numbers (one publisher per
    /// path ⇒ shard-arrival order is publish order).
    #[test]
    fn path_filtered_polling_under_racing_publishers_is_exactly_once() {
        let bus = ShardedBus::new(8);
        for h in 1..=4u16 {
            let (_, key) = batch(HopId(h), 0, h as u8);
            bus.register_key(HopId(h), key).unwrap();
        }
        let watched = path(2);
        let sub = bus.subscribe_path(DomainId(0), &watched);
        let per_hop = 12usize;
        let mut got: Vec<Arc<Published>> = Vec::new();
        std::thread::scope(|s| {
            for h in 1..=4u16 {
                let bus = &bus;
                s.spawn(move || {
                    for i in 0..per_hop as u64 {
                        let (b, _) = batch(HopId(h), i, h as u8);
                        bus.publish(DomainId(h), frame(&b), vec![DomainId(0), DomainId(h)])
                            .unwrap();
                    }
                });
            }
            while got.len() < per_hop {
                got.extend(bus.poll(sub).unwrap());
            }
        });
        assert_eq!(got.len(), per_hop);
        assert!(got.iter().all(|p| p.hop == HopId(2)), "only path 2's hop");
        assert!(
            got.windows(2).all(|w| w[0].seq < w[1].seq),
            "exactly once, in increasing sequence order"
        );
        assert!(bus.poll(sub).unwrap().is_empty());
    }

    #[test]
    fn concurrent_publishers_do_not_contend_on_one_lock() {
        let bus = ShardedBus::new(8);
        for h in 1..=8u16 {
            let (_, key) = batch(HopId(h), 0, h as u8);
            bus.register_key(HopId(h), key).unwrap();
        }
        std::thread::scope(|s| {
            for h in 1..=8u16 {
                let bus = &bus;
                s.spawn(move || {
                    for i in 0..4u64 {
                        let (b, _) = batch(HopId(h), i, h as u8);
                        bus.publish(DomainId(h), frame(&b), vec![DomainId(h)])
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(bus.len(), 32);
        // Every publisher's frames come back complete and in order.
        for h in 1..=8u16 {
            let got = bus.fetch(DomainId(h), HopId(h)).unwrap();
            assert_eq!(got.len(), 4);
            assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
        }
    }

    /// A blocked waiter is woken by a publish that lands *after* it
    /// went to sleep — the event-driven path, not a poll race.
    #[test]
    fn wait_wakes_on_a_publish_that_lands_mid_wait() {
        let makes: [fn(usize) -> Box<dyn ReceiptTransport + Sync>; 2] = [
            |s| Box::new(ShardedBus::new(s)),
            |_| Box::new(InMemoryBus::new()),
        ];
        for make in makes {
            let bus = make(8);
            let (b, key) = batch(HopId(3), 0, 2);
            bus.register_key(HopId(3), key).unwrap();
            let sub = bus.subscribe(DomainId(0));
            let psub = bus.subscribe_path(DomainId(0), &path(2));
            std::thread::scope(|s| {
                let bus = &bus;
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(30));
                    bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
                        .unwrap();
                });
                for handle in [sub, psub] {
                    assert_eq!(
                        bus.wait(handle, Duration::from_secs(10)),
                        Ok(WaitOutcome::Ready),
                        "a publish must wake the blocked waiter"
                    );
                    assert_eq!(bus.poll(handle).unwrap().len(), 1);
                }
            });
        }
    }

    /// Acceptance criterion: an idle subscriber blocked in `wait`
    /// performs **zero** shard scans — blocking replaces spinning, it
    /// does not hide it.
    #[test]
    fn blocked_waiters_scan_no_shards() {
        let bus = ShardedBus::new(8);
        let gsub = bus.subscribe(DomainId(0));
        let psub = bus.subscribe_path(DomainId(0), &path(2));
        let before = bus.poll_shard_scans();
        for sub in [gsub, psub] {
            assert_eq!(
                bus.wait(sub, Duration::from_millis(40)),
                Ok(WaitOutcome::TimedOut)
            );
        }
        assert_eq!(
            bus.poll_shard_scans(),
            before,
            "a blocked wait must not touch any shard"
        );
    }

    /// Path subscriptions block on their own shard's notifier: a
    /// publish routed to a *different* shard neither wakes nor readies
    /// them, while the matching shard's waiter sees `Ready`.
    #[test]
    fn path_waits_use_per_shard_wakeups() {
        let bus = ShardedBus::new(8);
        // Find two paths on distinct shards.
        let (p1, p2) = {
            let first = path(1);
            let mut other = None;
            for n in 2..=20u8 {
                if bus.shard_of_path(&path(n)) != bus.shard_of_path(&first) {
                    other = Some(path(n));
                    break;
                }
            }
            (first, other.expect("8 shards must split 20 paths"))
        };
        let (b, key) = batch(HopId(3), 0, 1); // references p1 only
        bus.register_key(HopId(3), key).unwrap();
        let sub_hit = bus.subscribe_path(DomainId(0), &p1);
        let sub_miss = bus.subscribe_path(DomainId(0), &p2);
        bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
            .unwrap();
        assert_eq!(
            bus.wait(sub_hit, Duration::from_secs(5)),
            Ok(WaitOutcome::Ready)
        );
        assert_eq!(
            bus.wait(sub_miss, Duration::from_millis(30)),
            Ok(WaitOutcome::TimedOut),
            "a foreign shard's publish must not ready this waiter"
        );
    }

    /// The dead-publisher failure this PR exists for: a sequence
    /// number claimed but never inserted stalls a global cursor's
    /// contiguous prefix. `wait` must judge readiness from *completed*
    /// inserts, so the waiter times out instead of spinning ready.
    #[test]
    fn a_claimed_but_never_inserted_seq_does_not_ready_a_wait() {
        let bus = ShardedBus::new(4);
        let (b, key) = batch(HopId(3), 0, 1);
        bus.register_key(HopId(3), key).unwrap();
        let sub = bus.subscribe(DomainId(0));
        bus.claim_seq_and_die();
        assert_eq!(
            bus.wait(sub, Duration::from_millis(40)),
            Ok(WaitOutcome::TimedOut),
            "a claimed-only seq is not an event"
        );
        assert!(bus.poll(sub).unwrap().is_empty());
        // A real publish after the hole wakes the waiter; the poll
        // parks it behind the hole (nothing released yet) and the next
        // wait sees the parked entry is not the stream head.
        bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
            .unwrap();
        assert_eq!(
            bus.wait(sub, Duration::from_secs(5)),
            Ok(WaitOutcome::Ready)
        );
        assert!(
            bus.poll(sub).unwrap().is_empty(),
            "the hole blocks the contiguous prefix"
        );
        assert_eq!(
            bus.wait(sub, Duration::from_millis(40)),
            Ok(WaitOutcome::TimedOut),
            "a parked out-of-order entry must not re-ready the wait"
        );
    }

    /// Cursor resume: `subscribe_from` / `subscribe_path_from` replay
    /// exactly the suffix at-or-past the resume point — no duplicates,
    /// no skips — which is what a reconnecting TCP client relies on.
    #[test]
    fn resumed_subscriptions_replay_exactly_the_suffix() {
        let bus = ShardedBus::new(4);
        for h in 1..=2u16 {
            let (_, key) = batch(HopId(h), 0, h as u8);
            bus.register_key(HopId(h), key).unwrap();
        }
        let mut seqs = Vec::new();
        for i in 0..10u64 {
            let h = 1 + (i % 2) as u16;
            let (b, _) = batch(HopId(h), i, h as u8);
            seqs.push(
                bus.publish(DomainId(h), frame(&b), vec![DomainId(0), DomainId(h)])
                    .unwrap(),
            );
        }
        let resume = seqs[4];
        let sub = bus.subscribe_from(DomainId(0), resume).unwrap();
        let got: Vec<u64> = bus.poll(sub).unwrap().iter().map(|p| p.seq).collect();
        assert_eq!(got, seqs[4..], "global resume replays seq >= resume once");
        assert!(bus.poll(sub).unwrap().is_empty());

        // Path resume: only path-1 entries (hop 1) at-or-past resume.
        let psub = bus
            .subscribe_path_from(DomainId(0), &path(1), resume)
            .unwrap();
        let got: Vec<u64> = bus.poll(psub).unwrap().iter().map(|p| p.seq).collect();
        let expect: Vec<u64> = seqs[4..].iter().copied().step_by(2).collect();
        assert_eq!(got, expect, "path resume filters below the resume seq");
        assert!(bus.poll(psub).unwrap().is_empty());

        // A future resume point clamps to "now": nothing is replayed,
        // and the next publish is delivered normally.
        let ahead = bus.subscribe_from(DomainId(0), u64::MAX).unwrap();
        assert!(bus.poll(ahead).unwrap().is_empty());
        let (b, _) = batch(HopId(1), 99, 1);
        bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
            .unwrap();
        assert_eq!(bus.poll(ahead).unwrap().len(), 1);
    }

    /// The retention contract, exercised identically on both buses:
    /// compaction reclaims a prefix into per-HOP summaries and raises
    /// the horizon; caught-up cursors stream on seamlessly; lagging
    /// cursors get a sticky typed error; the boundary is exact.
    fn retention_suite(t: &dyn ReceiptTransport) {
        let on = vec![DomainId(0), DomainId(1)];
        for h in [5u16, 6] {
            let (_, key) = batch(HopId(h), 0, 1);
            t.register_key(HopId(h), key).unwrap();
        }
        // Publish `i` as hop 5/6 alternating, on paths 0/1 alternating.
        let pub_i = |i: u64| {
            let hop = HopId(5 + (i % 2) as u16);
            let (b, _) = batch(hop, i, (i % 2) as u8);
            t.publish(DomainId(1), frame(&b), on.clone()).unwrap()
        };
        for i in 0..6 {
            pub_i(i);
        }
        assert_eq!(t.horizon(), Ok(0));
        assert!(t.summaries().unwrap().is_empty());

        let caught = t.subscribe(DomainId(0));
        let lagging = t.subscribe(DomainId(0));
        let lagging_path = t.subscribe_path(DomainId(0), &path(0));
        for i in 6..10 {
            pub_i(i);
        }
        assert_eq!(t.poll(caught).unwrap().len(), 4);

        // Reclaim everything below sequence number 8.
        assert_eq!(
            t.compact_before(8),
            Ok(CompactionReport {
                reclaimed: 8,
                horizon: 8
            })
        );
        assert_eq!(t.horizon(), Ok(8));
        assert_eq!(t.len(), 2, "only the suffix is retained");
        // The horizon is monotone: a lower cut is a no-op.
        assert_eq!(
            t.compact_before(4),
            Ok(CompactionReport {
                reclaimed: 0,
                horizon: 8
            })
        );

        // The caught-up cursor is unaffected…
        assert!(t.poll(caught).unwrap().is_empty());
        // …the cursors the pass overran get the typed error — sticky
        // on every entry point until the subscription is dropped.
        let lagged = Err(TransportError::LaggedBehind { horizon: 8 });
        assert_eq!(t.poll(lagging), lagged);
        assert_eq!(
            t.poll(lagging),
            lagged,
            "the error repeats, no silent resume"
        );
        assert_eq!(
            t.wait(lagging, Duration::from_millis(10)),
            Err(TransportError::LaggedBehind { horizon: 8 })
        );
        assert_eq!(t.poll(lagging_path), lagged, "path cursors lag too");
        t.unsubscribe(lagging).unwrap();
        t.unsubscribe(lagging_path).unwrap();

        // The pass left per-HOP digests of exactly the reclaimed
        // prefix: hop 5 published seqs 0,2,4,6 and hop 6 seqs 1,3,5,7,
        // each frame carrying 1 sample + 1 aggregate of 100 packets.
        let sums = t.summaries().unwrap();
        assert_eq!(sums.len(), 2, "one summary per HOP per pass");
        assert_eq!(
            (sums[0].hop, sums[0].first_seq, sums[0].last_seq),
            (HopId(5), 0, 6)
        );
        assert_eq!(
            (sums[1].hop, sums[1].first_seq, sums[1].last_seq),
            (HopId(6), 1, 7)
        );
        for s in &sums {
            assert_eq!((s.frames, s.samples, s.aggregates), (4, 4, 4));
            assert_eq!(s.pkt_cnt, 400);
            assert_ne!(s.digest, 0, "the digest binds the reclaimed bytes");
        }

        // Compaction exactly at the epoch boundary: a cut at the next
        // publish sequence reclaims everything, and the caught-up
        // cursor sits exactly on the horizon — polling empty, timing
        // out, never lagging.
        pub_i(10);
        assert_eq!(t.poll(caught).unwrap().len(), 1);
        assert_eq!(
            t.compact_before(u64::MAX),
            Ok(CompactionReport {
                reclaimed: 3,
                horizon: 11
            }),
            "a future cut clamps to the publish sequence"
        );
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert!(t.poll(caught).unwrap().is_empty());
        assert_eq!(
            t.wait(caught, Duration::from_millis(10)),
            Ok(WaitOutcome::TimedOut)
        );
        // The stream continues seamlessly past the boundary.
        pub_i(11);
        let got = t.poll(caught).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 11);
        assert_eq!(
            t.summaries().unwrap().len(),
            4,
            "the second pass appended its own per-HOP summaries"
        );
        t.unsubscribe(caught).unwrap();
    }

    #[test]
    fn in_memory_bus_passes_the_retention_suite() {
        retention_suite(&InMemoryBus::new());
    }

    #[test]
    fn sharded_bus_passes_the_retention_suite_for_1_4_16_shards() {
        for shards in [1, 4, 16] {
            retention_suite(&ShardedBus::new(shards));
        }
    }

    /// Summaries — counts, sequence ranges, and chained digests — must
    /// not depend on the backend or shard count: compaction folds in
    /// global sequence order everywhere.
    #[test]
    fn summaries_are_identical_across_transports() {
        let make: Vec<Box<dyn Fn() -> Box<dyn ReceiptTransport>>> = vec![
            Box::new(|| Box::new(InMemoryBus::new())),
            Box::new(|| Box::new(ShardedBus::new(1))),
            Box::new(|| Box::new(ShardedBus::new(4))),
            Box::new(|| Box::new(ShardedBus::new(16))),
        ];
        let mut all: Vec<Vec<IntervalSummary>> = Vec::new();
        for mk in &make {
            let t = mk();
            for i in 0..12u64 {
                let hop = HopId(4 + (i % 3) as u16);
                let (b, key) = batch(hop, i, (i % 5) as u8);
                t.register_key(hop, key).unwrap();
                t.publish(DomainId(1), frame(&b), vec![DomainId(1), DomainId(2)])
                    .unwrap();
            }
            t.compact_before(5).unwrap();
            t.compact_before(9).unwrap();
            all.push(t.summaries().unwrap());
        }
        for s in &all[1..] {
            assert_eq!(s, &all[0], "summaries must be backend-independent");
        }
    }

    /// The GC edge case the ISSUE names: a subscriber parked in
    /// `wait()` across a compaction pass must wake with the typed
    /// `LaggedBehind`, not a stale page and not a timeout.
    #[test]
    fn a_waiter_parked_across_a_gc_pass_wakes_lagged_not_stale() {
        let bus = ShardedBus::new(4);
        let (b, key) = batch(HopId(3), 0, 1);
        bus.register_key(HopId(3), key).unwrap();
        // A hole at seq 0 parks the global cursor: the entry at seq 1
        // is polled into the reorder buffer but never released, so the
        // waiter genuinely blocks.
        bus.claim_seq_and_die();
        bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
            .unwrap();
        let sub = bus.subscribe_from(DomainId(0), 0).unwrap();
        assert!(bus.poll(sub).unwrap().is_empty(), "parked behind the hole");
        std::thread::scope(|s| {
            let bus = &bus;
            let waiter = s.spawn(move || bus.wait(sub, Duration::from_secs(10)));
            std::thread::sleep(Duration::from_millis(30));
            // GC deliberately moves the horizon past the hole while
            // the waiter is blocked.
            assert_eq!(
                bus.compact_before(2),
                Ok(CompactionReport {
                    reclaimed: 1,
                    horizon: 2
                })
            );
            assert_eq!(
                waiter.join().unwrap(),
                Err(TransportError::LaggedBehind { horizon: 2 }),
                "the GC pass must wake the parked waiter with the typed error"
            );
        });
        bus.unsubscribe(sub).unwrap();
        // Resuming below the horizon is refused; resuming at it works,
        // which is also how a stream stuck on a dead publisher's hole
        // gets unstuck.
        assert_eq!(
            bus.subscribe_from(DomainId(0), 1),
            Err(TransportError::LaggedBehind { horizon: 2 })
        );
        assert_eq!(
            bus.subscribe_path_from(DomainId(0), &path(1), 0),
            Err(TransportError::LaggedBehind { horizon: 2 })
        );
        let sub2 = bus.subscribe_from(DomainId(0), 2).unwrap();
        let (b2, _) = batch(HopId(3), 1, 1);
        bus.publish(DomainId(1), frame(&b2), vec![DomainId(0), DomainId(1)])
            .unwrap();
        assert_eq!(bus.poll(sub2).unwrap().len(), 1);
        bus.unsubscribe(sub2).unwrap();
    }
}
