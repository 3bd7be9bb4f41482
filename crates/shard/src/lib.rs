#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Scale-out for the HI hash table: a hash-partitioned **table of tables**
//! over the canonical Robin Hood layout, with **online resize** — the first
//! backend in the workspace whose memory representation changes capacity at
//! run time while staying history-independent.
//!
//! # Why sharding composes with history independence
//!
//! Auditing one big table at scale means linearizing the whole table at
//! once. Partitioning the domain by a fixed **shard map** ([`shard_of`]:
//! split-hash → shard) makes each shard an independent HI object over its
//! slice of the key set, in the style of segmented invariant confluence:
//! the global canonical representation is the concatenation of the shards'
//! canonical representations, because
//!
//! * the shard map is a *fixed function of the key* (no history in the
//!   routing), and
//! * each shard's layout is a pure function of the key subset it owns
//!   (unique representability, per shard).
//!
//! Audits therefore compose: checking every shard against its own
//! canonical layout *is* checking the global object, and a big-domain
//! deployment can trade audit latency for coverage by checking a random
//! subset of shards exhaustively (the sampled audit in `hi_api`).
//!
//! # Why resize preserves it
//!
//! Capacity is **part of the representation**, so it must itself be a
//! pure function of the abstract state: each shard's capacity is
//! [`cap_for`]`(len, base)` — the smallest `base << i` keeping load at or
//! under 3/4 — with *no hysteresis* (hysteresis would make capacity depend
//! on the history of the occupancy curve, a textbook HI leak). When an
//! update crosses a capacity boundary, the updating thread rewrites the
//! shard in place under the shard's update lock, using the same
//! duplicate-then-overwrite hazard discipline as the Robin Hood carries:
//! the [`rewrite_plan`] write order guarantees a surviving key is **never
//! absent from the arena at any write prefix**, so concurrent lock-free
//! lookups can sight present keys all the way through a migration (absent
//! verdicts already revalidate the seqlock).
//!
//! The pieces:
//!
//! * [`threaded::ShardedHiHashTable`] — the concurrent table of tables: a
//!   [`shard_of`] router over resizable
//!   [`AtomicHiHashTable`](hi_hashtable::AtomicHiHashTable) arenas.
//! * Re-exported from `hi_hashtable`, where the one arena and the one sim
//!   step machine live: the pure rules [`shard_of`] and [`cap_for`], the
//!   migration order [`rewrite_plan`], and the simulator twin
//!   [`SimShardedTable`], whose `hi_audit` composes per-shard
//!   `DirectCanonical` views.

pub mod threaded;

pub use hi_hashtable::{cap_for, rewrite_plan, shard_of, SimShardedTable};
pub use threaded::ShardedHiHashTable;
