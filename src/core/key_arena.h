#ifndef RFIDCLEAN_CORE_KEY_ARENA_H_
#define RFIDCLEAN_CORE_KEY_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/location_node.h"
#include "obs/metrics.h"

namespace rfidclean::internal_core {

/// Read-only view of one interned key: its location and δ, and its TL as
/// a slice of the arena's departure pool. Valid until the next Intern,
/// which can grow the pool under it.
struct NodeKeyView {
  LocationId location = kInvalidLocation;
  Timestamp delta = kDeltaBottom;
  std::span<const Departure> departures;

  /// Overwrites `out` with this key, reusing its TL storage.
  void CopyTo(NodeKey* out) const {
    out->location = location;
    out->delta = delta;
    out->departures.clear();
    for (const Departure& d : departures) out->departures.push_back(d);
  }
};

/// Per-build interning arena for NodeKeys. Keys materialized during one
/// ct-graph construction are stored once per interning scope and addressed
/// by a dense 32-bit id, so the forward phase deduplicates and memoizes on
/// 4-byte ids instead of re-hashing and re-comparing full key tuples: the
/// per-layer node table becomes a direct array indexed by key id (see
/// forward.h) and a work-graph node carries a 4-byte key id.
///
/// Storage is flat: each key is one 16-byte record {location, δ, TL
/// offset, TL length} over a single departure pool of 8-byte entries, plus
/// an 8-byte cached hash while interning is open. Both arrays hold
/// trivially copyable elements, so a regrowth is one copy, and no key owns
/// a heap block of its own.
///
/// Two intern tables back the arena, exploiting a structural property of
/// node keys: a key with traveling-time bookkeeping (non-empty TL) embeds
/// absolute departure timestamps, so it can only recur within a handful of
/// adjacent layers — while keys with an empty TL (the steady state) form a
/// tiny set that recurs for the whole build.
///  - empty-TL keys go to a small *persistent* open-addressing table,
///    which stays cache-resident no matter how long the sequence is;
///  - TL-bearing keys go to a *scoped* table whose entries are stamped
///    with the caller's layer scope and expire when the scope advances, so
///    probes touch a table sized for one layer, not for the whole build.
/// A TL key recurring in a later layer is stored again under a new id;
/// ids are only required to be canonical within a scope (that is all the
/// per-layer dedup needs), and the duplicate storage is bounded by one key
/// per graph node — exactly what storing keys inline in nodes would cost.
///
/// Hashes are computed once per stored key and cached; both tables use
/// linear probing over power-of-two capacities. Once the forward phase is
/// over, ReleaseInternState frees the scoped table and the hashes; the
/// keys stay readable. Not thread-safe: one arena per build, confined to
/// its builder or streaming cleaner.
class NodeKeyArena {
 public:
  NodeKeyArena() = default;

  /// Id of `key`, interning it on first sight. `scope` identifies the
  /// caller's current layer (any value; a change of value retires every
  /// TL-bearing entry of the previous scope). Ids are dense, 0-based, and
  /// stable for the arena's lifetime; equal keys get equal ids within one
  /// scope. Fails an RFID_CHECK after ReleaseInternState, or when the TL
  /// pool would outgrow its 32-bit offsets.
  std::int32_t Intern(const NodeKey& key, std::uint32_t scope);

  /// The canonical key of `id`. The view's TL slice points into the pool,
  /// so it is valid only while no further Intern runs — copy the key
  /// (NodeKeyView::CopyTo) before interning others if it must outlive them.
  NodeKeyView key(std::int32_t id) const {
    const KeyRecord& record = records_[static_cast<std::size_t>(id)];
    return {record.location, record.delta,
            std::span<const Departure>(pool_.data() + record.tl_begin,
                                       record.tl_size)};
  }

  /// The location of key `id`.
  LocationId location(std::int32_t id) const {
    return records_[static_cast<std::size_t>(id)].location;
  }

  /// Number of keys stored so far (the id space; capacity-recycling hint).
  std::size_t size() const { return records_.size(); }

  /// Pre-sizes the key records (and their cached hashes) for
  /// `expected_keys` entries. Purely an allocation hint (batch mode
  /// recycles the high-water marks of previous builds through this); the
  /// TL pool grows on demand.
  void Reserve(std::size_t expected_keys);

  /// Bytes the records, the TL pool, the cached hashes and both intern
  /// tables hold, from their capacities.
  std::size_t ApproximateBytes() const {
    return records_.capacity() * sizeof(KeyRecord) +
           pool_.capacity() * sizeof(Departure) +
           hashes_.capacity() * sizeof(std::size_t) +
           persistent_slots_.capacity() * sizeof(std::int32_t) +
           scoped_slots_.capacity() * sizeof(ScopedSlot);
  }

  /// Ends interning: frees the scoped table and the cached hashes, which
  /// only Intern reads. key(), location(), size() and intern_stats() keep
  /// answering as before (the small persistent table stays, so the
  /// occupancy it reports is unchanged); a later Intern fails an
  /// RFID_CHECK.
  void ReleaseInternState();

  /// Lifetime interning statistics of this arena (obs feed). The counters
  /// are all-zero when stats are compiled out; the table shape fields are
  /// always live.
  struct InternStats {
    std::uint64_t intern_calls = 0;  ///< Intern() invocations
    std::uint64_t probe_steps = 0;   ///< slots inspected across both tables
    std::uint64_t probe_max = 0;     ///< longest single probe chain
    std::size_t persistent_entries = 0;
    std::size_t persistent_capacity = 0;
  };
  InternStats intern_stats() const {
    InternStats stats;
    RFID_STATS(stats.intern_calls = intern_calls_);
    RFID_STATS(stats.probe_steps = probe_steps_);
    RFID_STATS(stats.probe_max = probe_max_);
    stats.persistent_entries = persistent_count_;
    stats.persistent_capacity = persistent_slots_.size();
    return stats;
  }

 private:
  /// One stored key: the TL is pool_[tl_begin, tl_begin + tl_size).
  struct KeyRecord {
    LocationId location = kInvalidLocation;
    Timestamp delta = kDeltaBottom;
    std::uint32_t tl_begin = 0;
    std::uint32_t tl_size = 0;
  };
  static_assert(sizeof(KeyRecord) == 16);

  /// Entry of the scoped table; `id` < 0 means never used, a stale `scope`
  /// means expired (treated as empty for both lookup and insertion).
  struct ScopedSlot {
    std::uint32_t scope = 0;
    std::int32_t id = -1;
  };

  /// Whether stored key `id` equals `key` (hashes already matched).
  bool Matches(std::int32_t id, const NodeKey& key) const;

  /// Appends `key` to the store and returns its id.
  std::int32_t Append(const NodeKey& key, std::size_t hash);

  /// Grows the persistent table to `capacity` slots (a power of two) and
  /// reinserts every persistent id by its cached hash.
  void RehashPersistent(std::size_t capacity);

  /// Grows the scoped table, reinserting only live (current-scope) entries.
  void GrowScoped(std::uint32_t scope);

  std::vector<KeyRecord> records_;
  std::vector<Departure> pool_;      // every stored key's TL, back to back
  std::vector<std::size_t> hashes_;  // parallel to records_ until released
  bool released_ = false;

  // Persistent table (empty-TL keys): id per slot, -1 = empty.
  std::vector<std::int32_t> persistent_slots_;
  std::size_t persistent_mask_ = 0;
  std::size_t persistent_count_ = 0;

  // Scoped table (TL-bearing keys).
  std::vector<ScopedSlot> scoped_slots_;
  std::size_t scoped_mask_ = 0;
  std::uint32_t current_scope_ = 0;
  std::size_t scoped_count_ = 0;  // live entries of current_scope_

#if RFIDCLEAN_STATS_ENABLED
  // Plain members, not thread-local sinks: Intern is the hottest loop in
  // the forward phase, so the per-call cost must stay at register adds.
  // ConditionAndCompact folds these into the obs sinks once per build.
  void RecordProbe(std::uint64_t steps) {
    probe_steps_ += steps;
    if (steps > probe_max_) probe_max_ = steps;
  }
  std::uint64_t intern_calls_ = 0;
  std::uint64_t probe_steps_ = 0;
  std::uint64_t probe_max_ = 0;
#endif
};

}  // namespace rfidclean::internal_core

#endif  // RFIDCLEAN_CORE_KEY_ARENA_H_
