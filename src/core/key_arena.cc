#include "core/key_arena.h"

#include <bit>

#include "common/check.h"
#include "common/simd.h"

namespace rfidclean::internal_core {

namespace {

constexpr std::int32_t kEmptySlot = -1;
constexpr std::size_t kInitialSlots = 64;

}  // namespace

std::int32_t NodeKeyArena::Append(const NodeKey& key, std::size_t hash) {
  const std::int32_t id = static_cast<std::int32_t>(keys_.size());
  keys_.push_back(key);
  hashes_.push_back(hash);
  return id;
}

std::int32_t NodeKeyArena::Intern(const NodeKey& key, std::uint32_t scope) {
  const std::size_t hash = NodeKeyHash()(key);
  // `steps` counts slot inspections for this call (>= 1 by construction —
  // CheckInvariants relies on probe_steps >= intern_calls). The batched
  // probe below preserves the position-based count: steps stays the number
  // of slots the scalar probe would have walked to reach the accepted one.
  RFID_STATS(++intern_calls_);
  std::uint64_t steps = 1;
  (void)steps;
  if (key.departures.size() == 0) {
    // Keep the load factor below ~0.7 so probe chains stay short.
    if (persistent_slots_.empty() ||
        (persistent_count_ + 1) * 10 >= persistent_slots_.size() * 7) {
      RehashPersistent(persistent_slots_.empty()
                           ? kInitialSlots
                           : persistent_slots_.size() * 2);
    }
    std::size_t slot = hash & persistent_mask_;
    // First slot inline: at the ~0.7 load cap most probes resolve here, and
    // the group scan only pays off once a chain has started.
    {
      const std::int32_t id = persistent_slots_[slot];
      if (id == kEmptySlot) {
        const std::int32_t fresh = Append(key, hash);
        persistent_slots_[slot] = fresh;
        ++persistent_count_;
        RFID_STATS(RecordProbe(steps));
        return fresh;
      }
      if (hashes_[static_cast<std::size_t>(id)] == hash &&
          keys_[static_cast<std::size_t>(id)] == key) {
        RFID_STATS(RecordProbe(steps));
        return id;
      }
      slot = (slot + 1) & persistent_mask_;
      RFID_STATS(++steps);
    }
    for (;;) {
      if (simd::VectorKernelsActive() &&
          slot + simd::kProbeGroupWidth <= persistent_slots_.size()) {
        // Batched step: classify eight consecutive slots at once, then
        // walk the empty/hash-match candidates in ascending offset. The
        // first empty offset still terminates the chain (linear probing
        // never stores a live entry past it), so ascending order keeps
        // the scalar first-empty / first-match semantics exactly.
        const simd::ProbeGroupMasks masks = simd::ScanProbeGroup(
            &persistent_slots_[slot], hashes_.data(), hash);
        std::uint32_t candidates = masks.empty | masks.match;
        while (candidates != 0) {
          const unsigned j =
              static_cast<unsigned>(std::countr_zero(candidates));
          if ((masks.empty >> j) & 1u) {
            RFID_STATS(steps += j);
            const std::int32_t fresh = Append(key, hash);
            persistent_slots_[slot + j] = fresh;
            ++persistent_count_;
            RFID_STATS(RecordProbe(steps));
            return fresh;
          }
          const std::int32_t id = persistent_slots_[slot + j];
          if (keys_[static_cast<std::size_t>(id)] == key) {
            RFID_STATS(steps += j);
            RFID_STATS(RecordProbe(steps));
            return id;
          }
          candidates &= candidates - 1;  // hash collision: next candidate
        }
        slot = (slot + simd::kProbeGroupWidth) & persistent_mask_;
        RFID_STATS(steps += simd::kProbeGroupWidth);
        continue;
      }
      // Scalar step (SIMD off, or the group would wrap the table end).
      const std::int32_t id = persistent_slots_[slot];
      if (id == kEmptySlot) {
        const std::int32_t fresh = Append(key, hash);
        persistent_slots_[slot] = fresh;
        ++persistent_count_;
        RFID_STATS(RecordProbe(steps));
        return fresh;
      }
      if (hashes_[static_cast<std::size_t>(id)] == hash &&
          keys_[static_cast<std::size_t>(id)] == key) {
        RFID_STATS(RecordProbe(steps));
        return id;
      }
      slot = (slot + 1) & persistent_mask_;
      RFID_STATS(++steps);
    }
  }

  if (scope != current_scope_) {
    current_scope_ = scope;
    scoped_count_ = 0;
  }
  if (scoped_slots_.empty() ||
      (scoped_count_ + 1) * 10 >= scoped_slots_.size() * 7) {
    GrowScoped(scope);
  }
  std::size_t slot = hash & scoped_mask_;
  while (scoped_slots_[slot].id != kEmptySlot &&
         scoped_slots_[slot].scope == scope) {
    const std::int32_t id = scoped_slots_[slot].id;
    if (hashes_[static_cast<std::size_t>(id)] == hash &&
        keys_[static_cast<std::size_t>(id)] == key) {
      RFID_STATS(RecordProbe(steps));
      return id;
    }
    slot = (slot + 1) & scoped_mask_;
    RFID_STATS(++steps);
  }
  // First empty-or-expired slot: insertion point. Within one scope this is
  // plain linear probing — current-scope chains never extend past a stale
  // slot, because every current-scope insertion stopped at the first one.
  const std::int32_t id = Append(key, hash);
  scoped_slots_[slot] = ScopedSlot{scope, id};
  ++scoped_count_;
  RFID_STATS(RecordProbe(steps));
  return id;
}

void NodeKeyArena::Reserve(std::size_t expected_keys) {
  keys_.reserve(expected_keys);
  hashes_.reserve(expected_keys);
}

void NodeKeyArena::RehashPersistent(std::size_t capacity) {
  RFID_CHECK_EQ(capacity & (capacity - 1), 0u);
  std::vector<std::int32_t> old = std::move(persistent_slots_);
  persistent_slots_.assign(capacity, kEmptySlot);
  persistent_mask_ = capacity - 1;
  for (const std::int32_t id : old) {
    if (id == kEmptySlot) continue;
    std::size_t slot = hashes_[static_cast<std::size_t>(id)] &
                       persistent_mask_;
    while (persistent_slots_[slot] != kEmptySlot) {
      slot = (slot + 1) & persistent_mask_;
    }
    persistent_slots_[slot] = id;
  }
}

void NodeKeyArena::GrowScoped(std::uint32_t scope) {
  const std::size_t capacity =
      scoped_slots_.empty() ? kInitialSlots : scoped_slots_.size() * 2;
  std::vector<ScopedSlot> old = std::move(scoped_slots_);
  scoped_slots_.assign(capacity, ScopedSlot{});
  scoped_mask_ = capacity - 1;
  for (const ScopedSlot& entry : old) {
    if (entry.id == kEmptySlot || entry.scope != scope) continue;
    std::size_t slot = hashes_[static_cast<std::size_t>(entry.id)] &
                       scoped_mask_;
    while (scoped_slots_[slot].id != kEmptySlot &&
           scoped_slots_[slot].scope == scope) {
      slot = (slot + 1) & scoped_mask_;
    }
    scoped_slots_[slot] = entry;
  }
}

}  // namespace rfidclean::internal_core
