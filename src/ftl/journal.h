// FTL metadata journal (crash-restart recovery).
//
// A simulated append-only journal region holding the FTL's durable metadata:
// L2P updates, trims, tiredness-level / page-state changes, block retirement,
// logical-space extensions and mDisk lifecycle records. The journal models a
// dedicated metadata region (NVRAM or a reserved SLC stripe) — appends cost
// no simulated latency and no data-flash wear, so attaching it never perturbs
// an existing run's outputs.
//
// Durability contract:
//  * Records up to `synced_count()` are durable and survive any power loss.
//  * Records past it (the unsynced tail) form the bounded torn-write window:
//    an injected torn write at power loss discards Uniform[1, unsynced]
//    trailing records. A tear can never cross the sync barrier.
//  * `Ftl::SyncJournal()` advances the barrier; the FTL auto-syncs every
//    `Ftl::kJournalMaxUnsynced` appends and on every host Flush().
//  * At capacity the FTL compacts: the journal is rewritten as a minimal
//    description of current state (one kMap per mapped lpo, one kPageState
//    per non-pristine page, three records per mDisk ever created) and the
//    result is fully synced — compaction is itself a durability barrier.
//
// The journal exists only where a power loss can reach the device: only the
// power-loss and restart path (Ftl::SimulatePowerLoss, Ftl::Replay and the
// mDisk table rebuild after it) reads it. An FTL built with
// FtlConfig::journaled = false (FleetSim decides this per fleet, from
// FleetPowerLossPossible) appends nothing, so it never syncs or compacts
// either, its StateDigest hashes the journal position as 0/0, and power loss
// or replay on it aborts.
#ifndef SALAMANDER_FTL_JOURNAL_H_
#define SALAMANDER_FTL_JOURNAL_H_

#include <cstdint>
#include <vector>

namespace salamander {

enum class JournalRecordType : uint8_t {
  kMap = 0,      // a = lpo, b = physical slot (flush success)
  kTrim,         // a = lpo
  kPageState,    // a = fpage, b = PageState ordinal, c = tiredness level
  kBlockRetire,  // a = block (erase-status failure: permanently retired)
  kExtend,       // a = oPages appended to the logical space
  kMdiskCreate,  // a = id, b = first_lpo, c = size, d = level | regen << 8
  kMdiskDrain,   // a = id (grace period opened)
  kMdiskDrop,    // a = id, b = forced (decommission completed)
  kMapFlush,     // a = map page index, b = physical slot of the flushed
                 // L2P map-page image (bounded-L2P mode only). Appended
                 // *unsynced* after the map-page program — the torn-map-page
                 // crash surface: tearing it rolls the map page back to its
                 // previous flash image, which replay patches forward from
                 // the (already durable) delta records.
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kMap;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;
};

class FtlJournal {
 public:
  explicit FtlJournal(uint64_t capacity_records)
      : capacity_(capacity_records) {}

  // Allocates room for `capacity()` records up front, so appends never
  // regrow the record array. ReplaceWith keeps the room when its snapshot
  // was built reserved to capacity.
  void Reserve() { records_.reserve(capacity_); }

  void Append(const JournalRecord& record) {
    records_.push_back(record);
    ++appends_;
  }

  // Marks everything appended so far durable.
  void Sync() {
    if (synced_count_ != records_.size()) {
      synced_count_ = records_.size();
      ++syncs_;
    }
  }

  // Discards up to `n` records from the unsynced tail (torn write at power
  // loss); returns the records actually torn so the caller can mark the
  // affected logical pages rolled back. Never crosses the sync barrier.
  std::vector<JournalRecord> TearTail(uint64_t n) {
    const uint64_t torn = n < unsynced() ? n : unsynced();
    std::vector<JournalRecord> out(records_.end() - torn, records_.end());
    records_.resize(records_.size() - torn);
    torn_records_ += torn;
    return out;
  }

  // Replaces the contents with a compacted snapshot; the result is durable.
  void ReplaceWith(std::vector<JournalRecord> compacted) {
    records_ = std::move(compacted);
    synced_count_ = records_.size();
    ++compactions_;
  }

  const std::vector<JournalRecord>& records() const { return records_; }
  uint64_t size() const { return records_.size(); }
  uint64_t synced_count() const { return synced_count_; }
  uint64_t unsynced() const { return records_.size() - synced_count_; }
  uint64_t capacity() const { return capacity_; }
  bool AtCapacity() const { return records_.size() >= capacity_; }

  uint64_t appends() const { return appends_; }
  uint64_t syncs() const { return syncs_; }
  uint64_t compactions() const { return compactions_; }
  uint64_t torn_records() const { return torn_records_; }

 private:
  uint64_t capacity_;
  std::vector<JournalRecord> records_;
  uint64_t synced_count_ = 0;
  uint64_t appends_ = 0;
  uint64_t syncs_ = 0;
  uint64_t compactions_ = 0;
  uint64_t torn_records_ = 0;
};

}  // namespace salamander

#endif  // SALAMANDER_FTL_JOURNAL_H_
