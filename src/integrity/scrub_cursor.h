// Deterministic background-scrub cursor.
//
// A scrubber walks a flat address space (the diFS's chunk replicas) a fixed
// number of oPages per period. The cursor is plain state — no RNG — so a
// scrub pass is bit-identical across runs and thread counts; following
// §4.3's recovery-wear accounting, scrub reads are real device reads and
// wear flash.
#ifndef SALAMANDER_INTEGRITY_SCRUB_CURSOR_H_
#define SALAMANDER_INTEGRITY_SCRUB_CURSOR_H_

#include <cstdint>

namespace salamander {

// Two-level cursor over (major, minor) positions, e.g. (mdisk, lba) or
// (replica, offset). Wrap-around is the caller's signal that a full pass
// completed.
struct ScrubCursor {
  uint64_t major = 0;
  uint64_t minor = 0;

  // Advances one minor step within `minor_size`, rolling into the next major
  // unit (modulo `major_size`) at the boundary. Returns true when the cursor
  // wrapped back to (0, 0) — one full pass done.
  bool Advance(uint64_t major_size, uint64_t minor_size) {
    if (major_size == 0 || minor_size == 0) {
      major = 0;
      minor = 0;
      return true;
    }
    if (++minor < minor_size) {
      return false;
    }
    minor = 0;
    major = (major + 1) % major_size;
    return major == 0;
  }

  // Skips the rest of the current major unit (e.g. a decommissioned mDisk).
  // Returns true when the cursor wrapped.
  bool SkipMajor(uint64_t major_size) {
    minor = 0;
    if (major_size == 0) {
      major = 0;
      return true;
    }
    major = (major + 1) % major_size;
    return major == 0;
  }
};

}  // namespace salamander

#endif  // SALAMANDER_INTEGRITY_SCRUB_CURSOR_H_
