// Persistent spatio-temporal index over a blocked trajectory store
// (DESIGN.md §17). The index is each object's full block-summary table;
// range/corridor queries scan those summaries for candidate blocks and
// decode only those, and kNN pruning and time-window queries run off the
// same tables without touching payloads. The scan costs O(total blocks),
// independent of how far a block or a query box spans.
//
// On-disk format (index.stidx, written by the segment store at
// checkpoint):
//
//   magic "STIX" | version u8=1 | cell size double (reserved) | object
//   count varint
//   | per object: id len varint | id bytes | point count varint
//     | payload crc32 (4 bytes LE) | block count varint | summary table
//     (block_summary.h)
//   | crc32 (4 bytes, LE, over everything before it)
//
// The cell size field is reserved: written as 250.0 and validated on
// load (finite, > 0) so existing images keep their bytes. Matches()
// compares object ids, point counts and payload CRCs against a live
// store, so a stale index (even one with identical counts) is detected
// and rebuilt instead of silently serving wrong candidates.

#ifndef STCOMP_STORE_ST_INDEX_H_
#define STCOMP_STORE_ST_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/geom/geometry.h"
#include "stcomp/store/block_summary.h"
#include "stcomp/store/trajectory_store.h"

namespace stcomp {

class SpatioTemporalIndex {
 public:
  struct ObjectEntry {
    std::string id;
    uint64_t num_points = 0;
    uint32_t payload_crc = 0;  // Crc32 of the encoded payload.
    std::vector<BlockSummary> blocks;
  };

  // A candidate: objects()[object].blocks[block].
  struct Posting {
    uint32_t object = 0;
    uint32_t block = 0;
    friend bool operator==(const Posting& a, const Posting& b) {
      return a.object == b.object && a.block == b.block;
    }
    friend bool operator<(const Posting& a, const Posting& b) {
      return a.object != b.object ? a.object < b.object : a.block < b.block;
    }
  };

  // Snapshots `store` into a fresh index.
  static SpatioTemporalIndex BuildFromStore(const TrajectoryStore& store);

  const std::vector<ObjectEntry>& objects() const { return objects_; }

  // Sorted postings whose block summaries overlap both [t0, t1] and
  // `box`: every returned block really overlaps, and every block that
  // overlaps is returned. An infinite box selects on time alone.
  std::vector<Posting> CandidateBlocks(const BoundingBox& box, double t0,
                                       double t1) const;

  // The STIX byte image (header comment). Deterministic for a given
  // logical content.
  std::string SerializeToString() const;

  // Parses and validates a STIX image; kDataLoss on any corruption (bad
  // magic/version/CRC, invalid summaries, duplicate or unordered ids,
  // non-positive cell size).
  static Result<SpatioTemporalIndex> LoadFromBuffer(std::string_view data);

  // True when this index exactly describes `store`'s current contents:
  // same object ids in order, same point counts, same payload CRCs.
  bool Matches(const TrajectoryStore& store) const;

 private:
  std::vector<ObjectEntry> objects_;  // Ascending by id (store map order).
};

}  // namespace stcomp

#endif  // STCOMP_STORE_ST_INDEX_H_
