// Attribution index: which IXPs an RS community value belongs to (paper
// section 4.2), answered for every IXP of a context set at once.
//
// A community is attributed to an IXP when that IXP's scheme tags it
// (ALL, NONE, or an EXCLUDE/INCLUDE whose low half decodes to a peer),
// and an IXP stays a candidate only while every peer its communities
// target is one of its RS members. The index stores this incidence
// relation between community values and IXPs as bit rows -- the formal
// context of concept-lattice construction -- with one bit per IXP and
// ceil(N / 64) 64-bit words per row, so any number of IXPs takes the
// same path. Per community, two table lookups and a short exact-value
// scan give three rows:
//
//   high half   the IXPs whose EXCLUDE or INCLUDE high half it is, the
//               IXPs whose RS ASN it spells, and the short list of exact
//               ALL/NONE values under that high half. Sparse: a few keys
//               per IXP, binary-searched.
//   low half    the IXPs where it decodes to a peer, where that peer is
//               an RS member (directly or through an alias), and whose RS
//               ASN it spells. Dense: a 65,536-entry table of 16-bit row
//               ids into a pool of distinct rows.
//
// The index is built once per context set from the member lists and
// alias tables -- one row per touched low half, sorted to share equal
// rows, plus a fill of the 65,536-entry table; no value is classified
// per IXP -- and is immutable afterwards: any number of threads may read
// it at once. It is derived from the contexts alone and is never
// serialized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.hpp"

namespace mlp::core {

class AttributionIndex {
 public:
  /// Build the index of `ixps` (dense IXP index = position in the
  /// vector). Throws InvalidArgument for a null context set.
  explicit AttributionIndex(
      std::shared_ptr<const std::vector<IxpContext>> ixps);

  /// The context set this index was built from.
  const std::shared_ptr<const std::vector<IxpContext>>& contexts() const {
    return ixps_;
  }

  /// 64-bit words per IXP row: ceil(N / 64).
  std::size_t words() const { return words_; }

  /// Relate one community to every IXP. Writes to `tagged` the IXPs whose
  /// scheme tags it, ORs into `vetoed` the tagged IXPs where it targets a
  /// peer that is not an RS member, and ORs into `rs_encoded` the tagged
  /// IXPs whose RS ASN it spells in either half. Each pointer addresses
  /// words() words. Returns whether any IXP tags it; when it returns
  /// false, `vetoed` and `rs_encoded` are unchanged.
  bool match(Community community, std::uint64_t* tagged,
             std::uint64_t* vetoed, std::uint64_t* rs_encoded) const;

  /// Heap bytes held by the index's tables (the contexts excluded).
  std::size_t memory_bytes() const;

 private:
  /// One high-half key. Offsets address words_ rows of pool_.
  struct HighEntry {
    std::uint32_t peer_targeted = 0;  // EXCLUDE or INCLUDE high half
    std::uint32_t rs_asn = 0;         // RS ASN == this high half
    /// Range of this key's exact ALL/NONE values in exact_low_/exact_row_.
    std::uint32_t exact_begin = 0;
    std::uint32_t exact_end = 0;
  };

  std::shared_ptr<const std::vector<IxpContext>> ixps_;
  std::size_t words_ = 0;

  /// Row pool; offset 0 is the all-zero row.
  std::vector<std::uint64_t> pool_;

  std::vector<std::uint16_t> high_key_;  // sorted
  std::vector<HighEntry> high_entry_;    // parallel to high_key_
  std::vector<std::uint16_t> exact_low_;
  std::vector<std::uint32_t> exact_row_;  // pool_ offsets

  /// Low half -> id of its row in low_rows_. A low row is three
  /// consecutive words_-word masks: decodes to a peer, decodes to an RS
  /// member, RS ASN == this low half.
  std::vector<std::uint16_t> low_row_id_;
  std::vector<std::uint64_t> low_rows_;
};

}  // namespace mlp::core
