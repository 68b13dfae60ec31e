#include "core/attribution_index.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "util/errors.hpp"

namespace mlp::core {

namespace {

constexpr std::size_t kLowValues = std::size_t{1} << 16;

void set_bit(std::uint64_t* row, std::size_t bit) {
  row[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

}  // namespace

AttributionIndex::AttributionIndex(
    std::shared_ptr<const std::vector<IxpContext>> ixps)
    : ixps_(std::move(ixps)) {
  if (!ixps_) throw InvalidArgument("attribution index: null context set");
  const std::vector<IxpContext>& contexts = *ixps_;
  const std::size_t n = contexts.size();
  words_ = (n + 63) / 64;
  const auto empty_row = [this] {
    return std::vector<std::uint64_t>(words_, 0);
  };

  // ---- High halves: at most four keys per IXP (its EXCLUDE and INCLUDE
  // highs and the highs of its ALL and NONE values); each key also
  // records the IXPs whose RS ASN equals it. A high half that is no key
  // tags no community at any IXP.
  struct HighBuild {
    std::vector<std::uint64_t> peer_targeted;
    std::vector<std::uint64_t> rs_asn;
    std::map<std::uint16_t, std::vector<std::uint64_t>> exact;  // by low
  };
  std::map<std::uint16_t, HighBuild> high;
  const auto high_of = [&](std::uint16_t key) -> HighBuild& {
    const auto [it, fresh] = high.try_emplace(key);
    if (fresh) {
      it->second.peer_targeted = empty_row();
      it->second.rs_asn = empty_row();
    }
    return it->second;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const routeserver::IxpCommunityScheme& scheme = contexts[i].scheme;
    set_bit(high_of(scheme.exclude_high()).peer_targeted.data(), i);
    set_bit(high_of(scheme.include_high()).peer_targeted.data(), i);
    for (const Community value :
         {scheme.all_community(), scheme.none_community()}) {
      auto& exact = high_of(value.high).exact[value.low];
      if (exact.empty()) exact = empty_row();
      set_bit(exact.data(), i);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Asn rs = contexts[i].scheme.rs_asn();
    if (!bgp::is_16bit(rs)) continue;
    const auto it = high.find(static_cast<std::uint16_t>(rs));
    if (it != high.end()) set_bit(it->second.rs_asn.data(), i);
  }

  pool_.assign(words_, 0);  // offset 0: the all-zero row
  const auto intern = [this](const std::vector<std::uint64_t>& row) {
    if (std::all_of(row.begin(), row.end(),
                    [](std::uint64_t word) { return word == 0; }))
      return std::uint32_t{0};
    const auto offset = static_cast<std::uint32_t>(pool_.size());
    pool_.insert(pool_.end(), row.begin(), row.end());
    return offset;
  };
  for (const auto& [key, build] : high) {
    HighEntry entry;
    entry.peer_targeted = intern(build.peer_targeted);
    entry.rs_asn = intern(build.rs_asn);
    entry.exact_begin = static_cast<std::uint32_t>(exact_low_.size());
    for (const auto& [low, row] : build.exact) {
      exact_low_.push_back(low);
      exact_row_.push_back(intern(row));
    }
    entry.exact_end = static_cast<std::uint32_t>(exact_low_.size());
    high_key_.push_back(key);
    high_entry_.push_back(entry);
  }

  // ---- Low halves. Only RS members below the private range, aliases and
  // RS ASNs touch a value; every other value takes one of two default
  // rows: below the private range it decodes to itself at every IXP (a
  // member of none), inside it decodes nowhere. While building,
  // low_row_id_ maps a touched value to its row in `rows`.
  const std::size_t stride = 3 * words_;
  std::vector<std::uint64_t> everyone = empty_row();
  for (std::size_t i = 0; i < n; ++i) set_bit(everyone.data(), i);
  std::vector<std::uint64_t> rows;            // `stride` words per row
  std::vector<std::uint16_t> touched_values;  // in touch order, row by row
  std::vector<bool> touched(kLowValues);
  std::size_t touched_public = 0;
  low_row_id_.assign(kLowValues, 0);
  const auto touch = [&](std::uint16_t value) {
    if (!touched[value]) {
      touched[value] = true;
      low_row_id_[value] = static_cast<std::uint16_t>(touched_values.size());
      touched_values.push_back(value);
      rows.resize(rows.size() + stride, 0);
      if (value < bgp::kPrivate16First) {
        ++touched_public;
        std::copy(everyone.begin(), everyone.end(),
                  rows.end() - static_cast<std::ptrdiff_t>(stride));
      }
    }
    return rows.data() + std::size_t{low_row_id_[value]} * stride;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const IxpContext& ixp = contexts[i];
    for (const Asn member : ixp.rs_members) {
      if (member >= bgp::kPrivate16First) break;  // sorted ascending
      set_bit(touch(static_cast<std::uint16_t>(member)) + words_, i);
    }
    for (const auto& [member, alias] : ixp.scheme.aliases()) {
      std::uint64_t* row = touch(alias);
      set_bit(row, i);
      if (ixp.is_member(member)) set_bit(row + words_, i);
    }
    const Asn rs = ixp.scheme.rs_asn();
    if (bgp::is_16bit(rs))
      set_bit(touch(static_cast<std::uint16_t>(rs)) + 2 * words_, i);
  }
  // A default row joins the touched rows only when some value takes it,
  // so at most 65,536 distinct rows exist and 16-bit ids hold them all.
  const std::size_t public_values = bgp::kPrivate16First;
  const std::size_t touched_private = touched_values.size() - touched_public;
  const bool public_default = touched_public < public_values;
  const bool private_default = touched_private < kLowValues - public_values;
  const std::size_t public_row = touched_values.size();
  const std::size_t private_row = public_row + (public_default ? 1 : 0);
  const std::size_t row_count = private_row + (private_default ? 1 : 0);
  if (public_default) {
    rows.resize(rows.size() + stride, 0);
    std::copy(everyone.begin(), everyone.end(),
              rows.end() - static_cast<std::ptrdiff_t>(stride));
  }
  if (private_default) rows.resize(rows.size() + stride, 0);

  // Intern distinct rows: sort row numbers by content and give each run
  // of equal rows one id.
  const auto row_at = [&](std::size_t row) {
    return rows.data() + row * stride;
  };
  std::vector<std::uint32_t> order(row_count);
  for (std::size_t r = 0; r < row_count; ++r)
    order[r] = static_cast<std::uint32_t>(r);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return std::lexicographical_compare(
                  row_at(a), row_at(a) + stride, row_at(b),
                  row_at(b) + stride);
            });
  std::vector<std::uint16_t> id_of(row_count);
  std::size_t ids = 0;
  for (std::size_t k = 0; k < row_count; ++k) {
    const std::uint64_t* row = row_at(order[k]);
    if (k == 0 || !std::equal(row, row + stride, row_at(order[k - 1]))) {
      low_rows_.insert(low_rows_.end(), row, row + stride);
      ++ids;
    }
    id_of[order[k]] = static_cast<std::uint16_t>(ids - 1);
  }

  if (public_default)
    std::fill(low_row_id_.begin(), low_row_id_.begin() + public_values,
              id_of[public_row]);
  if (private_default)
    std::fill(low_row_id_.begin() + public_values, low_row_id_.end(),
              id_of[private_row]);
  for (std::size_t k = 0; k < touched_values.size(); ++k)
    low_row_id_[touched_values[k]] = id_of[k];
}

bool AttributionIndex::match(Community community, std::uint64_t* tagged,
                             std::uint64_t* vetoed,
                             std::uint64_t* rs_encoded) const {
  const auto key =
      std::lower_bound(high_key_.begin(), high_key_.end(), community.high);
  if (key == high_key_.end() || *key != community.high) return false;
  const HighEntry& high = high_entry_[static_cast<std::size_t>(
      key - high_key_.begin())];

  std::uint32_t exact = 0;
  const auto exact_first = exact_low_.begin() + high.exact_begin;
  const auto exact_last = exact_low_.begin() + high.exact_end;
  const auto hit = std::lower_bound(exact_first, exact_last, community.low);
  if (hit != exact_last && *hit == community.low)
    exact = exact_row_[static_cast<std::size_t>(hit - exact_low_.begin())];

  const std::uint64_t* all_none = pool_.data() + exact;
  const std::uint64_t* peer_high = pool_.data() + high.peer_targeted;
  const std::uint64_t* rs_high = pool_.data() + high.rs_asn;
  const std::uint64_t* decodes =
      low_rows_.data() + std::size_t{low_row_id_[community.low]} * 3 * words_;
  const std::uint64_t* member = decodes + words_;
  const std::uint64_t* rs_low = decodes + 2 * words_;
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    // An exact ALL/NONE value wins over the EXCLUDE/INCLUDE reading of the
    // same bits, as in the scheme's own classification: at an RS-ASN-style
    // IXP, NONE (0:rs) would otherwise read as EXCLUDE of the RS.
    const std::uint64_t targeted = peer_high[w] & decodes[w] & ~all_none[w];
    const std::uint64_t tags = all_none[w] | targeted;
    tagged[w] = tags;
    vetoed[w] |= targeted & ~member[w];
    rs_encoded[w] |= tags & (rs_high[w] | rs_low[w]);
    any |= tags;
  }
  return any != 0;
}

std::size_t AttributionIndex::memory_bytes() const {
  return pool_.capacity() * sizeof(std::uint64_t) +
         high_key_.capacity() * sizeof(std::uint16_t) +
         high_entry_.capacity() * sizeof(HighEntry) +
         exact_low_.capacity() * sizeof(std::uint16_t) +
         exact_row_.capacity() * sizeof(std::uint32_t) +
         low_row_id_.capacity() * sizeof(std::uint16_t) +
         low_rows_.capacity() * sizeof(std::uint64_t);
}

}  // namespace mlp::core
