#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "mrt/table_dump.hpp"
#include "stream/bmp_framer.hpp"
#include "stream/decoder.hpp"
#include "stream/framer.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace mlp;

namespace {

constexpr std::uint32_t kDumpTime = 1367366400;  // 2013-05-01, the paper's month

/// Seeded Fisher-Yates shuffle of [first, last).
template <typename It>
void shuffle(It first, It last, Rng& rng) {
  for (auto n = static_cast<std::size_t>(last - first); n > 1; --n)
    std::swap(first[n - 1], first[rng.uniform(0, n - 1)]);
}

/// Re-stamp an update dump in a seeded order with stream time that
/// advances by one second every `per_second` records, keeping at most
/// `limit` records. The scenario's dump stamps every record with one
/// time, under which the watermark merge could drain nothing before the
/// feeds close.
std::vector<std::uint8_t> restamp(std::span<const std::uint8_t> dump,
                                  std::size_t limit, std::size_t per_second,
                                  bgp::Asn collector_asn, Rng& rng) {
  auto updates = mrt::parse_updates(dump);
  shuffle(updates.begin(), updates.end(), rng);
  if (updates.size() > limit) updates.resize(limit);
  for (std::size_t k = 0; k < updates.size(); ++k)
    updates[k].timestamp =
        kDumpTime + static_cast<std::uint32_t>(k / per_second);
  return mrt::dump_updates(updates, collector_asn, 0xC0000201);
}

/// The same TABLE_DUMP_V2 dump with its RIB records in a seeded order
/// (the PEER_INDEX_TABLE stays first).
std::vector<std::uint8_t> shuffle_dump(std::span<const std::uint8_t> dump,
                                       Rng& rng) {
  auto records = mrt::decode_all(dump);
  if (records.size() > 1) shuffle(records.begin() + 1, records.end(), rng);
  mrt::MrtWriter writer;
  for (const auto& record : records) {
    if (const auto* table = std::get_if<mrt::PeerIndexTable>(&record.body))
      writer.write_peer_index(record.timestamp, *table);
    else if (const auto* rib = std::get_if<mrt::RibRecord>(&record.body))
      writer.write_rib(record.timestamp, *rib);
  }
  return writer.take();
}

FeedInput make_feed(std::string name, pipeline::Transport transport,
                    std::vector<std::uint8_t> mrt, std::size_t records) {
  FeedInput feed;
  feed.name = std::move(name);
  feed.transport = transport;
  feed.bytes = transport == pipeline::Transport::Bmp
                   ? stream::bmp_wrap_updates(mrt)
                   : mrt;
  feed.mrt = std::move(mrt);
  feed.units = split_units(feed.bytes, transport);
  feed.records = records;
  return feed;
}

}  // namespace

std::vector<Unit> split_units(const std::vector<std::uint8_t>& bytes,
                              pipeline::Transport transport) {
  // A unit starts where the transport's own framer starts a record (MRT)
  // or a session event (BMP). Messages the BMP framer steps over
  // (Initiation, Termination) ride with the unit before them, or with the
  // first unit.
  std::vector<Unit> units;
  std::size_t buffered = 0;
  if (transport == pipeline::Transport::RawMrt) {
    stream::MrtFramer framer;
    stream::UpdateDecoder decoder;
    framer.feed(bytes);
    while (const auto record = framer.next()) {
      const auto* view = decoder.decode(*record);
      const std::uint32_t ts =
          view != nullptr ? view->timestamp
                          : (units.empty() ? 0 : units.back().ts);
      units.push_back(
          Unit{static_cast<std::uint32_t>(framer.last_record_offset()), 0, ts});
    }
    buffered = framer.buffered();
  } else {
    stream::BmpFramer framer;
    framer.feed(bytes);
    while (const auto event = framer.next())
      units.push_back(
          Unit{static_cast<std::uint32_t>(framer.last_message_offset()), 0,
               event->peer.timestamp});
    buffered = framer.buffered();
  }
  if (buffered != 0)
    throw std::runtime_error("split_units: trailing partial unit");
  if (!units.empty()) units.front().offset = 0;
  for (std::size_t k = 0; k < units.size(); ++k)
    units[k].length =
        (k + 1 < units.size() ? units[k + 1].offset
                              : static_cast<std::uint32_t>(bytes.size())) -
        units[k].offset;
  return units;
}

std::vector<Send> interleave(const std::vector<FeedInput>& feeds) {
  std::vector<Send> out;
  for (std::uint32_t f = 0; f < feeds.size(); ++f)
    for (std::uint32_t u = 0; u < feeds[f].units.size(); ++u)
      out.push_back(Send{f, u});
  std::stable_sort(out.begin(), out.end(), [&](const Send& a, const Send& b) {
    const auto ta = feeds[a.feed].units[a.unit].ts;
    const auto tb = feeds[b.feed].units[b.unit].ts;
    if (ta != tb) return ta < tb;
    return a.feed < b.feed;
  });
  return out;
}

scenario::ScenarioParams roster_params() {
  scenario::ScenarioParams params;
  params.topology.n_ases = 1500;
  params.membership_scale = 0.3;
  return params;
}

ArchiveInputs make_archive_inputs(std::uint64_t seed) {
  scenario::Scenario s(roster_params());
  Rng rng(seed * 2654435761ULL + 11);
  ArchiveInputs in;
  in.ixps = s.ixp_contexts();
  for (const auto& ixp : s.ixps()) in.truth.push_back(ixp.rs_links);
  for (auto& collector : s.collectors()) {
    in.dumps.push_back(std::make_shared<const std::vector<std::uint8_t>>(
        shuffle_dump(collector.table_dump(kDumpTime), rng)));
    for (const auto& prefix : collector.rib().prefixes())
      in.entries += collector.rib().paths(prefix).size();
  }
  auto& first = s.collectors().front();
  std::size_t records = 0;
  for (const auto& prefix : first.rib().prefixes())
    records += first.rib().paths(prefix).size();
  in.replay = make_feed(first.name(), pipeline::Transport::RawMrt,
                        first.update_dump(kDumpTime), records);
  return in;
}

LiveInputs make_feeds_inputs(std::uint64_t seed, std::size_t records_per_feed) {
  scenario::Scenario s(roster_params());
  Rng rng(seed * 2654435761ULL + 13);
  LiveInputs in;
  in.ixps = s.ixp_contexts();
  in.rels = std::make_shared<topology::InferredRelationships>(
      topology::infer_relationships(s.collector_paths()));
  // A bounded announce-window settles announcements while the stream
  // flows (the dumps announce every route once and never withdraw).
  in.passive.max_pending_announcements = 1024;
  auto& collectors = s.collectors();
  // Both feeds carry the same number of records, so they span the same
  // stream time: a feed that ran dry while still open would hold the
  // merge frontier until close.
  for (std::size_t c = 0; c < 2 && c < collectors.size(); ++c) {
    std::size_t entries = 0;
    for (const auto& prefix : collectors[c].rib().prefixes())
      entries += collectors[c].rib().paths(prefix).size();
    records_per_feed = std::min(records_per_feed, entries);
  }
  for (std::size_t c = 0; c < 2 && c < collectors.size(); ++c) {
    auto bytes = restamp(collectors[c].update_dump(kDumpTime),
                         records_per_feed, 50, collectors[c].asn(), rng);
    const std::size_t records =
        split_units(bytes, pipeline::Transport::RawMrt).size();
    const bool bmp = c == 1;
    in.feeds.push_back(make_feed(collectors[c].name() + (bmp ? "-bmp" : ""),
                                 bmp ? pipeline::Transport::Bmp
                                     : pipeline::Transport::RawMrt,
                                 std::move(bytes), records));
    in.records += records;
  }
  in.schedule = interleave(in.feeds);
  return in;
}

LiveInputs make_bigrs_inputs(std::uint64_t seed, std::size_t records) {
  Rng rng(0xB16B5ULL * 1000003ULL + seed);
  const scenario::ScenarioParams params;
  // The two largest IXPs of the paper roster (table 2's member counts),
  // scaled four-fold to about two thousand RS members each.
  constexpr double kScale = 4;
  auto roster = scenario::paper_ixp_roster();
  std::stable_sort(roster.begin(), roster.end(),
                   [](const auto& a, const auto& b) {
                     return a.size_weight > b.size_weight;
                   });
  roster.resize(2);

  // Distinct 16-bit public ASNs (no reserved ones: paths holding those
  // are dropped as dirty). Eight collector feeders sit at both IXPs; the
  // other members are drawn per IXP, so the two overlap by chance.
  std::vector<bgp::Asn> pool;
  for (bgp::Asn a = 1000; a < 60000; ++a)
    if (a != 23456) pool.push_back(a);
  shuffle(pool.begin(), pool.end(), rng);
  const std::vector<bgp::Asn> feeders(pool.begin(), pool.begin() + 8);
  pool.erase(pool.begin(), pool.begin() + 8);

  LiveInputs in;
  std::vector<std::vector<bgp::Asn>> members(2);
  for (std::size_t x = 0; x < 2; ++x) {
    const auto n = static_cast<std::size_t>(roster[x].size_weight * kScale);
    shuffle(pool.begin(), pool.end(), rng);
    members[x].assign(pool.begin(), pool.begin() + (n - feeders.size()));
    members[x].insert(members[x].end(), feeders.begin(), feeders.end());
    std::sort(members[x].begin(), members[x].end());
    in.ixps.push_back(core::IxpContext{
        roster[x].name,
        routeserver::IxpCommunityScheme::make(
            roster[x].name, static_cast<bgp::Asn>(64000 + x), roster[x].style),
        util::FlatAsnSet(members[x])});
  }

  // Every RS member but the feeders announces (as every RS member of the
  // scenario does). Its peering policy is drawn as the scenario draws it:
  // the section 5.2 mix (frac_open, frac_selective, rest restrictive)
  // weighted by each policy's route-server opt-in, and the explicit ALL
  // community with explicit_all_prob.
  enum class Policy { Open, Selective, Restrictive };
  struct Setter {
    std::size_t ixp;
    bgp::Asn asn;
    Policy policy;
    bool explicit_all;
    std::uint32_t slot;  // unique prefix slot
  };
  const std::vector<double> policy_weights = {
      params.frac_open * params.rs_optin_open,
      params.frac_selective * params.rs_optin_selective,
      (1 - params.frac_open - params.frac_selective) *
          params.rs_optin_restrictive};
  std::vector<Setter> setters;
  for (std::size_t x = 0; x < 2; ++x)
    for (const bgp::Asn asn : members[x]) {
      if (std::find(feeders.begin(), feeders.end(), asn) != feeders.end())
        continue;
      const auto policy = static_cast<Policy>(rng.weighted_index(policy_weights));
      const bool explicit_all = rng.chance(params.explicit_all_prob);
      setters.push_back(Setter{x, asn, policy, explicit_all,
                               static_cast<std::uint32_t>(setters.size())});
    }

  // Every announcement redraws its setter's export policy under
  // ScenarioBuilder::draw_export_policy's rules: open members exclude each
  // other member with probability 0.4/n; selective ones 55% of the time
  // exclude each with probability 0.05, otherwise allow 1..max(2, n/10)
  // members; restrictive ones allow 1..4. The scenario's extra exclusions
  // of content peers, customers and the customer cone need a topology this
  // feed does not have.
  std::vector<std::vector<bgp::Asn>> scratch = members;
  auto draw_policy = [&](const Setter& setter) {
    auto& others = scratch[setter.ixp];
    const std::size_t n = others.size();
    std::vector<bgp::Asn> peers;
    auto each_with = [&](double p) {  // Bernoulli(p) per member, by skips
      const double log_q = std::log1p(-p);
      for (double pos = -1;;) {
        pos += 1 + std::floor(std::log(1 - rng.uniform01()) / log_q);
        if (pos >= static_cast<double>(n)) break;
        const bgp::Asn peer = others[static_cast<std::size_t>(pos)];
        if (peer != setter.asn) peers.push_back(peer);
      }
      return routeserver::ExportPolicy::Mode::AllExcept;
    };
    auto some = [&](std::size_t lo, std::size_t hi) {  // distinct members
      const std::size_t want = rng.uniform(lo, std::min(hi, n - 1));
      for (std::size_t k = 0; peers.size() < want; ++k) {
        std::swap(others[k], others[rng.uniform(k, n - 1)]);
        if (others[k] != setter.asn) peers.push_back(others[k]);
      }
      return routeserver::ExportPolicy::Mode::NoneExcept;
    };
    routeserver::ExportPolicy::Mode mode;
    switch (setter.policy) {
      case Policy::Open:
        mode = each_with(0.4 / static_cast<double>(n));
        break;
      case Policy::Selective:
        mode = rng.chance(0.55)
                   ? each_with(0.05)
                   : some(1, std::max<std::size_t>(2, n / 10));
        break;
      default:
        mode = some(1, 4);
        break;
    }
    return routeserver::ExportPolicy(mode, util::FlatAsnSet(std::move(peers)))
        .to_communities(in.ixps[setter.ixp].scheme, setter.explicit_all);
  };

  // Neither the paper nor the scenario gives a churn rate; one
  // announcement in 20 goes to a second prefix of its setter and is
  // withdrawn three records later.
  constexpr double kQuickWithdrawal = 0.05;
  std::vector<mrt::ObservedUpdate> updates;
  std::multimap<std::size_t, mrt::ObservedUpdate> withdrawals;
  auto stamp = [&](std::size_t k) {
    return kDumpTime + static_cast<std::uint32_t>(k / 20);
  };
  while (updates.size() < records) {
    if (auto it = withdrawals.find(updates.size()); it != withdrawals.end()) {
      it->second.timestamp = stamp(updates.size());
      updates.push_back(std::move(it->second));
      withdrawals.erase(it);
      continue;
    }
    const Setter& setter = setters[rng.uniform(0, setters.size() - 1)];
    const bgp::Asn feeder = feeders[setter.asn % feeders.size()];
    mrt::ObservedUpdate u;
    u.timestamp = stamp(updates.size());
    u.peer_asn = feeder;
    u.peer_ip = 0x0A0A0000 + static_cast<std::uint32_t>(setter.asn % 8);
    u.update.attrs.as_path = bgp::AsPath{feeder, setter.asn};
    u.update.attrs.next_hop = u.peer_ip;
    u.update.attrs.communities = draw_policy(setter);
    const bool quick = rng.chance(kQuickWithdrawal);
    const std::uint32_t base = quick ? 11u << 24 : 10u << 24;
    const bgp::IpPrefix prefix(base | setter.slot << 8, 24);
    u.update.nlri = {prefix};
    if (quick) {
      mrt::ObservedUpdate w;
      w.peer_asn = u.peer_asn;
      w.peer_ip = u.peer_ip;
      w.update.withdrawn = {prefix};
      withdrawals.emplace(updates.size() + 3, std::move(w));
    }
    updates.push_back(std::move(u));
  }
  auto bytes = mrt::dump_updates(updates, 6447, 0xC0000201);
  in.records = updates.size();
  in.feeds.push_back(
      make_feed("bigrs", pipeline::Transport::RawMrt, std::move(bytes),
                updates.size()));
  in.schedule = interleave(in.feeds);
  return in;
}

int self_test() {
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  auto bytes_of = [](const LiveInputs& in) {
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto& feed : in.feeds) out.push_back(feed.bytes);
    return out;
  };
  const auto big1 = bytes_of(make_bigrs_inputs(1, 3000));
  check(big1 == bytes_of(make_bigrs_inputs(1, 3000)),
        "live-bigrs: same seed gives byte-identical inputs");
  check(big1 != bytes_of(make_bigrs_inputs(2, 3000)),
        "live-bigrs: another seed gives different inputs");
  const auto feeds1 = make_feeds_inputs(1, 2000);
  check(bytes_of(feeds1) == bytes_of(make_feeds_inputs(1, 2000)),
        "live-feeds: same seed gives byte-identical inputs");
  check(bytes_of(feeds1) != bytes_of(make_feeds_inputs(2, 2000)),
        "live-feeds: another seed gives different inputs");
  // Stream time must advance, or the watermark merge drains nothing
  // before the feeds close.
  const auto& units = feeds1.feeds[0].units;
  check(units.size() > 100 && units.back().ts > units.front().ts,
        "live-feeds: re-stamped records advance in stream time");
  auto dumps_of = [](const ArchiveInputs& in) {
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto& d : in.dumps) out.push_back(*d);
    return out;
  };
  const auto arch1 = dumps_of(make_archive_inputs(1));
  check(arch1 == dumps_of(make_archive_inputs(1)),
        "archive: same seed gives byte-identical inputs");
  check(arch1 != dumps_of(make_archive_inputs(2)),
        "archive: another seed gives different inputs");
  return failures;
}

}  // namespace perfbench
