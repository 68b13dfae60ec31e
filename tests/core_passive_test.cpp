// Tests for the passive pipeline (section 4.2): IXP attribution,
// RS-setter identification cases 1-3, transient filtering, MRT intake.
#include <gtest/gtest.h>

#include "core/passive.hpp"
#include "mrt/table_dump.hpp"

namespace mlp::core {
namespace {

using bgp::Community;
using routeserver::IxpCommunityScheme;
using routeserver::SchemeStyle;

// Two IXPs with distinct schemes; members overlap partially so the
// EXCLUDE-only disambiguation has something to chew on.
std::vector<IxpContext> two_ixps() {
  IxpContext decix;
  decix.name = "DE-CIX";
  decix.scheme =
      IxpCommunityScheme::make("DE-CIX", 6695, SchemeStyle::RsAsnBased);
  decix.rs_members = {10, 20, 30, 40};

  IxpContext mskix;
  mskix.name = "MSK-IX";
  mskix.scheme =
      IxpCommunityScheme::make("MSK-IX", 8631, SchemeStyle::RsAsnBased);
  mskix.rs_members = {10, 20, 50, 60};
  return {decix, mskix};
}

/// Ground-truth relationships for setter case 3: path 99 -> 10 -> 20 where
/// 99 is customer of 10 and 10~20 peer.
bgp::RelFn simple_rels() {
  return [](Asn from, Asn to) -> std::optional<bgp::Rel> {
    if (from == 99 && to == 10) return bgp::Rel::C2P;
    if (from == 10 && to == 99) return bgp::Rel::P2C;
    if ((from == 10 && to == 20) || (from == 20 && to == 10))
      return bgp::Rel::P2P;
    if (from == 20 && to == 30) return bgp::Rel::P2C;
    if (from == 30 && to == 20) return bgp::Rel::C2P;
    return std::nullopt;
  };
}

IpPrefix pfx(const std::string& text) { return *IpPrefix::parse(text); }

TEST(Passive, DirectAttributionByRsAsn) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  // Path E(5) D(10) A(20): two members, setter = 20 (closest to origin);
  // community 6695:6695 pins DE-CIX.
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
                         {Community(6695, 6695)});
  const auto& obs = extractor.observations();
  ASSERT_EQ(obs.count("DE-CIX"), 1u);
  ASSERT_EQ(obs.at("DE-CIX").size(), 1u);
  EXPECT_EQ(obs.at("DE-CIX")[0].setter, 20u);
  EXPECT_EQ(extractor.stats().observations, 1u);
}

TEST(Passive, SharedIndexServesEveryExtractorAndAnEmptySet) {
  // Extractors over one shared index see the index's contexts.
  const auto index = std::make_shared<const AttributionIndex>(
      std::make_shared<const std::vector<IxpContext>>(two_ixps()));
  PassiveExtractor a(index, nullptr);
  PassiveExtractor b(index, nullptr);
  EXPECT_EQ(a.contexts(), index->contexts());
  EXPECT_EQ(b.contexts(), index->contexts());
  a.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
                 {Community(6695, 6695)});
  EXPECT_EQ(a.stats().observations, 1u);

  // No IXPs: rows of zero words, and no community is an RS value.
  PassiveExtractor none(std::vector<IxpContext>{}, nullptr);
  none.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
                    {Community(6695, 6695), Community(0, 10)});
  EXPECT_EQ(none.stats().paths_no_rs_values, 1u);
  EXPECT_THROW(PassiveExtractor(std::shared_ptr<const AttributionIndex>{},
                                nullptr),
               InvalidArgument);
}

TEST(Passive, ExcludeOnlyDisambiguatedByMembership) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  // 0:50 -- AS50 is only a member at MSK-IX, so the EXCLUDE-only set
  // attributes there despite both schemes sharing the 0:peer pattern.
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
                         {Community(0, 50)});
  const auto& obs = extractor.observations();
  EXPECT_EQ(obs.count("DE-CIX"), 0u);
  ASSERT_EQ(obs.count("MSK-IX"), 1u);
  EXPECT_EQ(obs.at("MSK-IX")[0].setter, 20u);
}

TEST(Passive, ExcludeOnlyAmbiguousDropped) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  // 0:10 -- AS10 is a member at both IXPs: unresolvable.
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
                         {Community(0, 10)});
  EXPECT_TRUE(extractor.observations().empty());
  EXPECT_EQ(extractor.stats().paths_ambiguous_ixp, 1u);
}

TEST(Passive, NoRsValues) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
                         {Community(3356, 100)});
  EXPECT_EQ(extractor.stats().paths_no_rs_values, 1u);
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"), {});
  EXPECT_EQ(extractor.stats().paths_no_rs_values, 2u);
}

TEST(Passive, SetterCase1TooFewMembers) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  // Only one RS member (20) in the path: cannot pinpoint the setter.
  extractor.consume_path(bgp::AsPath({5, 7, 20}), pfx("10.0.0.0/16"),
                         {Community(6695, 6695)});
  EXPECT_EQ(extractor.stats().paths_no_setter, 1u);
  EXPECT_TRUE(extractor.observations().empty());
}

TEST(Passive, SetterCase2NonAdjacentMembersRejected) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  // Members 10 and 20 separated by non-member 7: no RS crossing.
  extractor.consume_path(bgp::AsPath({5, 10, 7, 20}), pfx("10.0.0.0/16"),
                         {Community(6695, 6695)});
  EXPECT_EQ(extractor.stats().paths_no_setter, 1u);
}

TEST(Passive, SetterCase3UsesRelationships) {
  PassiveExtractor extractor(two_ixps(), simple_rels());
  // Path 99 10 20 30: members 10, 20, 30 (three members). 10~20 is the
  // p2p step; the setter is 20 (p2p side closest to the prefix).
  extractor.consume_path(bgp::AsPath({99, 10, 20, 30}), pfx("10.0.0.0/16"),
                         {Community(6695, 6695)});
  const auto& obs = extractor.observations();
  ASSERT_EQ(obs.count("DE-CIX"), 1u);
  EXPECT_EQ(obs.at("DE-CIX")[0].setter, 20u);
}

TEST(Passive, SetterCase3FailsWithoutRelationships) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  extractor.consume_path(bgp::AsPath({99, 10, 20, 30}), pfx("10.0.0.0/16"),
                         {Community(6695, 6695)});
  EXPECT_EQ(extractor.stats().paths_no_setter, 1u);
}

TEST(Passive, DirtyPathsDropped) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  extractor.consume_path(bgp::AsPath({5, 10, 5, 20}), pfx("10.0.0.0/16"),
                         {Community(6695, 6695)});  // cycle
  extractor.consume_path(bgp::AsPath({5, 23456, 20}), pfx("10.0.0.0/16"),
                         {Community(6695, 6695)});  // reserved ASN
  EXPECT_EQ(extractor.stats().paths_dirty, 2u);
  EXPECT_TRUE(extractor.observations().empty());
}

TEST(Passive, OnlySchemeCommunitiesRecorded) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  extractor.consume_path(
      bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
      {Community(6695, 6695), Community(3356, 42), Community(0, 30)});
  const auto& obs = extractor.observations().at("DE-CIX");
  ASSERT_EQ(obs.size(), 1u);
  // 3356:42 is unrelated and must not leak into the observation.
  EXPECT_EQ(obs[0].communities.size(), 2u);
  EXPECT_EQ(obs[0].communities[0], Community(6695, 6695));
  EXPECT_EQ(obs[0].communities[1], Community(0, 30));
}

TEST(Passive, TableDumpIntake) {
  // Build a collector RIB with one RS-community-tagged path and parse the
  // genuine MRT bytes end to end.
  bgp::Rib rib;
  bgp::Route route;
  route.prefix = pfx("10.0.0.0/16");
  route.attrs.as_path = bgp::AsPath({5, 10, 20});
  route.attrs.next_hop = 1;
  route.attrs.communities = {Community(6695, 6695)};
  rib.announce(5, 0x0505, route);
  const auto archive = mrt::dump_rib(rib, 1367366400, 1, "bview");

  PassiveExtractor extractor(two_ixps(), nullptr);
  extractor.consume_table_dump(archive);
  EXPECT_EQ(extractor.stats().observations, 1u);
  EXPECT_EQ(extractor.observations().at("DE-CIX")[0].setter, 20u);
}

TEST(Passive, TransientAnnouncementsFiltered) {
  PassiveConfig config;
  config.min_duration_s = 600;
  PassiveExtractor extractor(two_ixps(), nullptr, config);

  std::vector<mrt::ObservedUpdate> updates;
  auto announce = [&](std::uint32_t t, const std::string& prefix) {
    mrt::ObservedUpdate u;
    u.timestamp = t;
    u.peer_asn = 5;
    u.peer_ip = 0x0505;
    u.update.nlri = {pfx(prefix)};
    u.update.attrs.as_path = bgp::AsPath({5, 10, 20});
    u.update.attrs.next_hop = 1;
    u.update.attrs.communities = {Community(6695, 6695)};
    updates.push_back(std::move(u));
  };
  auto withdraw = [&](std::uint32_t t, const std::string& prefix) {
    mrt::ObservedUpdate u;
    u.timestamp = t;
    u.peer_asn = 5;
    u.peer_ip = 0x0505;
    u.update.withdrawn = {pfx(prefix)};
    updates.push_back(std::move(u));
  };

  announce(1000, "10.0.0.0/16");   // withdrawn after 100s: transient
  withdraw(1100, "10.0.0.0/16");
  announce(1000, "10.1.0.0/16");   // withdrawn after 2000s: stable
  withdraw(3000, "10.1.0.0/16");
  announce(5000, "10.2.0.0/16");   // never withdrawn: stable

  const auto archive = mrt::dump_updates(updates, 65000, 1);
  extractor.consume_update_stream(archive);
  EXPECT_EQ(extractor.stats().paths_transient, 1u);
  EXPECT_EQ(extractor.stats().observations, 2u);
}

TEST(Passive, SinkModeStreamsBatchesByDenseIndex) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  std::vector<std::pair<std::size_t, std::size_t>> batches;  // (ixp, size)
  std::size_t during_consume = 0;
  extractor.set_sink(
      [&](std::size_t ixp, std::vector<Observation>&& batch) {
        batches.emplace_back(ixp, batch.size());
      },
      /*batch_size=*/2);

  // Three DE-CIX (dense index 0) observations: a full batch of 2 must be
  // emitted while input is still being consumed, the remainder on
  // finish().
  for (int i = 0; i < 3; ++i) {
    extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
                           {Community(6695, 6695)});
    if (i == 1) during_consume = batches.size();
  }
  EXPECT_EQ(during_consume, 1u);  // emitted mid-stream, not at the end
  // One MSK-IX (dense index 1) observation stays below the batch size.
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.1.0.0/16"),
                         {Community(8631, 8631)});
  extractor.finish();

  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0], (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_EQ(batches[1], (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_EQ(batches[2], (std::pair<std::size_t, std::size_t>{1, 1}));
  EXPECT_EQ(extractor.stats().observations, 4u);
  // The accumulate-mode accessors are off limits in streaming mode.
  EXPECT_THROW(extractor.observations(), InvalidArgument);
}

TEST(Passive, IncrementalUpdatesMatchArchiveConsumption) {
  // consume_update fed message by message must equal consume_update_stream
  // over the serialized archive (same announce-window, same flush).
  PassiveConfig config;
  config.min_duration_s = 600;

  std::vector<mrt::ObservedUpdate> updates;
  auto announce = [&](std::uint32_t t, const std::string& prefix) {
    mrt::ObservedUpdate u;
    u.timestamp = t;
    u.peer_asn = 5;
    u.update.nlri = {pfx(prefix)};
    u.update.attrs.as_path = bgp::AsPath({5, 10, 20});
    u.update.attrs.next_hop = 1;
    u.update.attrs.communities = {Community(6695, 6695)};
    updates.push_back(std::move(u));
  };
  auto withdraw = [&](std::uint32_t t, const std::string& prefix) {
    mrt::ObservedUpdate u;
    u.timestamp = t;
    u.peer_asn = 5;
    u.update.withdrawn = {pfx(prefix)};
    updates.push_back(std::move(u));
  };
  announce(1000, "10.0.0.0/16");
  withdraw(1100, "10.0.0.0/16");   // transient
  announce(1000, "10.1.0.0/16");
  withdraw(3000, "10.1.0.0/16");   // stable
  announce(2000, "10.2.0.0/16");
  announce(2100, "10.2.0.0/16");   // fast re-announcement: transient
  announce(5000, "10.3.0.0/16");   // standing at end: stable

  PassiveExtractor streamed(two_ixps(), nullptr, config);
  const auto archive = mrt::dump_updates(updates, 65000, 1);
  streamed.consume_update_stream(archive);

  PassiveExtractor incremental(two_ixps(), nullptr, config);
  for (const auto& u : updates)
    incremental.consume_update(u.timestamp, u.peer_asn, u.update);
  incremental.finish();

  EXPECT_EQ(streamed.stats().paths_transient,
            incremental.stats().paths_transient);
  EXPECT_EQ(streamed.stats().observations, incremental.stats().observations);
  EXPECT_EQ(streamed.stats().paths_seen, incremental.stats().paths_seen);
  EXPECT_EQ(incremental.stats().paths_transient, 2u);
  EXPECT_EQ(incremental.stats().observations, 3u);
}

TEST(Passive, UpdateStreamToleratesOrphanedRibRecord) {
  // A stray TABLE_DUMP_V2 record (even one with no preceding peer table)
  // must not abort an update ingest, matching the old parse_updates
  // tolerance.
  mrt::MrtWriter w;
  mrt::RibRecord orphan;
  orphan.sequence = 1;
  orphan.prefix = pfx("10.9.0.0/16");
  w.write_rib(1, orphan);
  mrt::Bgp4mpMessage m;
  m.peer_asn = 5;
  m.local_asn = 65000;
  m.four_octet_as = true;
  m.update.nlri = {pfx("10.0.0.0/16")};
  m.update.attrs.as_path = bgp::AsPath({5, 10, 20});
  m.update.attrs.next_hop = 1;
  m.update.attrs.communities = {Community(6695, 6695)};
  w.write_bgp4mp(2, m);

  PassiveExtractor extractor(two_ixps(), nullptr);
  extractor.consume_update_stream(w.data());
  EXPECT_EQ(extractor.stats().observations, 1u);
}

TEST(Passive, BoundedAnnounceWindowEvictsOldest) {
  PassiveConfig config;
  config.min_duration_s = 600;
  config.max_pending_announcements = 2;
  PassiveExtractor extractor(two_ixps(), nullptr, config);

  bgp::UpdateMessage announce;
  announce.attrs.as_path = bgp::AsPath({5, 10, 20});
  announce.attrs.next_hop = 1;
  announce.attrs.communities = {Community(6695, 6695)};

  // Three standing announcements with a window of two: the oldest is
  // evicted through the age test at the third announcement's timestamp.
  announce.nlri = {pfx("10.0.0.0/16")};
  extractor.consume_update(1000, 5, announce);
  announce.nlri = {pfx("10.1.0.0/16")};
  extractor.consume_update(1100, 5, announce);
  announce.nlri = {pfx("10.2.0.0/16")};
  extractor.consume_update(2000, 5, announce);
  // 10.0/16 was evicted at t=2000 with age 1000 >= 600: stable.
  EXPECT_EQ(extractor.stats().observations, 1u);
  EXPECT_EQ(extractor.stats().paths_transient, 0u);

  // A fourth announcement 100s later evicts 10.1/16 at age 1000: stable
  // again; then one 10s later evicts 10.2/16 at age 110 < 600: transient.
  announce.nlri = {pfx("10.3.0.0/16")};
  extractor.consume_update(2100, 5, announce);
  EXPECT_EQ(extractor.stats().observations, 2u);
  announce.nlri = {pfx("10.4.0.0/16")};
  extractor.consume_update(2110, 5, announce);
  EXPECT_EQ(extractor.stats().paths_transient, 1u);

  // The two survivors flush as stable at end of stream.
  extractor.finish();
  EXPECT_EQ(extractor.stats().observations, 4u);
  EXPECT_EQ(extractor.stats().paths_transient, 1u);
}

TEST(Passive, TakeObservationsDrainsAndViewRebuilds) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
                         {Community(6695, 6695)});
  EXPECT_EQ(extractor.observations().at("DE-CIX").size(), 1u);
  // More input after a read: the lazily-built view must refresh.
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.1.0.0/16"),
                         {Community(6695, 6695)});
  EXPECT_EQ(extractor.observations().at("DE-CIX").size(), 2u);
  auto taken = extractor.take_observations();
  EXPECT_EQ(taken.at("DE-CIX").size(), 2u);
  EXPECT_TRUE(extractor.observations().empty());
}

TEST(Passive, MultipleStrongAttributionsBothRecorded) {
  // A route carrying both IXPs' ALL values (member of both, tagging all
  // sessions identically): each IXP receives an observation.
  PassiveExtractor extractor(two_ixps(), nullptr);
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
                         {Community(6695, 6695), Community(8631, 8631)});
  EXPECT_EQ(extractor.observations().count("DE-CIX"), 1u);
  EXPECT_EQ(extractor.observations().count("MSK-IX"), 1u);
}

// ------------------------------------------------------ tolerant mode

/// One attributable BGP4MP update record (path 5 10 20, DE-CIX ALL).
std::vector<std::uint8_t> good_update_record(std::uint32_t timestamp,
                                             const std::string& prefix) {
  mrt::MrtWriter w;
  mrt::Bgp4mpMessage m;
  m.peer_asn = 5;
  m.local_asn = 65000;
  m.four_octet_as = true;
  m.update.nlri = {pfx(prefix)};
  m.update.attrs.as_path = bgp::AsPath({5, 10, 20});
  m.update.attrs.next_hop = 1;
  m.update.attrs.communities = {Community(6695, 6695)};
  w.write_bgp4mp(timestamp, m);
  return w.take();
}

/// good record + garbage + good record + truncated tail.
std::vector<std::uint8_t> corrupted_update_stream() {
  auto data = good_update_record(1000, "10.0.0.0/16");
  data.insert(data.end(), 16, std::uint8_t{0xFF});  // bogus record
  const auto second = good_update_record(2000, "10.1.0.0/16");
  data.insert(data.end(), second.begin(), second.end());
  data.insert(data.end(), 7, std::uint8_t{0});  // truncated header
  return data;
}

TEST(Passive, StrictModeAbortsOnMalformedRecordWithOffset) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  try {
    extractor.consume_update_stream(corrupted_update_stream());
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(extractor.stats().records_malformed, 0u);
}

TEST(Passive, TolerantModeSkipsAndCountsMalformedRecords) {
  PassiveConfig config;
  config.tolerate_malformed = true;
  PassiveExtractor extractor(two_ixps(), nullptr, config);
  extractor.consume_update_stream(corrupted_update_stream());
  // Both well-formed updates made it through the garbage...
  EXPECT_EQ(extractor.stats().paths_seen, 2u);
  EXPECT_EQ(extractor.stats().observations, 2u);
  // ...and the garbage run plus the truncated tail were counted.
  EXPECT_EQ(extractor.stats().records_malformed, 2u);
}

TEST(Passive, TolerantModeTableDumpSkipsBadPeerIndex) {
  // A RIB record referencing a peer index the table does not have: the
  // record is skipped, the rest of the archive still contributes.
  bgp::Rib rib;
  bgp::Route route;
  route.prefix = pfx("10.0.0.0/16");
  route.attrs.as_path = bgp::AsPath({5, 10, 20});
  route.attrs.next_hop = 1;
  route.attrs.communities = {Community(6695, 6695)};
  rib.announce(5, 0x0505, route);
  auto archive = mrt::dump_rib(rib, 1367366400, 1, "bview");

  mrt::MrtWriter bad;
  mrt::RibRecord broken;
  broken.sequence = 2;
  broken.prefix = pfx("10.5.0.0/16");
  mrt::RibEntryRecord entry;
  entry.peer_index = 77;  // out of range
  broken.entries = {entry};
  bad.write_rib(3, broken);
  archive.insert(archive.end(), bad.data().begin(), bad.data().end());

  route.prefix = pfx("10.1.0.0/16");
  bgp::Rib rib2;
  rib2.announce(5, 0x0505, route);
  const auto tail = mrt::dump_rib(rib2, 1367366401, 1, "bview");
  archive.insert(archive.end(), tail.begin(), tail.end());

  PassiveConfig config;
  config.tolerate_malformed = true;
  PassiveExtractor extractor(two_ixps(), nullptr, config);
  extractor.consume_table_dump(archive);
  EXPECT_EQ(extractor.stats().records_malformed, 1u);
  EXPECT_EQ(extractor.stats().observations, 2u);
}

TEST(Passive, StatsMergeIncludesRecordsMalformed) {
  PassiveStats a;
  a.records_malformed = 2;
  PassiveStats b;
  b.records_malformed = 3;
  a += b;
  EXPECT_EQ(a.records_malformed, 5u);
}

TEST(Passive, StatsAccumulate) {
  PassiveExtractor extractor(two_ixps(), nullptr);
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.0.0.0/16"),
                         {Community(6695, 6695)});
  extractor.consume_path(bgp::AsPath({5, 10, 20}), pfx("10.1.0.0/16"), {});
  const auto& stats = extractor.stats();
  EXPECT_EQ(stats.paths_seen, 2u);
  EXPECT_EQ(stats.observations, 1u);
  EXPECT_EQ(stats.paths_no_rs_values, 1u);
}

}  // namespace
}  // namespace mlp::core
