// Property-based tests: randomised sweeps (TEST_P over seeds) asserting
// the invariants the system's correctness rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "bgp/rib.hpp"
#include "bgp/valley.hpp"
#include "bgp/wire.hpp"
#include "core/engine.hpp"
#include "core/passive.hpp"
#include "mrt/table_dump.hpp"
#include "propagation/routing.hpp"
#include "routeserver/route_server.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace mlp {
namespace {

using bgp::AsPath;
using bgp::Community;
using bgp::IpPrefix;

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ---- Export policies encode/decode losslessly under random schemes.

TEST_P(SeededProperty, ExportPolicyCommunityRoundTrip) {
  Rng rng(GetParam());
  const auto style = rng.chance(0.5)
                         ? routeserver::SchemeStyle::RsAsnBased
                         : routeserver::SchemeStyle::PrivateRangeBased;
  auto scheme = routeserver::IxpCommunityScheme::make(
      "prop", static_cast<bgp::Asn>(rng.uniform(1000, 64000)), style);

  std::vector<bgp::Asn> members;
  for (int i = 0; i < 40; ++i)
    members.push_back(static_cast<bgp::Asn>(rng.uniform(1, 60000)));

  for (int round = 0; round < 20; ++round) {
    const bool allowlist = rng.chance(0.5);
    std::set<bgp::Asn> peers;
    const std::size_t n = rng.uniform(0, 6);
    for (std::size_t k = 0; k < n; ++k) peers.insert(rng.pick(members));
    const routeserver::ExportPolicy policy(
        allowlist ? routeserver::ExportPolicy::Mode::NoneExcept
                  : routeserver::ExportPolicy::Mode::AllExcept,
        peers);
    const auto communities = policy.to_communities(scheme, rng.chance(0.5));
    const auto decoded =
        routeserver::ExportPolicy::from_communities(communities, scheme);
    if (!allowlist && peers.empty()) {
      // Pure default: decodes to nothing or the explicit ALL.
      if (decoded) {
        EXPECT_EQ(*decoded, policy);
      }
    } else {
      ASSERT_TRUE(decoded);
      EXPECT_EQ(*decoded, policy);
    }
    // The decoded policy must agree with the original on every member.
    if (decoded) {
      for (const auto member : members)
        EXPECT_EQ(decoded->allows(member), policy.allows(member));
    }
  }
}

// ---- The inference engine reproduces the route server's ground truth
// when fed the very communities the members announced (precision and
// recall 1.0 with import filters mirroring exports).

TEST_P(SeededProperty, EngineMatchesRouteServerGroundTruth) {
  Rng rng(GetParam() ^ 0xbeef);
  auto scheme = routeserver::IxpCommunityScheme::make(
      "prop", 64321, routeserver::SchemeStyle::RsAsnBased);
  routeserver::RouteServer rs(scheme);

  std::vector<bgp::Asn> members;
  for (int i = 0; i < 25; ++i)
    members.push_back(static_cast<bgp::Asn>(2000 + i));
  for (const auto member : members) rs.connect(member, member);

  core::IxpContext ctx;
  ctx.name = "prop";
  ctx.scheme = scheme;
  ctx.rs_members = {members.begin(), members.end()};
  core::MlpInferenceEngine engine(ctx);

  for (const auto member : members) {
    std::set<bgp::Asn> peers;
    const std::size_t n = rng.uniform(0, 5);
    for (std::size_t k = 0; k < n; ++k) {
      const auto peer = rng.pick(members);
      if (peer != member) peers.insert(peer);
    }
    const routeserver::ExportPolicy policy(
        rng.chance(0.25) ? routeserver::ExportPolicy::Mode::NoneExcept
                         : routeserver::ExportPolicy::Mode::AllExcept,
        peers);
    const std::size_t prefixes = rng.uniform(1, 3);
    for (std::size_t p = 0; p < prefixes; ++p) {
      bgp::Route route;
      route.prefix =
          IpPrefix(0x0A000000 + (static_cast<std::uint32_t>(member) << 12) +
                       (static_cast<std::uint32_t>(p) << 8),
                   24);
      route.attrs.as_path = AsPath({member});
      route.attrs.next_hop = member;
      route.attrs.communities = policy.to_communities(scheme, rng.chance(0.3));
      rs.announce(member, route);

      core::Observation obs;
      obs.setter = member;
      obs.prefix = route.prefix;
      obs.communities = route.attrs.communities;
      engine.add(obs);
    }
  }
  EXPECT_EQ(engine.infer_links(), rs.reciprocal_links());
}

// ---- The bitset reciprocity pass is byte-identical to a naive reference
// implementation of steps 4-5 (per-member allow-sets as node-based
// std::set, pairwise reciprocity by lookup), on randomised scenarios with
// inconsistent per-prefix policies, unobserved members, self-targeted and
// non-member-targeted communities.

TEST_P(SeededProperty, InferLinksMatchesNaiveReference) {
  Rng rng(GetParam() ^ 0xfeed);
  auto scheme = routeserver::IxpCommunityScheme::make(
      "prop", 64321, routeserver::SchemeStyle::RsAsnBased);

  const std::size_t n_members = rng.uniform(20, 60);
  std::vector<bgp::Asn> members;
  for (std::size_t i = 0; i < n_members; ++i)
    members.push_back(static_cast<bgp::Asn>(3000 + 3 * i));

  core::IxpContext ctx;
  ctx.name = "prop";
  ctx.scheme = scheme;
  ctx.rs_members = {members.begin(), members.end()};
  core::MlpInferenceEngine engine(ctx);

  // Per member: 0 prefixes (unobserved) or 1-3 prefixes with independently
  // drawn policies. The reference keeps the raw policy list.
  std::map<bgp::Asn, std::vector<routeserver::ExportPolicy>> truth;
  for (const auto member : members) {
    if (rng.chance(0.25)) continue;  // unobserved
    const std::size_t prefixes = rng.uniform(1, 3);
    for (std::size_t p = 0; p < prefixes; ++p) {
      util::FlatAsnSet peers;
      const std::size_t n_peers = rng.uniform(0, 6);
      for (std::size_t k = 0; k < n_peers; ++k) {
        if (rng.chance(0.15)) {
          peers.insert(member);  // self-targeted: must never self-link
        } else if (rng.chance(0.15)) {
          // Target outside A_RS: ignored by reciprocity either way.
          peers.insert(static_cast<bgp::Asn>(rng.uniform(100, 2000)));
        } else {
          peers.insert(rng.pick(members));
        }
      }
      const routeserver::ExportPolicy policy(
          rng.chance(0.3) ? routeserver::ExportPolicy::Mode::NoneExcept
                          : routeserver::ExportPolicy::Mode::AllExcept,
          peers);
      core::Observation obs;
      obs.setter = member;
      obs.prefix = bgp::IpPrefix(
          0x0A000000 + (static_cast<std::uint32_t>(member) << 12) +
              (static_cast<std::uint32_t>(p) << 8),
          24);
      obs.communities = policy.to_communities(scheme, rng.chance(0.5));
      engine.add(obs);
      // An AllExcept policy with no peers encodes to nothing (or the bare
      // ALL value): the engine records default-open, which allows() agrees
      // with, so the raw policy doubles as the reference.
      truth[member].push_back(policy);
    }
  }

  for (const bool assume_open : {false, true}) {
    // Reference step 4+5 over node-based sets.
    std::map<bgp::Asn, std::set<bgp::Asn>> allow;
    for (const auto member : members) {
      const auto it = truth.find(member);
      if (it == truth.end() && !assume_open) continue;
      std::set<bgp::Asn> allowed;
      for (const auto other : members) {
        if (other == member) continue;
        bool ok = true;
        if (it != truth.end()) {
          for (const auto& policy : it->second)
            if (!policy.allows(other)) ok = false;
        }
        if (ok) allowed.insert(other);
      }
      allow.emplace(member, std::move(allowed));
    }
    std::set<bgp::AsLink> expected;
    for (const auto& [a, allowed_a] : allow) {
      for (const auto& [b, allowed_b] : allow) {
        if (a >= b) continue;
        if (allowed_a.count(b) && allowed_b.count(a))
          expected.insert(bgp::AsLink(a, b));
      }
    }

    const auto inferred = engine.infer_links(assume_open);
    EXPECT_EQ(inferred, expected) << "assume_open=" << assume_open;
    EXPECT_EQ(engine.count_links(assume_open), expected.size())
        << "assume_open=" << assume_open;
  }
}

// ---- The delta-maintained reciprocity bitset equals the from-scratch
// memoisation after EVERY prefix of a shuffled observation sequence:
// once a query materialises the bitset, add() patches it in place, and
// that fast path must never drift from what ensure_derived() would
// rebuild. invalidate_derived() on the twin engine forces the full
// re-memoisation every step.

TEST_P(SeededProperty, IncrementalDeltaMatchesFromScratch) {
  Rng rng(GetParam() ^ 0xde17a);
  auto scheme = routeserver::IxpCommunityScheme::make(
      "prop", 64321, routeserver::SchemeStyle::RsAsnBased);

  const std::size_t n_members = rng.uniform(10, 40);
  std::vector<bgp::Asn> members;
  for (std::size_t i = 0; i < n_members; ++i)
    members.push_back(static_cast<bgp::Asn>(3000 + 3 * i));
  core::IxpContext ctx;
  ctx.name = "prop";
  ctx.scheme = scheme;
  ctx.rs_members = {members.begin(), members.end()};

  const auto random_policy = [&]() {
    util::FlatAsnSet peers;
    const std::size_t n_peers = rng.uniform(0, 6);
    for (std::size_t k = 0; k < n_peers; ++k) {
      if (rng.chance(0.15)) {
        peers.insert(static_cast<bgp::Asn>(rng.uniform(100, 2000)));
      } else {
        peers.insert(rng.pick(members));
      }
    }
    return routeserver::ExportPolicy(
        rng.chance(0.3) ? routeserver::ExportPolicy::Mode::NoneExcept
                        : routeserver::ExportPolicy::Mode::AllExcept,
        peers);
  };

  std::vector<core::Observation> observations;
  for (const auto member : members) {
    if (rng.chance(0.25)) continue;  // unobserved
    const std::size_t prefixes = rng.uniform(1, 3);
    for (std::size_t p = 0; p < prefixes; ++p) {
      core::Observation obs;
      obs.setter = member;
      obs.prefix = bgp::IpPrefix(
          0x0A000000 + (static_cast<std::uint32_t>(member) << 12) +
              (static_cast<std::uint32_t>(p) << 8),
          24);
      obs.communities = random_policy().to_communities(scheme,
                                                       rng.chance(0.5));
      observations.push_back(std::move(obs));
    }
  }
  if (observations.empty()) return;  // nothing to compare this seed
  // Re-announcements of already-queued prefixes with freshly drawn
  // policies exercise the replaced-intersectand branch (N_a rebuild) and
  // the identical-policy no-op branch of add().
  const std::size_t replays = rng.uniform(0, observations.size() / 2);
  for (std::size_t r = 0; r < replays; ++r) {
    core::Observation obs =
        observations[rng.uniform(0, observations.size() - 1)];
    if (rng.chance(0.5))
      obs.communities = random_policy().to_communities(scheme,
                                                       rng.chance(0.5));
    observations.push_back(std::move(obs));
  }
  // Shuffle: the equivalence must hold for ANY add order.
  for (std::size_t i = observations.size(); i > 1; --i)
    std::swap(observations[i - 1], observations[rng.uniform(0, i - 1)]);

  core::MlpInferenceEngine incremental(ctx);
  core::MlpInferenceEngine scratch(ctx);
  // Materialise the incremental engine's bitset up front so every add()
  // below takes the delta path (no member observed yet: no links).
  EXPECT_EQ(incremental.count_links(false), 0u);
  for (std::size_t i = 0; i < observations.size(); ++i) {
    incremental.add(observations[i]);
    scratch.add(observations[i]);
    scratch.invalidate_derived();  // force the full re-memoisation
    for (const bool assume_open : {false, true}) {
      EXPECT_EQ(incremental.infer_links(assume_open),
                scratch.infer_links(assume_open))
          << "after " << i + 1 << " observations, assume_open="
          << assume_open;
      EXPECT_EQ(incremental.count_links(assume_open),
                scratch.count_links(assume_open))
          << "after " << i + 1 << " observations, assume_open="
          << assume_open;
    }
  }
}

// ---- Attribution through the shared AttributionIndex equals the per-IXP
// loop it replaced, on seeded IXP sets of 1 to 130 IXPs (one to three mask
// words) over both scheme styles, with shared RS ASNs, RS ASNs that are
// also member ASNs, aliased and unaliased 32-bit members, aliases of
// non-members and private-range members.

/// The per-IXP attribution loop the index replaced -- every IXP's scheme
/// classifies every community -- followed by consume_path's candidate
/// rules and setter cases 1-3. The reference for the index.
class PerIxpLoopExtractor {
 public:
  PerIxpLoopExtractor(std::vector<core::IxpContext> ixps, bgp::RelFn rels)
      : ixps_(std::move(ixps)),
        rels_(std::move(rels)),
        by_ixp(ixps_.size()) {}

  void consume_path(const AsPath& path, const IpPrefix& prefix,
                    const std::vector<Community>& communities) {
    ++stats.paths_seen;
    if (path.has_cycle() || path.has_reserved_asn()) {
      ++stats.paths_dirty;
      return;
    }
    struct Candidate {
      std::size_t ixp = 0;
      std::vector<Community> communities;
      bool rs_encoded = false;
    };
    std::vector<Candidate> candidates;
    std::size_t strong = 0;
    for (std::size_t index = 0; index < ixps_.size(); ++index) {
      const core::IxpContext& ixp = ixps_[index];
      Candidate candidate;
      candidate.ixp = index;
      bool peers_are_members = true;
      for (const Community community : communities) {
        bgp::Asn peer = 0;
        const auto tag = ixp.scheme.classify(community, &peer);
        if (tag == routeserver::CommunityTag::Unrelated) continue;
        candidate.communities.push_back(community);
        if (ixp.scheme.encodes_rs_asn(community)) candidate.rs_encoded = true;
        if ((tag == routeserver::CommunityTag::Exclude ||
             tag == routeserver::CommunityTag::Include) &&
            !ixp.is_member(peer))
          peers_are_members = false;
      }
      if (candidate.communities.empty() || !peers_are_members) continue;
      if (candidate.rs_encoded) ++strong;
      candidates.push_back(std::move(candidate));
    }
    if (candidates.empty()) {
      ++stats.paths_no_rs_values;
      return;
    }
    if (strong == 0 && candidates.size() > 1) {
      ++stats.paths_ambiguous_ixp;
      return;
    }
    bool attributed = false;
    for (Candidate& candidate : candidates) {
      if (strong > 0 && !candidate.rs_encoded) continue;
      const bgp::Asn setter = setter_of(path, ixps_[candidate.ixp]);
      if (setter == 0) continue;
      core::Observation observation;
      observation.setter = setter;
      observation.prefix = prefix;
      observation.communities = std::move(candidate.communities);
      by_ixp[candidate.ixp].push_back(std::move(observation));
      ++stats.observations;
      attributed = true;
    }
    if (!attributed) ++stats.paths_no_setter;
  }

 private:
  bgp::Asn setter_of(const AsPath& path, const core::IxpContext& ixp) const {
    std::vector<bgp::Asn> asns;
    std::vector<std::size_t> members;
    const AsPath flat = path.deduplicated();
    for (const bgp::Asn asn : flat.asns()) {
      if (ixp.is_member(asn)) members.push_back(asns.size());
      asns.push_back(asn);
    }
    if (members.size() < 2) return 0;
    if (members.size() == 2)
      return members[1] == members[0] + 1 ? asns[members[1]] : 0;
    if (!rels_) return 0;
    bgp::Asn setter = 0;
    for (std::size_t k = 0; k + 1 < members.size(); ++k) {
      if (members[k + 1] != members[k] + 1) continue;
      const auto rel = rels_(asns[members[k]], asns[members[k + 1]]);
      if (!rel || *rel != bgp::Rel::P2P) continue;
      if (setter != 0) return 0;
      setter = asns[members[k + 1]];
    }
    return setter;
  }

  std::vector<core::IxpContext> ixps_;
  bgp::RelFn rels_;

 public:
  std::vector<std::vector<core::Observation>> by_ixp;
  core::PassiveStats stats;
};

std::vector<std::size_t> stats_fields(const core::PassiveStats& stats) {
  return {stats.paths_seen,          stats.paths_dirty,
          stats.paths_transient,     stats.paths_no_rs_values,
          stats.paths_ambiguous_ixp, stats.paths_no_setter,
          stats.observations,        stats.records_malformed,
          stats.peer_session_resets, stats.pending_torn_down};
}

/// A seeded IXP set of `n` IXPs over a shared ASN universe small enough
/// that most community values mean something at several IXPs at once.
std::vector<core::IxpContext> random_ixp_set(Rng& rng, std::size_t n) {
  std::vector<core::IxpContext> ixps;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bgp::Asn> members;
    const std::size_t size = rng.uniform(2, 24);
    for (std::size_t k = 0; k < size; ++k) {
      const double draw = rng.uniform01();
      if (draw < 0.6) {
        members.push_back(static_cast<bgp::Asn>(rng.uniform(1, 60)));
      } else if (draw < 0.75) {
        members.push_back(static_cast<bgp::Asn>(rng.uniform(1, 63000)));
      } else if (draw < 0.85) {  // private range: only an alias reaches it
        members.push_back(static_cast<bgp::Asn>(
            rng.uniform(bgp::kPrivate16First, bgp::kPrivate16Last)));
      } else {
        members.push_back(static_cast<bgp::Asn>(rng.uniform(196608, 196640)));
      }
    }
    bgp::Asn rs = 0;
    const double draw = rng.uniform01();
    if (draw < 0.25 && !ixps.empty()) {
      rs = rng.pick(ixps).scheme.rs_asn();  // shared RS ASN
    } else if (draw < 0.45) {
      const bgp::Asn member = rng.pick(members);
      rs = bgp::is_16bit(member) ? member : 6695;  // RS ASN == a member's
    } else if (draw < 0.55) {
      rs = static_cast<bgp::Asn>(
          rng.uniform(bgp::kPrivate16First, bgp::kPrivate16Last));
    } else {
      rs = static_cast<bgp::Asn>(rng.uniform(1, 80));
    }
    core::IxpContext ixp;
    ixp.name = "ixp" + std::to_string(i);
    ixp.scheme = routeserver::IxpCommunityScheme::make(
        ixp.name, rs,
        rng.chance(0.5) ? routeserver::SchemeStyle::RsAsnBased
                        : routeserver::SchemeStyle::PrivateRangeBased);
    ixp.rs_members = util::FlatAsnSet(members);
    // Alias most 32-bit members, and now and then a 32-bit non-member,
    // into a narrow private window so aliases collide across IXPs.
    std::vector<bgp::Asn> aliased;
    for (const bgp::Asn member : ixp.rs_members)
      if (bgp::is_32bit_only(member) && rng.chance(0.7))
        aliased.push_back(member);
    if (rng.chance(0.3))
      aliased.push_back(static_cast<bgp::Asn>(rng.uniform(196641, 196660)));
    for (const bgp::Asn member : aliased) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto alias = static_cast<std::uint16_t>(
            rng.uniform(bgp::kPrivate16First, bgp::kPrivate16First + 40));
        if (ixp.scheme.decode_peer(alias) || ixp.scheme.encode_peer(member))
          continue;
        ixp.scheme.add_alias(member, alias);
        break;
      }
    }
    ixps.push_back(std::move(ixp));
  }
  return ixps;
}

/// A community list mixing the IXPs' ALL, NONE, EXCLUDE and INCLUDE
/// values -- mostly those of the `home` IXP -- with aliased and unaliased
/// private low halves, RS-ASN halves, well-known values, duplicates and
/// junk.
std::vector<Community> random_communities(
    Rng& rng, const std::vector<core::IxpContext>& ixps,
    const core::IxpContext& home) {
  std::vector<Community> out;
  const std::size_t n = rng.uniform(0, 7);
  for (std::size_t k = 0; k < n; ++k) {
    const auto& scheme = rng.chance(0.7) ? home.scheme : rng.pick(ixps).scheme;
    const auto low = [&]() -> std::uint16_t {
      const double draw = rng.uniform01();
      if (draw < 0.4) {  // a home member, through its alias if it has one
        const auto peer =
            home.scheme.encode_peer(rng.pick(home.rs_members.values()));
        if (peer) return *peer;
      }
      if (draw < 0.65) return static_cast<std::uint16_t>(rng.uniform(1, 60));
      if (draw < 0.9)  // aliased or not, depending on the IXP
        return static_cast<std::uint16_t>(
            rng.uniform(bgp::kPrivate16First, bgp::kPrivate16First + 45));
      return static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
    };
    switch (rng.uniform(0, 8)) {
      case 0:
        out.push_back(scheme.all_community());
        break;
      case 1:
        out.push_back(scheme.none_community());
        break;
      case 2:
        out.push_back(Community(scheme.exclude_high(), low()));
        break;
      case 3:
        out.push_back(Community(scheme.include_high(), low()));
        break;
      case 4:
        out.push_back(Community(
            static_cast<std::uint16_t>(scheme.rs_asn()), low()));
        break;
      case 5:
        out.push_back(rng.chance(0.5) ? bgp::kNoExport : bgp::kNoAdvertise);
        break;
      case 6:
        if (!out.empty()) {
          out.push_back(rng.pick(out));  // duplicate
          break;
        }
        [[fallthrough]];
      default:
        out.push_back(
            Community(static_cast<std::uint16_t>(rng.uniform(0, 0xffff)),
                      static_cast<std::uint16_t>(rng.uniform(0, 0xffff))));
        break;
    }
  }
  return out;
}

TEST_P(SeededProperty, AttributionIndexMatchesPerIxpLoop) {
  Rng rng(GetParam() ^ 0xa771b);
  // Deterministic pseudo-relationships so setter case 3 takes part.
  const bgp::RelFn rels =
      [](bgp::Asn a, bgp::Asn b) -> std::optional<bgp::Rel> {
    switch ((a * 7 + b * 13) % 3) {
      case 0:
        return bgp::Rel::P2P;
      case 1:
        return bgp::Rel::C2P;
      default:
        return std::nullopt;
    }
  };
  for (const std::size_t n : {1, 2, 13, 64, 65, 130}) {
    const auto ixps = random_ixp_set(rng, n);
    PerIxpLoopExtractor reference(ixps, rels);
    core::PassiveExtractor extractor(ixps, rels);
    std::vector<std::vector<core::Observation>> emitted(n);
    extractor.set_sink(
        [&emitted](std::size_t ixp, std::vector<core::Observation>&& batch) {
          for (auto& observation : batch)
            emitted[ixp].push_back(std::move(observation));
        },
        1);

    for (int round = 0; round < 600; ++round) {
      // A path over mostly one home IXP's members, so setters resolve
      // there, carrying mostly that IXP's communities. Prepending is
      // collapsed; a repeat (a cycle) or a private-range member makes the
      // path dirty.
      const core::IxpContext& home = rng.pick(ixps);
      const auto& members = home.rs_members.values();
      std::vector<bgp::Asn> asns;
      const std::size_t length = rng.uniform(1, 5);
      while (asns.size() < length) {
        const bgp::Asn asn = rng.chance(0.85)
                                 ? rng.pick(members)
                                 : static_cast<bgp::Asn>(rng.uniform(1, 60));
        if (std::find(asns.begin(), asns.end(), asn) != asns.end()) continue;
        if (bgp::is_reserved_or_unassigned(asn) && rng.chance(0.8)) continue;
        asns.push_back(asn);
        if (rng.chance(0.1)) asns.push_back(asn);  // prepending
      }
      if (rng.chance(0.05)) asns.push_back(asns.front());  // cycle
      const AsPath path(asns);
      const IpPrefix prefix(
          0x0A000000u + (static_cast<std::uint32_t>(round) << 8), 24);
      const auto communities = random_communities(rng, ixps, home);
      reference.consume_path(path, prefix, communities);
      extractor.consume_path(path, prefix, communities);
    }
    extractor.finish();

    EXPECT_EQ(stats_fields(extractor.stats()), stats_fields(reference.stats))
        << n << " IXPs";
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(emitted[i].size(), reference.by_ixp[i].size())
          << n << " IXPs, IXP " << i;
      for (std::size_t k = 0; k < emitted[i].size(); ++k) {
        const auto& got = emitted[i][k];
        const auto& want = reference.by_ixp[i][k];
        EXPECT_EQ(got.setter, want.setter) << n << " IXPs, IXP " << i;
        EXPECT_EQ(got.prefix, want.prefix) << n << " IXPs, IXP " << i;
        EXPECT_EQ(got.communities, want.communities)
            << n << " IXPs, IXP " << i;
      }
    }
  }
}

// ---- Wire/MRT round trips on randomised inputs.

TEST_P(SeededProperty, UpdateWireRoundTrip) {
  Rng rng(GetParam() ^ 0x77);
  for (int round = 0; round < 25; ++round) {
    bgp::UpdateMessage update;
    const std::size_t path_len = rng.uniform(1, 8);
    std::vector<bgp::Asn> asns;
    for (std::size_t i = 0; i < path_len; ++i)
      asns.push_back(static_cast<bgp::Asn>(rng.uniform(1, 4000000)));
    update.attrs.as_path = AsPath(asns);
    update.attrs.next_hop =
        static_cast<std::uint32_t>(rng.uniform(1, 1u << 31));
    if (rng.chance(0.5)) {
      update.attrs.has_local_pref = true;
      update.attrs.local_pref = static_cast<std::uint32_t>(rng.uniform(0, 500));
    }
    const std::size_t n_comm = rng.uniform(0, 10);
    for (std::size_t i = 0; i < n_comm; ++i)
      update.attrs.communities.push_back(Community(
          static_cast<std::uint16_t>(rng.uniform(0, 0xffff)),
          static_cast<std::uint16_t>(rng.uniform(0, 0xffff))));
    const std::size_t n_nlri = rng.uniform(1, 4);
    for (std::size_t i = 0; i < n_nlri; ++i)
      update.nlri.push_back(
          IpPrefix(static_cast<std::uint32_t>(rng.uniform(0, 0xffffffff)),
                   static_cast<std::uint8_t>(rng.uniform(8, 32))));
    const auto bytes = bgp::encode_update(update, true);
    EXPECT_EQ(bgp::decode_update(bytes, true), update);
  }
}

TEST_P(SeededProperty, MrtRibRoundTrip) {
  Rng rng(GetParam() ^ 0x99);
  bgp::Rib rib;
  const std::size_t n = rng.uniform(5, 40);
  for (std::size_t i = 0; i < n; ++i) {
    bgp::Route route;
    route.prefix =
        IpPrefix(static_cast<std::uint32_t>(rng.uniform(0, 0xffffffff)),
                 static_cast<std::uint8_t>(rng.uniform(8, 28)));
    route.attrs.as_path =
        AsPath({static_cast<bgp::Asn>(rng.uniform(1, 70000)),
                static_cast<bgp::Asn>(rng.uniform(1, 70000))});
    route.attrs.next_hop = 1;
    if (rng.chance(0.7))
      route.attrs.communities.push_back(
          Community(static_cast<std::uint16_t>(rng.uniform(0, 0xffff)),
                    static_cast<std::uint16_t>(rng.uniform(0, 0xffff))));
    rib.announce(static_cast<bgp::Asn>(rng.uniform(1, 70000)),
                 static_cast<std::uint32_t>(rng.uniform(1, 1000)),
                 std::move(route));
  }
  const auto archive = mrt::dump_rib(rib, 7, 9, "prop");
  const bgp::Rib parsed = mrt::parse_rib(archive);
  EXPECT_EQ(parsed.path_count(), rib.path_count());
  for (const auto& prefix : rib.prefixes()) {
    const auto& want = rib.paths(prefix);
    const auto& got = parsed.paths(prefix);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got[i].route, want[i].route);
  }
}

// ---- Every path selected by the propagation model is valley-free, on
// random topologies.

TEST_P(SeededProperty, RoutingPathsAreValleyFree) {
  topology::TopologyParams params;
  params.n_ases = 150;
  params.n_clique = 4;
  Rng rng(GetParam() ^ 0x1234);
  const auto topo = topology::generate_topology(params, rng);
  const auto rel = topo.graph.rel_fn();

  Rng pick(GetParam());
  const auto ases = topo.graph.ases();
  for (int round = 0; round < 6; ++round) {
    const auto origin = pick.pick(ases);
    const auto tree = propagation::compute_routes(topo.graph, origin);
    for (const auto asn : ases) {
      auto path = tree.path_from(asn);
      if (!path) continue;
      EXPECT_TRUE(bgp::is_valley_free(*path, rel))
          << "origin " << origin << " path " << path->to_string();
      EXPECT_EQ(path->origin(), origin);
      EXPECT_EQ(path->head(), asn);
      EXPECT_FALSE(path->has_cycle());
    }
  }
}

// ---- RIB best-path is maximal under the decision process.

TEST_P(SeededProperty, RibBestIsMaximal) {
  Rng rng(GetParam() ^ 0x4242);
  bgp::Rib rib;
  const IpPrefix prefix(0x0A000000, 16);
  const std::size_t n = rng.uniform(2, 10);
  for (std::size_t i = 0; i < n; ++i) {
    bgp::Route route;
    route.prefix = prefix;
    std::vector<bgp::Asn> asns;
    const std::size_t len = rng.uniform(1, 5);
    for (std::size_t k = 0; k < len; ++k)
      asns.push_back(static_cast<bgp::Asn>(rng.uniform(1, 9999)));
    route.attrs.as_path = AsPath(asns);
    route.attrs.next_hop = static_cast<std::uint32_t>(i);
    if (rng.chance(0.5)) {
      route.attrs.has_local_pref = true;
      route.attrs.local_pref = static_cast<std::uint32_t>(rng.uniform(50, 200));
    }
    rib.announce(static_cast<bgp::Asn>(100 + i), static_cast<std::uint32_t>(i),
                 std::move(route));
  }
  const auto best = rib.best(prefix);
  ASSERT_TRUE(best);
  for (const auto& entry : rib.paths(prefix)) {
    EXPECT_FALSE(bgp::Rib::better(entry, *best))
        << "entry from AS" << entry.peer_asn << " beats the chosen best";
  }
}

// ---- Customer cones are monotone: a provider's cone contains each
// customer's cone.

TEST_P(SeededProperty, CustomerConesAreMonotone) {
  topology::TopologyParams params;
  params.n_ases = 120;
  params.n_clique = 4;
  Rng rng(GetParam() ^ 0x5150);
  const auto topo = topology::generate_topology(params, rng);
  for (const auto asn : topo.transits) {
    const auto cone = topo.graph.customer_cone(asn);
    for (const auto customer : topo.graph.customers(asn)) {
      for (const auto member : topo.graph.customer_cone(customer))
        EXPECT_TRUE(cone.count(member))
            << "AS" << member << " in cone of customer AS" << customer
            << " but not of provider AS" << asn;
    }
  }
}

}  // namespace
}  // namespace mlp
