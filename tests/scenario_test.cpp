// Integration tests: the full synthetic ecosystem, end to end against the
// paper's pipelines. The key property is the conservative-correctness
// guarantee: inferred links are exactly the ground-truth multilateral
// links when coverage is complete, and a subset when it is not.
#include <gtest/gtest.h>

#include "core/active.hpp"
#include "core/engine.hpp"
#include "core/passive.hpp"
#include "core/reciprocity.hpp"
#include "core/validation.hpp"
#include "scenario/scenario.hpp"

namespace mlp::scenario {
namespace {

ScenarioParams small_params(std::uint64_t seed = 42) {
  ScenarioParams params;
  params.topology.n_ases = 400;
  params.topology.n_clique = 6;
  params.membership_scale = 0.10;
  params.member_lgs = 10;
  params.feeds_per_collector = 15;
  params.seed = seed;
  return params;
}

class ScenarioTest : public ::testing::Test {
 protected:
  static Scenario& instance() {
    static Scenario scenario(small_params());
    return scenario;
  }
};

TEST_F(ScenarioTest, BuildsThirteenIxps) {
  auto& s = instance();
  EXPECT_EQ(s.ixps().size(), 13u);
  for (const auto& ixp : s.ixps()) {
    EXPECT_GE(ixp.members.size(), 8u) << ixp.spec.name;
    EXPECT_FALSE(ixp.rs_members.empty()) << ixp.spec.name;
    EXPECT_LE(ixp.rs_members.size(), ixp.members.size());
    // Roughly 60-90% of members connect to the route server (paper: 73%
    // on average).
    const double ratio = static_cast<double>(ixp.rs_members.size()) /
                         static_cast<double>(ixp.members.size());
    EXPECT_GT(ratio, 0.35) << ixp.spec.name;
  }
}

TEST_F(ScenarioTest, GroundTruthLinksExist) {
  auto& s = instance();
  const auto all = s.all_rs_links();
  EXPECT_GT(all.size(), 100u);
  // Every ground-truth link connects two RS members of some IXP.
  for (const auto& ixp : s.ixps()) {
    for (const auto& link : ixp.rs_links) {
      EXPECT_TRUE(ixp.rs_members.count(link.a));
      EXPECT_TRUE(ixp.rs_members.count(link.b));
    }
  }
}

TEST_F(ScenarioTest, GroundTruthMatchesExportPolicies) {
  auto& s = instance();
  const auto& ixp = s.ixps().front();
  // Spot-check reciprocity of the ground truth on a few pairs.
  std::size_t checked = 0;
  for (const Asn a : ixp.rs_members) {
    for (const Asn b : ixp.rs_members) {
      if (a >= b || checked > 500) break;
      ++checked;
      const bool expected = ixp.exports.at(a).allows(b) &&
                            ixp.exports.at(b).allows(a) &&
                            ixp.imports.at(a).allows(b) &&
                            ixp.imports.at(b).allows(a);
      EXPECT_EQ(ixp.rs_links.count(AsLink(a, b)) != 0, expected)
          << "pair " << a << "-" << b;
    }
  }
}

TEST_F(ScenarioTest, ActiveSurveyRecoversGroundTruthExactly) {
  auto& s = instance();
  for (std::size_t i = 0; i < s.ixps().size(); ++i) {
    auto* lg = s.rs_lg(i);
    if (!lg || !s.ixps()[i].spec.lg_shows_communities) continue;
    const auto survey = core::run_active_survey(*lg);
    EXPECT_EQ(survey.rs_members, s.ixps()[i].rs_members)
        << s.ixps()[i].spec.name;

    core::MlpInferenceEngine engine(s.ixp_context(i));
    for (const auto& observation : survey.observations)
      engine.add(observation);
    // Complete coverage plus per-member-consistent policies: the inferred
    // set must equal the ground truth (precision and recall 1.0).
    EXPECT_EQ(engine.infer_links(), s.ixps()[i].rs_links)
        << s.ixps()[i].spec.name;
  }
}

TEST_F(ScenarioTest, AttributionIndexOfTheRosterFitsOneWordAndOneMegabyte) {
  auto& s = instance();
  const core::AttributionIndex index(
      std::make_shared<const std::vector<core::IxpContext>>(
          s.ixp_contexts()));
  EXPECT_EQ(index.words(), 1u);  // 13 IXPs: one 64-bit word per row
  EXPECT_LT(index.memory_bytes(), std::size_t{1} << 20);
}

TEST_F(ScenarioTest, PassiveInferenceIsSubsetOfGroundTruth) {
  auto& s = instance();
  core::PassiveExtractor extractor(s.ixp_contexts(), s.truth_rel_fn());
  for (auto& collector : s.collectors())
    extractor.consume_table_dump(collector.table_dump(1367366400));
  EXPECT_GT(extractor.stats().observations, 0u);

  std::size_t total_links = 0;
  for (std::size_t i = 0; i < s.ixps().size(); ++i) {
    const auto& ixp = s.ixps()[i];
    auto it = extractor.observations().find(ixp.spec.name);
    if (it == extractor.observations().end()) continue;
    core::MlpInferenceEngine engine(s.ixp_context(i));
    for (const auto& observation : it->second) engine.add(observation);
    const auto links = engine.infer_links();
    total_links += links.size();
    for (const auto& link : links)
      EXPECT_TRUE(ixp.rs_links.count(link))
          << ixp.spec.name << " false positive " << link.a << "-" << link.b;
  }
  EXPECT_GT(total_links, 0u);
}

TEST_F(ScenarioTest, PassiveObservationsMatchGroundTruthCommunities) {
  auto& s = instance();
  core::PassiveExtractor extractor(s.ixp_contexts(), s.truth_rel_fn());
  for (auto& collector : s.collectors())
    extractor.consume_table_dump(collector.table_dump(1367366400));
  for (const auto& [name, observations] : extractor.observations()) {
    std::size_t index = 0;
    for (; index < s.ixps().size(); ++index)
      if (s.ixps()[index].spec.name == name) break;
    ASSERT_LT(index, s.ixps().size());
    for (const auto& observation : observations) {
      const auto expected = s.communities_for(observation.setter, index);
      // Every observed community must be one the setter truly attached.
      for (const auto community : observation.communities) {
        EXPECT_NE(std::find(expected.begin(), expected.end(), community),
                  expected.end())
            << name << " setter " << observation.setter;
      }
    }
  }
}

TEST_F(ScenarioTest, ValidationConfirmsInferredLinks) {
  auto& s = instance();
  // Validate the largest IXP's ground-truth links against member LGs.
  const auto& ixp = s.ixps().front();
  std::vector<core::ValidationLg> lgs;
  for (auto& lg : s.member_lgs())
    lgs.push_back({lg.name, lg.operator_asn, lg.server.get()});
  ASSERT_FALSE(lgs.empty());

  auto relevant = [&](const core::ValidationLg& lg, const AsLink& link) {
    return lg.operator_asn == link.a || lg.operator_asn == link.b;
  };
  auto prefixes = [&](Asn endpoint) { return s.prefixes_behind(endpoint); };
  core::ValidationConfig config;
  for (const auto& d : s.ixps()) config.route_server_asns.insert(d.rs_asn);

  const auto report = core::validate_links(ixp.rs_links, lgs, relevant,
                                           prefixes, config);
  if (report.links_tested > 0) {
    // The links are real by construction; only best-path hiding can make
    // confirmation fail (section 5.1), so the rate must be high.
    EXPECT_GT(report.confirm_rate(), 0.85)
        << report.links_confirmed << "/" << report.links_tested;
  }
}

TEST_F(ScenarioTest, IrrReciprocityHolds) {
  auto& s = instance();
  const auto& amsix = s.ixps().front();
  const auto report = core::check_reciprocity(s.irr(), amsix.rs_members,
                                              amsix.rs_members);
  EXPECT_GT(report.members_checked, 0u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_GT(report.more_permissive_imports, 0u);
}

TEST_F(ScenarioTest, RegistryAndIrrPopulated) {
  auto& s = instance();
  EXPECT_GT(s.peeringdb().size(), 50u);
  EXPECT_GT(s.peeringdb().with_policy().size(), 10u);
  // as-set expansion matches RS membership for a non-LINX IXP.
  const auto& decix = s.ixps()[1];
  const auto expanded = s.irr().expand_as_set(
      "AS" + std::to_string(decix.rs_asn) + ":AS-MEMBERS");
  ASSERT_TRUE(expanded);
  EXPECT_EQ(*expanded, decix.rs_members);
  // The LINX analogue registers no as-set (partial data, table 2).
  const auto& linx = s.ixps()[2];
  EXPECT_FALSE(s.irr().expand_as_set("AS" + std::to_string(linx.rs_asn) +
                                     ":AS-MEMBERS"));
}

TEST_F(ScenarioTest, CollectorsEmitParsableMrt) {
  auto& s = instance();
  for (auto& collector : s.collectors()) {
    EXPECT_GT(collector.rib().prefix_count(), 0u) << collector.name();
    const auto archive = collector.table_dump(1367366400);
    EXPECT_GT(archive.size(), 100u);
    const auto updates = collector.update_dump(1367366400);
    EXPECT_GT(updates.size(), 100u);
  }
}

TEST_F(ScenarioTest, PrefixBookkeeping) {
  auto& s = instance();
  const Asn any_as = s.topo().graph.ases().front();
  EXPECT_FALSE(s.prefixes_of(any_as).empty());
  EXPECT_TRUE(s.prefixes_of(4009999999u).empty());
  const auto behind = s.prefixes_behind(any_as);
  EXPECT_GE(behind.size(), s.prefixes_of(any_as).size());
}

TEST(ScenarioEpochs, MemberChurnTrackedBySurvey) {
  // The paper validated twice (May and October 2013); between epochs some
  // RS members disconnected and were filtered out. Simulate the second
  // epoch: tear down a few sessions and re-run the active survey -- the
  // re-inferred links must match the shrunken ground truth exactly.
  Scenario s(small_params(99));
  auto& ixp = const_cast<IxpDeployment&>(s.ixps()[1]);  // DE-CIX analogue
  ASSERT_GE(ixp.rs_members.size(), 6u);

  std::vector<Asn> leavers(ixp.rs_members.begin(), ixp.rs_members.end());
  leavers.resize(3);
  for (const Asn member : leavers) {
    ixp.server->disconnect(member);
    ixp.rs_members.erase(member);
  }
  const auto october_truth = ixp.server->reciprocal_links();
  for (const Asn member : leavers)
    for (const auto& link : october_truth)
      EXPECT_TRUE(link.a != member && link.b != member);

  // Fresh LG over the post-churn table; the survey tracks the new state.
  lg::LgConfig config;
  config.name = "lg.october";
  config.operator_asn = ixp.rs_asn;
  lg::LookingGlassServer lg(config, &ixp.server->rib());
  const auto survey = core::run_active_survey(lg);
  EXPECT_EQ(survey.rs_members, ixp.rs_members);

  core::IxpContext ctx;
  ctx.name = ixp.spec.name;
  ctx.scheme = ixp.server->scheme();
  ctx.rs_members = ixp.rs_members;
  core::MlpInferenceEngine engine(ctx);
  for (const auto& observation : survey.observations)
    engine.add(observation);
  EXPECT_EQ(engine.infer_links(), october_truth);
}

TEST(ScenarioDeterminism, SameSeedSameEcosystem) {
  Scenario a(small_params(7));
  Scenario b(small_params(7));
  EXPECT_EQ(a.all_rs_links(), b.all_rs_links());
  EXPECT_EQ(a.ixps()[0].rs_members, b.ixps()[0].rs_members);
  Scenario c(small_params(8));
  EXPECT_NE(a.all_rs_links(), c.all_rs_links());
}

}  // namespace
}  // namespace mlp::scenario
