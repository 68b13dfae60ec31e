#include "common.hpp"

#include <cstdio>

#include "lg/lg_client.hpp"
#include "pipeline/pipeline.hpp"

namespace mlp::bench {

scenario::ScenarioParams default_params() {
  scenario::ScenarioParams params;
  params.topology.n_ases = 2000;
  params.membership_scale = 0.30;
  params.member_lgs = 40;
  params.seed = 20130501;
  return params;
}

namespace {

/// Third-party survey for IXPs without a usable RS LG (paper: "we use 11
/// LGs provided by their RS members"): query member looking glasses for
/// prefixes of the IXP's members and collect the returned paths (with the
/// operator prepended, since displayed paths start at the neighbor) for
/// the pipeline's attribution machinery.
std::vector<pipeline::RawPath> collect_third_party_paths(
    scenario::Scenario& s, std::size_t ixp_index, std::size_t& queries) {
  std::vector<pipeline::RawPath> collected;
  const auto& ixp = s.ixps()[ixp_index];
  for (auto& lg : s.member_lgs()) {
    if (!ixp.rs_members.count(lg.operator_asn)) continue;
    lg::LookingGlassClient client(*lg.server);
    for (const Asn member : ixp.rs_members) {
      if (member == lg.operator_asn) continue;
      const auto& prefixes = s.prefixes_of(member);
      if (prefixes.empty()) continue;
      ++queries;
      for (const auto& path : client.prefix_detail(prefixes.front())) {
        if (path.communities.empty()) continue;
        bgp::AsPath full = path.as_path;
        if (full.empty() || full.head() != lg.operator_asn)
          full.prepend(lg.operator_asn);
        collected.push_back(pipeline::RawPath{
            std::move(full), prefixes.front(), path.communities,
            core::Source::ThirdPartyLg});
      }
    }
  }
  return collected;
}

}  // namespace

InferenceRun run_full_inference(scenario::Scenario& s) {
  InferenceRun run;

  // Public BGP view: links in collector AS paths, plus the baseline
  // relationship inference the setter identification needs (the paper
  // uses CAIDA's inferred relationships, not ground truth).
  const auto paths = s.collector_paths();
  for (const auto& path : paths)
    for (const auto& link : path.links()) run.public_bgp_links.insert(link);
  run.relationships = topology::infer_relationships(paths);

  // Assemble the parallel pipeline: every IXP is one shard; collector
  // archives and the third-party LG paths are the passive sources; IXPs
  // with a community-displaying RS LG also get the active survey
  // (skipping members already covered, equation 2).
  pipeline::InferencePipeline pipe;
  run.active_queries.assign(s.ixps().size(), 0);
  for (std::size_t i = 0; i < s.ixps().size(); ++i) {
    const auto& spec = s.ixps()[i].spec;
    auto* lg = spec.lg_shows_communities ? s.rs_lg(i) : nullptr;
    pipe.add_ixp(s.ixp_context(i), lg);
  }
  pipe.set_relationships(run.relationships.rel_fn());

  for (auto& collector : s.collectors())
    pipe.add_table_dump(collector.table_dump(1367366400));

  std::vector<pipeline::RawPath> third_party;
  for (std::size_t i = 0; i < s.ixps().size(); ++i) {
    const auto& spec = s.ixps()[i].spec;
    if (spec.has_rs_lg && spec.lg_shows_communities) continue;
    auto collected =
        collect_third_party_paths(s, i, run.active_queries[i]);
    third_party.insert(third_party.end(),
                       std::make_move_iterator(collected.begin()),
                       std::make_move_iterator(collected.end()));
  }
  if (!third_party.empty()) pipe.add_paths(std::move(third_party));

  auto result = pipe.run();

  run.passive_stats = result.passive;
  for (std::size_t i = 0; i < result.per_ixp.size(); ++i) {
    run.active_queries[i] += result.per_ixp[i].active_queries;
    run.links_per_ixp.push_back(std::move(result.per_ixp[i].links));
  }
  // The report analyses take the union as a std::set.
  run.all_links.insert(result.all_links.begin(), result.all_links.end());
  run.engines = std::move(result.engines);
  return run;
}

void print_header(const std::string& title, const scenario::Scenario& s) {
  std::printf("== %s ==\n", title.c_str());
  std::printf(
      "synthetic ecosystem: %zu ASes, %zu IXPs, seed %llu "
      "(see DESIGN.md for the substitution map)\n\n",
      s.topo().graph.as_count(), s.ixps().size(),
      static_cast<unsigned long long>(s.params().seed));
}

}  // namespace mlp::bench
