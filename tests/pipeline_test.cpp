// Tests for the parallel multi-IXP inference pipeline: thread pool and
// ordered queue primitives, IXP-scheme config round-trip, determinism
// under 1 vs N threads, merged-stats correctness, and edge cases.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/passive.hpp"
#include "pipeline/ixp_config.hpp"
#include "pipeline/observation_queue.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/thread_pool.hpp"
#include "scenario/scenario.hpp"
#include "topology/relationship_inference.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace mlp::pipeline {
namespace {

using bgp::Community;
using routeserver::IxpCommunityScheme;
using routeserver::SchemeStyle;

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, FifoStartOrderWithOneWorker) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    pool.submit([&order, i] { order.push_back(i); });
  pool.wait_idle();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, LeaveCpuMovesOffTheCpuAndKeepsEveryCpuAllowed) {
  cpu_set_t before;
  ASSERT_EQ(::sched_getaffinity(0, sizeof before, &before), 0);
  if (CPU_COUNT(&before) < 2) GTEST_SKIP() << "one CPU allowed";
  // In a thread of its own, so the test runner keeps its placement.
  std::thread([&before] {
    const int start = ::sched_getcpu();
    ASSERT_GE(start, 0);
    leave_cpu(start);
    EXPECT_NE(::sched_getcpu(), start);
    cpu_set_t after;
    ASSERT_EQ(::sched_getaffinity(0, sizeof after, &after), 0);
    EXPECT_TRUE(CPU_EQUAL(&after, &before));
  }).join();
}

TEST(ThreadPool, LeaveCpuIgnoresAnUnknownCpu) {
  std::thread([] {
    cpu_set_t before, after;
    ASSERT_EQ(::sched_getaffinity(0, sizeof before, &before), 0);
    leave_cpu(-1);
    leave_cpu(CPU_SETSIZE);
    ASSERT_EQ(::sched_getaffinity(0, sizeof after, &after), 0);
    EXPECT_TRUE(CPU_EQUAL(&after, &before));
  }).join();
}

TEST(ThreadPool, ResolveDefaults) {
  EXPECT_EQ(ThreadPool::resolve(3), 3u);
  EXPECT_GE(ThreadPool::resolve(0), 1u);
}

TEST(ThreadPool, ThrowingTaskSurfacesFromWaitIdleNotTerminate) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("task boom"); });
  // Tasks after the throwing one still run: the worker survives, and the
  // in-flight count was released by the RAII guard (no wedged wait_idle).
  for (int i = 0; i < 8; ++i) pool.submit([&ran] { ++ran; });
  try {
    pool.wait_idle();
    FAIL() << "expected the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task boom");
  }
  EXPECT_EQ(ran.load(), 8);
  // The error was consumed: the pool is reusable and clean afterwards.
  pool.submit([&ran] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPool, FirstOfSeveralEscapedExceptionsWins) {
  ThreadPool pool(1);  // single worker serializes the tasks
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  pool.wait_idle();  // later losers are dropped, not replayed
}

// ------------------------------------------------------------ queue

core::Observation make_obs(core::Asn setter, const char* prefix) {
  core::Observation obs;
  obs.setter = setter;
  obs.prefix = *bgp::IpPrefix::parse(prefix);
  return obs;
}

TEST(ObservationQueue, DrainsSourcesInIndexOrder) {
  ObservationQueue queue(3);
  // Sources push out of order; the consumer must still see 0, then 1,
  // then 2.
  queue.push(2, {make_obs(3, "10.3.0.0/16")});
  queue.close(2);
  queue.push(0, {make_obs(1, "10.1.0.0/16")});
  queue.close(0);
  queue.push(1, {make_obs(2, "10.2.0.0/16")});
  queue.close(1);

  std::vector<core::Asn> setters;
  std::vector<core::Observation> batch;
  while (queue.pop(batch))
    for (const auto& obs : batch) setters.push_back(obs.setter);
  ASSERT_EQ(setters.size(), 3u);
  EXPECT_EQ(setters[0], 1u);
  EXPECT_EQ(setters[1], 2u);
  EXPECT_EQ(setters[2], 3u);
}

TEST(ObservationQueue, BlockingConsumerFinishesAfterClose) {
  ObservationQueue queue(1);
  std::vector<core::Asn> seen;
  std::thread consumer([&] {
    std::vector<core::Observation> batch;
    while (queue.pop(batch))
      for (const auto& obs : batch) seen.push_back(obs.setter);
  });
  queue.push(0, {make_obs(7, "10.0.0.0/16")});
  queue.close(0);
  consumer.join();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 7u);
}

TEST(ObservationQueue, EmptyBatchesDropped) {
  ObservationQueue queue(1);
  queue.push(0, {});
  queue.close(0);
  std::vector<core::Observation> batch;
  EXPECT_FALSE(queue.pop(batch));
}

// ------------------------------------------------------------ config

TEST(IxpConfig, RoundTrip) {
  const char* text =
      "# comment\n"
      "ixp DE-CIX rs-asn 6695 style rs-asn members 64496 64497 64498\n"
      "ixp ECIX rs-asn 9033 style private-range members 64500 4200000001\n"
      "alias ECIX 4200000001 64512\n";
  const auto contexts = parse_ixp_configs(text);
  ASSERT_EQ(contexts.size(), 2u);
  EXPECT_EQ(contexts[0].name, "DE-CIX");
  EXPECT_EQ(contexts[0].scheme.rs_asn(), 6695u);
  EXPECT_EQ(contexts[0].scheme.style(), SchemeStyle::RsAsnBased);
  EXPECT_EQ(contexts[0].rs_members.size(), 3u);
  EXPECT_EQ(contexts[1].scheme.style(), SchemeStyle::PrivateRangeBased);
  EXPECT_EQ(contexts[1].scheme.encode_peer(4200000001u),
            std::optional<std::uint16_t>(64512));

  // Serialize and re-parse: identical structure.
  const auto reparsed = parse_ixp_configs(serialize_ixp_configs(contexts));
  ASSERT_EQ(reparsed.size(), 2u);
  EXPECT_EQ(reparsed[0].rs_members, contexts[0].rs_members);
  EXPECT_EQ(reparsed[1].scheme.encode_peer(4200000001u),
            std::optional<std::uint16_t>(64512));
}

TEST(IxpConfig, ErrorsCarryLineNumbers) {
  EXPECT_THROW(parse_ixp_configs("bogus directive\n"), ParseError);
  EXPECT_THROW(parse_ixp_configs("ixp X rs-asn nope style rs-asn members\n"),
               ParseError);
  EXPECT_THROW(
      parse_ixp_configs("ixp X rs-asn 1 style weird members 2\n"),
      ParseError);
  EXPECT_THROW(parse_ixp_configs("alias NOIXP 1 2\n"), ParseError);
  try {
    parse_ixp_configs("\n\nnope\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(IxpConfig, InvalidNamesRejected) {
  // Names the textual form cannot represent must fail loudly instead of
  // producing a document that cannot be parsed back.
  EXPECT_THROW(validate_ixp_name(""), InvalidArgument);
  EXPECT_THROW(validate_ixp_name("DE CIX"), InvalidArgument);
  EXPECT_THROW(validate_ixp_name("DE\tCIX"), InvalidArgument);
  EXPECT_THROW(validate_ixp_name("#DECIX"), InvalidArgument);
  validate_ixp_name("DE-CIX");  // no throw

  // The parser rejects a leading-'#' name (whitespace cannot reach it:
  // field splitting already ate it).
  EXPECT_THROW(parse_ixp_configs("ixp #X rs-asn 1 style rs-asn members 2\n"),
               ParseError);

  // The serializer refuses to emit a round-trip-breaking name raw.
  core::IxpContext bad;
  bad.name = "A B";
  bad.scheme = IxpCommunityScheme::make("A B", 6695, SchemeStyle::RsAsnBased);
  EXPECT_THROW(serialize_ixp_configs({bad}), InvalidArgument);
  bad.name = "#A";
  EXPECT_THROW(serialize_ixp_configs({bad}), InvalidArgument);
}

TEST(IxpConfig, RoundTripPropertyOverGeneratedConfigs) {
  // serialize -> parse must reproduce every structural field for any
  // valid config; names draw from the full accepted alphabet.
  const std::string alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789.-_";
  Rng rng(20260728);
  for (int round = 0; round < 50; ++round) {
    std::vector<core::IxpContext> contexts;
    const std::size_t n_ixps = 1 + rng.uniform(0, 5);
    for (std::size_t i = 0; i < n_ixps; ++i) {
      std::string name;
      const std::size_t len = 1 + rng.uniform(0, 11);
      for (std::size_t c = 0; c < len; ++c)
        name.push_back(alphabet[static_cast<std::size_t>(
            rng.uniform(0, alphabet.size() - 1))]);
      name += std::to_string(i);  // uniqueness
      if (name.front() == '#') name.front() = 'X';

      const auto style = rng.chance(0.5) ? SchemeStyle::RsAsnBased
                                         : SchemeStyle::PrivateRangeBased;
      const bgp::Asn rs_asn = 1 + rng.uniform(0, 64000);
      core::IxpContext context;
      context.name = name;
      context.scheme = IxpCommunityScheme::make(name, rs_asn, style);
      const std::size_t n_members = rng.uniform(0, 20);
      for (std::size_t m = 0; m < n_members; ++m)
        context.rs_members.insert(
            static_cast<core::Asn>(1 + rng.uniform(0, 70000)));
      // Aliases apply to 32-bit members only (values in the private
      // range), so generate a few dedicated wide members.
      const std::size_t n_aliases = rng.uniform(0, 3);
      for (std::size_t a = 0; a < n_aliases; ++a) {
        const core::Asn wide =
            4200000000u + static_cast<core::Asn>(round * 100 + i * 10 + a);
        context.rs_members.insert(wide);
        // Disjoint per-alias value ranges: add_alias rejects collisions.
        context.scheme.add_alias(
            wide,
            static_cast<std::uint16_t>(64512 + a * 40 + rng.uniform(0, 30)));
      }
      contexts.push_back(std::move(context));
    }

    const auto reparsed = parse_ixp_configs(serialize_ixp_configs(contexts));
    ASSERT_EQ(reparsed.size(), contexts.size()) << "round " << round;
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      EXPECT_EQ(reparsed[i].name, contexts[i].name);
      EXPECT_EQ(reparsed[i].scheme.rs_asn(), contexts[i].scheme.rs_asn());
      EXPECT_EQ(reparsed[i].scheme.style(), contexts[i].scheme.style());
      EXPECT_EQ(reparsed[i].rs_members, contexts[i].rs_members);
      EXPECT_EQ(reparsed[i].scheme.aliases(), contexts[i].scheme.aliases())
          << "round " << round << " ixp " << i;
    }
  }
}

// ------------------------------------------------------------ pipeline

core::IxpContext demo_context(const std::string& name, bgp::Asn rs_asn,
                              std::set<core::Asn> members) {
  core::IxpContext ctx;
  ctx.name = name;
  ctx.scheme = IxpCommunityScheme::make(name, rs_asn, SchemeStyle::RsAsnBased);
  ctx.rs_members = std::move(members);
  return ctx;
}

TEST(Pipeline, PreattributedObservationsInferLinks) {
  InferencePipeline pipe;
  pipe.add_ixp(demo_context("DEMO", 6695, {1, 2, 3}));
  std::vector<core::Observation> observations;
  for (core::Asn member : {1u, 2u, 3u}) {
    core::Observation obs;
    obs.setter = member;
    obs.prefix = *bgp::IpPrefix::parse("10.0.0.0/16");
    observations.push_back(obs);
  }
  pipe.add_observations("DEMO", std::move(observations));
  const auto result = pipe.run();
  EXPECT_EQ(result.all_links.size(), 3u);
  EXPECT_EQ(result.per_ixp[0].stats.observed_members, 3u);
  EXPECT_EQ(result.totals.observations, 3u);
}

TEST(Pipeline, UnknownIxpNameRejected) {
  InferencePipeline pipe;
  pipe.add_ixp(demo_context("DEMO", 6695, {1}));
  EXPECT_THROW(pipe.add_observations("NOPE", {}), InvalidArgument);
  EXPECT_THROW(pipe.add_ixp(demo_context("DEMO", 6695, {1})),
               InvalidArgument);
}

TEST(Pipeline, RunTwiceRejected) {
  InferencePipeline pipe;
  pipe.add_ixp(demo_context("DEMO", 6695, {1}));
  pipe.run();
  EXPECT_THROW(pipe.run(), InvalidArgument);
}

TEST(Pipeline, MalformedArchiveThrowsWithoutHanging) {
  InferencePipeline pipe;
  pipe.add_ixp(demo_context("DEMO", 6695, {1, 2}));
  pipe.add_table_dump({0xde, 0xad, 0xbe, 0xef});
  EXPECT_THROW(pipe.run(), ParseError);
}

TEST(Pipeline, EmptyIxpAndNoObservations) {
  // No feeds at all: every IXP yields an empty link set, including an IXP
  // with no members, and the merged stats stay zero.
  PipelineConfig config;
  config.threads = 3;
  InferencePipeline pipe(config);
  pipe.add_ixp(demo_context("EMPTY", 6695, {}));
  pipe.add_ixp(demo_context("UNOBSERVED", 9033, {1, 2, 3}));
  const auto result = pipe.run();
  ASSERT_EQ(result.per_ixp.size(), 2u);
  EXPECT_TRUE(result.all_links.empty());
  EXPECT_TRUE(result.per_ixp[0].links.empty());
  EXPECT_TRUE(result.per_ixp[1].links.empty());
  EXPECT_EQ(result.totals.observations, 0u);
  EXPECT_EQ(result.totals.observed_members, 0u);
  EXPECT_EQ(result.totals.rs_members, 3u);
  EXPECT_EQ(result.passive.paths_seen, 0u);
}

/// Full scenario run (passive archives + active LG surveys over every
/// IXP) with a given thread count.
PipelineResult scenario_run(scenario::Scenario& s,
                            const topology::InferredRelationships& rels,
                            std::size_t threads) {
  PipelineConfig config;
  config.threads = threads;
  InferencePipeline pipe(config);
  for (std::size_t i = 0; i < s.ixps().size(); ++i) {
    auto* lg = s.ixps()[i].spec.lg_shows_communities ? s.rs_lg(i) : nullptr;
    pipe.add_ixp(s.ixp_context(i), lg);
  }
  pipe.set_relationships(rels.rel_fn());
  for (auto& collector : s.collectors())
    pipe.add_table_dump(collector.table_dump(1367366400));
  return pipe.run();
}

scenario::ScenarioParams small_params() {
  scenario::ScenarioParams params;
  params.topology.n_ases = 700;
  params.membership_scale = 0.15;
  params.seed = 424242;
  return params;
}

TEST(Pipeline, DeterministicAcrossThreadCounts) {
  // N >= 2 IXPs, 1 vs 4 threads: byte-identical link sets and stats.
  scenario::Scenario s1(small_params());
  scenario::Scenario s4(small_params());
  const auto rels1 = topology::infer_relationships(s1.collector_paths());
  const auto rels4 = topology::infer_relationships(s4.collector_paths());

  const auto run1 = scenario_run(s1, rels1, 1);
  const auto run4 = scenario_run(s4, rels4, 4);

  ASSERT_GE(run1.per_ixp.size(), 2u);
  EXPECT_FALSE(run1.all_links.empty());
  EXPECT_EQ(run1.all_links, run4.all_links);
  ASSERT_EQ(run1.per_ixp.size(), run4.per_ixp.size());
  for (std::size_t i = 0; i < run1.per_ixp.size(); ++i) {
    EXPECT_EQ(run1.per_ixp[i].links, run4.per_ixp[i].links) << "ixp " << i;
    EXPECT_EQ(run1.per_ixp[i].stats.observed_members,
              run4.per_ixp[i].stats.observed_members);
    EXPECT_EQ(run1.per_ixp[i].stats.observations,
              run4.per_ixp[i].stats.observations);
    EXPECT_EQ(run1.per_ixp[i].active_queries, run4.per_ixp[i].active_queries);
  }
  EXPECT_EQ(run1.passive.paths_seen, run4.passive.paths_seen);
  EXPECT_EQ(run1.passive.observations, run4.passive.observations);
  EXPECT_EQ(run1.total_active_queries, run4.total_active_queries);
}

TEST(Pipeline, MergedStatsMatchSequentialExtraction) {
  // The passive stats merged over per-archive extraction tasks must equal
  // one extractor consuming every archive sequentially; the engine totals
  // must be the field-wise sum over IXPs.
  scenario::Scenario s(small_params());
  const auto rels = topology::infer_relationships(s.collector_paths());

  std::vector<std::vector<std::uint8_t>> archives;
  for (auto& collector : s.collectors())
    archives.push_back(collector.table_dump(1367366400));

  core::PassiveExtractor sequential(s.ixp_contexts(), rels.rel_fn());
  for (const auto& archive : archives)
    sequential.consume_table_dump(archive);
  const auto& expected = sequential.stats();

  PipelineConfig config;
  config.threads = 4;
  InferencePipeline pipe(config);
  for (std::size_t i = 0; i < s.ixps().size(); ++i)
    pipe.add_ixp(s.ixp_context(i));
  pipe.set_relationships(rels.rel_fn());
  for (auto& archive : archives) pipe.add_table_dump(std::move(archive));
  const auto result = pipe.run();

  EXPECT_EQ(result.passive.paths_seen, expected.paths_seen);
  EXPECT_EQ(result.passive.paths_dirty, expected.paths_dirty);
  EXPECT_EQ(result.passive.paths_no_rs_values, expected.paths_no_rs_values);
  EXPECT_EQ(result.passive.paths_ambiguous_ixp,
            expected.paths_ambiguous_ixp);
  EXPECT_EQ(result.passive.paths_no_setter, expected.paths_no_setter);
  EXPECT_EQ(result.passive.observations, expected.observations);

  core::EngineStats sum;
  std::set<bgp::AsLink> all;
  for (const auto& per_ixp : result.per_ixp) {
    sum += per_ixp.stats;
    all.insert(per_ixp.links.begin(), per_ixp.links.end());
  }
  EXPECT_EQ(result.totals.observations, sum.observations);
  EXPECT_EQ(result.totals.observed_members, sum.observed_members);
  EXPECT_EQ(result.totals.links, sum.links);
  EXPECT_EQ(result.all_links, all);
}

TEST(Pipeline, BatchSizeDoesNotChangeResults) {
  scenario::Scenario sa(small_params());
  scenario::Scenario sb(small_params());
  const auto rels_a = topology::infer_relationships(sa.collector_paths());
  const auto rels_b = topology::infer_relationships(sb.collector_paths());

  PipelineConfig tiny;
  tiny.threads = 2;
  tiny.batch_size = 1;
  InferencePipeline pa(tiny);
  for (std::size_t i = 0; i < sa.ixps().size(); ++i)
    pa.add_ixp(sa.ixp_context(i));
  pa.set_relationships(rels_a.rel_fn());
  for (auto& collector : sa.collectors())
    pa.add_table_dump(collector.table_dump(1367366400));

  PipelineConfig huge;
  huge.threads = 2;
  huge.batch_size = 100000;
  InferencePipeline pb(huge);
  for (std::size_t i = 0; i < sb.ixps().size(); ++i)
    pb.add_ixp(sb.ixp_context(i));
  pb.set_relationships(rels_b.rel_fn());
  for (auto& collector : sb.collectors())
    pb.add_table_dump(collector.table_dump(1367366400));

  EXPECT_EQ(pa.run().all_links, pb.run().all_links);
}

TEST(Pipeline, StreamedIngestMatchesPerSourceFlushReference) {
  // The streamed ingest path (batches pushed mid-decode) must reproduce
  // the pre-streaming contract byte for byte: extract every source fully,
  // flush its observations per IXP in source order, feed each IXP's
  // engine that concatenation. Any thread count and any batch size must
  // match the reference exactly.
  scenario::Scenario s(small_params());
  const auto rels = topology::infer_relationships(s.collector_paths());
  std::vector<std::vector<std::uint8_t>> archives;
  for (auto& collector : s.collectors())
    archives.push_back(collector.table_dump(1367366400));

  // Reference: one extractor per source, materialized per-source flush.
  std::vector<std::set<bgp::AsLink>> want_links;
  {
    std::map<std::string, std::vector<core::Observation>> per_ixp;
    for (const auto& archive : archives) {
      core::PassiveExtractor extractor(s.ixp_contexts(), rels.rel_fn());
      extractor.consume_table_dump(archive);
      for (auto& [name, observations] : extractor.take_observations()) {
        auto& sink = per_ixp[name];
        sink.insert(sink.end(),
                    std::make_move_iterator(observations.begin()),
                    std::make_move_iterator(observations.end()));
      }
    }
    for (std::size_t i = 0; i < s.ixps().size(); ++i) {
      core::MlpInferenceEngine engine(s.ixp_context(i));
      auto it = per_ixp.find(s.ixp_context(i).name);
      if (it != per_ixp.end())
        for (const auto& observation : it->second) engine.add(observation);
      want_links.push_back(engine.infer_links());
    }
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{7}, std::size_t{100000}}) {
      PipelineConfig config;
      config.threads = threads;
      config.batch_size = batch;
      InferencePipeline pipe(config);
      for (std::size_t i = 0; i < s.ixps().size(); ++i)
        pipe.add_ixp(s.ixp_context(i));
      pipe.set_relationships(rels.rel_fn());
      for (const auto& archive : archives) pipe.add_table_dump(archive);
      const auto result = pipe.run();
      ASSERT_EQ(result.per_ixp.size(), want_links.size());
      for (std::size_t i = 0; i < want_links.size(); ++i)
        EXPECT_EQ(result.per_ixp[i].links, want_links[i])
            << "ixp " << i << " threads " << threads << " batch " << batch;
    }
  }
}

TEST(Pipeline, UpdateStreamIngestDeterministicAcrossConfigs) {
  // The BGP4MP live path end to end: the same update archives must yield
  // byte-identical link sets for any thread count and batch size, and
  // match a sequential extractor running the same announce-window.
  scenario::Scenario s(small_params());
  std::vector<std::vector<std::uint8_t>> archives;
  for (auto& collector : s.collectors())
    archives.push_back(collector.update_dump(1367366400));

  core::PassiveConfig passive;
  passive.min_duration_s = 600;

  auto run_with = [&](std::size_t threads, std::size_t batch) {
    PipelineConfig config;
    config.threads = threads;
    config.batch_size = batch;
    config.passive = passive;
    InferencePipeline pipe(config);
    for (std::size_t i = 0; i < s.ixps().size(); ++i)
      pipe.add_ixp(s.ixp_context(i));
    for (const auto& archive : archives) pipe.add_update_stream(archive);
    return pipe.run();
  };

  const auto base = run_with(1, 256);
  EXPECT_FALSE(base.all_links.empty());

  core::PassiveStats sequential_stats;
  {
    core::PassiveStats merged;
    for (const auto& archive : archives) {
      core::PassiveExtractor extractor(s.ixp_contexts(), nullptr, passive);
      extractor.consume_update_stream(archive);
      merged += extractor.stats();
    }
    sequential_stats = merged;
  }
  EXPECT_EQ(base.passive.paths_seen, sequential_stats.paths_seen);
  EXPECT_EQ(base.passive.observations, sequential_stats.observations);
  EXPECT_EQ(base.passive.paths_transient, sequential_stats.paths_transient);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{512}}) {
      const auto result = run_with(threads, batch);
      EXPECT_EQ(result.all_links, base.all_links)
          << "threads " << threads << " batch " << batch;
      ASSERT_EQ(result.per_ixp.size(), base.per_ixp.size());
      for (std::size_t i = 0; i < base.per_ixp.size(); ++i)
        EXPECT_EQ(result.per_ixp[i].links, base.per_ixp[i].links);
    }
  }
}

TEST(Pipeline, KeepEnginesOffMatchesDefault) {
  // keep_engines=false must change only what the result carries, never
  // what it contains.
  scenario::Scenario sa(small_params());
  scenario::Scenario sb(small_params());
  auto run_with = [](scenario::Scenario& s, bool keep) {
    PipelineConfig config;
    config.threads = 2;
    config.keep_engines = keep;
    InferencePipeline pipe(config);
    for (std::size_t i = 0; i < s.ixps().size(); ++i)
      pipe.add_ixp(s.ixp_context(i));
    for (auto& collector : s.collectors())
      pipe.add_table_dump(collector.table_dump(1367366400));
    return pipe.run();
  };
  const auto with = run_with(sa, true);
  const auto without = run_with(sb, false);
  EXPECT_EQ(with.engines.size(), with.per_ixp.size());
  EXPECT_TRUE(without.engines.empty());
  EXPECT_EQ(with.all_links, without.all_links);
  ASSERT_EQ(with.per_ixp.size(), without.per_ixp.size());
  for (std::size_t i = 0; i < with.per_ixp.size(); ++i) {
    EXPECT_EQ(with.per_ixp[i].links, without.per_ixp[i].links);
    EXPECT_EQ(with.per_ixp[i].observed_members,
              without.per_ixp[i].observed_members);
    // The kept engine agrees with the per-IXP observed-member product.
    EXPECT_EQ(core::FlatAsnSet(with.engines[i].observed_members()),
              with.per_ixp[i].observed_members);
  }
}

TEST(Pipeline, ReciprocityPassRunsWhenIrrAttached) {
  scenario::Scenario s(small_params());
  PipelineConfig config;
  config.threads = 2;
  InferencePipeline pipe(config);
  for (std::size_t i = 0; i < s.ixps().size(); ++i)
    pipe.add_ixp(s.ixp_context(i));
  for (auto& collector : s.collectors())
    pipe.add_table_dump(collector.table_dump(1367366400));
  pipe.set_irr(&s.irr());
  const auto result = pipe.run();
  ASSERT_TRUE(result.reciprocity.has_value());
  // Section 4.4: the assumption is conservative against IRR filters.
  EXPECT_EQ(result.reciprocity->violations, 0u);
}

}  // namespace
}  // namespace mlp::pipeline
