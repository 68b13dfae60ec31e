// Seeded input generator. The program under test only ever sees the
// bytes and IXP contexts built here; the same seed gives byte-identical
// inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/passive.hpp"
#include "core/types.hpp"
#include "pipeline/live_session.hpp"
#include "scenario/scenario.hpp"
#include "topology/relationship_inference.hpp"

namespace perfbench {

/// One send unit of a feed: a whole MRT record, or a whole BMP message.
struct Unit {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  /// Stream time the unit carries (for BMP framing messages, the time of
  /// the next record).
  std::uint32_t ts = 0;
};

struct FeedInput {
  std::string name;
  mlp::pipeline::Transport transport = mlp::pipeline::Transport::RawMrt;
  std::vector<std::uint8_t> bytes;
  /// The same records as plain MRT (what the archive path reads).
  std::vector<std::uint8_t> mrt;
  std::vector<Unit> units;
  /// BGP4MP update records in the feed (BMP framing messages excluded).
  std::size_t records = 0;
};

/// A (feed, unit) pair in global send order.
struct Send {
  std::uint32_t feed = 0;
  std::uint32_t unit = 0;
};

/// Inputs of a live workload: IXP contexts, relationship baseline, the
/// session's passive config, the feeds and the open-loop send order.
struct LiveInputs {
  std::vector<mlp::core::IxpContext> ixps;
  std::shared_ptr<mlp::topology::InferredRelationships> rels;
  mlp::core::PassiveConfig passive;
  std::vector<FeedInput> feeds;
  std::vector<Send> schedule;
  std::size_t records = 0;

  mlp::bgp::RelFn rel_fn() const { return rels ? rels->rel_fn() : nullptr; }
};

/// Inputs of the archive workload: both collectors' TABLE_DUMP_V2 dumps of
/// the paper-roster scenario, plus its ground truth.
struct ArchiveInputs {
  std::vector<mlp::core::IxpContext> ixps;
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> dumps;
  /// Ground-truth multilateral links per IXP.
  std::vector<std::set<mlp::bgp::AsLink>> truth;
  /// RIB entries over all dumps.
  std::size_t entries = 0;
  /// One collector's RIB as a BGP4MP update stream, replayed into the
  /// serve phase.
  FeedInput replay;
};

/// The paper-roster scenario of the archive and live-feeds workloads. Its
/// own seed is fixed, so every benchmark seed runs the same ecosystem and
/// the same amount of work; the benchmark seed orders the records.
mlp::scenario::ScenarioParams roster_params();

/// Both collectors' TABLE_DUMP_V2 dumps, RIB records in seeded order.
ArchiveInputs make_archive_inputs(std::uint64_t seed);

/// Both collectors' update dumps in seeded order, re-stamped with
/// advancing stream time, truncated to `records_per_feed` records each;
/// feed 0 raw MRT, feed 1 wrapped with bmp_wrap_updates.
LiveInputs make_feeds_inputs(std::uint64_t seed, std::size_t records_per_feed);

/// One synthetic raw-MRT feed into two IXPs with thousands of RS members,
/// each announcement changing its setter's policy.
LiveInputs make_bigrs_inputs(std::uint64_t seed, std::size_t records);

/// Order every feed's units by (stream time, feed, unit index).
std::vector<Send> interleave(const std::vector<FeedInput>& feeds);

/// Split a byte stream into send units (MRT records or BMP messages).
std::vector<Unit> split_units(const std::vector<std::uint8_t>& bytes,
                              mlp::pipeline::Transport transport);

/// Determinism self-test of the generators; returns the number of
/// failures and prints each.
int self_test();

}  // namespace perfbench
