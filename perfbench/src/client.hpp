// The benchmark's one loopback connection to QueryServer: a closed-loop
// request mix, and the check of final answers against finish().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/types.hpp"
#include "pipeline/live_session.hpp"

namespace perfbench {

class QueryClient {
 public:
  /// Connect to 127.0.0.1:`port`; throws std::runtime_error on failure.
  explicit QueryClient(std::uint16_t port);
  ~QueryClient();
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// One request line -> its response line; empty on timeout or EOF.
  std::string ask(const std::string& request);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Round trips of the closed-loop mix, per verb and all together.
struct QueryLoad {
  std::vector<double> link_us, links_us, stats_us;
  std::vector<Timed> all_us;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;  // "err" answers, timeouts and closed sockets
};

/// Closed loop until `stop`: 80% `link`, 10% `links`, 10% `stats` over
/// the given IXPs' members. Spans go to `log`.
void run_query_mix(QueryClient& client,
                   const std::vector<mlp::core::IxpContext>& ixps,
                   std::uint64_t seed, const std::atomic<bool>& stop,
                   QueryLoad& out, SpanLog& log);

/// The settled session's `stats` and `link` answers must equal finish();
/// throws OracleFailure otherwise.
void check_answers(QueryClient& client,
                   const std::vector<mlp::core::IxpContext>& ixps,
                   const mlp::pipeline::LiveResult& result,
                   std::uint64_t seed);

}  // namespace perfbench
