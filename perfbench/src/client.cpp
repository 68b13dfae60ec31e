#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

using namespace mlp;

QueryClient::QueryClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("query client: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("query client: connect failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A request unanswered for 2 s counts as failed.
  timeval timeout{2, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
}

QueryClient::~QueryClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string QueryClient::ask(const std::string& request) {
  const std::string line = request + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return {};
    sent += static_cast<std::size_t>(n);
  }
  for (;;) {
    const auto newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string out = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return out;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return {};
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void run_query_mix(QueryClient& client,
                   const std::vector<core::IxpContext>& ixps,
                   std::uint64_t seed, const std::atomic<bool>& stop,
                   QueryLoad& out, SpanLog& log) {
  Rng rng(seed * 7919 + 17);
  const std::uint32_t link_name = log.intern("pipeline.query.link");
  const std::uint32_t links_name = log.intern("pipeline.query.links");
  const std::uint32_t stats_name = log.intern("pipeline.query.stats");
  auto member = [&](const core::IxpContext& ixp) {
    const auto& values = ixp.rs_members.values();
    return values[rng.uniform(0, values.size() - 1)];
  };
  while (!stop.load(std::memory_order_relaxed)) {
    const auto& ixp = ixps[rng.uniform(0, ixps.size() - 1)];
    const double pick = rng.uniform01();
    std::string request;
    std::vector<double>* sink = nullptr;
    std::uint32_t name = 0;
    if (pick < 0.80) {
      request = "link " + ixp.name + " " + std::to_string(member(ixp)) + " " +
                std::to_string(member(ixp));
      sink = &out.link_us;
      name = link_name;
    } else if (pick < 0.90) {
      request = "links " + ixp.name + " " + std::to_string(member(ixp));
      sink = &out.links_us;
      name = links_name;
    } else {
      request = "stats " + ixp.name;
      sink = &out.stats_us;
      name = stats_name;
    }
    const auto start = Clock::now();
    const std::string answer = client.ask(request);
    const auto end = Clock::now();
    log.add(name, start, end, out.requests);
    ++out.requests;
    if (answer.rfind("ok ", 0) != 0) {
      ++out.errors;
      if (answer.empty()) return;  // the connection is gone
      continue;
    }
    sink->push_back(ms_between(start, end) * 1e3);
    out.all_us.push_back(Timed{start, end, sink->back()});
  }
}

void check_answers(QueryClient& client,
                   const std::vector<core::IxpContext>& ixps,
                   const pipeline::LiveResult& result, std::uint64_t seed) {
  Rng rng(seed * 104729 + 3);
  for (std::size_t i = 0; i < ixps.size(); ++i) {
    const auto& ixp = ixps[i];
    const auto& links = result.per_ixp[i].links;
    const std::string stats = client.ask("stats " + ixp.name);
    const std::string want = " links=" + std::to_string(links.size()) + " ";
    if (stats.rfind("ok ", 0) != 0 || stats.find(want) == std::string::npos)
      throw OracleFailure("stats " + ixp.name + " answered \"" + stats +
                          "\", finish() has " + std::to_string(links.size()) +
                          " links");
    // Every tenth link of the final set, plus random member pairs.
    std::size_t k = 0;
    for (const auto& link : links) {
      if (k++ % 10 != 0) continue;
      const std::string answer = client.ask(
          "link " + ixp.name + " " + std::to_string(link.a) + " " +
          std::to_string(link.b));
      if (answer != "ok true")
        throw OracleFailure("link " + ixp.name + " " +
                            std::to_string(link.a) + " " +
                            std::to_string(link.b) + " answered \"" +
                            answer + "\", finish() has the link");
    }
    const auto& members = ixp.rs_members.values();
    for (int n = 0; n < 50 && members.size() > 1; ++n) {
      const auto a = members[rng.uniform(0, members.size() - 1)];
      const auto b = members[rng.uniform(0, members.size() - 1)];
      if (a == b) continue;
      const bool has = links.count(bgp::AsLink(a, b)) != 0;
      const std::string answer = client.ask(
          "link " + ixp.name + " " + std::to_string(a) + " " +
          std::to_string(b));
      if (answer != (has ? "ok true" : "ok false"))
        throw OracleFailure("link " + ixp.name + " " + std::to_string(a) +
                            " " + std::to_string(b) + " answered \"" +
                            answer + "\", finish() disagrees");
    }
  }
}

}  // namespace perfbench
