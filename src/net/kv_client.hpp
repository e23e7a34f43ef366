// KvClient — blocking client for the networked KV front end (DESIGN.md
// §13.2): one TCP connection, one outstanding request at a time, every
// protocol op as a typed method. The tests' workhorse; kvbench's kv-net
// generator (kvbench/kvbench.cpp) pipelines over raw sockets instead and
// only shares the connect helper.
//
// Error model: transport problems (connect refused, connection closed,
// malformed response) surface as `ok() == false` / a kTransportError
// status in Result — never exceptions, so torture tests can hammer the
// error paths in a loop. A successfully transported response carries the
// server's wire::Status verbatim.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace zstm::net {

/// Opens a blocking loopback-style TCP connection (TCP_NODELAY set).
/// Returns -1 on failure.
int connect_tcp(const std::string& host, std::uint16_t port);

class KvClient {
 public:
  /// A transported (or failed) call. `transport_ok == false` means the
  /// connection is dead; the client closes it and every later call fails
  /// fast until connect() is called again.
  struct Result {
    bool transport_ok = false;
    wire::Status status = wire::Status::kError;
    std::int64_t value = 0;
    std::uint64_t count = 0;

    bool ok() const { return transport_ok && status == wire::Status::kOk; }
  };

  KvClient() = default;
  ~KvClient();
  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;
  KvClient(KvClient&& other) noexcept;
  KvClient& operator=(KvClient&& other) noexcept;

  bool connect(const std::string& host, std::uint16_t port);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// The generic round trip every typed method lowers onto.
  Result call(wire::Op op, std::uint64_t key = 0, std::uint64_t key2 = 0,
              std::int64_t value = 0, std::uint32_t fanout = 0);

  // Typed verbs (names and semantics mirror server::KvStoreT).
  std::optional<std::int64_t> get(std::uint64_t key);
  bool put(std::uint64_t key, std::int64_t value);  ///< true = transported ok
  bool del(std::uint64_t key);                      ///< true = key existed
  /// found-count and found-sum of keys [first, first+fanout).
  Result multi_get(std::uint64_t first, std::uint32_t fanout);
  Result scan();
  bool transfer(std::uint64_t from, std::uint64_t to, std::int64_t amount);
  bool ping(std::int64_t echo = 0);
  /// value = requests the service completed, count = active connections.
  Result stats();

  /// Raw bytes onto the wire, for torture tests (malformed frames, partial
  /// writes). Returns false when the connection died.
  bool send_raw(const void* data, std::size_t len);
  /// Blocking read of one response frame off the wire (shared by call()).
  bool recv_response(wire::Response* out);

 private:
  int fd_ = -1;
  std::uint64_t next_req_id_ = 1;
  std::vector<std::uint8_t> rbuf_;
  std::size_t rbuf_off_ = 0;
};

}  // namespace zstm::net
