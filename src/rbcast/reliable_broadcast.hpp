// Reliable broadcast (paper §4.1, footnote 3: one broadcast message in the
// common case, after Frolund & Pedone, "Revisiting reliable broadcast").
//
// The sender multicasts once and R-delivers locally; every other
// destination R-delivers on receipt.  In the contention model a multicast
// is atomic: once the sender's CPU accepted it, it reaches every
// destination that is up (a partition holds it until the heal, and the
// retransmission transport recovers lost frames exactly once per channel),
// and otherwise it reaches nobody.  So if any correct process R-delivers m,
// all correct processes do, and the Frolund-Pedone relay on suspicion could
// never carry the only copy of a message.  The one duplicate that can reach
// a process is the origin's own loopback copy, which is dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "net/node.hpp"
#include "net/system.hpp"

namespace fdgm::rbcast {

/// Wire payload: the application payload wrapped with a tag distinguishing
/// which upper-layer client sent it.
class RbPayload final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kReliableBroadcast;
  static constexpr std::uint8_t kKind = 0;

  RbPayload(int client_tag, net::PayloadPtr inner)
      : Payload(kProto, kKind), client_tag(client_tag), inner(inner) {}

  int client_tag;
  net::PayloadPtr inner;
};

/// Reliable broadcast layer for one process.
///
/// Several clients (the FD-abcast data dissemination, consensus decision
/// dissemination, ...) can share one instance; each registers a delivery
/// callback under a distinct tag.
class ReliableBroadcast final : public net::Layer {
 public:
  using DeliverFn = std::function<void(net::PayloadPtr inner)>;

  ReliableBroadcast(net::System& sys, net::ProcessId self);
  ~ReliableBroadcast() override;

  /// Register the delivery callback for a client tag.
  void register_client(int tag, DeliverFn fn);

  /// R-broadcast `inner` to every process in the system (including self)
  /// on behalf of client `tag`.
  void broadcast(int tag, net::PayloadPtr inner);

  /// R-broadcast to an explicit destination group (used by the membership
  /// service, which talks to view members only).
  void broadcast_group(int tag, const std::vector<net::ProcessId>& group, net::PayloadPtr inner);

  // net::Layer
  void on_message(const net::Message& m) override;

  // Always 0 (no relay path, nothing retained); the benchmark harness reads them.
  [[nodiscard]] std::uint64_t relays() const { return 0; }
  [[nodiscard]] std::size_t retained() const { return 0; }

 private:
  void deliver(const RbPayload* p);

  net::System* sys_;
  net::ProcessId self_;
  std::unordered_map<int, DeliverFn> clients_;
};

}  // namespace fdgm::rbcast
