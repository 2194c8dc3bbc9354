// Shared types of the consensus subsystem.
#pragma once

#include <cstdint>

#include "net/message.hpp"

namespace fdgm::consensus {

/// Wire message of the Chandra-Toueg algorithm.  `number` identifies the
/// instance (consensus #k of the FD algorithm, view change #v of GM); each
/// service serves one client, so the number alone names an instance.
/// ESTIMATE/ACK/NACK are unicast to the round's coordinator; PROPOSE is
/// multicast by it; DECIDE travels via reliable broadcast (not through this
/// payload's normal path).
class ConsensusMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kConsensus;
  static constexpr std::uint8_t kKind = 0;

  enum class Kind : std::uint8_t { kEstimate, kPropose, kAck, kNack, kRoundFailed, kDecide };

  ConsensusMsg(std::uint64_t number, Kind kind, std::uint32_t round, net::PayloadPtr value,
               std::uint32_t ts)
      : Payload(kProto, kKind), number(number), kind(kind), round(round), value(value), ts(ts) {}

  std::uint64_t number;
  Kind kind;
  std::uint32_t round;
  net::PayloadPtr value;  // estimate / proposal / decision (null for ack/nack)
  std::uint32_t ts;       // estimate timestamp (ESTIMATE only)
};

}  // namespace fdgm::consensus
