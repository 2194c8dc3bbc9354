// The golden-seed tests' fingerprint of a run: FNV-1a over every local
// A-delivery (process, origin, seq, sent_at, delivery time), plus whatever
// the test mixes in afterwards (e.g. the executed-event count).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/experiment.hpp"

namespace fdgm::core {

class DeliveryHash {
 public:
  /// Takes over every process's DeliverSink; attach before run.start().
  explicit DeliveryHash(SimRun& run) : sinks_(static_cast<std::size_t>(run.config().n)) {
    for (int p = 0; p < run.config().n; ++p) {
      Sink& sink = sinks_[static_cast<std::size_t>(p)];
      sink.hash = this;
      sink.run = &run;
      sink.p = p;
      run.proc(p).set_deliver_sink(&sink);
    }
  }
  DeliveryHash(const DeliveryHash&) = delete;
  DeliveryHash& operator=(const DeliveryHash&) = delete;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  struct Sink final : abcast::DeliverSink {
    DeliveryHash* hash = nullptr;
    SimRun* run = nullptr;
    int p = 0;
    void on_deliver(const abcast::AppMessage& m) override {
      hash->mix(static_cast<std::uint64_t>(p));
      hash->mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.id.origin)));
      hash->mix(m.id.seq);
      hash->mix(std::bit_cast<std::uint64_t>(m.sent_at));
      hash->mix(std::bit_cast<std::uint64_t>(run->system().now()));
    }
  };

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::vector<Sink> sinks_;
};

}  // namespace fdgm::core
