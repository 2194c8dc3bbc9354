// Outside safety and liveness check on the A-delivery stream of one run.
//
// The benchmark feeds it every A-broadcast it issues (id and due time) and
// every local A-delivery reported through abcast::DeliverSink, in delivery
// order.  It checks, without looking inside the protocol stacks:
//
//  * uniform total order: the k-th delivery of every process equals the
//    k-th delivery first established by any process.  For a process that
//    crashed and recovered this is the log-prefix property: its log
//    (stable storage) followed by its post-recovery deliveries must still
//    be a prefix of the established order, so a restart that re-delivers
//    or skips shows here;
//  * uniform integrity: no process delivers a message twice, and every
//    delivered message was broadcast, with the broadcast's time stamp;
//  * agreement within the drain bound: verdict() is taken once the run
//    has drained; a broadcast not delivered at every correct process by
//    then is a failed broadcast.
//
// A safety violation (order, duplicate, unknown message, wrong stamp)
// fails every broadcast of the run.  The delivery digest is the FNV-1a
// mix of (process, origin, seq, sent_at, delivery time) of every delivery
// in order, the same fields the golden-seed determinism tests hash.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace fdgm::perf {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

struct Verdict {
  bool safe = true;
  std::uint64_t violations = 0;
  std::string first_violation;  // empty when safe
  std::uint64_t attempted = 0;  // broadcasts issued
  std::uint64_t failed = 0;     // not delivered at every correct process (all, if unsafe)
  std::uint64_t ordered = 0;    // length of the established order
  std::uint64_t shortest_correct_log = 0;
};

class DeliveryChecker {
 public:
  explicit DeliveryChecker(int n)
      : pos_(static_cast<std::size_t>(n), 0),
        due_(static_cast<std::size_t>(n)),
        first_(static_cast<std::size_t>(n)),
        where_(static_cast<std::size_t>(n)) {}

  /// A-broadcast `seq` of `origin` issued at `due`.  Per-origin sequence
  /// numbers are dense from 1, as AtomicBroadcastProcess assigns them.
  void on_broadcast(int origin, std::uint64_t seq, double due) {
    auto& d = due_[static_cast<std::size_t>(origin)];
    if (seq != d.size() + 1) {
      violation("broadcast seq gap at origin " + std::to_string(origin));
      return;
    }
    d.push_back(due);
    first_[static_cast<std::size_t>(origin)].push_back(-1.0);
    where_[static_cast<std::size_t>(origin)].push_back(kNowhere);
    ++attempted_;
  }

  /// Local A-delivery of (origin, seq) stamped `sent_at` at process `p`.
  void on_deliver(int p, int origin, std::uint64_t seq, double sent_at, double now) {
    digest_.mix(static_cast<std::uint64_t>(p));
    digest_.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin)));
    digest_.mix(seq);
    digest_.mix(std::bit_cast<std::uint64_t>(sent_at));
    digest_.mix(std::bit_cast<std::uint64_t>(now));

    const auto o = static_cast<std::size_t>(origin);
    if (origin < 0 || o >= due_.size() || seq == 0 || seq > due_[o].size()) {
      violation("p" + std::to_string(p) + " delivered unknown message " + id_str(origin, seq));
      return;
    }
    const std::size_t i = static_cast<std::size_t>(seq - 1);
    if (due_[o][i] != sent_at) {
      violation("p" + std::to_string(p) + " delivered " + id_str(origin, seq) +
                " with a wrong broadcast stamp");
      return;
    }
    std::uint64_t& k = pos_[static_cast<std::size_t>(p)];
    std::uint64_t& at = where_[o][i];
    if (at == kNowhere) {
      if (k < order_.size()) {
        violation("p" + std::to_string(p) + " delivered " + id_str(origin, seq) +
                  " as #" + std::to_string(k + 1) + ", established #" + std::to_string(k + 1) +
                  " is " + id_str(order_[k].origin, order_[k].seq));
        return;
      }
      at = order_.size();
      order_.push_back({origin, seq});
      first_[o][i] = now;
    } else if (at < k) {
      violation("p" + std::to_string(p) + " delivered " + id_str(origin, seq) + " twice");
      return;
    } else if (at != k) {
      violation("p" + std::to_string(p) + " delivered " + id_str(origin, seq) + " as #" +
                std::to_string(k + 1) + ", established #" + std::to_string(at + 1));
      return;
    }
    ++k;
  }

  /// Verdict over the processes flagged correct (alive at the check).
  [[nodiscard]] Verdict verdict(const std::vector<bool>& correct) const {
    Verdict v;
    v.safe = violations_ == 0;
    v.violations = violations_;
    v.first_violation = first_violation_;
    v.attempted = attempted_;
    v.ordered = order_.size();
    std::uint64_t shortest = order_.size();
    for (std::size_t p = 0; p < pos_.size(); ++p)
      if (p < correct.size() && correct[p]) shortest = std::min(shortest, pos_[p]);
    v.shortest_correct_log = shortest;
    v.failed = v.safe ? attempted_ - shortest : attempted_;
    return v;
  }

  /// L(m) = earliest A-delivery - A-broadcast of every message broadcast
  /// in [from, to) and delivered somewhere, in simulated ms.
  [[nodiscard]] std::vector<double> latencies(double from, double to) const {
    std::vector<double> out;
    for (std::size_t o = 0; o < due_.size(); ++o)
      for (std::size_t i = 0; i < due_[o].size(); ++i)
        if (due_[o][i] >= from && due_[o][i] < to && first_[o][i] >= 0.0)
          out.push_back(first_[o][i] - due_[o][i]);
    return out;
  }

  [[nodiscard]] std::uint64_t digest() const { return digest_.h; }

 private:
  struct Id {
    int origin;
    std::uint64_t seq;
  };
  static constexpr std::uint64_t kNowhere = UINT64_MAX;

  static std::string id_str(int origin, std::uint64_t seq) {
    return "(" + std::to_string(origin) + "," + std::to_string(seq) + ")";
  }
  void violation(std::string what) {
    if (violations_++ == 0) first_violation_ = std::move(what);
  }

  std::vector<std::uint64_t> pos_;                // [p] deliveries so far
  std::vector<std::vector<double>> due_;          // [origin][seq-1] broadcast time
  std::vector<std::vector<double>> first_;        // [origin][seq-1] earliest delivery, -1 none
  std::vector<std::vector<std::uint64_t>> where_; // [origin][seq-1] position in order_
  std::vector<Id> order_;                         // first-established delivery order
  std::uint64_t attempted_ = 0;
  std::uint64_t violations_ = 0;
  std::string first_violation_;
  Fnv digest_;
};

}  // namespace fdgm::perf
