// Shared by the FD, GM and fault-injection tests: a group of one stack's
// processes, and the uniform atomic broadcast safety properties checked
// over A-delivery logs.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "abcast/abcast.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "sim/rng.hpp"

namespace fdgm::abcast {

/// The ids of a process's A-delivery log, in delivery order.
inline std::vector<MsgId> log_ids(const AtomicBroadcastProcess& p) {
  std::vector<MsgId> ids;
  for (AppMessagePtr m : p.log()) ids.push_back(m->id);
  return ids;
}

/// Uniform total order: the shorter of two logs is a prefix of the longer.
inline void expect_prefix_order(const AtomicBroadcastProcess& a, const AtomicBroadcastProcess& b) {
  const std::vector<MsgId> la = log_ids(a);
  const std::vector<MsgId> lb = log_ids(b);
  const std::size_t k = std::min(la.size(), lb.size());
  const auto end = la.begin() + static_cast<std::ptrdiff_t>(k);
  const auto diverged = std::mismatch(la.begin(), end, lb.begin()).first;
  EXPECT_EQ(static_cast<std::size_t>(diverged - la.begin()), k)
      << "order divergence between " << a.id() << " and " << b.id();
}

/// Integrity (no duplicates), uniform total order (pairwise prefixes,
/// crashed processes included) and, for the ids in `must_deliver`,
/// validity at every correct process.
inline void expect_safety(const net::System& sys,
                          const std::vector<const AtomicBroadcastProcess*>& procs,
                          const std::vector<MsgId>& must_deliver = {}) {
  for (std::size_t a = 0; a < procs.size(); ++a) {
    std::vector<MsgId> seen = log_ids(*procs[a]);
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
        << "duplicate delivery at " << procs[a]->id();
    for (std::size_t b = a + 1; b < procs.size(); ++b) expect_prefix_order(*procs[a], *procs[b]);
    if (sys.node(procs[a]->id()).crashed()) continue;
    for (const MsgId& id : must_deliver)
      EXPECT_TRUE(std::binary_search(seen.begin(), seen.end(), id))
          << "message not delivered at correct process " << procs[a]->id();
  }
}

/// n processes of one stack over the QoS failure detector model.
template <class Proc, class Config>
struct StackFixture {
  explicit StackFixture(int n, fd::QosParams qp = {}, std::uint64_t seed = 1, Config cfg = {})
      : sys(n, {}, seed), fd(sys, qp) {
    for (int i = 0; i < n; ++i) procs.push_back(std::make_unique<Proc>(sys, i, fd.at(i), cfg));
    fd.start();
  }

  void check_safety(const std::vector<MsgId>& must_deliver = {}) {
    std::vector<const AtomicBroadcastProcess*> logs;
    for (const auto& p : procs) logs.push_back(p.get());
    expect_safety(sys, logs, must_deliver);
  }

  /// Property-sweep load: 60 A-broadcasts from random senders over
  /// [0, 300) ms, and p0..p(crashes-1) crash within [5, 200) ms.  Ids
  /// accepted from senders that never crash collect in `from_correct`.
  void random_load(sim::Rng& rng, int crashes) {
    const int n = static_cast<int>(procs.size());
    for (int i = 0; i < 60; ++i) {
      const double t = rng.uniform(0.0, 300.0);
      const auto sender = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      sys.scheduler().schedule_at(t, [this, sender, crashes] {
        const MsgId id = procs[sender]->a_broadcast();
        if (id.seq != 0 && id.origin >= crashes) from_correct.push_back(id);
      });
    }
    for (int c = 0; c < crashes; ++c) sys.crash_at(c, rng.uniform(5.0, 200.0));
  }

  net::System sys;
  fd::QosFailureDetectorModel fd;
  std::vector<std::unique_ptr<Proc>> procs;
  std::vector<MsgId> from_correct;
};

/// One point of the random fault-schedule property sweep.
struct SweepParam {
  int n;
  std::uint64_t seed;
  int crashes;
  bool suspicions;
};

/// n in {3, 5, 7} x four seeds x {no crash, a minority crashes} x
/// {with, without} wrong suspicions.
inline std::vector<SweepParam> sweep_grid() {
  std::vector<SweepParam> out;
  for (int n : {3, 5, 7})
    for (std::uint64_t s : {11ULL, 22ULL, 33ULL, 44ULL})
      for (int crashes : {0, (n - 1) / 2})
        for (bool susp : {false, true}) out.push_back({n, s, crashes, susp});
  return out;
}

inline std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  return "i" + std::to_string(info.index) + "_n" + std::to_string(p.n) + "_c" +
         std::to_string(p.crashes) + (p.suspicions ? "_susp" : "_clean");
}

}  // namespace fdgm::abcast
