#include "consensus/chandra_toueg.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/observer.hpp"

namespace fdgm::consensus {

namespace {
/// rbcast client tag of the decision dissemination channel.
constexpr int kDecideTag = 0x434f4e53;  // "CONS"
}  // namespace

// ---------------------------------------------------------------- Instance

Instance::Instance(ConsensusService& service, InstanceKey key, net::ProcessId self,
                   StartInfo info)
    : service_(&service), self_(self) {
  reset(key, std::move(info));
}

Instance::~Instance() { retire(); }

void Instance::reset(InstanceKey key, StartInfo info) {
  key_ = key;
  if (info.members == nullptr || info.members->empty())
    throw std::invalid_argument("consensus::Instance: empty membership");
  members_.assign(info.members->begin(), info.members->end());
  offset_ = info.coordinator_offset;
  refresh_ = std::move(info.refresh);
  estimate_ = std::move(info.initial);
  ts_ = 0;
  round_ = 1;
  if (auto* o = service_->system().obs())
    o->count(self_, obs::Counter::kConsensusRounds, service_->system().now());
  done_ = false;
  in_progress_ = false;
  std::sort(members_.begin(), members_.end());
  if (!std::binary_search(members_.begin(), members_.end(), self_))
    throw std::invalid_argument("consensus::Instance: self not a member");
  service_->fd().add_listener(this);
  listening_ = true;
}

void Instance::retire() {
  if (listening_) {
    service_->fd().remove_listener(this);
    listening_ = false;
  }
  for (auto& p : rounds_)
    if (p) p->clear();
  estimate_ = nullptr;
  refresh_ = nullptr;
  done_ = true;
}

Instance::RoundState& Instance::rs(std::uint32_t r) {
  if (rounds_.size() < r) rounds_.resize(r);
  auto& p = rounds_[r - 1];
  if (!p) p = std::make_unique<RoundState>();
  if (p->from.empty()) p->from.assign(members_.size(), RoundState::PerMember{});
  return *p;
}

int Instance::rank_of(net::ProcessId p) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), p);
  if (it == members_.end() || *it != p) return -1;
  return static_cast<int>(it - members_.begin());
}

net::ProcessId Instance::coordinator(std::uint32_t r) const {
  const auto n = members_.size();
  const auto idx = (static_cast<std::size_t>(offset_) + (r - 1)) % n;
  return members_[idx];
}

void Instance::start() { try_progress(); }

void Instance::send_to_coordinator(std::uint32_t r, ConsensusMsg::Kind kind,
                                   net::PayloadPtr value, std::uint32_t ts) {
  const ConsensusMsg* msg =
      service_->system().arena().make<ConsensusMsg>(key_, kind, r, value, ts);
  const net::ProcessId coord = coordinator(r);
  if (coord == self_) {
    on_msg(self_, *msg);  // local bookkeeping, no network cost
  } else {
    service_->unicast(coord, msg);
  }
}

void Instance::on_msg(net::ProcessId from, const ConsensusMsg& m) {
  if (done_) return;
  RoundState& st = rs(m.round);
  const int rank = rank_of(from);
  switch (m.kind) {
    case ConsensusMsg::Kind::kEstimate:
      if (rank >= 0) {
        auto& pm = st.from[static_cast<std::size_t>(rank)];
        if (!(pm.bits & RoundState::kEstimate)) {  // first estimate wins
          pm.bits |= RoundState::kEstimate;
          pm.est_value = m.value;
          pm.est_ts = m.ts;
          ++st.estimates;
        }
      }
      break;
    case ConsensusMsg::Kind::kPropose:
      if (!st.have_proposal) {
        st.have_proposal = true;
        st.proposal = m.value;
      }
      // Jump forward: a proposal proves a majority reached round m.round.
      if (m.round > round_) advance_to(m.round);
      break;
    case ConsensusMsg::Kind::kAck:
      if (rank >= 0) {
        auto& pm = st.from[static_cast<std::size_t>(rank)];
        if (!(pm.bits & RoundState::kAck)) {
          pm.bits |= RoundState::kAck;
          ++st.acks;
        }
      }
      break;
    case ConsensusMsg::Kind::kNack:
      if (rank >= 0) {
        auto& pm = st.from[static_cast<std::size_t>(rank)];
        if (!(pm.bits & RoundState::kNack)) {
          pm.bits |= RoundState::kNack;
          ++st.nacks;
        }
      }
      break;
    case ConsensusMsg::Kind::kRoundFailed:
      st.failed = true;
      // The coordinator of m.round gave up; anyone at or before that round
      // moves on so the next coordinator can collect its estimates.
      if (m.round >= round_) advance_to(m.round + 1);
      break;
    case ConsensusMsg::Kind::kDecide:
      throw std::logic_error("consensus: DECIDE must arrive via reliable broadcast");
  }
  try_progress();
}

void Instance::on_suspect(net::ProcessId p) {
  if (done_) return;
  if (p == coordinator(round_)) try_progress();
}

void Instance::advance_to(std::uint32_t r) {
  if (r <= round_) return;
  if (auto* o = service_->system().obs())
    o->count(self_, obs::Counter::kConsensusRounds, service_->system().now(), r - round_);
  round_ = r;
  RoundState& st = rs(round_);
  if (!st.estimate_sent) {
    st.estimate_sent = true;
    // Round 1 never collects estimates (optimized round), so this only
    // happens for r > 1.
    send_to_coordinator(round_, ConsensusMsg::Kind::kEstimate, estimate_, ts_);
  }
}

void Instance::try_progress() {
  if (in_progress_) return;  // local sends re-enter via on_msg
  in_progress_ = true;
  bool changed = true;
  while (changed && !done_) {
    changed = false;
    const std::uint32_t r = round_;
    const net::ProcessId coord = coordinator(r);
    RoundState& st = rs(r);

    // --- Coordinator: phase 2, issue the proposal.
    if (coord == self_ && !st.proposed) {
      bool can_propose = false;
      net::PayloadPtr value = nullptr;
      if (r == 1) {
        // Optimized first round: propose the initial value directly.
        can_propose = true;
        value = estimate_;
      } else if (st.estimates >= majority()) {
        // Pick the estimate with the highest timestamp (ties broken by the
        // lowest process id — ranks iterate in member order, "first wins").
        std::uint32_t best_ts = 0;
        for (const auto& pm : st.from) {
          if (!(pm.bits & RoundState::kEstimate)) continue;
          if (!value || pm.est_ts > best_ts) {
            value = pm.est_value;
            best_ts = pm.est_ts;
          }
        }
        // Nothing locked anywhere: any proposal is safe.  The coordinator
        // imposes its own estimate (refreshed if the client provides it) —
        // this is the tie-break that lets a round-2 coordinator exclude a
        // process whose own round-1 proposal was nacked away.
        if (best_ts == 0) value = refresh_ ? refresh_() : estimate_;
        can_propose = true;
      }
      if (can_propose) {
        st.proposed = true;
        st.have_proposal = true;
        st.proposal = value;
        const ConsensusMsg* msg = service_->system().arena().make<ConsensusMsg>(
            key_, ConsensusMsg::Kind::kPropose, r, value, /*ts=*/0);
        service_->multicast_others(members_, msg);
        changed = true;
      }
    }

    // --- Participant: phase 3, ack or nack the current round's proposal.
    if (!st.acked && !st.nacked) {
      if (st.have_proposal) {
        estimate_ = st.proposal;
        ts_ = r;
        st.acked = true;
        send_to_coordinator(r, ConsensusMsg::Kind::kAck, nullptr, 0);
        changed = true;
      } else if (service_->fd().suspects(coord) && coord != self_) {
        st.nacked = true;
        send_to_coordinator(r, ConsensusMsg::Kind::kNack, nullptr, 0);
        advance_to(r + 1);
        changed = true;
        continue;
      }
    } else if (st.acked && service_->fd().suspects(coord) && coord != self_) {
      // Lazy rotation: we acknowledged but the coordinator now looks dead;
      // move on so the next coordinator can gather a majority of estimates.
      advance_to(r + 1);
      changed = true;
      continue;
    }

    // --- Coordinator: phase 4, the first majority of replies decides the
    // round's fate: all acks -> decision; any nack -> the round failed.
    if (coord == self_ && st.proposed && !st.resolved && !done_ &&
        st.acks + st.nacks >= majority()) {
      st.resolved = true;
      if (st.nacks == 0) {
        done_ = true;
        service_->decide(key_, members_, st.proposal);
        break;
      }
      // Tell everybody the round failed so that processes waiting for the
      // decision resynchronize immediately instead of waiting for their
      // failure detector.  Counted once, at the coordinator that resolved
      // the round — not at the n-1 receivers of the announcement.
      if (auto* o = service_->system().obs())
        o->count(self_, obs::Counter::kConsensusRoundFails, service_->system().now());
      const ConsensusMsg* msg = service_->system().arena().make<ConsensusMsg>(
          key_, ConsensusMsg::Kind::kRoundFailed, r, nullptr, /*ts=*/0);
      service_->multicast_others(members_, msg);
      advance_to(r + 1);
      changed = true;
    }
  }
  in_progress_ = false;
}

// --------------------------------------------------------- ConsensusService

ConsensusService::ConsensusService(net::System& sys, net::ProcessId self,
                                   fd::FailureDetector& fd, rbcast::ReliableBroadcast& rb)
    : sys_(&sys), self_(self), fd_(&fd), rb_(&rb) {
  sys.node(self).register_handler(net::ProtocolId::kConsensus, this);
  rb.register_client(kDecideTag, [this](net::PayloadPtr inner) { on_decide_rb(inner); });
}

ConsensusService::~ConsensusService() {
  sys_->node(self_).register_handler(net::ProtocolId::kConsensus, nullptr);
}

void ConsensusService::register_context(std::uint32_t context, ContextConfig cfg) {
  if (!contexts_.emplace(context, std::move(cfg)).second)
    throw std::logic_error("ConsensusService: duplicate context");
}

std::unique_ptr<Instance> ConsensusService::acquire_instance(const InstanceKey& key,
                                                             StartInfo info) {
  if (!pool_.empty()) {
    std::unique_ptr<Instance> inst = std::move(pool_.back());
    pool_.pop_back();
    inst->reset(key, std::move(info));
    return inst;
  }
  return std::make_unique<Instance>(*this, key, self_, std::move(info));
}

void ConsensusService::retire(std::unique_ptr<Instance> inst) {
  inst->retire();
  pool_.push_back(std::move(inst));
}

void ConsensusService::start(const InstanceKey& key, StartInfo info) {
  if (decided(key) || instances_.contains(key)) return;
  std::unique_ptr<Instance> inst = acquire_instance(key, std::move(info));
  Instance* raw = inst.get();
  instances_.emplace(key, std::move(inst));
  // Replay messages that arrived before we joined.
  if (auto it = buffered_.find(key); it != buffered_.end()) {
    auto msgs = std::move(it->second);
    buffered_.erase(it);
    for (auto& [from, m] : msgs) raw->on_msg(from, *m);
  }
  raw->start();
}

void ConsensusService::retry_buffered(std::uint32_t context) {
  auto cit = contexts_.find(context);
  if (cit == contexts_.end() || !cit->second.join) return;
  // Collect keys first: start() mutates buffered_.
  std::vector<InstanceKey> keys;
  for (const auto& [key, msgs] : buffered_)
    if (key.context == context && !instances_.contains(key) && !decided(key))
      keys.push_back(key);
  std::sort(keys.begin(), keys.end(),
            [](const InstanceKey& a, const InstanceKey& b) { return a.number < b.number; });
  for (const InstanceKey& key : keys) {
    if (instances_.contains(key) || decided(key)) continue;
    if (auto info = cit->second.join(key)) start(key, std::move(*info));
  }
}

void ConsensusService::close_below(std::uint32_t context, std::uint64_t number) {
  auto& floor = closed_floor_[context];
  if (number <= floor) return;
  floor = number;
  auto below = [&](const InstanceKey& key) {
    return key.context == context && key.number < number;
  };
  for (auto it = instances_.begin(); it != instances_.end();) {
    if (below(it->first)) {
      it->second->halt();
      retire(std::move(it->second));
      it = instances_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = buffered_.begin(); it != buffered_.end();)
    it = below(it->first) ? buffered_.erase(it) : std::next(it);
  for (auto it = decided_.begin(); it != decided_.end();)
    it = below(*it) ? decided_.erase(it) : std::next(it);
}

void ConsensusService::on_message(const net::Message& m) {
  const ConsensusMsg* cm = net::payload_cast<ConsensusMsg>(m);
  if (cm == nullptr) throw std::logic_error("ConsensusService: foreign payload");
  dispatch(m.src, cm);
}

void ConsensusService::dispatch(net::ProcessId from, const ConsensusMsg* m) {
  if (decided(m->key)) return;  // stale traffic for a closed instance
  if (auto it = instances_.find(m->key); it != instances_.end()) {
    it->second->on_msg(from, *m);
    return;
  }
  // Unknown instance: ask the owning context whether to join now.
  auto cit = contexts_.find(m->key.context);
  if (cit == contexts_.end()) throw std::logic_error("ConsensusService: unknown context");
  if (cit->second.join) {
    if (auto info = cit->second.join(m->key)) {
      buffered_[m->key].emplace_back(from, m);
      start(m->key, std::move(*info));
      return;
    }
  }
  buffered_[m->key].emplace_back(from, m);
}

void ConsensusService::unicast(net::ProcessId dst, const ConsensusMsg* m) {
  sys_->node(self_).send(dst, net::ProtocolId::kConsensus, m);
}

void ConsensusService::multicast_others(const std::vector<net::ProcessId>& members,
                                        const ConsensusMsg* m) {
  sys_->node(self_).multicast_others(members, net::ProtocolId::kConsensus, m);
}

void ConsensusService::decide(const InstanceKey& key, const std::vector<net::ProcessId>& members,
                              net::PayloadPtr value) {
  const ConsensusMsg* msg = sys_->arena().make<ConsensusMsg>(
      key, ConsensusMsg::Kind::kDecide, /*round=*/0, value, /*ts=*/0);
  rb_->broadcast_group(kDecideTag, members, msg);
}

void ConsensusService::on_decide_rb(net::PayloadPtr inner) {
  const ConsensusMsg* cm = net::payload_cast<ConsensusMsg>(inner);
  if (cm == nullptr || cm->kind != ConsensusMsg::Kind::kDecide)
    throw std::logic_error("ConsensusService: bad decision payload");
  if (below_floor(cm->key)) return;              // settled out of band already
  if (!decided_.insert(cm->key).second) return;  // duplicate decision
  if (auto it = instances_.find(cm->key); it != instances_.end()) {
    // halt() now; retire later.  The decision can arrive synchronously
    // from inside the instance's own try_progress (the coordinator's local
    // rbcast delivery), so pooling here could hand a live stack frame's
    // instance to a new key.
    it->second->halt();
    const InstanceKey key = cm->key;
    sys_->scheduler().schedule_after(0, [this, key] {
      auto dit = instances_.find(key);
      if (dit == instances_.end()) return;  // close_below retired it already
      retire(std::move(dit->second));
      instances_.erase(dit);
    });
  }
  buffered_.erase(cm->key);
  auto cit = contexts_.find(cm->key.context);
  if (cit == contexts_.end()) throw std::logic_error("ConsensusService: unknown context");
  cit->second.on_decide(cm->key, cm->value);
}

}  // namespace fdgm::consensus
