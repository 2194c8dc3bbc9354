#include "abcast/fd_abcast.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "obs/observer.hpp"

namespace fdgm::abcast {

namespace {
constexpr int kDataTag = 0x41424344;        // "ABCD": data dissemination channel
constexpr std::uint32_t kAbcastContext = 0;  // consensus context of the FD algorithm
/// Crash-recovery catch-up: period (ms) of the watchdog that re-requests a
/// log sync from the peers while the recovered process is behind.
constexpr double kSyncRetryMs = 100.0;
}  // namespace

// ------------------------------------------------ crash-recovery wire types
// Payload kinds on kAtomicBroadcast: the FD stack uses 0..7, the GM stack
// (gm_abcast.cpp) 8..15, so the two stacks can never mis-cast each
// other's payloads even inside one test binary.

/// "Send me everything after log position `log_len`."
class FdAbcastProcess::SyncReq final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 0;
  explicit SyncReq(std::uint64_t log_len) : Payload(kProto, kKind), log_len(log_len) {}
  std::uint64_t log_len;
};

/// A peer's snapshot: the log suffix the requester misses, the peer's
/// consensus position, its rotation anchors and its undecided contents.
class FdAbcastProcess::SyncResp final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 1;
  SyncResp() : Payload(kProto, kKind) {}
  std::uint64_t from_len = 0;                        // echo of the request
  std::vector<AppMessagePtr> suffix;                 // log()[from_len..)
  std::uint64_t next = 1;                            // peer's next_to_process_
  std::map<std::uint64_t, net::ProcessId> winners;   // rotation anchors
  std::vector<AppMessagePtr> pending;                // undecided contents
};

FdAbcastProcess::FdAbcastProcess(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                                 FdAbcastConfig cfg)
    : AtomicBroadcastProcess(sys, self, cfg.batching),
      fd_(&fd),
      cfg_(cfg),
      rb_(sys, self),
      consensus_(sys, self, fd, rb_) {
  sys.node(self).register_handler(net::ProtocolId::kAtomicBroadcast, this);
  rb_.register_client(kDataTag, [this](net::PayloadPtr inner) { on_data(inner); });
  consensus_.register_context(
      kAbcastContext,
      consensus::ConsensusService::ContextConfig{
          .join =
              [this](const consensus::InstanceKey& key)
                  -> std::optional<consensus::StartInfo> {
                // Traffic for instances beyond the pipeline window is
                // buffered until our decisions catch up (retry_buffered is
                // called as they are processed).
                if (!can_start(key.number)) return std::nullopt;
                return make_start_info(key.number);
              },
          .on_decide = [this](const consensus::InstanceKey& key,
                              const net::PayloadPtr& value) { on_decide(key, value); },
      });
}

FdAbcastProcess::~FdAbcastProcess() {
  sys_->node(self_).register_handler(net::ProtocolId::kAtomicBroadcast, nullptr);
}

void FdAbcastProcess::submit_now(AppMessagePtr msg) {
  rb_.broadcast(kDataTag, msg);  // delivers locally too -> on_data
}

void FdAbcastProcess::flush_batch(const AppMessagePtr* msgs, std::size_t count) {
  // One rbcast slot (and later one proposal slot) carries the whole batch;
  // receivers unpack it back into per-message pending entries, so the
  // ordering machinery below is unchanged.
  rb_.broadcast(kDataTag, sys_->arena().make<AppBatch>(
                              std::vector<AppMessagePtr>(msgs, msgs + count)));
}

// ------------------------------------------------- crash-recovery catch-up

void FdAbcastProcess::on_restart() {
  // Stable storage is the base's (AtomicBroadcastProcess::on_restart).
  // Decisions and message contents are objective data and stay; only this
  // incarnation's proposal marks are void (our in-flight proposals died
  // with us), so every still-pending id becomes proposable again.
  for (auto& [id, p] : pending_) p.proposed_in = 0;
  proposed_count_ = 0;
  AtomicBroadcastProcess::on_restart();
  syncing_ = true;
  ++sync_epoch_;
  send_sync_req();
  watch_log_ = delivered_count();
  watch_next_ = next_to_process_;
  const std::uint64_t epoch = sync_epoch_;
  sys_->scheduler().schedule_after(kSyncRetryMs, [this, epoch] { catchup_tick(epoch); });
}

void FdAbcastProcess::send_sync_req() {
  if (sys_->n() == 1) {
    syncing_ = false;  // single-process system: nothing to catch up on
    return;
  }
  sys_->node(self_).multicast_others(sys_->all(), net::ProtocolId::kAtomicBroadcast,
                                     sys_->arena().make<SyncReq>(delivered_count()));
}

void FdAbcastProcess::catchup_tick(std::uint64_t epoch) {
  if (epoch != sync_epoch_) return;   // superseded by a newer restart
  if (sys_->node(self_).crashed()) return;  // dies with us; a restart re-arms
  // Re-request while behind: either no peer answered yet, or nothing
  // progressed over a whole period although work is outstanding (a
  // decision or content we will never receive was in flight during the
  // previous sync).  A healthy process makes progress between ticks and
  // sends nothing here.
  const bool stalled = delivered_count() == watch_log_ && next_to_process_ == watch_next_;
  const bool outstanding = !pending_.empty() || !ready_decisions_.empty();
  if (syncing_ || (stalled && outstanding)) send_sync_req();
  if (!syncing_ && !outstanding) return;  // caught up and quiet: the watchdog retires
  watch_log_ = delivered_count();
  watch_next_ = next_to_process_;
  sys_->scheduler().schedule_after(kSyncRetryMs, [this, epoch] { catchup_tick(epoch); });
}

void FdAbcastProcess::handle_sync_req(net::ProcessId from, const SyncReq& req) {
  // Only a peer that can cover the whole missing suffix responds, and only
  // the first such peer by id (by local suspicion knowledge) — the
  // requester ignores duplicates, this merely bounds the traffic.
  if (delivered_count() < req.log_len) return;
  for (net::ProcessId q : sys_->all())
    if (q != from && q != self_ && q < self_ && !fd_->suspects(q)) return;
  SyncResp* resp = sys_->arena().make<SyncResp>();
  resp->from_len = req.log_len;
  resp->suffix.assign(log().begin() + static_cast<std::ptrdiff_t>(req.log_len), log().end());
  resp->next = next_to_process_;
  resp->winners = winners_;
  resp->pending.reserve(pending_.size());
  for (const auto& [id, p] : pending_) resp->pending.push_back(p.msg);
  sys_->node(self_).send(from, net::ProtocolId::kAtomicBroadcast, resp);
}

void FdAbcastProcess::apply_sync_resp(const SyncResp& resp) {
  if (resp.from_len != delivered_count()) return;  // stale (an earlier sync applied)
  syncing_ = false;
  for (AppMessagePtr msg : resp.suffix) {
    // pending_ never holds a delivered id: a repeat finds no entry here
    // and record_delivery refuses it.
    if (auto it = pending_.find(msg->id); it != pending_.end()) erase_pending(it);
    record_delivery(msg);
  }
  for (AppMessagePtr msg : resp.pending)
    if (!delivered(msg->id)) pending_.try_emplace(msg->id, msg);
  if (resp.next > next_to_process_) {
    next_to_process_ = resp.next;
    for (const auto& [number, winner] : resp.winners) winners_.insert_or_assign(number, winner);
    while (!winners_.empty() && winners_.begin()->first + kPipelineDepth < next_to_process_)
      winners_.erase(winners_.begin());
    ready_decisions_.erase(ready_decisions_.begin(),
                           ready_decisions_.lower_bound(next_to_process_));
    consensus_.close_below(kAbcastContext, next_to_process_);
  }
  process_ready_decisions();
  maybe_start_next();
}

void FdAbcastProcess::on_message(const net::Message& m) {
  if (auto req = net::payload_cast<SyncReq>(m)) {
    handle_sync_req(m.src, *req);
    return;
  }
  if (auto resp = net::payload_cast<SyncResp>(m)) {
    apply_sync_resp(*resp);
    return;
  }
  throw std::logic_error("FdAbcastProcess: foreign payload");
}

void FdAbcastProcess::on_data(net::PayloadPtr inner) {
  bool admitted = false;
  if (const AppMessage* msg = net::payload_cast<AppMessage>(inner)) {
    admitted = admit_data(*msg);
  } else if (const AppBatch* batch = net::payload_cast<AppBatch>(inner)) {
    for (AppMessagePtr m : batch->msgs) admitted |= admit_data(*m);
  } else {
    throw std::logic_error("FdAbcastProcess: bad data payload");
  }
  if (!admitted) return;  // everything in it already delivered (e.g. by a sync)
  process_ready_decisions();  // a decision may have been waiting for this content
  maybe_start_next();
}

bool FdAbcastProcess::admit_data(const AppMessage& msg) {
  if (delivered(msg.id)) return false;
  pending_.try_emplace(msg.id, &msg);
  return true;
}

void FdAbcastProcess::erase_pending(PendingMap::iterator it) {
  if (it->second.proposed_in != 0) --proposed_count_;
  pending_.erase(it);
}

int FdAbcastProcess::offset_for(std::uint64_t number) const {
  if (!cfg_.renumbering || number <= kPipelineDepth) return 0;
  auto it = winners_.find(number - kPipelineDepth);
  return it == winners_.end() ? 0 : it->second;
}

consensus::StartInfo FdAbcastProcess::make_start_info(std::uint64_t number) {
  return consensus::StartInfo{
      .members = &sys_->all(),
      .coordinator_offset = offset_for(number),
      .initial = propose_pending(number),
      // Recovery rounds with no locked value may batch in later arrivals.
      .refresh = [this, number] { return propose_pending(number); },
  };
}

net::PayloadPtr FdAbcastProcess::propose_pending(std::uint64_t number) {
  std::vector<MsgId> ids;
  ids.reserve(pending_.size());
  for (auto& [id, p] : pending_) {
    ids.push_back(id);
    if (p.proposed_in == 0) ++proposed_count_;
    p.proposed_in = std::max(p.proposed_in, number);
  }
  // Causal anchor: the consensus round covering these messages starts
  // here; the walker closes the interval at the decision (on_ordered).
  if (auto* o = sys_->obs(); o != nullptr && o->causal()) {
    obs::MsgRefList refs;
    for (const MsgId& id : ids) refs.add(id.origin, id.seq);
    o->trace_marker(obs::EdgeKind::kConsStart, self_, refs, sys_->now());
  }
  return sys_->arena().make<Proposal>(self_, std::move(ids));
}

void FdAbcastProcess::maybe_start_next() {
  // Start the lowest startable instance when some pending message is not
  // yet covered by a proposal of ours.  Messages arriving while the
  // pipeline is full batch into a later instance (aggregation, §4.1).
  //
  // proposed_count_ counts the marked entries of pending_, so "some
  // pending message is uncovered" is a size comparison — O(1) instead of
  // an O(pending) scan per delivery/arrival, which dominated large-n runs.
  if (proposed_count_ == pending_.size()) return;
  std::uint64_t k = next_to_process_;
  while (can_start(k)) {
    const consensus::InstanceKey key{kAbcastContext, k};
    if (!consensus_.running(key) && !consensus_.decided(key)) {
      consensus_.start(key, make_start_info(k));
      return;
    }
    ++k;
  }
}

void FdAbcastProcess::on_decide(const consensus::InstanceKey& key, const net::PayloadPtr& value) {
  const Proposal* prop = net::payload_cast<Proposal>(value);
  if (prop == nullptr) throw std::logic_error("FdAbcastProcess: bad decision payload");
  // A consensus decision fixes the global order of every message it
  // covers; first-write-wins in the observer makes this the *earliest*
  // decision instant across the n processes deciding the instance.
  if (auto* o = sys_->obs()) {
    for (const MsgId& id : prop->ids) o->on_ordered(id.origin, id.seq, sys_->now(), self_);
  }
  ready_decisions_.emplace(key.number, prop);
  process_ready_decisions();
  maybe_start_next();
}

void FdAbcastProcess::process_ready_decisions() {
  bool applied = false;
  while (true) {
    auto it = ready_decisions_.find(next_to_process_);
    if (it == ready_decisions_.end()) break;
    const Proposal& prop = *it->second;
    // Deliver the decision's messages in id order.  All correct processes
    // apply the same vector, so the delivery order is identical everywhere.
    for (const MsgId& id : prop.ids) {
      if (delivered(id)) continue;
      auto pit = pending_.find(id);
      if (pit == pending_.end()) return;  // content not yet R-delivered; retry on arrival
      AppMessagePtr msg = pit->second.msg;
      erase_pending(pit);
      record_delivery(msg);
    }
    // Re-proposal: ids whose latest proposal lost (mark at or below the
    // decision just applied) become uncovered again.
    for (auto& [id, p] : pending_) {
      if (p.proposed_in != 0 && p.proposed_in <= next_to_process_) {
        p.proposed_in = 0;
        --proposed_count_;
      }
    }
    winners_.emplace(next_to_process_, prop.proposer);
    while (!winners_.empty() && winners_.begin()->first + kPipelineDepth < next_to_process_)
      winners_.erase(winners_.begin());
    ready_decisions_.erase(it);
    ++next_to_process_;
    applied = true;
  }
  // The window may have opened: retry joins buffered by the service and
  // any local starts we deferred.  The window (can_start) only moves when
  // next_to_process_ advanced, so the retry is skipped — identically, not
  // just cheaply — when nothing was applied: this function runs on every
  // content arrival.
  if (!applied) return;
  consensus_.retry_buffered(kAbcastContext);
  maybe_start_next();
}

}  // namespace fdgm::abcast

namespace fdgm::obs {

// Defined here because the Proposal payload is private to the FD stack.
void classify_fd_payload(net::PayloadPtr p, MsgRefList& out) {
  using Proposal = abcast::FdAbcastProcess::Proposal;
  if (const auto* prop = net::payload_cast<Proposal>(p)) {
    for (const abcast::MsgId& id : prop->ids) out.add(id.origin, id.seq);
  }
  // SyncReq / SyncResp are recovery control traffic: no live message of
  // the steady-state critical path rides them.
}

}  // namespace fdgm::obs
