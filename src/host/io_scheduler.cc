#include "host/io_scheduler.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "ftl/ftl_base.h"
#include "util/logging.h"

namespace ctflash::host {

namespace {

/// Adapter presenting the legacy OnDispatch(std::function) hook as a
/// SchedulerObserver, so the scheduler maintains exactly one dispatch
/// notification pathway.
class CallbackObserver final : public sched::SchedulerObserver {
 public:
  explicit CallbackObserver(IoScheduler::DispatchCallback cb)
      : cb_(std::move(cb)) {}

  void OnDispatch(const sched::FlashTransaction& txn,
                  const sched::DispatchContext&) override {
    cb_(txn);
  }
  void OnTxnExecuted(const sched::FlashTransaction&, std::uint32_t, Us,
                     Us) override {}

 private:
  IoScheduler::DispatchCallback cb_;
};

}  // namespace

const char* SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kOutOfOrder:
      return "out-of-order";
  }
  return "?";
}

IoScheduler::IoScheduler(ssd::Ssd& ssd, sim::EventQueue& queue,
                         SchedPolicy policy, std::uint32_t device_slots,
                         std::uint32_t gc_aging_limit,
                         std::uint32_t write_aging_limit,
                         qos::TenantTable* tenants)
    : ssd_(ssd),
      queue_(queue),
      policy_(policy),
      device_slots_(device_slots),
      gc_aging_limit_(gc_aging_limit),
      write_aging_limit_(write_aging_limit),
      tenants_(tenants) {
  if (device_slots == 0) {
    throw std::invalid_argument("IoScheduler: device_slots must be > 0");
  }
  if (gc_aging_limit == 0) {
    throw std::invalid_argument("IoScheduler: gc_aging_limit must be > 0");
  }
  const std::uint32_t slots = tenants_ != nullptr ? tenants_->TenantCount() : 1;
  if (tenants_ != nullptr) arb_active_.resize(slots);
  // Queue layout: per tenant slot, one read queue per global plane plus the
  // neutral (unmapped) queue; then one write FIFO per slot; then one GC
  // copy queue per plane.
  const auto& geo = ssd_.target().geometry();
  planes_ = static_cast<std::uint32_t>(geo.TotalPlanes());
  first_write_queue_ = slots * (planes_ + 1);
  first_gc_queue_ = first_write_queue_ + slots;
  queues_.assign(first_gc_queue_ + planes_, Queue{kNil, kNil, kNeutralPlane});
  for (std::uint32_t p = 0; p < planes_; ++p) {
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
      queues_[slot * (planes_ + 1) + p].plane = p;
    }
    queues_[first_gc_queue_ + p].plane = p;
  }
  nonempty_.assign((queues_.size() + 63) / 64, 0);
  if (ssd_.ftl().config().gc_routing == ftl::GcRouting::kScheduled) {
    ssd_.ftl().AttachGcScheduler();
    attached_gc_ = true;
  }
}

IoScheduler::~IoScheduler() {
  if (attached_gc_) ssd_.ftl().DetachGcScheduler();
}

void IoScheduler::OnDispatch(DispatchCallback cb) {
  if (dispatch_adapter_ != nullptr) {
    DetachObserver(dispatch_adapter_.get());
    dispatch_adapter_.reset();
  }
  if (cb) {
    dispatch_adapter_ = std::make_unique<CallbackObserver>(std::move(cb));
    AttachObserver(dispatch_adapter_.get());
  }
}

void IoScheduler::AttachObserver(sched::SchedulerObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

void IoScheduler::DetachObserver(sched::SchedulerObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void IoScheduler::Enqueue(FlashTransaction txn) {
  txn.seq = next_seq_++;
  Admit(txn);
  Pump();
}

void IoScheduler::PullGcWork() {
  auto& ftl = ssd_.ftl();
  if (!ftl.ScheduledGcActive()) return;
  gc_intake_.clear();
  ftl.DrainGcTransactions(gc_intake_);
  for (auto& txn : gc_intake_) {
    txn.seq = next_seq_++;
    Admit(txn);
  }
}

void IoScheduler::Admit(const FlashTransaction& txn) {
  std::uint32_t node = free_nodes_;
  if (node == kNil) {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    free_nodes_ = nodes_[node].next;
  }
  ReadyTxn& rt = nodes_[node];
  rt = ReadyTxn{txn, queue_.Now()};
  ++ready_count_;
  switch (txn.source) {
    case sched::TxnSource::kHostRead:
      // With no read waiting, every waiting read is resolved at the
      // current mapping once this one is.
      if (reads_ready_++ == 0) {
        reads_resolved_at_ = ssd_.ftl().mapping().change_count();
      }
      Append(ReadQueueOf(txn), node);
      return;
    case sched::TxnSource::kHostWrite:
      rt.age_base = host_read_dispatches_;
      rt.held_base = write_hold_picks_;
      ++writes_ready_;
      Append(first_write_queue_ + SlotOf(txn), node);
      return;
    case sched::TxnSource::kGcCopy: {
      rt.age_base = host_dispatches_;
      ++gc_ready_;
      gc_copies_undispatched_[txn.gc_block]++;
      const BlockId src = ssd_.target().geometry().BlockOf(txn.gc_src);
      Append(first_gc_queue_ + static_cast<std::uint32_t>(src % planes_), node);
      return;
    }
    case sched::TxnSource::kGcErase:
      rt.age_base = host_dispatches_;
      rt.queue = kEraseList;
      ++gc_ready_;
      erases_.push_back(node);
      return;
  }
}

std::uint32_t IoScheduler::SlotOf(const FlashTransaction& txn) const {
  if (tenants_ == nullptr) return 0;
  CTFLASH_CHECK(txn.tenant < arb_active_.size());
  return txn.tenant;
}

std::uint32_t IoScheduler::ReadQueueOf(const FlashTransaction& txn) const {
  const Ppn ppn = ssd_.ftl().ProbePpn(txn.lpn);
  // planes_ indexes the slot's neutral queue: no flash work, no plane.
  const std::uint64_t plane =
      ppn == kInvalidPpn ? planes_
                         : ssd_.target().geometry().BlockOf(ppn) % planes_;
  return SlotOf(txn) * (planes_ + 1) + static_cast<std::uint32_t>(plane);
}

void IoScheduler::Append(std::uint32_t queue, std::uint32_t node) {
  ReadyTxn& rt = nodes_[node];
  rt.queue = queue;
  rt.next = kNil;
  Queue& q = queues_[queue];
  if (q.tail == kNil) {
    q.head = node;
    nonempty_[queue / 64] |= 1ull << (queue % 64);
  } else {
    nodes_[q.tail].next = node;
  }
  q.tail = node;
}

void IoScheduler::ResolveReads() {
  // Unlink the reads whose page now sits on another plane (or lost its
  // mapping); the reads that stay keep their intake order ...
  resolve_scratch_.clear();
  for (std::uint32_t queue = 0; queue < first_write_queue_; ++queue) {
    Queue& q = queues_[queue];
    std::uint32_t prev = kNil;
    for (std::uint32_t n = q.head; n != kNil;) {
      const std::uint32_t next = nodes_[n].next;
      if (ReadQueueOf(nodes_[n].txn) == queue) {
        prev = n;
      } else {
        (prev == kNil ? q.head : nodes_[prev].next) = next;
        if (q.tail == n) q.tail = prev;
        resolve_scratch_.push_back(n);
      }
      n = next;
    }
    if (q.head == kNil) nonempty_[queue / 64] &= ~(1ull << (queue % 64));
  }
  // ... and the moved ones go to their new queue at their intake position.
  std::sort(resolve_scratch_.begin(), resolve_scratch_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return nodes_[a].txn.seq < nodes_[b].txn.seq;
            });
  for (const std::uint32_t n : resolve_scratch_) {
    const std::uint32_t queue = ReadQueueOf(nodes_[n].txn);
    const Queue& q = queues_[queue];
    if (q.tail == kNil || nodes_[q.tail].txn.seq < nodes_[n].txn.seq) {
      Append(queue, n);
      continue;
    }
    // The tail is later, so the walk stops inside the queue.
    std::uint32_t* link = &queues_[queue].head;
    while (nodes_[*link].txn.seq < nodes_[n].txn.seq) {
      link = &nodes_[*link].next;
    }
    nodes_[n].queue = queue;
    nodes_[n].next = *link;
    *link = n;
  }
  reads_resolved_at_ = ssd_.ftl().mapping().change_count();
}

template <typename Fn>
void IoScheduler::ForEachCandidate(Fn&& fn) const {
  for (std::size_t w = 0; w < nonempty_.size(); ++w) {
    for (std::uint64_t bits = nonempty_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t queue = w * 64 + std::countr_zero(bits);
      fn(queues_[queue].head);
    }
  }
  for (const std::uint32_t node : erases_) fn(node);
}

bool IoScheduler::Eligible(const ReadyTxn& rt, bool writes_held) const {
  switch (rt.txn.source) {
    case sched::TxnSource::kHostWrite:
      // Admission guard: while GC work is ready and the pool sits at the
      // write floor, writes wait so GC can replenish first.
      return !writes_held;
    case sched::TxnSource::kGcErase: {
      // The victim must be fully relocated before it is erased.
      const auto it = gc_copies_undispatched_.find(rt.txn.gc_block);
      return it == gc_copies_undispatched_.end() || it->second == 0;
    }
    default:
      return true;
  }
}

int IoScheduler::RankOf(const ReadyTxn& rt, bool urgent) const {
  // Ranks derive from the sched::PriorityOf class ordering (host-read >
  // host-write > gc-copy > gc-erase), with one slot between reads and
  // writes reserved for GC that is urgent (pool at the GC trigger) or
  // aged out — boosted GC overtakes host writes, never host reads.
  constexpr int kBoostedGcRank = 1;
  if (sched::IsGc(rt.txn.source) &&
      (urgent || host_dispatches_ - rt.age_base >= gc_aging_limit_)) {
    return kBoostedGcRank;
  }
  // Write aging closes the read-flood starvation gap: an aged host write
  // joins the read rank (and competes there on die keys), so sustained
  // reads can defer a write by at most `write_aging_limit` dispatches.
  if (rt.txn.source == sched::TxnSource::kHostWrite &&
      write_aging_limit_ > 0 &&
      host_read_dispatches_ - rt.age_base >= write_aging_limit_) {
    return 0;
  }
  const int priority = sched::PriorityOf(rt.txn.source);
  return priority == 0 ? 0 : priority + 1;
}

IoScheduler::DispatchKey IoScheduler::PlaneKey(std::uint32_t plane) const {
  // Blocks are numbered plane-major, so block `plane` is the first block of
  // global plane `plane`: its decoded location names the plane's die and
  // its plane within that die.
  const nand::BlockLocation& loc = ssd_.target().nand().LocationOf(plane);
  return {ssd_.target().dies().At(loc.die).FreeAt(), loc.plane};
}

IoScheduler::DispatchKey IoScheduler::KeyOf(const ReadyTxn& rt,
                                            Us write_free_at) const {
  switch (rt.txn.source) {
    case sched::TxnSource::kHostWrite:
      // A write's die is decided by the FTL's write-frontier allocator at
      // dispatch time; the allocator's earliest frontier die (probed once
      // per PickNext — it is transaction-independent) is the best
      // prediction of when the program could start.
      return {write_free_at, 0};
    case sched::TxnSource::kHostRead:
    case sched::TxnSource::kGcCopy: {
      // A read's queue is the plane of its page (resolved against the
      // current mapping before the pick); a copy's is its source page's
      // plane (the destination die is the GC frontier's business at
      // execution time).
      const std::uint32_t plane = queues_[rt.queue].plane;
      if (plane == kNeutralPlane) {
        // An unmapped read has no flash work at all: startable now, but on
        // no die — the neutral plane loses every tie so it cannot leapfrog
        // real work that is also startable (it has no die to win for
        // anyone).
        return {0, kNeutralPlane};
      }
      return PlaneKey(plane);
    }
    case sched::TxnSource::kGcErase:
      return PlaneKey(static_cast<std::uint32_t>(rt.txn.gc_block % planes_));
  }
  return {0, 0};
}

sched::DispatchContext IoScheduler::ContextOf(const ReadyTxn& rt) const {
  sched::DispatchContext ctx;
  ctx.dispatch_us = queue_.Now();
  ctx.enqueue_us = rt.enqueue_us;
  ctx.write_held = rt.txn.source == sched::TxnSource::kHostWrite &&
                   write_hold_picks_ != rt.held_base;
  const ftl::FlashTarget& target = ssd_.target();
  const auto on_block = [&](BlockId block) {
    ctx.die = target.nand().LocationOf(block).die;
    ctx.die_free_at = target.dies().At(ctx.die).FreeAt();
  };
  switch (rt.txn.source) {
    case sched::TxnSource::kHostRead: {
      const Ppn ppn = ssd_.ftl().ProbePpn(rt.txn.lpn);
      if (ppn != kInvalidPpn) on_block(target.geometry().BlockOf(ppn));
      break;
    }
    case sched::TxnSource::kHostWrite:
      // The write's die is the allocator's business at execution time; the
      // frontier probe still bounds when the program can start.
      ctx.die_free_at =
          ssd_.ftl().ProbeWriteFreeAt().value_or(ctx.dispatch_us);
      break;
    case sched::TxnSource::kGcCopy:
      on_block(target.geometry().BlockOf(rt.txn.gc_src));
      break;
    case sched::TxnSource::kGcErase:
      on_block(rt.txn.gc_block);
      break;
  }
  return ctx;
}

std::uint32_t IoScheduler::PickNext(bool urgent, bool write_pressure) {
  const bool writes_held = write_pressure && gc_ready_ > 0;
  std::uint32_t best = kNil;
  if (policy_ == SchedPolicy::kFifo) {
    // Strict intake order among eligible transactions.  Every queue is in
    // intake order with one eligibility, so the earliest is a front.
    ForEachCandidate([&](std::uint32_t node) {
      const ReadyTxn& rt = nodes_[node];
      if (!Eligible(rt, writes_held)) return;
      if (best == kNil || rt.txn.seq < nodes_[best].txn.seq) best = node;
    });
    return best;
  }
  // Out-of-order: lowest priority rank wins; within a rank the earliest
  // predicted die availability, then the plane stripe, then intake order.
  const Us now = queue_.Now();
  const Us write_free_at =
      writes_ready_ > 0 ? ssd_.ftl().ProbeWriteFreeAt().value_or(0) : 0;

  // Multi-tenant arbitration inserts one step between the rank and the die
  // key: find the winning rank, let the tenant table pick the tenant to
  // serve (weighted DRR + min-share floor), then key-order only within that
  // tenant's candidates.  A tenant has eligible work at the winning rank
  // iff one of its fronts does (fronts hold their queue's lowest rank).
  qos::TenantId serve = qos::kNoTenant;
  if (tenants_ != nullptr) {
    // One pass: track the winning rank, restarting the per-tenant active
    // set whenever a strictly lower rank appears.
    int winning_rank = -1;
    bool any_tenant = false;
    ForEachCandidate([&](std::uint32_t node) {
      const ReadyTxn& rt = nodes_[node];
      if (!Eligible(rt, writes_held)) return;
      const int rank = RankOf(rt, urgent);
      if (winning_rank < 0 || rank < winning_rank) {
        winning_rank = rank;
        arb_active_.assign(arb_active_.size(), false);
        any_tenant = false;
      }
      if (rank != winning_rank || rt.txn.tenant == qos::kNoTenant) return;
      arb_active_[rt.txn.tenant] = true;
      any_tenant = true;
    });
    if (winning_rank < 0) return kNil;
    // Host ranks only (0 = reads + aged writes, 2 = writes); GC carries no
    // tenant.  Arbitrate when the rank's candidates name any tenant.
    if (any_tenant && (winning_rank == 0 || winning_rank == 2)) {
      serve = tenants_->PickTenant(
          winning_rank == 0 ? qos::ArbClass::kRead : qos::ArbClass::kWrite,
          arb_active_);
    }
  }

  int best_rank = 0;
  DispatchKey best_key{};
  ForEachCandidate([&](std::uint32_t node) {
    const ReadyTxn& rt = nodes_[node];
    if (!Eligible(rt, writes_held)) return;
    if (serve != qos::kNoTenant && rt.txn.tenant != serve) return;
    const int rank = RankOf(rt, urgent);
    // A strictly worse rank can never win, whatever its key.
    if (best != kNil && rank > best_rank) return;
    DispatchKey key = KeyOf(rt, write_free_at);
    if (key.start < now) key.start = now;
    if (best == kNil || rank < best_rank ||
        (rank == best_rank &&
         (key.start < best_key.start ||
          (key.start == best_key.start &&
           (key.plane < best_key.plane ||
            (key.plane == best_key.plane &&
             rt.txn.seq < nodes_[best].txn.seq)))))) {
      best = node;
      best_rank = rank;
      best_key = key;
    }
  });
  return best;
}

void IoScheduler::Dispatch(std::uint32_t node) {
  const ReadyTxn rt = nodes_[node];
  if (rt.queue == kEraseList) {
    erases_.erase(std::find(erases_.begin(), erases_.end(), node));
  } else {
    // Only a front can win a pick.
    Queue& q = queues_[rt.queue];
    CTFLASH_CHECK(q.head == node);
    q.head = rt.next;
    if (q.head == kNil) {
      q.tail = kNil;
      nonempty_[rt.queue / 64] &= ~(1ull << (rt.queue % 64));
    }
  }
  nodes_[node].next = free_nodes_;
  free_nodes_ = node;
  --ready_count_;

  const FlashTransaction& txn = rt.txn;
  ++in_flight_;
  if (in_flight_ > peak_in_flight_) peak_in_flight_ = in_flight_;
  ++dispatched_;
  if (sched::IsGc(txn.source)) {
    --gc_ready_;
    ++gc_dispatched_;
    if (txn.source == sched::TxnSource::kGcCopy) {
      const auto it = gc_copies_undispatched_.find(txn.gc_block);
      if (--it->second == 0) gc_copies_undispatched_.erase(it);
    }
  } else {
    // Every host dispatch overtakes all waiting GC work (their aging
    // clock); a host read also overtakes all waiting writes.
    ++host_dispatches_;
    if (txn.source == sched::TxnSource::kHostRead) {
      --reads_ready_;
      ++host_read_dispatches_;
      if (gc_ready_ > 0) ++read_preemptions_;
    } else {
      --writes_ready_;
      if (write_aging_limit_ > 0 &&
          host_read_dispatches_ - rt.age_base >= write_aging_limit_) {
        ++aged_write_dispatches_;
      }
    }
    if (tenants_ != nullptr && txn.tenant != qos::kNoTenant) {
      tenants_->NoteDispatch(txn.tenant,
                             txn.source == sched::TxnSource::kHostRead
                                 ? qos::ArbClass::kRead
                                 : qos::ArbClass::kWrite);
    }
  }
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_txns_.size());
    in_flight_txns_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  if (!observers_.empty()) {
    // ContextOf re-resolves the die availability the pick just keyed on;
    // only observers pay for it.
    sched::DispatchContext ctx = ContextOf(rt);
    ctx.slot = slot;
    for (auto* o : observers_) o->OnDispatch(txn, ctx);
  }
  // The device services the transaction on the resource timelines now
  // (RequestResult::arrival_us is the dispatch time) and the completion
  // fires as an event, so Pump never re-enters itself.
  const Us now = queue_.Now();
  ftl::RequestResult result;
  switch (txn.source) {
    case sched::TxnSource::kHostRead:
      result = ssd_.Read(txn.offset_bytes, txn.size_bytes, now);
      break;
    case sched::TxnSource::kHostWrite:
      result = ssd_.Write(txn.offset_bytes, txn.size_bytes, now);
      break;
    case sched::TxnSource::kGcCopy:
    case sched::TxnSource::kGcErase:
      result.arrival_us = now;
      result.pages = 1;
      result.completion_us =
          std::max(ssd_.ftl().ExecuteGcTransaction(txn, now), now);
      break;
  }
  in_flight_txns_[slot] = InFlightTxn{txn, result};
  queue_.ScheduleAt(result.completion_us,
                    [this, slot](Us) { Complete(slot); });
}

void IoScheduler::Complete(std::uint32_t slot) {
  // Copy out and free the slot first: the host's completion handler and
  // Pump() may dispatch into it.
  const InFlightTxn done = in_flight_txns_[slot];
  free_slots_.push_back(slot);
  --in_flight_;
  const bool gc = sched::IsGc(done.txn.source);
  if (gc) ++gc_completed_;
  for (auto* o : observers_) {
    o->OnTxnExecuted(done.txn, slot, done.result.arrival_us,
                     done.result.completion_us);
  }
  if (!gc && on_complete_) on_complete_(done.txn, done.result);
  Pump();
}

void IoScheduler::Pump() {
  while (in_flight_ < device_slots_) {
    // Pull freshly planned GC work first: the pool state may have changed
    // with the previous dispatch (writes consume blocks, erases free them).
    PullGcWork();
    if (ready_count_ == 0) break;
    const auto& ftl = ssd_.ftl();
    const bool scheduled = ftl.ScheduledGcActive();
    const bool urgent = scheduled && ftl.GcUrgent();
    const bool write_pressure = scheduled && ftl.GcWritePressure();
    // The admission guard holds every waiting write at this pick; the count
    // is also the clock that ReadyTxn::held_base stamps.
    if (write_pressure && gc_ready_ > 0 && writes_ready_ > 0) {
      ++write_hold_picks_;
    }
    if (policy_ == SchedPolicy::kOutOfOrder && reads_ready_ > 0 &&
        ftl.mapping().change_count() != reads_resolved_at_) {
      ResolveReads();
    }
    const std::uint32_t node = PickNext(urgent, write_pressure);
    if (node == kNil) break;  // everything ready is held/gated
    Dispatch(node);
  }
}

}  // namespace ctflash::host
