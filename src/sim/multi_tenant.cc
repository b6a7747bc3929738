#include "sim/multi_tenant.h"

#include <algorithm>
#include <cmath>

#include "sim/multi_client.h"
#include "sim/runner.h"
#include "util/check.h"

namespace odbgc {

uint64_t MultiTenantReport::FleetChecksum() const {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(clients);
  mix(events);
  mix(epochs);
  mix(xshard_writes);
  mix(pins_granted);
  mix(pins_revoked);
  mix(pins_reconciled);
  mix(exchange_batches);
  mix(budget_grants);
  mix(budget_revokes);
  mix(admission_deferrals);
  mix(breaker_opens);
  mix(breaker_closes);
  for (const SimResult& s : shards) {
    mix(s.clock.app_io);
    mix(s.clock.gc_io);
    mix(s.clock.pointer_overwrites);
    mix(s.clock.events);
    mix(s.collections);
    mix(s.total_reclaimed_bytes);
    mix(s.final_db_used_bytes);
    mix(s.final_actual_garbage_bytes);
  }
  return h;
}

MultiTenantEngine::MultiTenantEngine(const MultiTenantOptions& options)
    : options_(options),
      rng_(options.seed),
      ledger_(1 << 12) {
  ODBGC_CHECK(options_.num_shards > 0);
  ODBGC_CHECK(options_.epoch_events > 0);
  pool_ = std::make_unique<ThreadPool>(options_.threads);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    SimConfig cfg = options_.shard_config;
    // Decorrelate the shard selectors/fault streams from each other and
    // from every client RNG.
    ApplyRunSeeds(&cfg, options_.seed * 1000003ull + s);
    sims_.push_back(std::make_unique<Simulation>(cfg));
  }
  // Catalog ids occupy [1, catalog_per_shard] of every shard's local id
  // space; tenants get offsets past them.
  shard_next_offset_.assign(options_.num_shards, options_.catalog_per_shard);
  sharing_ = options_.catalog_per_shard > 0 && options_.share_prob > 0.0;
  lanes_.resize(options_.num_shards);
  exchange_.resize(options_.num_shards);
  shard_budget_.assign(options_.num_shards, options_.global_io_frac);
  breaker_open_.assign(options_.num_shards, 0);
  breaker_clean_.assign(options_.num_shards, 0);
  defer_ledger_epoch_.assign(options_.num_shards, 0);
  CreateCatalog();
}

void MultiTenantEngine::CreateCatalog() {
  // The catalog objects are unreachable from any root on purpose: their
  // liveness is carried entirely by external pins — the engine's
  // permanent "directory pin" here plus one refcount per live remote
  // reference. They carry no kGarbageMark and are never unpinned, so
  // they can never perturb a shard's garbage ground truth.
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    for (uint32_t k = 1; k <= options_.catalog_per_shard; ++k) {
      sims_[s]->Apply(CreateEvent(k, options_.catalog_object_bytes, 0));
      sims_[s]->store().AddExternalPin(k);
    }
  }
}

size_t MultiTenantEngine::AddClient(std::unique_ptr<EventSource> source,
                                    const MuxClientOptions& mux_options) {
  ODBGC_CHECK(!finished_);
  ODBGC_CHECK(source != nullptr);
  const uint32_t max_id = source->max_object_id();
  const uint32_t shard =
      static_cast<uint32_t>(client_shard_.size() % sims_.size());
  const uint32_t local_offset = shard_next_offset_[shard];
  // In 64 bits: max_id + 1 wraps to 0 in 32 when max_id == UINT32_MAX.
  ODBGC_CHECK_MSG(uint64_t{local_offset} + max_id + 1 <= UINT32_MAX,
                  "shard-local id ranges overflow the 32-bit id space");
  const size_t c = mux_.AddClient(std::move(source), mux_options);
  ODBGC_CHECK(c == client_shard_.size());
  shard_next_offset_[shard] = local_offset + max_id + 1;
  client_shard_.push_back(shard);
  // The client's ids land on [local_offset + 1, local_offset + max_id].
  client_offset_.push_back(local_offset);
  return c;
}

size_t MultiTenantEngine::AddClient(std::shared_ptr<const Trace> trace,
                                    const MuxClientOptions& mux_options) {
  ODBGC_CHECK(trace != nullptr);
  const uint32_t max_id = MaxObjectId(*trace);
  return AddClient(
      std::make_unique<TraceCursorSource>(std::move(trace), max_id),
      mux_options);
}

void MultiTenantEngine::ApplyExchange() {
  for (size_t s = 0; s < sims_.size(); ++s) {
    if (exchange_[s].empty()) continue;
    ++exchange_batches_;
    ObjectStore& store = sims_[s]->store();
    for (const PinDelta& d : exchange_[s]) {
      if (d.delta > 0) {
        store.AddExternalPin(d.id);
      } else {
        store.RemoveExternalPin(d.id);
      }
    }
    exchange_[s].clear();
  }
}

void MultiTenantEngine::DrawShares(uint32_t eligible) {
  // The same draws, in the same order, as deciding each eligible event
  // while walking the merged stream: one coin per event, plus a target
  // pick when it lands.
  share_pick_.assign(eligible, kNoShare);
  if (!sharing_) return;
  const uint64_t total_catalog =
      static_cast<uint64_t>(sims_.size()) * options_.catalog_per_shard;
  for (uint64_t& pick : share_pick_) {
    if (rng_.NextDouble() < options_.share_prob) {
      pick = rng_.NextBelow(total_catalog);
    }
  }
}

void MultiTenantEngine::RouteWrite(size_t s, TraceEvent* e, uint64_t pick) {
  ShardLane& lane = lanes_[s];
  const std::pair<uint32_t, uint32_t> key{e->a, e->b};
  auto it = lane.remote_refs.find(key);
  if (it != lane.remote_refs.end()) {
    // The slot is being overwritten: the old remote target loses one
    // refcount (delivered at the next epoch start; the target stays
    // alive meanwhile under the engine's directory pin).
    lane.outbox.push_back({it->second.first, PinDelta{it->second.second, -1}});
    ++lane.pins_revoked;
    lane.remote_refs.erase(it);
  }
  // Only null-target writes are redirected: the local apply then
  // detaches nothing it would not have detached anyway, so the clients'
  // garbage ground truth is untouched.
  if (pick == kNoShare) return;
  const uint32_t target_shard =
      static_cast<uint32_t>(pick / options_.catalog_per_shard);
  const uint32_t target_id =
      1 + static_cast<uint32_t>(pick % options_.catalog_per_shard);
  if (target_shard == s) {
    // Same shard: an ordinary local reference.
    e->c = target_id;
  } else {
    // Cross-shard: the local store keeps the null slot (shard stores
    // never hold foreign ids); the reference lives in the shard's
    // remembered set, backed by a +1 pin on the target.
    lane.remote_refs[key] = {target_shard, target_id};
    lane.outbox.push_back({target_shard, PinDelta{target_id, +1}});
    ++lane.pins_granted;
    ++lane.xshard_writes;
  }
}

void MultiTenantEngine::RunShardEpoch(size_t s) {
  ShardLane& lane = lanes_[s];
  Simulation& sim = *sims_[s];
  for (uint32_t i : lane.spans) {
    const ClientMux::TurnSpan& span = spans_[i];
    const TraceEvent* events = mux_.buffered_events(span.client);
    const uint32_t offset = client_offset_[span.client];
    uint32_t ordinal = span.eligible_base;
    for (uint32_t k = span.begin; k < span.end; ++k) {
      TraceEvent e = events[k];
      const bool eligible = ClientMux::IsShareEligible(e);
      RemapEventIds(&e, offset);
      if (sharing_ && e.kind == EventKind::kWriteRef) {
        RouteWrite(s, &e, eligible ? share_pick_[ordinal] : kNoShare);
      }
      if (eligible) ++ordinal;
      sim.Apply(e);
    }
  }
  // Every span is applied: top up the clients that were scheduled (a
  // repeat Refill finds nothing to do).
  for (uint32_t i : lane.spans) {
    mux_.Refill(spans_[i].client, refill_cap_);
  }
}

void MultiTenantEngine::Reconcile() {
  for (size_t s = 0; s < lanes_.size(); ++s) {
    auto& refs = lanes_[s].remote_refs;
    for (auto it = refs.begin(); it != refs.end();) {
      if (!sims_[s]->store().Exists(it->first.first)) {
        exchange_[it->second.first].push_back(
            PinDelta{it->second.second, -1});
        ++pins_reconciled_;
        it = refs.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void MultiTenantEngine::EndEpoch() {
  Reconcile();
  if (options_.coordinator_period > 0 &&
      epochs_ % options_.coordinator_period == 0) {
    CoordinatorTick();
  }
}

double MultiTenantEngine::BreakerClamp(size_t s, double budget) {
  // Unhealthy = red-watermark pressure or a quarantine-heavy store. Open
  // the breaker on the first unhealthy tick; close it only after
  // breaker_close_ticks consecutive healthy ones.
  const ObjectStore& store = sims_[s]->store();
  const size_t parts = store.partition_count();
  const double qfrac =
      parts > 0 ? static_cast<double>(store.quarantined_count()) /
                      static_cast<double>(parts)
                : 0.0;
  const bool unhealthy =
      sims_[s]->pressure_level() == PressureLevel::kRed ||
      qfrac >= options_.breaker_quarantine_frac;
  if (breaker_open_[s] == 0) {
    if (unhealthy) {
      breaker_open_[s] = 1;
      breaker_clean_[s] = 0;
      ++breaker_opens_;
      LedgerShardEvent(s, "breaker", obs::DecisionReason::kBreakerOpen,
                       options_.min_shard_frac);
    }
  } else if (unhealthy) {
    breaker_clean_[s] = 0;
  } else if (++breaker_clean_[s] >= options_.breaker_close_ticks) {
    breaker_open_[s] = 0;
    breaker_clean_[s] = 0;
    ++breaker_closes_;
    LedgerShardEvent(s, "breaker", obs::DecisionReason::kBreakerClose,
                     budget);
  }
  return breaker_open_[s] != 0 ? options_.min_shard_frac : budget;
}

void MultiTenantEngine::LedgerShardEvent(size_t s, const char* who,
                                         obs::DecisionReason reason,
                                         double target_frac) {
  const SimClock& ck = sims_[s]->clock();
  obs::PolicyDecisionRecord ctx;
  ctx.event = mux_.events_drawn();
  ctx.app_io = ck.app_io;
  ctx.gc_io = ck.gc_io;
  ctx.io_pct = ck.total_io() > 0
                   ? 100.0 * static_cast<double>(ck.gc_io) /
                         static_cast<double>(ck.total_io())
                   : 0.0;
  ctx.db_used_bytes = ck.db_used_bytes;
  ctx.actual_garbage_bytes = sims_[s]->store().actual_garbage_bytes();
  ctx.garbage_pct = ck.db_used_bytes > 0
                        ? 100.0 * static_cast<double>(
                                      ctx.actual_garbage_bytes) /
                              static_cast<double>(ck.db_used_bytes)
                        : 0.0;
  ctx.collection = sims_[s]->collections();
  ledger_.SetContext(ctx);
  // Same field semantics as the coordinator's budget records:
  // next_threshold carries the shard index, target the fraction in
  // percent (docs/POLICIES.md).
  ledger_.Append(who, reason, 0.0, s, 100.0 * target_frac);
}

void MultiTenantEngine::CoordinatorTick() {
  const size_t n = sims_.size();
  // Redistribute the fleet budget by observed garbage share: tenants
  // sitting on more uncollected garbage earn a larger io fraction, each
  // grant clamped to [min_shard_frac, max_shard_frac].
  std::vector<uint64_t> garbage(n, 0);
  uint64_t total_garbage = 0;
  for (size_t s = 0; s < n; ++s) {
    garbage[s] = sims_[s]->store().actual_garbage_bytes();
    total_garbage += garbage[s];
  }
  for (size_t s = 0; s < n; ++s) {
    const double weight =
        total_garbage > 0
            ? static_cast<double>(garbage[s]) /
                  static_cast<double>(total_garbage)
            : 1.0 / static_cast<double>(n);
    double budget = options_.global_io_frac *
                    static_cast<double>(n) * weight;
    budget = std::min(std::max(budget, options_.min_shard_frac),
                      options_.max_shard_frac);
    if (options_.breaker) {
      budget = BreakerClamp(s, budget);
    }
    const double old = shard_budget_[s];
    if (std::fabs(budget - old) < 1e-9) continue;
    sims_[s]->policy().SetIoBudget(budget);
    shard_budget_[s] = budget;
    const SimClock& ck = sims_[s]->clock();
    obs::PolicyDecisionRecord ctx;
    ctx.event = mux_.events_drawn();
    ctx.app_io = ck.app_io;
    ctx.gc_io = ck.gc_io;
    ctx.io_pct = ck.total_io() > 0
                     ? 100.0 * static_cast<double>(ck.gc_io) /
                           static_cast<double>(ck.total_io())
                     : 0.0;
    ctx.garbage_pct = ck.db_used_bytes > 0
                          ? 100.0 * static_cast<double>(garbage[s]) /
                                static_cast<double>(ck.db_used_bytes)
                          : 0.0;
    ctx.actual_garbage_bytes = garbage[s];
    ctx.db_used_bytes = ck.db_used_bytes;
    ctx.collection = sims_[s]->collections();
    ledger_.SetContext(ctx);
    // chosen_interval carries the budget delta, next_threshold the shard
    // index, target the granted fraction in percent (docs/POLICIES.md).
    const bool grant = budget > old;
    ledger_.Append("budget_coordinator",
                   grant ? obs::DecisionReason::kBudgetGrant
                         : obs::DecisionReason::kBudgetRevoke,
                   budget - old, s, 100.0 * budget);
    if (grant) {
      ++budget_grants_;
    } else {
      ++budget_revokes_;
    }
  }
}

MultiTenantReport MultiTenantEngine::Run() {
  ODBGC_CHECK_MSG(!finished_, "MultiTenantEngine::Run is callable once");
  finished_ = true;
  if (options_.backpressure) {
    // The gate runs inside the serial scheduling; pressure levels only
    // move during the parallel apply, so within one epoch the gate is a
    // fixed function of the shard states the barrier committed —
    // deterministic at any thread count.
    mux_.SetAdmissionGate(
        [this](uint32_t client) {
          const uint32_t s = client_shard_[client];
          if (sims_[s]->pressure_level() != PressureLevel::kRed) {
            return false;
          }
          if (defer_ledger_epoch_[s] != epochs_) {
            // First deferral this epoch for this shard (epochs_ is the
            // 1-based current epoch while scheduling).
            defer_ledger_epoch_[s] = epochs_;
            LedgerShardEvent(s, "admission",
                             obs::DecisionReason::kAdmissionDefer,
                             shard_budget_[s]);
          }
          return true;
        },
        options_.admission_defer_limit);
  }
  const size_t n = sims_.size();
  // Turn-buffer lookahead: about twice a client's consumption in the
  // previous epoch, capped at twice an even share of an epoch so the
  // fleet's buffers stay near 2 x epoch_events plus one turn per client.
  // The first fill buffers one turn per client, in parallel.
  const size_t clients = mux_.clients();
  refill_cap_ = static_cast<uint32_t>(
      clients > 0 ? 2 * ((uint64_t{options_.epoch_events} + clients - 1) /
                         clients)
                  : 0);
  pool_->ParallelFor(n, [this, n, clients](size_t s) {
    for (size_t c = s; c < clients; c += n) mux_.Refill(c, refill_cap_);
  });
  bool done = false;
  while (!done) {
    ++epochs_;
    // 1. Serial: deliver the previous epoch's pin deltas, shard order.
    ApplyExchange();
    // 2. Serial: schedule one epoch of turns and draw its shares.
    spans_.clear();
    uint32_t eligible = 0;
    const uint32_t scheduled =
        mux_.Schedule(options_.epoch_events, &spans_, &eligible);
    done = scheduled < options_.epoch_events;
    if (scheduled == 0) {
      --epochs_;  // nothing happened; do not close an empty epoch
      break;
    }
    DrawShares(eligible);
    for (ShardLane& lane : lanes_) lane.spans.clear();
    for (uint32_t i = 0; i < spans_.size(); ++i) {
      lanes_[client_shard_[spans_[i].client]].spans.push_back(i);
    }
    // 3. Parallel: each shard routes and applies its clients' turns and
    // refills their buffers. Shards share no mutable state, so any
    // thread count computes the same result.
    pool_->ParallelFor(n, [this](size_t s) { RunShardEpoch(s); });
    // 4. Serial barrier: merge the pin outboxes in shard order, then
    // reconciliation and the coordinator.
    for (ShardLane& lane : lanes_) {
      for (const auto& [target, delta] : lane.outbox) {
        exchange_[target].push_back(delta);
      }
      lane.outbox.clear();
    }
    EndEpoch();
  }
  // Flush the last epoch's reconciliation/overwrite revokes so final
  // pin counts balance.
  ApplyExchange();
  return BuildReport();
}

MultiTenantReport MultiTenantEngine::BuildReport() {
  MultiTenantReport r;
  r.clients = mux_.clients();
  r.events = mux_.events_drawn();
  r.epochs = epochs_;
  for (const ShardLane& lane : lanes_) {
    r.xshard_writes += lane.xshard_writes;
    r.pins_granted += lane.pins_granted;
    r.pins_revoked += lane.pins_revoked;
  }
  r.pins_reconciled = pins_reconciled_;
  r.exchange_batches = exchange_batches_;
  r.budget_grants = budget_grants_;
  r.budget_revokes = budget_revokes_;
  r.admission_deferrals = mux_.admission_deferrals();
  r.breaker_opens = breaker_opens_;
  r.breaker_closes = breaker_closes_;
  r.coordinator_decisions = ledger_.Records();
  obs::Histogram merged;
  bool any_tel = false;
  r.shards.reserve(sims_.size());
  for (auto& sim : sims_) {
    r.shards.push_back(sim->Finish());
    if (obs::Telemetry* tel = sim->telemetry()) {
      merged.Merge(*tel->metrics().GetHistogram("stall.gc_copy_io"));
      any_tel = true;
    }
  }
  if (any_tel) {
    r.stall_gc_copy.id = "stall.gc_copy_io";
    r.stall_gc_copy.count = merged.count();
    r.stall_gc_copy.min = merged.min();
    r.stall_gc_copy.max = merged.max();
    r.stall_gc_copy.mean = merged.mean();
    r.stall_gc_copy.p50 = merged.Percentile(50.0);
    r.stall_gc_copy.p95 = merged.Percentile(95.0);
    r.stall_gc_copy.p99 = merged.Percentile(99.0);
  }
  return r;
}

size_t MultiTenantEngine::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this) + mux_.ApproxMemoryBytes() +
                 spans_.capacity() * sizeof(ClientMux::TurnSpan) +
                 share_pick_.capacity() * sizeof(uint64_t);
  for (const auto& ex : exchange_) {
    bytes += ex.capacity() * sizeof(PinDelta);
  }
  for (const ShardLane& lane : lanes_) {
    bytes += sizeof(ShardLane) + lane.spans.capacity() * sizeof(uint32_t) +
             lane.outbox.capacity() * sizeof(lane.outbox[0]) +
             lane.remote_refs.size() *
                 (2 * sizeof(std::pair<uint32_t, uint32_t>) +
                  4 * sizeof(void*));
  }
  return bytes;
}

}  // namespace odbgc
