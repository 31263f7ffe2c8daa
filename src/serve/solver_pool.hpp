#pragma once

// SolverPool: the work queue of the batched QR serving layer.
//
// The ROADMAP north star is a production-scale service for the paper's
// killer workload — heavy concurrent traffic of same-shape tall-skinny
// factorizations (Robust PCA re-factors a 110,592 x 100 matrix every
// iteration, §VI). SolverPool models the standard deployment shape for
// that: N worker threads, EACH OWNING ITS OWN gpusim::Device (one simulated
// GPU per worker — the simulated analogue of a multi-GPU serving box),
// pulling requests from one bounded MPMC queue.
//
// Every request takes one path, in both exec modes: admission (one helper
// behind submit, try_submit, submit_batch and submit_task), one dispatch
// queue, plan resolution, then caqr::adaptive_qr on the worker's device.
// ModelOnly pools serve Matrix::shape_only placeholders through that same
// adaptive_qr, which charges the identical launch sequence and returns
// shape-only factors, so the two modes cannot drift apart.
//
// Queue semantics:
//   * Bounded with backpressure. `submit` blocks while the queue is at the
//     high-water mark (PoolOptions::queue_capacity); `try_submit` instead
//     returns an already-satisfied RequestStatus::Rejected response.
//   * Malformed batches are refused at admission: `submit_batch` with no
//     problems or with mixed shapes is answered RequestStatus::Invalid
//     without being queued.
//   * Weighted fair share: dispatch is deficit round-robin (DRR) across
//     RequestOptions::tenant. Each scheduler visit credits a tenant's
//     deficit by its weight; the tenant serves one request when the deficit
//     reaches 1 and pays 1 for it, so long-run service ratios match the
//     weights. A tenant passed over while holding work bumps the starvation
//     counters in PoolStats — sustained starvation of a low-weight tenant is
//     visible, never silent. Deficits reset when a tenant's queue empties
//     (no credit hoarding across idle periods).
//   * FIFO within priority: inside a tenant, requests are dispatched in
//     ascending (priority, submission sequence) order — lower priority value
//     first, submission order within a priority level. A pool whose
//     requests all carry the default tenant (weight 1) therefore dispatches
//     in exactly that order.
//   * Per-request deadlines: a request whose host-clock deadline passed
//     before a worker picked it up is completed as DeadlineExpired without
//     running — and re-checked once more after plan resolution, immediately
//     before the solve, so a deadline that expired during planning is
//     answered without burning a full factorization. Deadlines bound
//     queueing+planning delay; they never abort a running factorization.
//   * Accepted work is always completed: the destructor drains the queue
//     before joining the workers.
//
// Determinism: a request's numerical result is a pure function of its input
// matrix and resolved options. Each request runs on a freshly reset device
// timeline, and the PlanCache is deterministic (plans are pure functions of
// their key), so the (Q, R) returned for a given request are bit-identical
// regardless of worker count, queue order, or cache hit vs miss — verified
// across 1/2/8 workers by tests/test_serve. Only scheduling metadata (which
// worker ran it, queueing delay) varies.
//
// Planning: workers resolve each request's algorithm and tuned block shape
// through a shared PlanCache — the second request of a shape skips the
// autotune sweep and every cost prediction. use_plan_cache = false gives
// the cache capacity 0, so every lookup is a miss that re-plans from
// scratch (the cache-off axis of bench_serve_throughput). Requests with
// use_plan=false bypass planning and run their CaqrOptions verbatim — the
// bit-compatibility mode PooledQrHook uses to match inline factorizations
// exactly.
//
// Thread safety: all public members are safe to call from any thread,
// including concurrently with workers. Responses are delivered through
// std::future. The pool itself must outlive every future's consumer... it
// owns the workers that fulfil them.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/profile.hpp"
#include "serve/batch.hpp"
#include "serve/plan_cache.hpp"
#include "svd/tall_skinny_svd.hpp"

namespace caqr::serve {

// Terminal state of a request.
enum class RequestStatus {
  Done,             // ran to completion; result fields are valid
  Rejected,         // never queued (backpressure or pool shutting down)
  DeadlineExpired,  // queued past its deadline; never ran
  Shed,             // refused by overload protection (see PoolOptions)
  Invalid,          // malformed request (e.g. an empty or mixed-shape
                    // batch); never queued
};

inline const char* request_status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::Done: return "done";
    case RequestStatus::Rejected: return "rejected";
    case RequestStatus::DeadlineExpired: return "deadline_expired";
    case RequestStatus::Shed: return "shed";
    case RequestStatus::Invalid: return "invalid";
  }
  return "?";
}

// Pool-wide configuration, fixed at construction.
struct PoolOptions {
  int workers = 4;                    // worker threads == simulated devices
  std::size_t queue_capacity = 64;    // backpressure high-water mark
  gpusim::GpuMachineModel model = gpusim::GpuMachineModel::c2050();
  gpusim::ExecMode mode = gpusim::ExecMode::Functional;
  // Shared PlanCache of SolverPool::kPlanCacheCapacity plans; off gives the
  // cache capacity 0, so every request re-plans (and counts a miss).
  bool use_plan_cache = true;
  // -- Overload protection (both off by default: existing pools keep the
  //    pure backpressure/deadline semantics documented above). --
  // Admission bound BELOW queue_capacity: a request arriving while the queue
  // already holds this many entries is completed as Shed immediately instead
  // of blocking (submit) or rejecting (try_submit). A shed caller gets a
  // typed answer in O(1) — under sustained 2x-capacity overload the pool
  // sheds the excess rather than letting every request's deadline expire in
  // the queue. 0 disables depth shedding.
  std::size_t shed_queue_depth = 0;
  // Deadline feasibility check at admission: estimate this request's
  // queueing delay as queue_depth * EMA(wall service seconds) / workers and
  // shed it if the estimate already exceeds its deadline budget — the
  // request was going to expire anyway, so answer now and save the slot.
  // Requests without deadlines are never shed by this rule.
  bool shed_infeasible_deadlines = false;
  // -- Worker-device fault environment. Every worker constructs its device
  //    with this injector + recovery policy, so served solves exercise the
  //    full ft/ ladder (tests and the chaos bench drive Unrecovered solves
  //    through here). Defaults: no injection, recovery off. A solve that
  //    still reports Severity::Unrecovered after the device-level ladder is
  //    re-run once on a freshly constructed CLEAN device (no injector, same
  //    model/policy); the retry's simulated time is charged to the worker's
  //    timeline as "solve_retry". --
  gpusim::FaultOptions fault;
  ft::FtOptions ft;
  // Relative deficit round-robin weights per tenant (see the header
  // comment); tenants absent from the map (and non-positive entries) get
  // weight 1.0. Fractional weights are the point: weight 0.25 means one
  // served request per four scheduler visits, with the skipped visits
  // counted as starvation.
  std::map<int, double> tenant_weights;
  // Test seam: runs on the worker thread after plan resolution, before the
  // pre-solve deadline re-check — lets tests pin "deadline expired during
  // planning" deterministically. Must be thread-safe; null is off.
  std::function<void()> post_plan_hook;
};

// Per-request knobs.
struct RequestOptions {
  QrAlgorithm algo = QrAlgorithm::Auto;
  // Dispatch key within a tenant, lower first; FIFO within equal priority.
  int priority = 0;
  // Fair-share scheduling class (a camera stream, a customer, ...); weight
  // comes from PoolOptions::tenant_weights.
  int tenant = 0;
  // Host-clock budget from submission to dispatch; <= 0 means no deadline.
  double deadline_seconds = 0;
  // When true (the default), the worker resolves {algorithm, tuned block
  // shape} through the pool's PlanCache with `caqr` as the base options.
  // When false, `caqr` runs verbatim and Auto resolves by prediction only —
  // no tuning applied — so results are bit-identical to an inline
  // adaptive_qr with the same options.
  bool use_plan = true;
  CaqrOptions caqr;
  // Condition-number estimate for the input, when the caller has one
  // (iterative workloads like Robust PCA track it across refactorizations).
  // Gates the CholeskyQR-family candidates in the adaptive picker; <= 0
  // (unknown) restricts the picker to the Householder algorithms.
  double cond_estimate = 0;
};

// Response for a single factorization request.
template <typename T>
struct QrResponse {
  RequestStatus status = RequestStatus::Done;
  QrSolveResult<T> result;       // valid iff status == Done
  bool plan_cache_hit = false;   // plan served from the shared cache
  double plan_seconds = 0;       // host seconds spent resolving the plan
  double simulated_seconds = 0;  // device time on the worker's simulated GPU
  // Fault-tolerance outcome of the solve (mirrors result.run_status so
  // ModelOnly callers and logging see it without touching the factors).
  ft::RunStatus run_status;
  int solve_retries = 0;  // fresh-device re-runs of an Unrecovered solve
};

// Response for a fused same-shape batch request.
template <typename T>
struct BatchResponse {
  RequestStatus status = RequestStatus::Done;
  BatchQrResult<T> result;  // valid iff status == Done
  bool plan_cache_hit = false;
  double plan_seconds = 0;
};

// Counters + per-worker simulated busy time, snapshotted atomically.
struct PoolStats {
  long long submitted = 0;  // accepted into the queue
  long long completed = 0;  // ran to Done
  long long rejected = 0;   // refused at admission
  long long expired = 0;    // completed as DeadlineExpired
  long long shed = 0;       // refused by overload protection
  long long solve_retries = 0;  // fresh-device re-runs of Unrecovered solves
  // DeadlineExpired at the post-plan re-check (subset of `expired`): the
  // deadline lapsed between dequeue and solve, and the solve was skipped.
  long long presolve_expired = 0;
  // Fair-share starvation: scheduler visits that passed over a tenant with
  // queued work because its deficit had not yet accrued (total and by
  // tenant). A persistently growing count for a tenant is the signal its
  // weight is too low for its offered load.
  long long starved_rounds = 0;
  std::map<int, long long> tenant_starved;
  std::map<int, long long> tenant_served;  // requests dispatched per tenant
  // Simulated seconds each worker's device spent running requests. The pool
  // serves on `workers` independent simulated GPUs, so simulated serving
  // throughput is problems / makespan (the busiest device bounds the batch).
  std::vector<double> worker_busy_simulated_seconds;
  double makespan_simulated_seconds() const {
    double mk = 0;
    for (double s : worker_busy_simulated_seconds) mk = std::max(mk, s);
    return mk;
  }
};

class SolverPool {
 public:
  // Resident plans in the shared PlanCache when use_plan_cache is on.
  static constexpr std::size_t kPlanCacheCapacity = 64;

  explicit SolverPool(PoolOptions opts = {})
      : opts_(std::move(opts)),
        cache_(opts_.use_plan_cache ? kPlanCacheCapacity : 0) {
    CAQR_CHECK(opts_.workers >= 1 && opts_.queue_capacity >= 1);
    busy_sim_.assign(static_cast<std::size_t>(opts_.workers), 0.0);
    threads_.reserve(static_cast<std::size_t>(opts_.workers));
    for (int i = 0; i < opts_.workers; ++i) {
      threads_.emplace_back([this, i] { worker_main(i); });
    }
  }

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  // Drains the queue (accepted work always completes), then joins workers.
  ~SolverPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_work_.notify_all();
    cv_space_.notify_all();
    for (auto& t : threads_) t.join();
  }

  const PoolOptions& options() const { return opts_; }

  // The shared plan cache (hit/miss/eviction counters live here).
  const PlanCache& plan_cache() const { return cache_; }

  // Submits one factorization; blocks while the queue is full. The matrix
  // is consumed. ModelOnly pools accept Matrix::shape_only placeholders.
  template <typename T>
  std::future<QrResponse<T>> submit(Matrix<T> a,
                                    const RequestOptions& req = {}) {
    return admit<QrResponse<T>>(req, /*blocking=*/true,
                                solve_one(std::move(a), req));
  }

  // Non-blocking admission: a full queue (or stopping pool) yields an
  // already-satisfied Rejected response instead of waiting.
  template <typename T>
  std::future<QrResponse<T>> try_submit(Matrix<T> a,
                                        const RequestOptions& req = {}) {
    return admit<QrResponse<T>>(req, /*blocking=*/false,
                                solve_one(std::move(a), req));
  }

  // Submits k same-shape problems as ONE queue entry served by one fused
  // factor_batch schedule on a single worker (see serve/batch.hpp). Blocks
  // while the queue is full. Auto resolves through planning like submit.
  // An empty or mixed-shape batch is answered Invalid at once, never queued.
  template <typename T>
  std::future<BatchResponse<T>> submit_batch(std::vector<Matrix<T>> problems,
                                             const RequestOptions& req = {}) {
    const auto like_first = [&](const Matrix<T>& a) {
      return a.rows() == problems.front().rows() &&
             a.cols() == problems.front().cols();
    };
    if (problems.empty() ||
        !std::all_of(problems.begin(), problems.end(), like_first)) {
      std::promise<BatchResponse<T>> invalid;
      invalid.set_value(terminal<BatchResponse<T>>(RequestStatus::Invalid));
      return invalid.get_future();
    }
    auto probs = std::make_shared<std::vector<Matrix<T>>>(std::move(problems));
    return admit<BatchResponse<T>>(
        req, /*blocking=*/true,
        [this, probs, req](gpusim::Device& dev, Clock::time_point) {
          return run_batch<T>(dev, *probs, req);
        });
  }

  // Escape hatch: run an arbitrary task on a worker's device (tests use it
  // to hold workers at a latch). Subject to the same queue/priority rules.
  std::future<RequestStatus> submit_task(
      std::function<void(gpusim::Device&)> fn, const RequestOptions& req = {},
      bool blocking = true) {
    return admit<RequestStatus>(
        req, blocking,
        [fn = std::move(fn)](gpusim::Device& dev, Clock::time_point) {
          fn(dev);
          return RequestStatus::Done;
        });
  }

  // Blocks until the queue is empty and no worker is running a request.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_drain_.wait(lock, [&] { return queued_ == 0 && active_ == 0; });
  }

  PoolStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    PoolStats s;
    s.submitted = submitted_;
    s.completed = completed_;
    s.rejected = rejected_;
    s.expired = expired_;
    s.shed = shed_;
    s.solve_retries = solve_retries_;
    s.presolve_expired = presolve_expired_;
    for (const auto& [id, t] : tenants_) {
      s.starved_rounds += t.starved;
      if (t.starved > 0) s.tenant_starved[id] = t.starved;
      if (t.served > 0) s.tenant_served[id] = t.served;
    }
    s.worker_busy_simulated_seconds = busy_sim_;
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    // Runs the request on a worker's device, given its deadline, and returns
    // its terminal status (Done, or DeadlineExpired from the post-plan
    // re-check). The response is delivered inside.
    std::function<RequestStatus(gpusim::Device&, Clock::time_point)> run;
    // Delivers a terminal non-Done outcome without running the request.
    std::function<void(RequestStatus)> finish;
    Clock::time_point deadline = Clock::time_point::max();  // max: none
    Clock::time_point submitted{};  // for the queue-wait histogram
  };

  // A request's resolved algorithm (never Auto) and options.
  struct Plan {
    QrAlgorithm algo;
    CaqrOptions caqr;
  };

  // One tenant's DRR state and its (priority, submission) ordered jobs.
  struct Tenant {
    std::map<std::pair<int, std::uint64_t>, Job> jobs;
    double weight = 1.0;
    double deficit = 0;
    long long served = 0;
    long long starved = 0;
  };

  static double wall_seconds() {
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
  }

  static RequestStatus status_of(RequestStatus s) { return s; }
  template <typename R>
  static RequestStatus status_of(const R& resp) {
    return resp.status;
  }

  // The response a request gets when it ends in `s` without running.
  template <typename R>
  static R terminal(RequestStatus s) {
    if constexpr (std::is_same_v<R, RequestStatus>) {
      return s;
    } else {
      R resp;
      resp.status = s;
      return resp;
    }
  }

  // The one admission path. `run(dev, deadline)` executes the request on a
  // worker and returns its response R; the helper owns the promise, turns
  // an exception into the future's exception, and answers requests that
  // never run (Rejected, Shed, DeadlineExpired) with terminal<R>.
  template <typename R, typename Run>
  std::future<R> admit(const RequestOptions& req, bool blocking, Run run) {
    auto prom = std::make_shared<std::promise<R>>();
    auto fut = prom->get_future();
    Job job;
    job.run = [prom, run = std::move(run)](gpusim::Device& dev,
                                           Clock::time_point deadline) {
      try {
        R resp = run(dev, deadline);
        const RequestStatus s = status_of(resp);
        prom->set_value(std::move(resp));
        return s;
      } catch (...) {
        prom->set_exception(std::current_exception());
        return RequestStatus::Done;  // exception delivered via the future
      }
    };
    job.finish = [prom](RequestStatus s) { prom->set_value(terminal<R>(s)); };
    enqueue(std::move(job), req, blocking);
    return fut;
  }

  // The run closure of a single-factorization request (std::function needs
  // a copyable closure, so the move-only matrix is shared).
  template <typename T>
  auto solve_one(Matrix<T> a, const RequestOptions& req) {
    auto mat = std::make_shared<Matrix<T>>(std::move(a));
    return [this, mat, req](gpusim::Device& dev, Clock::time_point deadline) {
      return run_one<T>(dev, *mat, req, deadline);
    };
  }

  // Resolves {algorithm, options} for a request, then runs it on `dev`.
  template <typename T>
  QrResponse<T> run_one(gpusim::Device& dev, const Matrix<T>& a,
                        const RequestOptions& req,
                        Clock::time_point deadline) {
    CAQR_PROF_SCOPE("serve.request_ns");
    QrResponse<T> resp;
    const Plan plan = resolve_plan<T>(a.rows(), a.cols(), req, resp);
    if (opts_.post_plan_hook) opts_.post_plan_hook();

    // Pre-solve re-check: the dequeue check bounds queueing delay, but an
    // uncached plan resolution (autotune sweep) can itself outlive a tight
    // deadline — answer DeadlineExpired now instead of burning the solve.
    if (Clock::now() > deadline) {
      static prof::Counter& c = prof::counter("serve.presolve_expired");
      c.add(1);
      resp.status = RequestStatus::DeadlineExpired;
      return resp;
    }

    const double t0 = dev.elapsed_seconds();
    resp.result = adaptive_qr(dev, a.view(), plan.algo, plan.caqr);
    // Solve-level retry: an Unrecovered outcome (the device-level ladder
    // exhausted) is re-run once on a freshly constructed CLEAN device — no
    // injector, same model and recovery policy. The retry's simulated time
    // is charged to the worker's timeline so simulated_seconds and busy
    // accounting stay honest. ModelOnly launches are never injected, so
    // only Functional solves can take this branch.
    if (resp.result.run_status.severity == ft::Severity::Unrecovered) {
      resp.solve_retries = 1;
      gpusim::Device clean(opts_.model, opts_.mode);
      clean.set_fault_tolerance(opts_.ft);
      QrSolveResult<T> redo = adaptive_qr(clean, a.view(), plan.algo,
                                          plan.caqr);
      dev.add_external_seconds(clean.elapsed_seconds(), "solve_retry");
      // The failed attempt's counters carry over; its Unrecovered severity
      // does not — the retry superseded it, so the solve as a whole is at
      // worst Corrected unless the retry also failed.
      ft::RunStatus prior = resp.result.run_status;
      prior.severity = ft::Severity::Corrected;
      redo.run_status.merge(prior);
      redo.severity = redo.run_status.severity;
      resp.result = std::move(redo);
      std::lock_guard<std::mutex> lock(mutex_);
      ++solve_retries_;
    }
    resp.simulated_seconds = dev.elapsed_seconds() - t0;
    resp.run_status = resp.result.run_status;
    return resp;
  }

  template <typename T>
  BatchResponse<T> run_batch(gpusim::Device& dev,
                             std::vector<Matrix<T>>& problems,
                             const RequestOptions& req) {
    BatchResponse<T> resp;
    const Plan plan = resolve_plan<T>(problems.front().rows(),
                                      problems.front().cols(), req, resp);
    resp.result =
        factor_batch<T>(dev, std::move(problems), plan.algo, plan.caqr);
    return resp;
  }

  // Resolves a request's plan, recording the cache hit and host planning
  // seconds on `resp`.
  template <typename T, typename Resp>
  Plan resolve_plan(idx m, idx n, const RequestOptions& req, Resp& resp) {
    const double p0 = wall_seconds();
    Plan plan{req.algo, req.caqr};
    {
      CAQR_PROF_SCOPE("serve.plan_resolve_ns");
      if (req.use_plan) {
        const PlanCache::Lookup lk = cache_.lookup<T>(
            opts_.model, m, n, req.algo, req.caqr, req.cond_estimate);
        resp.plan_cache_hit = lk.hit;
        plan = {lk.plan->chosen, lk.plan->caqr};
      } else if (plan.algo == QrAlgorithm::Auto) {
        // Verbatim options: resolve Auto by prediction only, no tuning.
        plan.algo = pick_householder<T>(opts_.model, m, n, plan.caqr);
      }
    }
    resp.plan_seconds = wall_seconds() - p0;
    return plan;
  }

  // Admission: queues the job, or answers it at once through job.finish
  // with Shed (overload protection) or Rejected (full queue or stopping).
  void enqueue(Job job, const RequestOptions& req, bool blocking) {
    if (req.deadline_seconds > 0) {
      job.deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 req.deadline_seconds));
    }
    job.submitted = Clock::now();
    static prof::Counter& wait = prof::counter("serve.pool_lock_wait_ns");
    std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
    prof::lock_timed(lock, wait);
    // Overload protection runs BEFORE the backpressure wait: a shed caller
    // gets its typed answer immediately instead of blocking on a queue that
    // is already past the depth it is willing to serve.
    if (should_shed(req)) {
      ++shed_;
      lock.unlock();
      job.finish(RequestStatus::Shed);
      return;
    }
    if (blocking) {
      cv_space_.wait(lock, [&] {
        return stopping_ || queued_ < opts_.queue_capacity;
      });
    }
    if (stopping_ || queued_ >= opts_.queue_capacity) {
      ++rejected_;
      lock.unlock();
      job.finish(RequestStatus::Rejected);
      return;
    }
    const auto [it, fresh] = tenants_.try_emplace(req.tenant);
    Tenant& t = it->second;
    if (fresh) {
      const auto w = opts_.tenant_weights.find(req.tenant);
      if (w != opts_.tenant_weights.end() && w->second > 0) t.weight = w->second;
      rr_order_.push_back(&t);
    }
    t.jobs.emplace(std::make_pair(req.priority, seq_++), std::move(job));
    ++queued_;
    ++submitted_;
    lock.unlock();
    cv_work_.notify_one();
  }

  // Next job by deficit round-robin; call with mutex_ held and queued_ > 0.
  // Each visit to a tenant with work credits its deficit by its weight; a
  // deficit >= 1 buys one served request, a visit that cannot afford one is
  // a counted starvation skip. Termination: every full cycle credits each
  // non-empty tenant by its weight, so within ceil(1/min_weight) cycles
  // someone can afford a serve.
  Job pop_next_locked() {
    for (;;) {
      rr_pos_ = (rr_pos_ + 1) % rr_order_.size();
      Tenant& t = *rr_order_[rr_pos_];
      if (t.jobs.empty()) continue;
      t.deficit += t.weight;
      if (t.deficit < 1.0) {
        ++t.starved;
        continue;
      }
      t.deficit -= 1.0;
      auto it = t.jobs.begin();
      Job job = std::move(it->second);
      t.jobs.erase(it);
      if (t.jobs.empty()) t.deficit = 0.0;  // no credit hoarding when idle
      --queued_;
      ++t.served;
      return job;
    }
  }

  // Overload-protection policy, called with mutex_ held. Two independent
  // rules, both opt-in via PoolOptions:
  //   * depth bound — the queue already holds shed_queue_depth entries;
  //   * deadline feasibility — the request's estimated queueing delay
  //     (depth x EMA wall service seconds / workers) exceeds its budget,
  //     so it would expire in the queue anyway.
  bool should_shed(const RequestOptions& req) const {
    if (opts_.shed_queue_depth > 0 && !stopping_ &&
        queued_ >= opts_.shed_queue_depth) {
      return true;
    }
    if (opts_.shed_infeasible_deadlines && req.deadline_seconds > 0 &&
        ema_service_seconds_ > 0) {
      const double est_wait = static_cast<double>(queued_) *
                              ema_service_seconds_ /
                              static_cast<double>(opts_.workers);
      return est_wait > req.deadline_seconds;
    }
    return false;
  }

  void worker_main(int widx) {
    // One simulated GPU per worker, constructed on the worker thread, armed
    // with the pool-wide fault environment (injector + recovery policy).
    gpusim::Device dev(opts_.model, opts_.mode);
    dev.set_fault_injection(opts_.fault);
    dev.set_fault_tolerance(opts_.ft);
    for (;;) {
      Job job;
      {
        static prof::Counter& wait =
            prof::counter("serve.pool_lock_wait_ns");
        std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
        prof::lock_timed(lock, wait);
        cv_work_.wait(lock, [&] { return stopping_ || queued_ > 0; });
        if (queued_ == 0) return;  // stopping and drained
        job = pop_next_locked();
        ++active_;
      }
      // One slot freed admits one blocked producer; notify_all here was a
      // thundering herd that serialized every producer through the mutex
      // on each dequeue.
      cv_space_.notify_one();
      {
        static prof::Histogram& qwait = prof::histogram("serve.queue_wait");
        qwait.record(std::chrono::duration<double, std::nano>(
                         Clock::now() - job.submitted)
                         .count());
      }
      if (Clock::now() > job.deadline) {
        // Count before fulfilling the promise: a waiter woken by the
        // response future must already see the stat it implies.
        bool drained;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++expired_;
          --active_;
          drained = queued_ == 0 && active_ == 0;
        }
        job.finish(RequestStatus::DeadlineExpired);
        if (drained) cv_drain_.notify_all();
        continue;
      }
      // Fresh timeline per request: simulated_seconds is the request's own
      // device time, and results cannot depend on what ran before.
      dev.reset_timeline();
      const double w0 = wall_seconds();
      const RequestStatus rs = job.run(dev, job.deadline);
      const double service = wall_seconds() - w0;
      bool drained;
      {
        static prof::Counter& wait =
            prof::counter("serve.pool_lock_wait_ns");
        prof::timed_lock<std::mutex> lock(mutex_, wait);
        busy_sim_[static_cast<std::size_t>(widx)] += dev.elapsed_seconds();
        if (rs == RequestStatus::Done) {
          // Wall service-time EMA feeding the deadline-feasibility shed
          // rule; a presolve-expired request never solved, so its (tiny)
          // service time would only drag the estimate down.
          ema_service_seconds_ = ema_service_seconds_ == 0
                                     ? service
                                     : 0.8 * ema_service_seconds_ +
                                           0.2 * service;
          ++completed_;
        } else {
          ++expired_;
          ++presolve_expired_;
        }
        --active_;
        drained = queued_ == 0 && active_ == 0;
      }
      // wait_drain's predicate is "queue empty and nothing active": waking
      // its waiters on EVERY completion stampeded them through the mutex
      // per request. Notify only at the drained edge they wait for.
      if (drained) cv_drain_.notify_all();
    }
  }

  const PoolOptions opts_;
  PlanCache cache_;
  mutable std::mutex mutex_;
  std::condition_variable cv_work_;   // queue became non-empty / stopping
  std::condition_variable cv_space_;  // queue dropped below capacity
  std::condition_variable cv_drain_;  // a request finished
  // Dispatch order: deficit round-robin over tenants in first-seen order
  // (pointers into tenants_, whose nodes never move), (priority,
  // submission sequence) within a tenant. `queued_` counts jobs across all.
  std::map<int, Tenant> tenants_;
  std::vector<Tenant*> rr_order_;
  std::size_t rr_pos_ = 0;  // last tenant visited by the scheduler
  std::size_t queued_ = 0;
  std::uint64_t seq_ = 0;
  int active_ = 0;
  bool stopping_ = false;
  long long submitted_ = 0;
  long long completed_ = 0;
  long long rejected_ = 0;
  long long expired_ = 0;
  long long shed_ = 0;
  long long solve_retries_ = 0;
  long long presolve_expired_ = 0;
  double ema_service_seconds_ = 0;  // wall seconds per served request
  std::vector<double> busy_sim_;
  std::vector<std::thread> threads_;  // last: joins before members destruct
};

// svd::QrHook adapter: routes a tall-skinny-SVD (and hence Robust PCA)
// stage-1 QR through a SolverPool. Submits with use_plan=false and the
// caller's CaqrOptions verbatim, so the pooled factorization is
// bit-identical to the inline one it replaces; the simulated seconds the
// request took on the worker's device are returned for the caller to charge
// to its own timeline. Requires a Functional pool (the hook moves real
// factors back). Thread-safe: holds no mutable state beyond the pool
// pointer.
class PooledQrHook final : public svd::QrHook {
 public:
  explicit PooledQrHook(SolverPool& pool) : pool_(&pool) {}

  double qr(ConstMatrixView<float> a, const CaqrOptions& opt,
            Matrix<float>& q, Matrix<float>& r) override {
    return run<float>(a, opt, q, r);
  }
  double qr(ConstMatrixView<double> a, const CaqrOptions& opt,
            Matrix<double>& q, Matrix<double>& r) override {
    return run<double>(a, opt, q, r);
  }

 private:
  template <typename T>
  double run(ConstMatrixView<T> a, const CaqrOptions& opt, Matrix<T>& q,
             Matrix<T>& r) {
    CAQR_CHECK_MSG(
        pool_->options().mode == gpusim::ExecMode::Functional,
        "PooledQrHook needs a Functional pool (it returns real factors)");
    RequestOptions req;
    req.algo = QrAlgorithm::Caqr;
    req.use_plan = false;  // verbatim options => bit-identical to inline
    req.caqr = opt;
    QrResponse<T> resp = pool_->submit(Matrix<T>::from(a), req).get();
    CAQR_CHECK(resp.status == RequestStatus::Done);
    q = std::move(resp.result.q);
    r = std::move(resp.result.r);
    return resp.simulated_seconds;
  }

  SolverPool* pool_;
};

}  // namespace caqr::serve
