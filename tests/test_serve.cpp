// Tests for the batched QR serving layer (src/serve/): plan-cache hit/miss
// accounting and machine-model fingerprint invalidation, work-queue
// semantics (backpressure, shedding, deadlines and exceptions answered
// through every entry point, priority/FIFO dispatch, cache-off planning
// and verbatim Auto resolution), determinism
// of pooled results across worker counts, ModelOnly requests on every
// algorithm the planner picks (timelines equal to Functional ones, batches
// equal to solo requests), bit-identity of the fused same-shape batch path
// against solo factorizations (ragged, wide, double and k = 1 batches), its
// pinned ModelOnly timeline, and Robust PCA routed through the pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "rpca/rpca.hpp"
#include "serve/solver_pool.hpp"

namespace caqr::serve {
namespace {

using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;

template <typename T>
void expect_bits_equal(const Matrix<T>& a, const Matrix<T>& b,
                       const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " at (" << i << "," << j << ")";
    }
  }
}

// ---------------------------------------------------------------- PlanCache

TEST(PlanCache, MissThenHit) {
  PlanCache cache(8);
  const auto model = GpuMachineModel::c2050();
  auto first = cache.lookup<float>(model, 4096, 64);
  EXPECT_FALSE(first.hit);
  auto second = cache.lookup<float>(model, 4096, 64);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 1u);
  // Identical keys return the identical plan object.
  EXPECT_EQ(first.plan.get(), second.plan.get());
  // Different shape, dtype, or requested algorithm: distinct entries.
  EXPECT_FALSE(cache.lookup<float>(model, 8192, 64).hit);
  EXPECT_FALSE(cache.lookup<double>(model, 4096, 64).hit);
  EXPECT_FALSE(
      cache.lookup<float>(model, 4096, 64, QrAlgorithm::Hybrid).hit);
  EXPECT_EQ(cache.misses(), 4);
}

TEST(PlanCache, LruEvictionPastCapacity) {
  PlanCache cache(2);
  const auto model = GpuMachineModel::c2050();
  cache.lookup<float>(model, 1024, 32);
  cache.lookup<float>(model, 2048, 32);
  cache.lookup<float>(model, 4096, 32);  // evicts 1024 (least recent)
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup<float>(model, 4096, 32).hit);
  EXPECT_FALSE(cache.lookup<float>(model, 1024, 32).hit);  // re-inserted
}

TEST(PlanCache, ModelFingerprintInvalidates) {
  const auto c2050 = GpuMachineModel::c2050();
  GpuMachineModel tweaked = c2050;
  tweaked.dram_bw_gbs += 1.0;
  EXPECT_EQ(c2050.fingerprint(), GpuMachineModel::c2050().fingerprint());
  EXPECT_NE(c2050.fingerprint(), tweaked.fingerprint());
  EXPECT_NE(c2050.fingerprint(), GpuMachineModel::gtx480().fingerprint());

  PlanCache cache(8);
  EXPECT_FALSE(cache.lookup<float>(c2050, 4096, 64).hit);
  // Same shape on a changed model must MISS: stale plans never served.
  EXPECT_FALSE(cache.lookup<float>(tweaked, 4096, 64).hit);
  EXPECT_TRUE(cache.lookup<float>(c2050, 4096, 64).hit);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(PlanCache, PlanMatchesAutotuneAndPrediction) {
  const auto model = GpuMachineModel::c2050();
  const QrPlan p = make_plan<float>(model, 110592, 100);
  const auto tuned = autotune::autotune_block_size(model);
  EXPECT_EQ(p.tuned.block_rows, tuned.block_rows);
  EXPECT_EQ(p.tuned.panel_width, tuned.panel_width);
  EXPECT_EQ(p.caqr.panel_width, tuned.panel_width);
  EXPECT_EQ(p.caqr.tsqr.block_rows, tuned.block_rows);
  EXPECT_GT(p.predicted_caqr_seconds, 0.0);
  EXPECT_GT(p.predicted_hybrid_seconds, 0.0);
  // The paper's tall-skinny regime: CAQR must win at 110592 x 100.
  EXPECT_EQ(p.chosen, QrAlgorithm::Caqr);
  EXPECT_DOUBLE_EQ(
      p.predicted_caqr_seconds,
      predict_caqr_seconds<float>(model, 110592, 100, p.caqr));
}

// Many threads hammer a cold cache with a small key set: every key must be
// planned exactly once (misses publish a slot, planning runs outside the
// lock under per-key call_once; same-key racers wait on the slot instead of
// re-planning), and every returned plan for a key must be the same object.
TEST(PlanCache, ConcurrentMissesPlanEachKeyExactlyOnce) {
  PlanCache cache(64);
  const auto model = GpuMachineModel::c2050();
  constexpr int kThreads = 8;
  constexpr int kKeys = 5;
  constexpr int kRounds = 40;
  std::vector<std::array<std::shared_ptr<const QrPlan>, kKeys>> seen(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const int k = (t + r) % kKeys;
        auto got = cache.lookup<float>(model, 1024 + 512 * k, 32);
        ASSERT_NE(got.plan, nullptr);
        EXPECT_EQ(got.plan->key.rows, 1024 + 512 * k);
        seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)] =
            got.plan;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.plans_computed(), kKeys)
      << "duplicate planning sweeps under concurrent misses";
  EXPECT_EQ(cache.misses() + cache.hits(),
            static_cast<long long>(kThreads) * kRounds);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)],
                seen[0][static_cast<std::size_t>(k)])
          << "threads observed different plan objects for one key";
    }
  }
}

// --------------------------------------------------------------- SolverPool

// Holds a 1-worker pool at a latch so queue states can be set up exactly.
struct WorkerLatch {
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_fut{release.get_future()};

  std::future<RequestStatus> block(SolverPool& pool) {
    return pool.submit_task([this](gpusim::Device&) {
      started.set_value();
      release_fut.wait();
    });
  }
};

TEST(SolverPool, BackpressureRejectsPastHighWaterMark) {
  PoolOptions po;
  po.workers = 1;
  po.queue_capacity = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();  // worker busy, queue empty

  auto queued = pool.submit_task([](gpusim::Device&) {});  // queue now full
  auto rejected =
      pool.try_submit(Matrix<float>::shape_only(1024, 32));
  EXPECT_EQ(rejected.get().status, RequestStatus::Rejected);

  latch.release.set_value();
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  EXPECT_EQ(queued.get(), RequestStatus::Done);
  pool.drain();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.completed, 2);
}

TEST(SolverPool, DeadlineExpiresWhileQueued) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();

  RequestOptions tight;
  tight.deadline_seconds = 1e-4;
  auto doomed = pool.submit(Matrix<float>::shape_only(4096, 64), tight);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  latch.release.set_value();
  EXPECT_EQ(doomed.get().status, RequestStatus::DeadlineExpired);
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  EXPECT_EQ(pool.stats().expired, 1);

  // A comfortable deadline on an idle pool runs normally.
  RequestOptions loose;
  loose.deadline_seconds = 60.0;
  EXPECT_EQ(pool.submit(Matrix<float>::shape_only(4096, 64), loose)
                .get()
                .status,
            RequestStatus::Done);
}

TEST(SolverPool, ShedsAtConfiguredDepthInsteadOfBlocking) {
  PoolOptions po;
  po.workers = 1;
  po.queue_capacity = 8;  // backpressure far away: shedding must act first
  po.shed_queue_depth = 2;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();

  auto q1 = pool.submit_task([](gpusim::Device&) {});
  auto q2 = pool.submit_task([](gpusim::Device&) {});  // depth now 2
  // Admission control: at the watermark the request is turned away
  // immediately with a typed status — submit() does not block and the
  // request never occupies a slot it would miss its deadline in.
  auto shed = pool.submit(Matrix<float>::shape_only(1024, 32));
  EXPECT_EQ(shed.get().status, RequestStatus::Shed);
  EXPECT_STREQ(request_status_name(RequestStatus::Shed), "shed");

  latch.release.set_value();
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  EXPECT_EQ(q1.get(), RequestStatus::Done);
  EXPECT_EQ(q2.get(), RequestStatus::Done);
  pool.drain();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.rejected, 0);
  EXPECT_EQ(s.completed, 3);
}

TEST(SolverPool, InfeasibleDeadlineShedAtAdmission) {
  PoolOptions po;
  po.workers = 1;
  po.shed_infeasible_deadlines = true;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  // Prime the service-time estimate with one completed solve.
  EXPECT_EQ(pool.submit(Matrix<float>::shape_only(4096, 64)).get().status,
            RequestStatus::Done);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();
  auto queued = pool.submit_task([](gpusim::Device&) {});

  // One job already waiting: the estimated queue wait alone exceeds this
  // deadline, so the request is shed at admission rather than admitted and
  // expired later.
  RequestOptions hopeless;
  hopeless.deadline_seconds = 1e-12;
  auto shed = pool.submit(Matrix<float>::shape_only(4096, 64), hopeless);
  EXPECT_EQ(shed.get().status, RequestStatus::Shed);

  latch.release.set_value();
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  EXPECT_EQ(queued.get(), RequestStatus::Done);
  pool.drain();
  EXPECT_EQ(pool.stats().shed, 1);
  EXPECT_EQ(pool.stats().expired, 0);
}

TEST(SolverPool, UnrecoveredSolveRetriesOnFreshDevice) {
  const auto a = gaussian_matrix<double>(256, 16, 77);

  // Clean pool: the FT outcome rides on every response.
  {
    PoolOptions po;
    po.workers = 1;
    SolverPool pool(po);
    RequestOptions req;
    req.algo = QrAlgorithm::Caqr;
    req.use_plan = false;
    const auto resp = pool.submit(Matrix<double>::from(a.view()), req).get();
    EXPECT_EQ(resp.status, RequestStatus::Done);
    EXPECT_EQ(resp.run_status.severity, ft::Severity::Ok);
    EXPECT_EQ(resp.solve_retries, 0);
  }

  // Worker device poisoned hard, detection-only FT: the first solve comes
  // back typed Unrecovered and the pool re-runs it once on a fresh device.
  PoolOptions po;
  po.workers = 1;
  po.fault.p_block_drop = 0.9;
  po.fault.seed = 5;
  po.ft.abft = true;
  po.ft.max_launch_retries = 0;  // detect, don't retry in place
  SolverPool pool(po);
  RequestOptions req;
  req.algo = QrAlgorithm::Caqr;
  req.use_plan = false;
  const auto resp = pool.submit(Matrix<double>::from(a.view()), req).get();
  EXPECT_EQ(resp.status, RequestStatus::Done);
  EXPECT_EQ(resp.solve_retries, 1);
  // The redo ran clean, so the merged outcome is Corrected — and the
  // response mirrors the result's own status.
  EXPECT_EQ(resp.run_status.severity, ft::Severity::Corrected);
  EXPECT_EQ(resp.result.run_status.severity, resp.run_status.severity);
  pool.drain();
  EXPECT_GE(pool.stats().solve_retries, 1);
}

TEST(SolverPool, FifoWithinPriority) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();

  std::mutex order_mutex;
  std::vector<int> order;
  auto record = [&](int tag) {
    return [&order_mutex, &order, tag](gpusim::Device&) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  RequestOptions lo;  // priority 1: dispatched after every priority 0
  lo.priority = 1;
  RequestOptions hi;
  hi.priority = 0;
  std::vector<std::future<RequestStatus>> futs;
  futs.push_back(pool.submit_task(record(10), lo));
  futs.push_back(pool.submit_task(record(0), hi));
  futs.push_back(pool.submit_task(record(11), lo));
  futs.push_back(pool.submit_task(record(1), hi));

  latch.release.set_value();
  for (auto& f : futs) EXPECT_EQ(f.get(), RequestStatus::Done);
  blocked.get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11}));
}

// One tenant of weight 1 under deficit round-robin: dispatch is exactly
// ascending priority, then submission order, and no visit is a starvation.
TEST(SolverPool, SingleTenantKeepsPriorityThenSubmissionOrder) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();

  std::mutex order_mutex;
  std::vector<int> order;
  std::vector<std::future<RequestStatus>> futs;
  // tag = 10 * priority + submission index within that priority
  const std::pair<int, int> submits[] = {{2, 20}, {0, 0},  {1, 10},
                                         {0, 1},  {2, 21}, {1, 11}};
  for (const auto& [prio, tag] : submits) {
    RequestOptions req;
    req.tenant = 9;
    req.priority = prio;
    futs.push_back(pool.submit_task(
        [&order_mutex, &order, tag = tag](gpusim::Device&) {
          std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(tag);
        },
        req));
  }
  latch.release.set_value();
  for (auto& f : futs) EXPECT_EQ(f.get(), RequestStatus::Done);
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  pool.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 20, 21}));
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.tenant_served.at(9), 6);
  EXPECT_EQ(s.starved_rounds, 0);
  EXPECT_TRUE(s.tenant_starved.empty());
}

// A request without a deadline waits as long as the queue makes it.
TEST(SolverPool, RequestWithoutDeadlineNeverExpires) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();
  auto patient = pool.submit(Matrix<float>::shape_only(1024, 32));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  latch.release.set_value();
  EXPECT_EQ(patient.get().status, RequestStatus::Done);
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  pool.drain();
  EXPECT_EQ(pool.stats().expired, 0);
  EXPECT_EQ(pool.stats().completed, 2);
}

// Every entry point answers overload with its own response type, and the
// shed requests never run.
TEST(SolverPool, ShedAnswersEveryEntryPoint) {
  PoolOptions po;
  po.workers = 1;
  po.shed_queue_depth = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();
  auto queued = pool.submit_task([](gpusim::Device&) {});  // depth now 1

  bool ran = false;
  auto s1 = pool.submit(Matrix<float>::shape_only(1024, 32));
  auto s2 = pool.try_submit(Matrix<float>::shape_only(1024, 32));
  std::vector<Matrix<float>> probs;
  probs.push_back(Matrix<float>::shape_only(1024, 32));
  probs.push_back(Matrix<float>::shape_only(1024, 32));
  auto s3 = pool.submit_batch(std::move(probs));
  auto s4 = pool.submit_task([&ran](gpusim::Device&) { ran = true; });
  EXPECT_EQ(s1.get().status, RequestStatus::Shed);
  EXPECT_EQ(s2.get().status, RequestStatus::Shed);
  EXPECT_EQ(s3.get().status, RequestStatus::Shed);
  EXPECT_EQ(s4.get(), RequestStatus::Shed);

  latch.release.set_value();
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  EXPECT_EQ(queued.get(), RequestStatus::Done);
  pool.drain();
  EXPECT_FALSE(ran);
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.shed, 4);
  EXPECT_EQ(s.submitted, 2);
  EXPECT_EQ(s.completed, 2);
}

// Non-blocking task admission on a full queue is a typed Rejected, like
// try_submit; the rejected task never runs.
TEST(SolverPool, NonBlockingTaskRejectedWhenQueueFull) {
  PoolOptions po;
  po.workers = 1;
  po.queue_capacity = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();
  auto queued = pool.submit_task([](gpusim::Device&) {});  // queue now full

  bool ran = false;
  auto rejected = pool.submit_task([&ran](gpusim::Device&) { ran = true; },
                                   RequestOptions{}, /*blocking=*/false);
  EXPECT_EQ(rejected.get(), RequestStatus::Rejected);

  latch.release.set_value();
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  EXPECT_EQ(queued.get(), RequestStatus::Done);
  pool.drain();
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.stats().rejected, 1);
}

// Deadline expiry while queued reaches batch and task callers typed, and
// neither runs.
TEST(SolverPool, QueuedBatchAndTaskExpireTyped) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();

  RequestOptions tight;
  tight.deadline_seconds = 1e-4;
  std::vector<Matrix<float>> probs;
  probs.push_back(Matrix<float>::shape_only(1024, 32));
  probs.push_back(Matrix<float>::shape_only(1024, 32));
  auto batch = pool.submit_batch(std::move(probs), tight);
  bool ran = false;
  auto task =
      pool.submit_task([&ran](gpusim::Device&) { ran = true; }, tight);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  latch.release.set_value();
  EXPECT_EQ(batch.get().status, RequestStatus::DeadlineExpired);
  EXPECT_EQ(task.get(), RequestStatus::DeadlineExpired);
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  pool.drain();
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.stats().expired, 2);
}

// An exception thrown while serving reaches the caller through its future;
// the worker survives and keeps serving.
TEST(SolverPool, ExceptionReachesCallerAndWorkerSurvives) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  auto thrown = pool.submit_task(
      [](gpusim::Device&) { throw std::runtime_error("task failed"); });
  EXPECT_THROW(thrown.get(), std::runtime_error);
  EXPECT_EQ(pool.submit(Matrix<float>::shape_only(1024, 32)).get().status,
            RequestStatus::Done);
  pool.drain();
  EXPECT_EQ(pool.stats().submitted, 2);
}

// With the cache off every request plans afresh: a PlanCache of capacity 0
// counts each lookup as a miss and evicts it at once, and the served
// schedule is the same as with the cache on.
TEST(SolverPool, CacheOffCountsEveryLookupAsMiss) {
  PoolOptions on;
  on.workers = 1;
  on.mode = ExecMode::ModelOnly;
  PoolOptions off = on;
  off.use_plan_cache = false;
  SolverPool cached(on);
  SolverPool uncached(off);

  const auto ref = cached.submit(Matrix<float>::shape_only(4096, 64)).get();
  ASSERT_EQ(ref.status, RequestStatus::Done);
  for (int i = 0; i < 3; ++i) {
    const auto r = uncached.submit(Matrix<float>::shape_only(4096, 64)).get();
    ASSERT_EQ(r.status, RequestStatus::Done);
    EXPECT_FALSE(r.plan_cache_hit);
    EXPECT_EQ(r.result.used, ref.result.used);
    EXPECT_EQ(r.simulated_seconds, ref.simulated_seconds);
  }
  const PlanCache& pc = uncached.plan_cache();
  EXPECT_EQ(pc.hits(), 0);
  EXPECT_EQ(pc.misses(), 3);
  EXPECT_EQ(pc.evictions(), 3);
  EXPECT_EQ(pc.plans_computed(), 3);
  EXPECT_EQ(pc.size(), 0u);
}

// A verbatim request (use_plan = false) resolves Auto by the one predicate,
// pick_householder, and never touches the plan cache.
TEST(SolverPool, VerbatimAutoResolvesByPickHouseholder) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);
  RequestOptions req;
  req.use_plan = false;
  const std::pair<idx, idx> shapes[] = {{8192, 8192}, {4096, 64}};
  for (const auto& [m, n] : shapes) {
    const auto r = pool.submit(Matrix<float>::shape_only(m, n), req).get();
    ASSERT_EQ(r.status, RequestStatus::Done);
    EXPECT_EQ(r.result.used, pick_householder<float>(po.model, m, n))
        << m << "x" << n;
    EXPECT_FALSE(r.plan_cache_hit);
  }
  EXPECT_EQ(pool.plan_cache().hits(), 0);
  EXPECT_EQ(pool.plan_cache().misses(), 0);
}

TEST(SolverPool, PlanCacheHitOnRepeatedShape) {
  PoolOptions po;
  po.workers = 2;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  auto first = pool.submit(Matrix<float>::shape_only(110592, 100)).get();
  EXPECT_EQ(first.status, RequestStatus::Done);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_EQ(first.result.used, QrAlgorithm::Caqr);
  EXPECT_GT(first.simulated_seconds, 0.0);

  auto second = pool.submit(Matrix<float>::shape_only(110592, 100)).get();
  EXPECT_EQ(second.status, RequestStatus::Done);
  EXPECT_TRUE(second.plan_cache_hit);
  // Cache hit cannot change the simulated schedule.
  EXPECT_DOUBLE_EQ(second.simulated_seconds, first.simulated_seconds);
  EXPECT_EQ(pool.plan_cache().hits(), 1);
  EXPECT_EQ(pool.plan_cache().misses(), 1);
}

TEST(SolverPool, DeterministicAcrossWorkerCounts) {
  const idx m = 512, n = 24, kReq = 10;
  std::vector<Matrix<float>> inputs;
  for (idx i = 0; i < kReq; ++i) {
    inputs.push_back(gaussian_matrix<float>(m, n, 100 + static_cast<int>(i)));
  }

  // Reference: single-shot adaptive_qr, one fresh device per problem (the
  // exact computation a pool worker performs).
  std::vector<QrSolveResult<float>> ref;
  for (const auto& a : inputs) {
    Device dev;
    ref.push_back(adaptive_qr(dev, a.view(), QrAlgorithm::Caqr));
  }

  RequestOptions req;
  req.algo = QrAlgorithm::Caqr;
  req.use_plan = false;  // verbatim options: must match inline exactly
  for (const int workers : {1, 2, 8}) {
    PoolOptions po;
    po.workers = workers;
    SolverPool pool(po);
    std::vector<std::future<QrResponse<float>>> futs;
    for (const auto& a : inputs) {
      futs.push_back(pool.submit(Matrix<float>::from(a.view()), req));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      QrResponse<float> resp = futs[i].get();
      ASSERT_EQ(resp.status, RequestStatus::Done);
      expect_bits_equal(resp.result.q, ref[i].q, "pooled Q vs solo");
      expect_bits_equal(resp.result.r, ref[i].r, "pooled R vs solo");
      EXPECT_DOUBLE_EQ(resp.result.simulated_seconds,
                       ref[i].simulated_seconds);
    }
  }
}

// One request served alone by a fresh 1-worker pool in `mode`; Functional
// requests carry a seeded Gaussian input, ModelOnly ones a placeholder.
QrResponse<float> serve_alone(ExecMode mode, const GpuMachineModel& model,
                              idx m, idx n, const RequestOptions& req) {
  PoolOptions po;
  po.workers = 1;
  po.mode = mode;
  po.model = model;
  SolverPool pool(po);
  Matrix<float> a = mode == ExecMode::Functional
                        ? gaussian_matrix<float>(m, n, 500)
                        : Matrix<float>::shape_only(m, n);
  return pool.submit(std::move(a), req).get();
}

// A ModelOnly pool charges exactly the timeline of the Functional solve it
// stands in for, on every algorithm the planner can route to.
TEST(SolverPool, ModelOnlyMatchesFunctionalPerAlgorithm) {
  struct Case {
    const char* name;
    GpuMachineModel model;
    idx m, n;
    QrAlgorithm algo;
    double cond;
  };
  const auto c2050 = GpuMachineModel::c2050();
  const Case cases[] = {
      {"auto", c2050, 4096, 64, QrAlgorithm::Auto, 0},
      {"auto_cond10", c2050, 4096, 64, QrAlgorithm::Auto, 10},
      {"caqr", c2050, 3000, 100, QrAlgorithm::Caqr, 0},
      {"hybrid", c2050, 1024, 256, QrAlgorithm::Hybrid, 0},
      {"cholqr2", c2050, 4096, 64, QrAlgorithm::CholeskyQr2, 0},
      {"cholqr3", c2050, 4096, 64, QrAlgorithm::CholeskyQr3, 0},
      {"cholqr2_mixed", GpuMachineModel::a100(), 4096, 64,
       QrAlgorithm::CholeskyQr2Mixed, 0},
  };
  for (const Case& c : cases) {
    RequestOptions req;
    req.algo = c.algo;
    req.cond_estimate = c.cond;
    const auto f = serve_alone(ExecMode::Functional, c.model, c.m, c.n, req);
    const auto mo = serve_alone(ExecMode::ModelOnly, c.model, c.m, c.n, req);
    ASSERT_EQ(f.status, RequestStatus::Done) << c.name;
    ASSERT_EQ(mo.status, RequestStatus::Done) << c.name;
    EXPECT_EQ(mo.result.used, f.result.used) << c.name;
    EXPECT_EQ(mo.simulated_seconds, f.simulated_seconds) << c.name;
    EXPECT_EQ(mo.result.q.rows(), c.m) << c.name;
    EXPECT_EQ(mo.result.r.cols(), c.n) << c.name;
  }
}

// A ModelOnly batch whose plan is not CAQR falls back to per-problem solves
// on the placeholders; it must charge exactly what the solo requests do.
TEST(SolverPool, ModelOnlyBatchOnNonCaqrPlan) {
  struct Case {
    idx m, n;
    double cond;
    QrAlgorithm expect;
  };
  const Case cases[] = {
      {8192, 8192, 0, QrAlgorithm::Hybrid},
      {4096, 64, 10, QrAlgorithm::CholeskyQr2},
  };
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);
  for (const Case& c : cases) {
    RequestOptions req;
    req.cond_estimate = c.cond;
    double solo = 0;
    for (int i = 0; i < 2; ++i) {
      const auto r =
          pool.submit(Matrix<float>::shape_only(c.m, c.n), req).get();
      ASSERT_EQ(r.status, RequestStatus::Done);
      ASSERT_EQ(r.result.used, c.expect);
      solo += r.simulated_seconds;
    }
    std::vector<Matrix<float>> probs;
    probs.push_back(Matrix<float>::shape_only(c.m, c.n));
    probs.push_back(Matrix<float>::shape_only(c.m, c.n));
    const auto b = pool.submit_batch(std::move(probs), req).get();
    ASSERT_EQ(b.status, RequestStatus::Done);
    EXPECT_EQ(b.result.used, c.expect);
    ASSERT_EQ(b.result.problems.size(), 2u);
    EXPECT_NEAR(b.result.simulated_seconds, solo, 1e-12 * solo);
  }
}

TEST(SolverPool, MalformedBatchAnsweredInvalid) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);
  RequestOptions req;
  req.algo = QrAlgorithm::Caqr;
  req.use_plan = false;

  const auto empty = pool.submit_batch(std::vector<Matrix<float>>{}, req).get();
  EXPECT_EQ(empty.status, RequestStatus::Invalid);
  std::vector<Matrix<float>> mixed;
  mixed.push_back(Matrix<float>::shape_only(256, 16));
  mixed.push_back(Matrix<float>::shape_only(256, 32));
  const auto bad = pool.submit_batch(std::move(mixed), req).get();
  EXPECT_EQ(bad.status, RequestStatus::Invalid);
  EXPECT_STREQ(request_status_name(RequestStatus::Invalid), "invalid");
  EXPECT_EQ(pool.stats().submitted, 0);

  // Neither was queued; the pool still serves well-formed requests.
  std::vector<Matrix<float>> good;
  good.push_back(Matrix<float>::shape_only(256, 16));
  good.push_back(Matrix<float>::shape_only(256, 16));
  const auto ok = pool.submit_batch(std::move(good), req).get();
  ASSERT_EQ(ok.status, RequestStatus::Done);
  EXPECT_EQ(ok.result.problems.size(), 2u);
  EXPECT_EQ(pool.submit(Matrix<float>::shape_only(256, 16), req).get().status,
            RequestStatus::Done);
  EXPECT_EQ(pool.stats().submitted, 2);
}

TEST(SolverPool, BatchIgnoresCheckpointAndHaltOptions) {
  const std::string path = ::testing::TempDir() + "serve_batch_ckpt.bin";
  std::remove(path.c_str());
  PoolOptions po;
  po.workers = 1;
  SolverPool pool(po);
  RequestOptions req;
  req.algo = QrAlgorithm::Caqr;
  req.use_plan = false;
  req.caqr.checkpoint_path = path;
  req.caqr.halt_after_panels = 1;

  for (const idx k : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    std::vector<Matrix<float>> inputs;
    for (idx i = 0; i < k; ++i) {
      inputs.push_back(
          gaussian_matrix<float>(256, 48, 500 + static_cast<int>(i)));
    }
    std::vector<Matrix<float>> copies;
    for (const auto& a : inputs) {
      copies.push_back(Matrix<float>::from(a.view()));
    }
    const auto resp = pool.submit_batch(std::move(copies), req).get();
    ASSERT_EQ(resp.status, RequestStatus::Done);
    ASSERT_EQ(resp.result.problems.size(), static_cast<std::size_t>(k));
    for (idx i = 0; i < k; ++i) {
      const auto& in = inputs[static_cast<std::size_t>(i)];
      Device dev;
      const auto solo = adaptive_qr(dev, in.view(), QrAlgorithm::Caqr);
      const auto& bp = resp.result.problems[static_cast<std::size_t>(i)];
      expect_bits_equal(bp.q, solo.q, "batch Q");
      expect_bits_equal(bp.r, solo.r, "batch R");
    }
    EXPECT_FALSE(std::ifstream(path).good()) << "batch wrote a checkpoint";
  }
}

// -------------------------------------------------------------- batch fusion

// Batches k same-shape copies of random (m x n) inputs and checks every
// problem's Q and R bit for bit against a solo adaptive_qr run. A k = 1
// batch is the solo Serial schedule itself, simulated seconds included.
template <typename T>
void expect_batch_matches_solo(idx m, idx n, idx k, int seed) {
  SCOPED_TRACE(::testing::Message() << k << "x(" << m << "x" << n << ") "
                                    << sizeof(T) << "-byte");
  std::vector<Matrix<T>> inputs;
  for (idx i = 0; i < k; ++i) {
    inputs.push_back(gaussian_matrix<T>(m, n, seed + static_cast<int>(i)));
  }

  std::vector<QrSolveResult<T>> solo;
  for (const auto& a : inputs) {
    Device dev;
    solo.push_back(adaptive_qr(dev, a.view(), QrAlgorithm::Caqr));
  }

  Device dev;
  std::vector<Matrix<T>> copies;
  for (const auto& a : inputs) copies.push_back(Matrix<T>::from(a.view()));
  auto batch = factor_batch(dev, std::move(copies), QrAlgorithm::Caqr);
  ASSERT_EQ(batch.problems.size(), static_cast<std::size_t>(k));
  EXPECT_EQ(batch.used, QrAlgorithm::Caqr);
  for (idx i = 0; i < k; ++i) {
    const auto& bp = batch.problems[static_cast<std::size_t>(i)];
    expect_bits_equal(bp.q, solo[static_cast<std::size_t>(i)].q, "batch Q");
    expect_bits_equal(bp.r, solo[static_cast<std::size_t>(i)].r, "batch R");
  }
  EXPECT_GT(batch.fused_launches, 0);
  if (k == 1) {
    CaqrOptions serial;
    serial.schedule = CaqrSchedule::Serial;
    Device sdev;
    const auto ref =
        adaptive_qr(sdev, inputs.front().view(), QrAlgorithm::Caqr, serial);
    expect_bits_equal(batch.problems.front().q, ref.q, "k=1 batch Q");
    expect_bits_equal(batch.problems.front().r, ref.r, "k=1 batch R");
    EXPECT_EQ(batch.simulated_seconds, ref.simulated_seconds);
  } else {
    // One fused schedule, not k: cheaper than the k solo runs.
    EXPECT_LT(batch.simulated_seconds,
              static_cast<double>(k) * solo.front().simulated_seconds);
  }
}

TEST(FactorBatch, BitIdenticalToSoloRuns) {
  expect_batch_matches_solo<float>(384, 32, 3, 200);
  // Ragged: the last panel is 5 columns wide.
  expect_batch_matches_solo<float>(1000, 37, 3, 210);
  // Wide: min(m, n) = 40 panels, trailing columns past the last panel.
  expect_batch_matches_solo<float>(40, 70, 2, 220);
  expect_batch_matches_solo<double>(300, 40, 3, 230);
  expect_batch_matches_solo<float>(1000, 37, 1, 240);
  expect_batch_matches_solo<double>(384, 32, 1, 250);
}

// Pins the batch schedule's ModelOnly timeline: exact simulated seconds and
// every (op name, launches) pair, on the paper's 110592 x 100 shape and on a
// ragged one.
TEST(FactorBatch, TimelinePinned) {
  struct Case {
    idx k, m, n;
    double seconds;
    std::vector<std::pair<std::string, long long>> ops;
  };
  const Case cases[] = {
      {4,
       110592,
       100,
       0x1.2747e0d15521dp-3,
       {{"apply_q_h_batch", 7},
        {"apply_q_tree_batch", 26},
        {"apply_qt_h_batch", 6},
        {"apply_qt_tree_batch", 24},
        {"factor_batch", 7},
        {"factor_tree_batch", 26},
        {"transpose_batch", 7}}},
      {3,
       1000,
       37,
       0x1.15711400d3749p-11,
       {{"apply_q_h_batch", 3},
        {"apply_q_tree_batch", 3},
        {"apply_qt_h_batch", 2},
        {"apply_qt_tree_batch", 2},
        {"factor_batch", 3},
        {"factor_tree_batch", 3},
        {"transpose_batch", 3}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.k << "x(" << c.m << "x" << c.n
                                      << ")");
    Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    std::vector<Matrix<float>> probs;
    for (idx i = 0; i < c.k; ++i) {
      probs.push_back(Matrix<float>::shape_only(c.m, c.n));
    }
    const auto batch = factor_batch(dev, std::move(probs), QrAlgorithm::Caqr);
    EXPECT_EQ(batch.simulated_seconds, c.seconds);
    std::vector<std::pair<std::string, long long>> ops;
    for (const auto& p : dev.profiles()) ops.emplace_back(p.name, p.launches);
    EXPECT_EQ(ops, c.ops);
  }
}

TEST(FactorBatch, FusedLaunchesVisibleInModelOnlyTimeline) {
  Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  std::vector<Matrix<float>> probs;
  for (int i = 0; i < 4; ++i) {
    probs.push_back(Matrix<float>::shape_only(110592, 100));
  }
  auto batch = factor_batch(dev, std::move(probs), QrAlgorithm::Caqr);
  EXPECT_GT(batch.simulated_seconds, 0.0);

  bool saw_factor = false, saw_apply = false;
  long long fused_ops = 0;
  for (const auto& p : dev.profiles()) {
    if (p.name.find("_batch") == std::string::npos) continue;
    fused_ops += p.launches;
    if (p.name.find("factor") != std::string::npos) saw_factor = true;
    if (p.name.find("apply") != std::string::npos) saw_apply = true;
  }
  EXPECT_TRUE(saw_factor);
  EXPECT_TRUE(saw_apply);
  EXPECT_EQ(fused_ops, static_cast<long long>(batch.fused_launches));
}

TEST(FactorBatch, ModelOnlyTimelineMatchesFunctional) {
  const idx m = 384, n = 32;
  auto make_inputs = [&](bool functional) {
    std::vector<Matrix<float>> v;
    for (int i = 0; i < 3; ++i) {
      v.push_back(functional ? gaussian_matrix<float>(m, n, 300 + i)
                             : Matrix<float>::shape_only(m, n));
    }
    return v;
  };
  Device fdev;
  Device mdev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  auto fb = factor_batch(fdev, make_inputs(true), QrAlgorithm::Caqr);
  auto mb = factor_batch(mdev, make_inputs(false), QrAlgorithm::Caqr);
  EXPECT_DOUBLE_EQ(fb.simulated_seconds, mb.simulated_seconds);
  EXPECT_EQ(fb.fused_launches, mb.fused_launches);
}

TEST(SolverPool, BatchThroughPoolMatchesSolo) {
  const idx m = 256, n = 16, k = 4;
  std::vector<Matrix<float>> inputs;
  for (idx i = 0; i < k; ++i) {
    inputs.push_back(gaussian_matrix<float>(m, n, 400 + static_cast<int>(i)));
  }
  std::vector<QrSolveResult<float>> solo;
  for (const auto& a : inputs) {
    Device dev;
    solo.push_back(adaptive_qr(dev, a.view(), QrAlgorithm::Caqr));
  }

  PoolOptions po;
  po.workers = 2;
  SolverPool pool(po);
  RequestOptions req;
  req.algo = QrAlgorithm::Caqr;
  req.use_plan = false;
  std::vector<Matrix<float>> copies;
  for (const auto& a : inputs) copies.push_back(Matrix<float>::from(a.view()));
  BatchResponse<float> resp =
      pool.submit_batch(std::move(copies), req).get();
  ASSERT_EQ(resp.status, RequestStatus::Done);
  ASSERT_EQ(resp.result.problems.size(), static_cast<std::size_t>(k));
  for (idx i = 0; i < k; ++i) {
    const auto& bp = resp.result.problems[static_cast<std::size_t>(i)];
    expect_bits_equal(bp.q, solo[static_cast<std::size_t>(i)].q, "pool batch Q");
    expect_bits_equal(bp.r, solo[static_cast<std::size_t>(i)].r, "pool batch R");
  }
}

// ------------------------------------------------------------ RPCA routing

TEST(PooledQrHook, RpcaThroughPoolMatchesInline) {
  LowRankPlusSparse spec;
  spec.rank = 2;
  spec.sparse_fraction = 0.05;
  auto planted = planted_low_rank_plus_sparse<double>(128, 16, spec, 91);

  rpca::RpcaOptions opt;
  opt.max_iterations = 30;

  Device inline_dev;
  auto inline_res =
      rpca::robust_pca(inline_dev, planted.observed.view(), opt);

  PoolOptions po;
  po.workers = 2;
  SolverPool pool(po);
  PooledQrHook hook(pool);
  rpca::RpcaOptions pooled_opt = opt;
  pooled_opt.svd.qr_hook = &hook;
  Device pooled_dev;
  auto pooled_res =
      rpca::robust_pca(pooled_dev, planted.observed.view(), pooled_opt);

  EXPECT_EQ(pooled_res.converged, inline_res.converged);
  EXPECT_EQ(pooled_res.iterations, inline_res.iterations);
  expect_bits_equal(pooled_res.low_rank, inline_res.low_rank,
                    "RPCA L through pool");
  expect_bits_equal(pooled_res.sparse, inline_res.sparse,
                    "RPCA S through pool");
  EXPECT_GT(pool.stats().completed, 0);
}

// ------------------------------------------------------- weighted fair share

TEST(SolverPool, FairShareServesByDeficitWeights) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  po.tenant_weights[0] = 1.0;
  po.tenant_weights[1] = 0.5;  // one credit every second visit
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();

  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::future<RequestStatus>> futs;
  for (int i = 0; i < 4; ++i) {
    for (int tenant = 0; tenant < 2; ++tenant) {
      RequestOptions req;
      req.tenant = tenant;
      futs.push_back(pool.submit_task(
          [tenant, &order_mu, &order](gpusim::Device&) {
            std::lock_guard<std::mutex> lk(order_mu);
            order.push_back(tenant);
          },
          req));
    }
  }
  latch.release.set_value();
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  for (auto& f : futs) EXPECT_EQ(f.get(), RequestStatus::Done);

  pool.drain();
  ASSERT_EQ(order.size(), 8u);
  // Deficit round-robin at weights 1.0 : 0.5 serves tenant 0 twice as often
  // while both queues are non-empty — tenant 0 drains strictly first.
  const auto last0 = std::find(order.rbegin(), order.rend(), 0);
  const auto last1 = std::find(order.rbegin(), order.rend(), 1);
  EXPECT_LT(last0 - order.rbegin(), 8 - 4)
      << "tenant 0 should finish within the first 5 serves";
  EXPECT_EQ(*last1, 1);
  const PoolStats s = pool.stats();
  // 4 measured requests + the latch job (default tenant 0).
  EXPECT_EQ(s.tenant_served.at(0), 5);
  EXPECT_EQ(s.tenant_served.at(1), 4);
  // Tenant 1's sub-1.0 visits are counted, never silent.
  EXPECT_GT(s.starved_rounds, 0);
  EXPECT_GT(s.tenant_starved.at(1), 0);
  EXPECT_EQ(s.tenant_starved.count(0), 0u);
}

TEST(SolverPool, FairShareCompletesAllTenantsWithExtremeWeights) {
  PoolOptions po;
  po.workers = 2;
  po.mode = ExecMode::ModelOnly;
  po.tenant_weights[7] = 0.05;  // 20 visits per credit: starved but served
  SolverPool pool(po);
  std::vector<std::future<RequestStatus>> futs;
  for (int i = 0; i < 6; ++i) {
    for (int tenant : {3, 7}) {
      RequestOptions req;
      req.tenant = tenant;
      futs.push_back(pool.submit_task([](gpusim::Device&) {}, req));
    }
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), RequestStatus::Done);
  pool.drain();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.tenant_served.at(3), 6);
  EXPECT_EQ(s.tenant_served.at(7), 6);
}

// ------------------------------------------------- pre-solve deadline check

TEST(SolverPool, DeadlineExpiredDuringPlanningSkipsSolve) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  // Deterministic pin for "the deadline passed between dequeue and solve":
  // the hook runs after plan resolution, before the pre-solve re-check.
  po.post_plan_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
  };
  SolverPool pool(po);

  RequestOptions req;
  req.deadline_seconds = 0.25;  // outlives the queue, not the planning stall
  auto resp = pool.submit(Matrix<float>::shape_only(1024, 32), req);
  EXPECT_EQ(resp.get().status, RequestStatus::DeadlineExpired);

  pool.drain();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.presolve_expired, 1);  // the expiry was caught BEFORE solving
}

}  // namespace
}  // namespace caqr::serve
