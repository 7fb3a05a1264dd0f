// QueryService unit suite (ctest label `service`): admission control
// and load shedding, per-tenant priority ordering, batch-window
// coalescing under the virtual clock, batched-result byte-identity to
// serial execution, in-batch deduplication, and the version-validated
// result cache (recompute after mutation, pinned LRU eviction order,
// counter agreement). Deterministic: time only moves when the test
// advances the VirtualClock.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "fault/fault.h"
#include "obs/metrics/metrics.h"
#include "query/predicate.h"
#include "query/table.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "service/result_cache.h"
#include "service/service_clock.h"
#include "shared/service_test_util.h"
#include "system/board.h"

namespace dba::service {
namespace {

constexpr uint64_t kTableSeed = 20140622;
constexpr uint32_t kRows = 1024;

std::unique_ptr<system::Board> MakeBoard(int num_cores, int host_threads) {
  system::BoardConfig config;
  config.num_cores = num_cores;
  config.host_threads = host_threads;
  auto board = system::Board::Create(config);
  EXPECT_TRUE(board.ok()) << board.status();
  return *std::move(board);
}

std::unique_ptr<QueryService> MakeService(system::Board* board,
                                          ServiceConfig config) {
  config.board = board;
  auto service = QueryService::Create(config);
  EXPECT_TRUE(service.ok()) << service.status();
  return *std::move(service);
}

ServiceRequest PredicateRequest(
    std::shared_ptr<const query::Predicate> predicate,
    std::string tenant = "t0", int priority = 0) {
  ServiceRequest request;
  request.tenant = std::move(tenant);
  request.priority = priority;
  request.table = "orders";
  request.predicate = std::move(predicate);
  return request;
}

ServiceRequest DirectRequest(SetOp op, std::vector<uint32_t> a,
                             std::vector<uint32_t> b) {
  ServiceRequest request;
  request.tenant = "t0";
  request.op = op;
  request.a = std::move(a);
  request.b = std::move(b);
  return request;
}

// --- AdmissionQueue ---

TEST(AdmissionQueueTest, PriorityThenFifoOrder) {
  AdmissionQueue<int> queue(8);
  ASSERT_TRUE(queue.Push(0, 10).ok());
  ASSERT_TRUE(queue.Push(5, 20).ok());
  ASSERT_TRUE(queue.Push(0, 11).ok());
  ASSERT_TRUE(queue.Push(5, 21).ok());
  ASSERT_TRUE(queue.Push(2, 30).ok());
  std::vector<int> popped;
  int value = 0;
  while (queue.Pop(&value)) popped.push_back(value);
  EXPECT_EQ(popped, (std::vector<int>{20, 21, 30, 10, 11}));
  EXPECT_TRUE(queue.empty());
}

TEST(AdmissionQueueTest, OverflowIsExplicitUnavailable) {
  AdmissionQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(0, 1).ok());
  ASSERT_TRUE(queue.Push(0, 2).ok());
  const Status overflow = queue.Push(9, 3);
  EXPECT_EQ(overflow.code(), StatusCode::kUnavailable);
  EXPECT_EQ(queue.size(), 2u);  // high priority cannot displace queued work
}

// --- ResultCache ---

TEST(ResultCacheTest, StaleVersionNeverServed) {
  ResultCache cache(4);
  const std::vector<ColumnVersion> v1{{"t", "c", 1}};
  const std::vector<ColumnVersion> v2{{"t", "c", 2}};
  cache.Insert("k", {1, 2, 3}, v1);
  std::vector<uint32_t> out;
  ASSERT_TRUE(cache.Lookup("k", v1, &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_FALSE(cache.Lookup("k", v2, &out));  // stale: dropped, miss
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResultCacheTest, LruEvictionOrderPinned) {
  ResultCache cache(2);
  const std::vector<ColumnVersion> v{{"t", "c", 1}};
  cache.Insert("a", {1}, v);
  cache.Insert("b", {2}, v);
  cache.Insert("c", {3}, v);  // evicts "a" (LRU)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<std::string>{"c", "b"}));
  std::vector<uint32_t> out;
  EXPECT_FALSE(cache.Lookup("a", v, &out));
  ASSERT_TRUE(cache.Lookup("b", v, &out));  // refreshes "b" to MRU
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<std::string>{"b", "c"}));
  cache.Insert("d", {4}, v);  // now "c" is LRU
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<std::string>{"d", "b"}));
}

TEST(ResultCacheTest, InvalidateColumnDropsDependents) {
  ResultCache cache(4);
  cache.Insert("q1", {1}, {{"t", "x", 1}});
  cache.Insert("q2", {2}, {{"t", "y", 1}});
  cache.Insert("q3", {3}, {{"t", "x", 1}, {"t", "y", 1}});
  cache.InvalidateColumn("t", "x");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.KeysMruToLru(), (std::vector<std::string>{"q2"}));
}

// --- VirtualClock ---

TEST(VirtualClockTest, AdvanceWakesRegisteredWaiter) {
  VirtualClock clock(0);
  std::mutex mu;
  std::condition_variable cv;
  clock.Watch(&mu, &cv);
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    std::unique_lock<std::mutex> lock(mu);
    while (clock.NowNs() < 100) clock.WaitUntil(lock, cv, 100);
    woke = true;
  });
  clock.AdvanceTo(100);
  waiter.join();
  EXPECT_TRUE(woke);
  clock.AdvanceTo(50);  // never moves backward
  EXPECT_EQ(clock.NowNs(), 100u);
}

// --- QueryService ---

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() : board_(MakeBoard(4, 2)) {}

  std::unique_ptr<QueryService> MakeOrdersService(ServiceConfig config) {
    auto service = MakeService(board_.get(), std::move(config));
    auto table = std::make_unique<query::Table>(
        test::MakeServiceTable("orders", kRows, kTableSeed));
    EXPECT_TRUE(service->RegisterTable(std::move(table)).ok());
    return service;
  }

  std::unique_ptr<system::Board> board_;
};

TEST_F(QueryServiceTest, AdmissionOverflowShedsWithUnavailable) {
  VirtualClock clock;
  ServiceConfig config;
  config.queue_capacity = 4;
  config.clock = &clock;
  auto service = MakeOrdersService(config);
  service->PauseDispatch();

  const auto pool = test::MakePredicatePool(8);
  std::vector<std::future<ServiceResponse>> futures;
  for (size_t i = 0; i < 4; ++i) {
    futures.push_back(service->Submit(PredicateRequest(pool[i])));
  }
  EXPECT_EQ(service->queue_depth(), 4u);
  // Queue-depth metric agrees with the service's own view.
  obs::Gauge* depth =
      obs::MetricsRegistry::Global().GetGauge("dba_service_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->Value(), 4.0);

  // Overflow: an explicit, immediate kUnavailable -- never a silent drop.
  auto rejected = service->Submit(PredicateRequest(pool[4]));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ServiceResponse response = rejected.get();
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service->counters().rejected, 1u);
  EXPECT_EQ(service->counters().submitted, 5u);

  service->ResumeDispatch();
  service->Drain();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(depth->Value(), 0.0);
}

TEST_F(QueryServiceTest, PriorityOrderingUnderFullQueue) {
  ServiceConfig config;
  config.queue_capacity = 16;
  config.max_batch = 1;  // one request per dispatch: order is observable
  config.tenant_priorities["vip"] = 10;
  auto service = MakeOrdersService(config);
  service->PauseDispatch();

  const auto pool = test::MakePredicatePool(8);
  auto low0 = service->Submit(PredicateRequest(pool[0], "t0", 0));
  auto low1 = service->Submit(PredicateRequest(pool[1], "t0", 0));
  auto high = service->Submit(PredicateRequest(pool[2], "t0", 5));
  auto vip = service->Submit(PredicateRequest(pool[3], "vip", 0));  // 0+10
  auto mid = service->Submit(PredicateRequest(pool[4], "t0", 2));
  service->ResumeDispatch();
  service->Drain();

  const ServiceResponse r_low0 = low0.get();
  const ServiceResponse r_low1 = low1.get();
  const ServiceResponse r_high = high.get();
  const ServiceResponse r_vip = vip.get();
  const ServiceResponse r_mid = mid.get();
  for (const ServiceResponse* r :
       {&r_low0, &r_low1, &r_high, &r_vip, &r_mid}) {
    ASSERT_TRUE(r->status.ok()) << r->status;
    EXPECT_EQ(r->batch_size, 1u);
  }
  // Highest effective priority first; FIFO within a level.
  EXPECT_LT(r_vip.dispatch_seq, r_high.dispatch_seq);
  EXPECT_LT(r_high.dispatch_seq, r_mid.dispatch_seq);
  EXPECT_LT(r_mid.dispatch_seq, r_low0.dispatch_seq);
  EXPECT_LT(r_low0.dispatch_seq, r_low1.dispatch_seq);
}

TEST_F(QueryServiceTest, BatchWindowCoalescesExactly) {
  VirtualClock clock;
  ServiceConfig config;
  config.batch_window_ns = 1000;
  config.max_batch = 64;
  config.clock = &clock;
  auto service = MakeOrdersService(config);

  const auto pool = test::MakePredicatePool(6);
  std::vector<std::future<ServiceResponse>> futures;
  for (size_t i = 0; i < 6; ++i) {
    futures.push_back(service->Submit(PredicateRequest(pool[i])));
  }
  // All six are queued at t=0; the window closes at t=1000 and the
  // scheduler dispatches them as exactly one batch, whichever thread
  // interleaving got them there.
  clock.AdvanceTo(1000);
  service->Drain();
  for (auto& future : futures) {
    const ServiceResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.batch_size, 6u);
  }
  EXPECT_EQ(service->counters().batches, 1u);
  EXPECT_EQ(service->counters().dispatched, 6u);
}

TEST_F(QueryServiceTest, BatchedResultsByteIdenticalToSerial) {
  ServiceConfig config;
  config.max_batch = 32;
  auto service = MakeOrdersService(config);
  service->PauseDispatch();  // force everything into one batch

  test::SerialReference reference("orders", kRows, kTableSeed);
  Random rng(99);
  struct Expected {
    std::future<ServiceResponse> future;
    std::vector<uint32_t> values;
  };
  std::vector<Expected> cases;

  // Every direct set op, including merge with duplicates and empty sides.
  for (const SetOp op : {SetOp::kIntersect, SetOp::kUnion, SetOp::kDifference,
                         SetOp::kMerge}) {
    for (int i = 0; i < 3; ++i) {
      std::vector<uint32_t> a = test::MakeSortedSet(rng, 48, 2048);
      std::vector<uint32_t> b = test::MakeSortedSet(rng, 48, 2048);
      if (i == 2) b.clear();  // degenerate side
      auto expected = reference.Direct(op, a, b);
      ASSERT_TRUE(expected.ok()) << expected.status();
      Expected c;
      c.values = *expected;
      c.future = service->Submit(DirectRequest(op, std::move(a), std::move(b)));
      cases.push_back(std::move(c));
    }
  }
  // Predicate queries against the serial engine.
  const auto pool = test::MakePredicatePool(6);
  for (const auto& predicate : pool) {
    auto expected = reference.Select(*predicate);
    ASSERT_TRUE(expected.ok()) << expected.status();
    Expected c;
    c.values = *expected;
    c.future = service->Submit(PredicateRequest(predicate));
    cases.push_back(std::move(c));
  }

  service->ResumeDispatch();
  service->Drain();
  for (Expected& c : cases) {
    const ServiceResponse response = c.future.get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.values, c.values);
  }
}

TEST_F(QueryServiceTest, IdenticalRequestsDeduplicateWithinBatch) {
  ServiceConfig config;
  config.cache_capacity = 0;  // isolate dedup from the cache
  auto service = MakeOrdersService(config);
  service->PauseDispatch();

  const auto pool = test::MakePredicatePool(2);
  auto first = service->Submit(PredicateRequest(pool[0]));
  auto second = service->Submit(PredicateRequest(pool[0]));
  auto other = service->Submit(PredicateRequest(pool[1]));
  service->ResumeDispatch();
  service->Drain();

  const ServiceResponse r1 = first.get();
  const ServiceResponse r2 = second.get();
  const ServiceResponse r3 = other.get();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  ASSERT_TRUE(r3.status.ok());
  EXPECT_EQ(r1.values, r2.values);
  EXPECT_FALSE(r1.deduplicated);
  EXPECT_TRUE(r2.deduplicated);
  EXPECT_FALSE(r3.deduplicated);
  EXPECT_EQ(service->counters().deduplicated, 1u);
}

TEST_F(QueryServiceTest, CacheServesRepeatsAndRecomputesAfterMutation) {
  auto service = MakeOrdersService(ServiceConfig{});
  test::SerialReference reference("orders", kRows, kTableSeed);
  const auto pool = test::MakePredicatePool(1);

  auto miss = service->Submit(PredicateRequest(pool[0]));
  service->Drain();
  const ServiceResponse first = miss.get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.values, *reference.Select(*pool[0]));

  auto hit = service->Submit(PredicateRequest(pool[0]));
  service->Drain();
  const ServiceResponse second = hit.get();
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.values, first.values);

  // Mutate the predicate's column: the cached result must never be
  // served again, and the recompute must see the new data.
  const auto new_region = test::MakeColumnValues("region", kRows, 4242);
  ASSERT_TRUE(service->UpdateColumn("orders", "region", new_region).ok());
  ASSERT_TRUE(reference.Update("region", new_region).ok());

  auto recompute = service->Submit(PredicateRequest(pool[0]));
  service->Drain();
  const ServiceResponse third = recompute.get();
  ASSERT_TRUE(third.status.ok()) << third.status;
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.values, *reference.Select(*pool[0]));

  const ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_GE(counters.cache_invalidations, 1u);
}

TEST_F(QueryServiceTest, CacheEvictionOrderObservableViaKeys) {
  ServiceConfig config;
  config.cache_capacity = 2;
  auto service = MakeOrdersService(config);
  const auto pool = test::MakePredicatePool(3);
  std::vector<std::string> keys;
  for (const auto& predicate : pool) {
    keys.push_back("q|orders|" + predicate->ToString());
    service->Submit(PredicateRequest(predicate)).wait();
  }
  service->Drain();
  // Third insert evicted the first (LRU) entry.
  EXPECT_EQ(service->CacheKeysMruToLru(),
            (std::vector<std::string>{keys[2], keys[1]}));
  EXPECT_EQ(service->counters().cache_evictions, 1u);
}

TEST_F(QueryServiceTest, ExpiredDeadlineIsShedAtDispatch) {
  VirtualClock clock;
  ServiceConfig config;
  config.clock = &clock;
  auto service = MakeOrdersService(config);
  service->PauseDispatch();

  const auto pool = test::MakePredicatePool(1);
  ServiceRequest request = PredicateRequest(pool[0]);
  request.deadline_ns = 10;
  auto doomed = service->Submit(std::move(request));
  auto healthy = service->Submit(PredicateRequest(pool[0]));
  clock.AdvanceTo(100);
  service->ResumeDispatch();
  service->Drain();

  EXPECT_EQ(doomed.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(healthy.get().status.ok());
  EXPECT_EQ(service->counters().shed, 1u);
}

TEST_F(QueryServiceTest, CountersCoverABatchBeforeItsFirstResponse) {
  // A batch books its counters once, before any of its responses goes
  // out: whoever the first response wakes sees the whole batch counted.
  // Each response copies a 1.5 MB result, so a service that counted as
  // responses went out would still be answering the other fifteen.
  auto service = MakeOrdersService(ServiceConfig{});
  std::vector<uint32_t> values(393216);
  for (uint32_t i = 0; i < values.size(); ++i) values[i] = 2 * i;
  service->PauseDispatch();
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(
        service->Submit(DirectRequest(SetOp::kUnion, values, {})));
  }
  service->ResumeDispatch();
  ASSERT_TRUE(futures[0].get().status.ok());
  const ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.submitted, 16u);
  EXPECT_EQ(counters.batches, 1u);
  EXPECT_EQ(counters.dispatched, 16u);
  EXPECT_EQ(counters.deduplicated, 15u);
  service->Drain();
}

TEST_F(QueryServiceTest, MalformedDirectOpsAreRejectedAtSubmit) {
  // A direct op whose op or inputs break eis::ValidateOperands is
  // answered InvalidArgument at Submit and never joins a batch. On the
  // board it would trip an unvalidated core's sorted-window check, or,
  // once a fault plan makes the board validate partition inputs, fail
  // every request batched with it.
  test::SerialReference reference("orders", kRows, kTableSeed);
  const std::vector<uint32_t> good_a = {2, 4, 8, 16, 32, 64};
  const std::vector<uint32_t> good_b = {1, 4, 9, 16, 25, 36, 49, 64};
  auto expected = reference.Direct(SetOp::kUnion, good_a, good_b);
  ASSERT_TRUE(expected.ok()) << expected.status();
  std::vector<ServiceRequest> malformed = {
      DirectRequest(SetOp::kIntersect, {9, 3, 7, 1, 12, 15}, {1, 3, 7, 9}),
      DirectRequest(SetOp::kUnion, {1, 2, 3}, {4, 5, 5, 6}),
      DirectRequest(SetOp::kMerge, {5, 3, 8}, {1, 2, 2}),
      DirectRequest(static_cast<SetOp>(7), {1, 2}, {2, 3}),
  };
  for (ServiceRequest& request : malformed) request.tenant = "t1";

  for (const bool fault_plan : {false, true}) {
    if (fault_plan) {
      fault::FaultPlan plan;
      plan.seed = 5;
      plan.result_flip_rate = 0.05;
      ASSERT_TRUE(board_->SetFaultPlan(plan).ok());
    }
    auto service = MakeOrdersService(ServiceConfig{});
    service->PauseDispatch();
    auto good = service->Submit(DirectRequest(SetOp::kUnion, good_a, good_b));
    std::vector<std::future<ServiceResponse>> bad;
    for (const ServiceRequest& request : malformed) {
      bad.push_back(service->Submit(request));
    }
    service->ResumeDispatch();
    service->Drain();

    const ServiceResponse response = good.get();
    ASSERT_TRUE(response.status.ok())
        << "fault plan " << fault_plan << ": " << response.status;
    EXPECT_EQ(response.values, *expected) << "fault plan " << fault_plan;
    for (size_t i = 0; i < bad.size(); ++i) {
      EXPECT_EQ(bad[i].get().status.code(), StatusCode::kInvalidArgument)
          << "fault plan " << fault_plan << ", malformed request " << i;
    }
    const ServiceCounters counters = service->counters();
    EXPECT_EQ(counters.submitted, 5u);
    EXPECT_EQ(counters.dispatched, 1u);
    EXPECT_EQ(counters.rejected, 0u);
  }
}

TEST_F(QueryServiceTest, UnknownTableReportsNotFound) {
  auto service = MakeService(board_.get(), ServiceConfig{});
  const auto pool = test::MakePredicatePool(1);
  auto future = service->Submit(PredicateRequest(pool[0]));
  service->Drain();
  EXPECT_EQ(future.get().status.code(), StatusCode::kNotFound);
}

TEST_F(QueryServiceTest, ShutdownFailsPendingWithUnavailable) {
  auto service = MakeOrdersService(ServiceConfig{});
  service->PauseDispatch();
  const auto pool = test::MakePredicatePool(1);
  auto pending = service->Submit(PredicateRequest(pool[0]));
  service.reset();  // stops the scheduler with the job still queued
  const ServiceResponse response = pending.get();
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
}

TEST_F(QueryServiceTest, ConfigValidationRejectsBadValues) {
  EXPECT_EQ(QueryService::Create(ServiceConfig{}).status().code(),
            StatusCode::kInvalidArgument);  // no board
  ServiceConfig config;
  config.board = board_.get();
  config.max_batch = 0;
  EXPECT_EQ(QueryService::Create(config).status().code(),
            StatusCode::kInvalidArgument);
  config.max_batch = 1;
  config.queue_capacity = 0;
  EXPECT_EQ(QueryService::Create(config).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dba::service
