// Tests for streams and events, in both execution modes: eager (inline)
// and async (worker-backed in-order queue).
#include "gpusim/stream.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "portacheck/hooks.hpp"
#include "watchdog.hpp"

// Counting global allocator: the steady-state stream path must not
// allocate, and this binary counts every operator new on every thread.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Out of line, so GCC does not inline free() into new-expressions and
// report a malloc/new mismatch.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace portabench::gpusim {
namespace {

using test_support::Watchdog;

// Longer than any spin budget in the runtime (the pool's 128 pauses plus
// 512 yields included), so a waiter is parked when its signal arrives.
constexpr auto kParkGap = std::chrono::milliseconds(2);

class StreamTest : public ::testing::Test {
 protected:
  DeviceContext ctx_{GpuSpec::a100()};
};

TEST_F(StreamTest, ClockAdvancesByModeledTime) {
  Stream s(ctx_);
  EXPECT_EQ(s.now(), 0.0);
  s.enqueue(0.5, [] {});
  s.enqueue(0.25, [] {});
  EXPECT_DOUBLE_EQ(s.now(), 0.75);
  EXPECT_EQ(s.operations(), 2u);
}

TEST_F(StreamTest, OperationsRunEagerlyInOrder) {
  Stream s(ctx_);
  std::vector<int> order;
  s.enqueue(0.1, [&] { order.push_back(1); });
  s.enqueue(0.1, [&] { order.push_back(2); });
  s.enqueue(0.1, [&] { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(StreamTest, NegativeDurationRejected) {
  Stream s(ctx_);
  EXPECT_THROW(s.enqueue(-1.0, [] {}), precondition_error);
}

TEST_F(StreamTest, EventRecordsCompletionTime) {
  Stream s(ctx_);
  s.enqueue(1.0, [] {});
  Event e;
  EXPECT_FALSE(e.recorded());
  s.record(e);
  EXPECT_TRUE(e.recorded());
  EXPECT_DOUBLE_EQ(e.timestamp(), 1.0);
}

TEST_F(StreamTest, EventElapsed) {
  Stream s(ctx_);
  Event start;
  Event stop;
  s.record(start);
  s.enqueue(2.5, [] {});
  s.record(stop);
  EXPECT_DOUBLE_EQ(Event::elapsed(start, stop), 2.5);
}

TEST_F(StreamTest, ElapsedRequiresRecordedEvents) {
  Event a;
  Event b;
  EXPECT_THROW(Event::elapsed(a, b), precondition_error);
  EXPECT_THROW(a.timestamp(), precondition_error);
}

TEST_F(StreamTest, CrossStreamWaitJumpsClock) {
  Stream compute(ctx_);
  Stream copy(ctx_);
  copy.enqueue(3.0, [] {});  // long transfer
  Event transfer_done;
  copy.record(transfer_done);
  compute.enqueue(1.0, [] {});
  compute.wait(transfer_done);
  EXPECT_DOUBLE_EQ(compute.now(), 3.0);  // stalled until the copy lands
  compute.enqueue(1.0, [] {});
  EXPECT_DOUBLE_EQ(compute.now(), 4.0);
}

TEST_F(StreamTest, OverlapBeatsSerialization) {
  // The Section II transfer-overlap discussion, in miniature: two streams
  // overlap a 3s copy with 3s of compute; one stream serializes to 6s.
  Stream serial(ctx_);
  serial.enqueue(3.0, [] {});
  serial.enqueue(3.0, [] {});
  Stream copy(ctx_);
  Stream compute(ctx_);
  copy.enqueue(3.0, [] {});
  compute.enqueue(3.0, [] {});
  const double overlapped = std::max(copy.now(), compute.now());
  EXPECT_DOUBLE_EQ(serial.now(), 6.0);
  EXPECT_DOUBLE_EQ(overlapped, 3.0);
}

TEST_F(StreamTest, SynchronizeReturnsCompletionTime) {
  Stream s(ctx_);
  s.enqueue(0.7, [] {});
  EXPECT_DOUBLE_EQ(s.synchronize(), 0.7);
}

TEST_F(StreamTest, ElapsedReversedArgumentsRejected) {
  Stream s(ctx_);
  Event early;
  s.record(early);
  s.enqueue(1.0);
  Event late;
  s.record(late);
  EXPECT_DOUBLE_EQ(Event::elapsed(early, late), 1.0);
  EXPECT_THROW(Event::elapsed(late, early), precondition_error);  // stop before start
}

TEST_F(StreamTest, WaitOnUnrecordedEventRejected) {
  Stream s(ctx_);
  Event never;
  EXPECT_THROW(s.wait(never), precondition_error);
  EXPECT_THROW(never.synchronize(), precondition_error);
  EXPECT_FALSE(never.query());
}

TEST_F(StreamTest, TimeOnlyEnqueueAdvancesClock) {
  Stream s(ctx_);
  s.enqueue(0.25);
  s.enqueue(0.5);
  EXPECT_DOUBLE_EQ(s.now(), 0.75);
  EXPECT_EQ(s.operations(), 2u);
}

TEST_F(StreamTest, SanitizedRunsForceEagerMode) {
  Stream s(ctx_, StreamMode::kAsync);
  if (portacheck::active()) {
    // The sanitized tier needs the permuted serial schedule to stay
    // serial: async construction degrades to eager.
    EXPECT_EQ(s.mode(), StreamMode::kEager);
  } else {
    EXPECT_EQ(s.mode(), StreamMode::kAsync);
  }
  s.synchronize();
}

TEST_F(StreamTest, AsyncOperationsRunInOrder) {
  std::vector<int> order;
  Stream s(ctx_, StreamMode::kAsync);
  s.enqueue(0.1, [&] { order.push_back(1); });
  s.enqueue(0.1, [&] { order.push_back(2); });
  s.enqueue(0.1, [&] { order.push_back(3); });
  s.synchronize();  // drains the worker: order is safe to read after
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(StreamTest, AsyncClockIsMonotoneAndMatchesEager) {
  // The modeled timeline is advanced at enqueue time in program order, so
  // both modes produce identical, monotone timestamps.
  Stream eager(ctx_, StreamMode::kEager);
  Stream async(ctx_, StreamMode::kAsync);
  double prev = 0.0;
  for (const double dt : {0.5, 0.0, 1.25, 0.125}) {
    const double te = eager.enqueue(dt);
    const double ta = async.enqueue(dt);
    EXPECT_DOUBLE_EQ(ta, te);
    EXPECT_GE(ta, prev);  // monotone even while the worker still runs
    prev = ta;
  }
  EXPECT_DOUBLE_EQ(async.synchronize(), eager.now());
}

TEST_F(StreamTest, AsyncEventCompletesByRealExecution) {
  Stream s(ctx_, StreamMode::kAsync);
  std::atomic<bool> op_ran{false};
  s.enqueue(1.0, [&] { op_ran.store(true, std::memory_order_release); });
  Event e;
  s.record(e);
  e.synchronize();  // blocks until the worker reaches the record marker
  EXPECT_TRUE(e.query());
  EXPECT_TRUE(op_ran.load(std::memory_order_acquire));  // in-order: op before marker
  EXPECT_DOUBLE_EQ(e.timestamp(), 1.0);
  s.synchronize();
}

TEST_F(StreamTest, MultiStreamWaitChainOrdersRealExecution) {
  // producer -> relay -> consumer, chained through events: the consumer's
  // op must observe both upstream writes even though all three streams
  // execute on independent worker threads.
  Stream producer(ctx_, StreamMode::kAsync);
  Stream relay(ctx_, StreamMode::kAsync);
  Stream consumer(ctx_, StreamMode::kAsync);

  std::atomic<int> stage{0};
  producer.enqueue(2.0, [&] {
    int expected = 0;
    stage.compare_exchange_strong(expected, 1, std::memory_order_acq_rel);
  });
  Event produced;
  producer.record(produced);

  relay.wait(produced);
  relay.enqueue(0.5, [&] {
    int expected = 1;
    stage.compare_exchange_strong(expected, 2, std::memory_order_acq_rel);
  });
  Event relayed;
  relay.record(relayed);

  consumer.wait(relayed);
  int observed = -1;
  consumer.enqueue(0.25, [&] { observed = stage.load(std::memory_order_acquire); });
  consumer.synchronize();

  EXPECT_EQ(observed, 2);  // both upstream ops really ran first
  // Modeled timeline: the chain serializes to 2.0 + 0.5 + 0.25.
  EXPECT_DOUBLE_EQ(consumer.now(), 2.75);
}

TEST_F(StreamTest, RecordedEventOutlivesReRecordAndStream) {
  Event e;
  {
    Stream s(ctx_, StreamMode::kAsync);
    s.enqueue(1.5);
    s.record(e);
    Event again;
    s.enqueue(1.0);
    s.record(again);  // re-record does not disturb the first event
    s.synchronize();
  }  // stream destroyed: the event's shared state survives
  EXPECT_TRUE(e.recorded());
  EXPECT_TRUE(e.query());
  EXPECT_DOUBLE_EQ(e.timestamp(), 1.5);
  e.synchronize();
}

TEST_F(StreamTest, AsyncErrorSurfacesAtSynchronize) {
  Stream s(ctx_, StreamMode::kAsync);
  if (s.mode() != StreamMode::kAsync) GTEST_SKIP() << "sanitized run: eager only";
  s.enqueue(0.1, [] { throw std::runtime_error("bad op"); });
  s.enqueue(0.1, [] {});  // later ops still run; the first error is kept
  EXPECT_THROW(s.synchronize(), std::runtime_error);
  EXPECT_NO_THROW(s.synchronize());  // error reported once
}

TEST_F(StreamTest, EagerWaitCompletesImmediately) {
  Stream a(ctx_);
  Stream b(ctx_);
  a.enqueue(2.0);
  Event e;
  a.record(e);
  b.wait(e);  // eager stream waits inline; event already done
  EXPECT_DOUBLE_EQ(b.now(), 2.0);
}

TEST_F(StreamTest, WorkerParksEveryRoundAndStillWakes) {
  // The stream analogue of DispatchStress.SpinParkTransitions: the worker
  // parks between rounds, and every round's push and completion must
  // still wake the worker and the synchronizing host.
  Stream s(ctx_, StreamMode::kAsync);
  std::atomic<int> ran{0};
  Watchdog dog("enqueue/synchronize rounds");
  for (int round = 0; round < 500; ++round) {
    s.enqueue(0.0, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    s.synchronize();
    dog.tick();
    std::this_thread::sleep_for(kParkGap);
  }
  EXPECT_EQ(ran.load(), 500);
}

TEST_F(StreamTest, CrossStreamWaitParksBeforeTheRecordedOpFinishes) {
  // The waiting stream's worker reaches the wait op, and parks, while the
  // recording stream's op is still running; finishing that op must wake it.
  Stream producer(ctx_, StreamMode::kAsync);
  Stream consumer(ctx_, StreamMode::kAsync);
  if (producer.mode() != StreamMode::kAsync) GTEST_SKIP() << "sanitized run: eager only";
  Watchdog dog("cross-stream wait rounds");
  for (int round = 0; round < 50; ++round) {
    std::atomic<bool> gate{false};
    std::atomic<int> stage{0};
    producer.enqueue(1.0, [&] {
      gate.wait(false);
      stage.store(1, std::memory_order_release);
    });
    Event produced;
    producer.record(produced);
    consumer.wait(produced);
    int observed = -1;
    consumer.enqueue(0.0, [&] { observed = stage.load(std::memory_order_acquire); });
    std::this_thread::sleep_for(kParkGap);  // the consumer's worker parks
    EXPECT_FALSE(produced.query());
    gate.store(true);
    gate.notify_all();
    consumer.synchronize();
    EXPECT_EQ(observed, 1) << "round " << round;
    EXPECT_TRUE(produced.query());
    dog.tick();
  }
  producer.synchronize();
}

TEST_F(StreamTest, RecordAndWaitAllocateNothing) {
  // record() is a snapshot and wait() an inline-stored op holding the
  // recording stream's timeline: once the queues reach their high-water
  // capacity, the record/wait/synchronize cycle allocates nothing.
  Stream a(ctx_, StreamMode::kAsync);
  Stream b(ctx_, StreamMode::kAsync);
  std::atomic<int> ran{0};
  const auto round = [&] {
    a.enqueue(0.5, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    Event ev;
    a.record(ev);
    b.wait(ev);
    b.synchronize();
  };
  for (int i = 0; i < 100; ++i) round();  // warm-up
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) round();
  const std::size_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(ran.load(), 1100);
  EXPECT_DOUBLE_EQ(b.now(), a.now());
}

TEST_F(StreamTest, WaitOutlivesItsEventAndTheRecordingStream) {
  // A wait op queued behind a blocked op runs after both the Event and the
  // recording stream are gone: the op itself keeps the timeline alive.
  Stream consumer(ctx_, StreamMode::kAsync);
  if (consumer.mode() != StreamMode::kAsync) GTEST_SKIP() << "sanitized run: eager only";
  std::atomic<bool> gate{false};
  consumer.enqueue(0.0, [&gate] { gate.wait(false); });
  std::atomic<int> upstream{0};
  {
    Stream producer(ctx_, StreamMode::kAsync);
    producer.enqueue(1.0, [&upstream] { upstream.store(1, std::memory_order_release); });
    Event ev;
    producer.record(ev);
    consumer.wait(ev);
  }  // the Event and the producer (after draining) are destroyed here
  int observed = 0;
  consumer.enqueue(0.0, [&] { observed = upstream.load(std::memory_order_acquire); });
  gate.store(true);
  gate.notify_all();
  Watchdog dog("wait after its Event and stream are gone");
  consumer.synchronize();
  EXPECT_EQ(observed, 1);
  EXPECT_DOUBLE_EQ(consumer.now(), 1.0);
}

}  // namespace
}  // namespace portabench::gpusim
