#include "stream.hpp"

namespace portabench::gpusim::detail {

AsyncQueue::AsyncQueue(Timeline& timeline)
    : timeline_(timeline), worker_([this] { worker_loop(); }) {}

AsyncQueue::~AsyncQueue() {
  // An empty op stops the worker once every op before it has run, so
  // destruction has synchronize() semantics (op errors are dropped).
  push(ErasedOp());
  worker_.join();
}

void AsyncQueue::push(ErasedOp op) {
  // Never blocks, spins or drops: serve's client threads push flushes
  // here, and a bounded ring would stall them.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(op));
    pushes_.fetch_add(1, std::memory_order_release);
  }
  pushes_.notify_one();
}

void AsyncQueue::drain() {
  timeline_.wait_for(pushed());
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void AsyncQueue::worker_loop() {
  std::vector<ErasedOp> batch;
  std::uint32_t taken = 0;  // pushes already moved into a batch
  for (;;) {
    simrt::wait_until(pushes_, kStreamSpin, [taken](std::uint32_t n) { return n != taken; });
    {
      // Take the whole backlog in one swap: in-order execution, one lock
      // round-trip per batch instead of per op.
      std::lock_guard<std::mutex> lock(mutex_);
      batch.swap(queue_);
      taken = pushes_.load(std::memory_order_relaxed);
    }
    for (ErasedOp& op : batch) {
      if (!op) return;  // the destructor's stop marker
      try {
        op();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      // After every op, including one that threw, and never once per
      // batch: a later op in this batch may wait on an Event of another
      // stream that is itself waiting for this op.
      timeline_.finish_op();
    }
    batch.clear();
  }
}

}  // namespace portabench::gpusim::detail
