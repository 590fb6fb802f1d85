#include "service/thread_pool.h"

#include <algorithm>
#include <utility>

#include "testing/failpoint.h"

namespace phrasemine {

ThreadPool::ThreadPool(ThreadPoolOptions options) : options_(options) {
  options_.num_threads = std::max<std::size_t>(1, options_.num_threads);
  options_.queue_capacity = std::max<std::size_t>(1, options_.queue_capacity);
  if (options_.registry == nullptr) {
    owned_registry_ = std::make_unique<MetricsRegistry>();
    registry_ = owned_registry_.get();
  } else {
    registry_ = options_.registry;
  }
  const std::string& p = options_.metric_prefix;
  submitted_ = registry_->GetCounter(p + "_submitted_total");
  executed_ = registry_->GetCounter(p + "_executed_total");
  rejected_ = registry_->GetCounter(p + "_rejected_total");
  depth_ = registry_->GetGauge(p + "_queue_depth");
  workers_.reserve(options_.num_threads);
  for (std::size_t i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  return Enqueue(std::move(task), /*block=*/true);
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  return Enqueue(std::move(task), /*block=*/false);
}

bool ThreadPool::Enqueue(std::function<void()> task, bool block) {
  // Rejection-storm site: an armed error makes this submit fail exactly
  // like a full-queue TrySubmit, exercising every caller's rejection path.
  if (failpoint::Enabled() && !PM_FAILPOINT("pool.submit").ok()) {
    rejected_->Increment();
    return false;
  }
  std::unique_lock lock(mu_);
  if (block) {
    not_full_.wait(lock, [this] {
      return shutdown_ || queue_.size() < options_.queue_capacity;
    });
  }
  if (shutdown_ || queue_.size() >= options_.queue_capacity) {
    lock.unlock();
    rejected_->Increment();
    return false;
  }
  queue_.push_back(std::move(task));
  // The +1 feeds the gauge's high-water tracking: depth only rises here,
  // so the gauge max is the true peak queue depth. Both gauge updates
  // happen under mu_, so the gauge moves in queue order and can never
  // read above queue_capacity.
  depth_->Add(1);
  lock.unlock();
  submitted_->Increment();
  not_empty_.notify_one();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      not_empty_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shut down and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      depth_->Add(-1);
    }
    not_full_.notify_one();
    task();
    executed_->Increment();
  }
}

void ThreadPool::Shutdown() {
  // shutdown_mu_ serializes concurrent Shutdown callers so only one joins.
  std::scoped_lock shutdown_lock(shutdown_mu_);
  {
    std::scoped_lock lock(mu_);
    shutdown_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

std::size_t ThreadPool::queue_depth() const {
  std::scoped_lock lock(mu_);
  return queue_.size();
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats s;
  s.submitted = submitted_->Value();
  s.executed = executed_->Value();
  s.rejected = rejected_->Value();
  s.queue_depth =
      static_cast<std::size_t>(std::max<int64_t>(0, depth_->Value()));
  s.peak_queue_depth = static_cast<std::size_t>(depth_->Max());
  return s;
}

}  // namespace phrasemine
