#include "e2ebench/spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace e2ebench {

namespace {

struct Registry {
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> next_id{1};
  std::mutex mu;
  // Owned here so buffers outlive the threads that filled them.
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& Reg() {
  static Registry registry;
  return registry;
}

std::vector<Span>& ThreadBuffer() {
  thread_local std::vector<Span>* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(1 << 14);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(Reg().mu);
    Reg().buffers.push_back(std::move(owned));
  }
  return *buffer;
}

thread_local uint64_t current_op = 0;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void EnableSpans(bool on) {
  Reg().enabled.store(on, std::memory_order_release);
}

bool SpansEnabled() { return Reg().enabled.load(std::memory_order_acquire); }

uint64_t NextSpanId() {
  return Reg().next_id.fetch_add(1, std::memory_order_relaxed);
}

void RecordSpan(Span span) {
  if (!SpansEnabled()) {
    return;
  }
  if (span.id == 0) {
    span.id = NextSpanId();
  }
  ThreadBuffer().push_back(span);
}

uint64_t CurrentOp() { return current_op; }
void SetCurrentOp(uint64_t op_id) { current_op = op_id; }

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(Reg().mu);
  std::vector<Span> all;
  for (const auto& buffer : Reg().buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "id,parent,op_id,name,start_ns,end_ns,value\n");
  for (const Span& s : spans) {
    std::fprintf(file, "%llu,%llu,%llu,%s,%lld,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op_id), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.value));
  }
  return std::fclose(file) == 0;
}

}  // namespace e2ebench
