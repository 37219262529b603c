// Spans for the traced run, recorded from the benchmark's own wrappers
// around calls into each layer (client ops, node connections, the two
// servers' handlers, the replication pull). Each thread appends to its own
// in-memory buffer; the buffers are read once every recording thread has
// been joined, and written out when the run ends.

#ifndef PILEUS_E2EBENCH_SPANS_H_
#define PILEUS_E2EBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";  // A string literal: spans never own their name.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t op_id = 0;   // Client op the span belongs to (0 = none).
  int64_t value = 0;    // Per-span quantity (reply bytes, lag), if any.

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// steady_clock nanoseconds.
int64_t NowNs();

// Recording is off until enabled; Record is a no-op while off.
void EnableSpans(bool on);
bool SpansEnabled();
uint64_t NextSpanId();

// Appends to the calling thread's buffer (sets span.id when 0).
void RecordSpan(Span span);

// The client op the calling thread is executing (0 = none), so connection
// spans nest under their op.
uint64_t CurrentOp();
void SetCurrentOp(uint64_t op_id);

// Every recorded span. Only call once all recording threads are joined or
// recording is off and no recorder is mid-append.
std::vector<Span> CollectSpans();

// One line per span: id,parent,op_id,name,start_ns,end_ns,value.
bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace e2ebench

#endif  // PILEUS_E2EBENCH_SPANS_H_
