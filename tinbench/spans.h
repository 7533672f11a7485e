// In-memory span recorder for tinbench's traced mode.
//
// A span brackets one call the benchmark makes into a tinprov layer:
// its name (the function called), the layer it belongs to, start and
// end on the steady clock, the span that was open on the same thread
// when it began (its parent), and a request id for serve queries. The
// recorder is off unless Enable() was called, and a Span is then a
// single branch. Spans stay in memory until the run ends, when the
// benchmark derives per-layer self time from them and writes them out.
#ifndef TINBENCH_SPANS_H_
#define TINBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tinbench {

int64_t NowNs();

struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the record list, -1 for top level
  uint64_t request = 0;  // serve query id, 0 for none
  uint32_t thread = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& Global();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread and returns its index (-1 when
  // tracing is off).
  int64_t Open(const char* name, const char* layer, uint64_t request);
  void Close(int64_t index);

  // Records an already finished span with no parent, e.g. one serve
  // request timed from its due time to its answer.
  void Add(const char* name, const char* layer, int64_t start_ns,
           int64_t end_ns, uint64_t request);

  std::vector<SpanRecord> Records() const;

  // Per-layer self time in seconds: each span's duration minus the part
  // of it that its children cover.
  std::map<std::string, double> SelfSeconds() const;

  // Share of [begin_ns, end_ns) covered by the union of top-level spans
  // recorded on `thread` that overlap it.
  double Coverage(int64_t begin_ns, int64_t end_ns, uint32_t thread) const;

  // Writes the spans as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

uint32_t ThreadTag();

// RAII span. Open at construction, closed at destruction.
class Span {
 public:
  Span(const char* name, const char* layer, uint64_t request = 0)
      : index_(SpanRecorder::Global().enabled()
                   ? SpanRecorder::Global().Open(name, layer, request)
                   : -1) {}
  ~Span() {
    if (index_ >= 0) SpanRecorder::Global().Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_;
};

}  // namespace tinbench

#endif  // TINBENCH_SPANS_H_
