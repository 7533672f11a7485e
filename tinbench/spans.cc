#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace tinbench {

namespace {

thread_local std::vector<int64_t> open_spans;

// Total length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = INT64_MIN;
  for (const auto& [start, end] : intervals) {
    const int64_t from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return covered;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tag = next.fetch_add(1);
  return tag;
}

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

int64_t SpanRecorder::Open(const char* name, const char* layer,
                           uint64_t request) {
  SpanRecord record;
  record.name = name;
  record.layer = layer;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.request = request;
  record.thread = ThreadTag();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int64_t>(records_.size());
    records_.push_back(record);
  }
  open_spans.push_back(index);
  // Read the clock last so the bookkeeping above is not charged to the
  // span.
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  records_[index].start_ns = start;
  return index;
}

void SpanRecorder::Close(int64_t index) {
  const int64_t end = NowNs();
  if (!open_spans.empty() && open_spans.back() == index) {
    open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  records_[index].end_ns = end;
}

void SpanRecorder::Add(const char* name, const char* layer, int64_t start_ns,
                       int64_t end_ns, uint64_t request) {
  if (!enabled_) return;
  SpanRecord record;
  record.name = name;
  record.layer = layer;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.request = request;
  record.thread = ThreadTag();
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

std::vector<SpanRecord> SpanRecorder::Records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  const std::vector<SpanRecord> records = Records();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      records.size());
  for (const SpanRecord& record : records) {
    if (record.parent >= 0) {
      children[record.parent].push_back({record.start_ns, record.end_ns});
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < records.size(); ++i) {
    const int64_t own = records[i].end_ns - records[i].start_ns;
    const int64_t nested = UnionLength(std::move(children[i]));
    self[records[i].layer] += static_cast<double>(own - nested) * 1e-9;
  }
  return self;
}

double SpanRecorder::Coverage(int64_t begin_ns, int64_t end_ns,
                              uint32_t thread) const {
  if (end_ns <= begin_ns) return 0.0;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const SpanRecord& record : Records()) {
    if (record.parent >= 0 || record.thread != thread) continue;
    const int64_t start = std::max(record.start_ns, begin_ns);
    const int64_t end = std::min(record.end_ns, end_ns);
    if (end > start) intervals.push_back({start, end});
  }
  return static_cast<double>(UnionLength(std::move(intervals))) /
         static_cast<double>(end_ns - begin_ns);
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<SpanRecord> records = Records();
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                 "\"request\":%llu,\"thread\":%u}\n",
                 i, r.name, r.layer, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.request), r.thread);
  }
  return std::fclose(file) == 0;
}

}  // namespace tinbench
