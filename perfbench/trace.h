// Out-of-process-style tracing for the benchmark: a span recorder with
// per-thread buffers, and a pass-through vfs::FileSystem that times every
// call into a substrate file system from outside. Nothing here touches Mux
// internals — the traced run registers one PassThroughFs per tier with
// Mux::AddTier in place of the substrate, and the benchmark's client code
// opens spans around its own calls into Mux.
//
// A span is {kind, id, op, parent, thread, start, end, thread CPU}. Each
// thread appends to its own buffer (no shared lock on the recording path);
// buffers are owned by the recorder, so they outlive the Mux worker threads
// that wrote them, and are merged only when the workload ends. The raw span
// list is capped per thread; the per-kind aggregates (count, wall, CPU,
// nested substrate time, latency histogram) are exact.
#ifndef MUX_PERFBENCH_TRACE_H_
#define MUX_PERFBENCH_TRACE_H_

#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_util.h"
#include "src/vfs/file_system.h"

namespace mux::perfbench {

enum class SpanKind : uint8_t {
  kOpRead,     // one client read op (Open->Read->Close, or submit->done)
  kOpWrite,    // one client write op
  kOpen,       // Mux::Open
  kClose,      // Mux::Close
  kRead,       // Mux::Read (sync) or ReadAsync submit->done
  kWrite,      // Mux::Write (sync) or WriteAsync submit->done
  kMeta,       // Mux::Stat / Mux::ReadDirPaged
  kSubmit,     // ReadAsync/WriteAsync until the call returns
  kRound,      // Mux::RunPolicyMigrations
  kFsPm,       // any call into the PM substrate (novafs)
  kFsSsd,      // any call into the SSD substrate (xfslite)
  kFsHdd,      // any call into the HDD substrate (extlite)
  kCount,
};

constexpr std::array<const char*, static_cast<size_t>(SpanKind::kCount)>
    kSpanNames = {"op.read",  "op.write", "mux.open",   "mux.close",
                  "mux.read", "mux.write", "mux.meta",  "async.submit",
                  "migrate.round", "fs.pm", "fs.ssd",   "fs.hdd"};

inline bool IsFsKind(SpanKind kind) {
  return kind == SpanKind::kFsPm || kind == SpanKind::kFsSsd ||
         kind == SpanKind::kFsHdd;
}

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Span {
  uint64_t id = 0;
  uint64_t op = 0;      // client op id; 0 = not attributable from outside
  uint64_t parent = 0;  // enclosing span on the same thread; 0 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;   // CLOCK_THREAD_CPUTIME_ID delta on the recording thread
  uint32_t thread = 0;
  SpanKind kind = SpanKind::kOpRead;
};

struct KindStats {
  uint64_t count = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  // Substrate (fs.*) wall time nested inside spans of this kind on the same
  // thread: a span's self time is its wall time minus this.
  uint64_t nested_fs_ns = 0;
  bench::FineHistogram hist;

  void Merge(const KindStats& other) {
    count += other.count;
    wall_ns += other.wall_ns;
    cpu_ns += other.cpu_ns;
    nested_fs_ns += other.nested_fs_ns;
    hist.Merge(other.hist);
  }
};

struct TraceSummary {
  std::array<KindStats, static_cast<size_t>(SpanKind::kCount)> kinds;
  // Substrate wall time recorded on threads that are not benchmark clients
  // (Mux resume workers, ring servers, executor pools, the migrator).
  uint64_t offthread_fs_ns = 0;
  uint64_t total_fs_ns = 0;

  const KindStats& of(SpanKind kind) const {
    return kinds[static_cast<size_t>(kind)];
  }
};

class SpanRecorder {
 public:
  static constexpr size_t kMaxSpansPerThread = 1 << 14;

  // Recording is off until Enable(); spans opened while disabled are not
  // recorded (the benchmark records only its timed window).
  void Enable(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Marks the calling thread as a benchmark client (for the off-thread share).
  void MarkClientThread() { Local().client = true; }

  // RAII span on the calling thread. Nested spans record their parent; a
  // closing fs.* span adds its wall time to every open ancestor.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, SpanKind kind, uint64_t op = 0)
        : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                               : nullptr) {
      if (recorder_ != nullptr && !recorder_->Open(kind, op)) {
        recorder_ = nullptr;
      }
    }
    ~Scope() {
      if (recorder_ != nullptr) {
        recorder_->Close();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
  };

  // Records a span whose start and end were observed on different threads
  // (an async op: submitted here, completed on a resume worker). `cpu_ns`
  // and `nested_fs_ns` are what the caller measured on this thread.
  void RecordCompleted(SpanKind kind, uint64_t op, int64_t start_ns,
                       int64_t end_ns, int64_t cpu_ns, uint64_t nested_fs_ns) {
    if (!enabled()) {
      return;
    }
    ThreadBuf& buf = Local();
    Span span;
    span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    span.op = op;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.cpu_ns = cpu_ns;
    span.thread = buf.index;
    span.kind = kind;
    Account(buf, span, nested_fs_ns);
  }

  // Substrate time nested under the innermost open span on this thread so
  // far (lets an async client attribute fs work done inside its submit call).
  uint64_t CurrentNestedFsNs() {
    ThreadBuf& buf = Local();
    return buf.depth == 0 ? 0 : buf.stack[buf.depth - 1].nested_fs_ns;
  }

  uint64_t NextOpId() { return next_op_.fetch_add(1, std::memory_order_relaxed); }

  TraceSummary Summarize() const {
    TraceSummary out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : threads_) {
      for (size_t k = 0; k < buf->stats.size(); ++k) {
        out.kinds[k].Merge(buf->stats[k]);
        if (IsFsKind(static_cast<SpanKind>(k))) {
          out.total_fs_ns += buf->stats[k].wall_ns;
          if (!buf->client) {
            out.offthread_fs_ns += buf->stats[k].wall_ns;
          }
        }
      }
    }
    return out;
  }

  // Writes every retained span as CSV (one row per span, by thread).
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "name,id,op,parent,thread,start_ns,end_ns,cpu_ns\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : threads_) {
      for (const Span& s : buf->spans) {
        std::fprintf(f, "%s,%llu,%llu,%llu,%u,%lld,%lld,%lld\n",
                     kSpanNames[static_cast<size_t>(s.kind)],
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.op),
                     static_cast<unsigned long long>(s.parent), s.thread,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<long long>(s.cpu_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  static constexpr int kMaxDepth = 8;

  struct OpenSpan {
    Span span;
    int64_t cpu_start = 0;
    uint64_t nested_fs_ns = 0;
  };

  struct ThreadBuf {
    uint32_t index = 0;
    bool client = false;
    int depth = 0;
    std::array<OpenSpan, kMaxDepth> stack;
    std::vector<Span> spans;
    std::array<KindStats, static_cast<size_t>(SpanKind::kCount)> stats;
  };

  ThreadBuf& Local() {
    // One recorder per process (the benchmark runs one workload per
    // process), so a plain thread_local slot suffices.
    thread_local ThreadBuf* buf = nullptr;
    if (buf == nullptr) {
      auto owned = std::make_unique<ThreadBuf>();
      std::lock_guard<std::mutex> lock(mu_);
      owned->index = static_cast<uint32_t>(threads_.size());
      owned->spans.reserve(1024);
      buf = owned.get();
      threads_.push_back(std::move(owned));
    }
    return *buf;
  }

  bool Open(SpanKind kind, uint64_t op) {
    ThreadBuf& buf = Local();
    if (buf.depth == kMaxDepth) {
      return false;
    }
    OpenSpan& open = buf.stack[buf.depth];
    open.span = Span();
    open.span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    open.span.kind = kind;
    open.span.thread = buf.index;
    if (buf.depth > 0) {
      const Span& parent = buf.stack[buf.depth - 1].span;
      open.span.parent = parent.id;
      open.span.op = op != 0 ? op : parent.op;
    } else {
      open.span.op = op;
    }
    open.nested_fs_ns = 0;
    ++buf.depth;
    // Wall clock outside, CPU clock inside: the CPU interval then never
    // covers the clock reads themselves, so CPU <= wall.
    open.span.start_ns = WallNs();
    open.cpu_start = ThreadCpuNs();
    return true;
  }

  void Close() {
    ThreadBuf& buf = Local();
    if (buf.depth == 0) {
      return;
    }
    OpenSpan& open = buf.stack[buf.depth - 1];
    open.span.cpu_ns = ThreadCpuNs() - open.cpu_start;
    open.span.end_ns = WallNs();
    --buf.depth;
    if (IsFsKind(open.span.kind)) {
      const uint64_t wall =
          static_cast<uint64_t>(open.span.end_ns - open.span.start_ns);
      for (int i = 0; i < buf.depth; ++i) {
        buf.stack[i].nested_fs_ns += wall;
      }
    }
    Account(buf, open.span, open.nested_fs_ns);
  }

  static void Account(ThreadBuf& buf, const Span& span, uint64_t nested_fs) {
    const uint64_t wall =
        span.end_ns > span.start_ns
            ? static_cast<uint64_t>(span.end_ns - span.start_ns)
            : 0;
    KindStats& stats = buf.stats[static_cast<size_t>(span.kind)];
    stats.count++;
    stats.wall_ns += wall;
    stats.cpu_ns += span.cpu_ns > 0 ? static_cast<uint64_t>(span.cpu_ns) : 0;
    stats.nested_fs_ns += nested_fs;
    stats.hist.Add(wall);
    if (buf.spans.size() < kMaxSpansPerThread) {
      buf.spans.push_back(span);
    }
  }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> next_op_{1};
  mutable std::mutex mu_;  // guards threads_ (registration and merge only)
  std::vector<std::unique_ptr<ThreadBuf>> threads_;
};

// Per-tier substrate counters kept by the pass-through (exact, relaxed).
struct FsCounters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> dax_bytes{0};
  std::atomic<uint64_t> errors{0};
};

struct FsCounterSnapshot {
  uint64_t calls = 0, busy_ns = 0, read_bytes = 0, write_bytes = 0,
           dax_bytes = 0, errors = 0;

  FsCounterSnapshot operator-(const FsCounterSnapshot& o) const {
    return {calls - o.calls,           busy_ns - o.busy_ns,
            read_bytes - o.read_bytes, write_bytes - o.write_bytes,
            dax_bytes - o.dax_bytes,   errors - o.errors};
  }
};

// Forwards every vfs::FileSystem call to `inner`, timing it as one fs.<tier>
// span and counting calls, busy time, bytes and error returns. With
// CorruptNextRead() armed, the next Read that returns between 1 byte and
// kCorruptMaxBytes has one byte of its output flipped — the benchmark's
// self-test uses this to prove that its content checks catch a bad read.
// The size limit aims the fault at a client-sized read: a flipped byte in a
// 1 MiB migration copy can be legitimately overwritten by a later client
// write before anything reads it. Thread-safe: state is atomics plus the
// recorder's per-thread buffers.
class PassThroughFs : public vfs::FileSystem {
 public:
  static constexpr uint64_t kCorruptMaxBytes = 64 * 1024;

  PassThroughFs(vfs::FileSystem* inner, SpanKind kind, SpanRecorder* recorder)
      : inner_(inner), kind_(kind), recorder_(recorder) {}

  void CorruptNextRead() { corrupt_.store(true, std::memory_order_release); }
  bool corrupted() const { return corrupted_.load(std::memory_order_acquire); }

  FsCounterSnapshot Snapshot() const {
    return {counters_.calls.load(std::memory_order_relaxed),
            counters_.busy_ns.load(std::memory_order_relaxed),
            counters_.read_bytes.load(std::memory_order_relaxed),
            counters_.write_bytes.load(std::memory_order_relaxed),
            counters_.dax_bytes.load(std::memory_order_relaxed),
            counters_.errors.load(std::memory_order_relaxed)};
  }

  std::string_view Name() const override { return inner_->Name(); }

  Result<vfs::FileHandle> Open(const std::string& path, uint32_t flags,
                               uint32_t mode) override {
    return Call([&] { return inner_->Open(path, flags, mode); });
  }
  Status Close(vfs::FileHandle handle) override {
    return Call([&] { return inner_->Close(handle); });
  }
  Status Mkdir(const std::string& path, uint32_t mode) override {
    return Call([&] { return inner_->Mkdir(path, mode); });
  }
  Status Rmdir(const std::string& path) override {
    return Call([&] { return inner_->Rmdir(path); });
  }
  Status Unlink(const std::string& path) override {
    return Call([&] { return inner_->Unlink(path); });
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return Call([&] { return inner_->Rename(from, to); });
  }
  Result<vfs::FileStat> Stat(const std::string& path) override {
    return Call([&] { return inner_->Stat(path); });
  }
  Result<std::vector<vfs::DirEntry>> ReadDir(const std::string& path) override {
    return Call([&] { return inner_->ReadDir(path); });
  }
  Result<uint64_t> Read(vfs::FileHandle handle, uint64_t offset,
                        uint64_t length, uint8_t* out) override {
    auto result = Call([&] { return inner_->Read(handle, offset, length, out); });
    if (result.ok()) {
      counters_.read_bytes.fetch_add(*result, std::memory_order_relaxed);
      if (*result > 0 && *result <= kCorruptMaxBytes &&
          corrupt_.load(std::memory_order_acquire) &&
          corrupt_.exchange(false, std::memory_order_acq_rel)) {
        out[*result / 2] ^= 0x5a;
        corrupted_.store(true, std::memory_order_release);
      }
    }
    return result;
  }
  Result<uint64_t> Write(vfs::FileHandle handle, uint64_t offset,
                         const uint8_t* data, uint64_t length) override {
    auto result =
        Call([&] { return inner_->Write(handle, offset, data, length); });
    if (result.ok()) {
      counters_.write_bytes.fetch_add(*result, std::memory_order_relaxed);
    }
    return result;
  }
  Status Truncate(vfs::FileHandle handle, uint64_t new_size) override {
    return Call([&] { return inner_->Truncate(handle, new_size); });
  }
  Status Fsync(vfs::FileHandle handle, bool data_only) override {
    return Call([&] { return inner_->Fsync(handle, data_only); });
  }
  Status Fallocate(vfs::FileHandle handle, uint64_t offset, uint64_t length,
                   bool keep_size) override {
    return Call(
        [&] { return inner_->Fallocate(handle, offset, length, keep_size); });
  }
  Status PunchHole(vfs::FileHandle handle, uint64_t offset,
                   uint64_t length) override {
    return Call([&] { return inner_->PunchHole(handle, offset, length); });
  }
  Result<vfs::FileStat> FStat(vfs::FileHandle handle) override {
    return Call([&] { return inner_->FStat(handle); });
  }
  Status SetAttr(vfs::FileHandle handle,
                 const vfs::AttrUpdate& update) override {
    return Call([&] { return inner_->SetAttr(handle, update); });
  }
  Result<vfs::FsStats> StatFs() override {
    return Call([&] { return inner_->StatFs(); });
  }
  Status Sync() override {
    return Call([&] { return inner_->Sync(); });
  }
  SimTime TimestampGranularityNs() const override {
    return inner_->TimestampGranularityNs();
  }
  Result<vfs::DaxMapping> DaxMap(vfs::FileHandle handle, uint64_t offset,
                                 uint64_t length) override {
    return Call([&] { return inner_->DaxMap(handle, offset, length); });
  }
  Status DaxUnmap(const vfs::DaxMapping& mapping) override {
    return Call([&] { return inner_->DaxUnmap(mapping); });
  }
  bool SupportsDax() const override { return inner_->SupportsDax(); }
  void ChargeDax(uint64_t bytes, bool is_write) override {
    Call([&] {
      inner_->ChargeDax(bytes, is_write);
      return Status::Ok();
    });
    counters_.dax_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

 private:
  static bool Failed(const Status& status) { return !status.ok(); }
  template <typename T>
  static bool Failed(const Result<T>& result) {
    return !result.ok();
  }

  template <typename Fn>
  auto Call(Fn&& fn) -> std::invoke_result_t<Fn&> {
    SpanRecorder::Scope span(recorder_, kind_);
    const int64_t start = WallNs();
    auto result = fn();
    counters_.busy_ns.fetch_add(static_cast<uint64_t>(WallNs() - start),
                                std::memory_order_relaxed);
    counters_.calls.fetch_add(1, std::memory_order_relaxed);
    if (Failed(result)) {
      counters_.errors.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  }

  vfs::FileSystem* const inner_;
  const SpanKind kind_;
  SpanRecorder* const recorder_;
  FsCounters counters_;
  std::atomic<bool> corrupt_{false};
  std::atomic<bool> corrupted_{false};
};

}  // namespace mux::perfbench

#endif  // MUX_PERFBENCH_TRACE_H_
