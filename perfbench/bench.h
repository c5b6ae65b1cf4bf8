// Framework of the repository benchmark (see README.md next to this file):
// the content format every block carries, the record of what each block
// should hold, the Mux stack, and Bench — the run sequence every workload
// shares (setup x3 -> prepare -> timed window -> quiesce checks ->
// checkpoint -> recover on a fresh Mux -> fsck -> content check -> report).
// A workload subclasses Bench and supplies its stack sizing, setup, the
// untimed preparation and the timed window; main.cc holds the three.
#ifndef MUX_PERFBENCH_BENCH_H_
#define MUX_PERFBENCH_BENCH_H_

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/trace.h"
#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/core/mux.h"
#include "src/device/block_device.h"
#include "src/device/pm_device.h"
#include "src/fs/extlite/extlite.h"
#include "src/fs/novafs/novafs.h"
#include "src/fs/xfslite/xfslite.h"

namespace mux::perfbench {

using core::Mux;
using core::TierId;
constexpr uint64_t kBlock = Mux::kBlockSize;
constexpr uint64_t kMiB = 1ull << 20;

// Set-up is repeated and its median reported, so work moved into set-up
// shows as a stable number rather than one noisy sample.
constexpr int kSetupRepeats = 3;
// Checkpoint and recover are repeated and the interquartile mean reported:
// a single 2 ms checkpoint is too noisy to gate on, and host speed moves
// between two levels over hundreds of milliseconds, so the repeats are
// spread over seconds (a median would jump between the two levels).
constexpr int kMinRepeats = 5;
constexpr int kMaxRepeats = 400;
constexpr double kRepeatSeconds = 4.0;
constexpr uint64_t kMetaBurstOps = 2000;
// Policy-round cycles of the migration probe: a fixed count, so the work a
// run does never depends on host speed.
constexpr int kProbeCycles = 3;

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Mean of the middle half of the values.
inline double InterquartileMean(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4;
  const size_t hi = v.size() - lo;
  return std::accumulate(v.begin() + lo, v.begin() + hi, 0.0) /
         static_cast<double>(hi - lo);
}

inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---- Self-describing block content -------------------------------------------
// Every 4 KiB block the benchmark writes starts with this header; the rest is
// a payload generated from (file, block, seq) and covered by the CRC. A read
// is correct when the header names the block that was asked for, the CRC
// matches, and seq is the last write the benchmark recorded for that block.
struct BlockHeader {
  uint32_t magic;
  uint32_t crc;
  uint64_t file_id;
  uint64_t block;
  uint64_t seq;
};
static_assert(sizeof(BlockHeader) == 32);
static_assert((kBlock - sizeof(BlockHeader)) % 8 == 0);
constexpr uint32_t kMagic = 0x4d555842;  // "MUXB"
constexpr uint64_t kPayload = kBlock - sizeof(BlockHeader);
// Seq value for a block whose last write returned an error: either the old
// or the new content is acceptable, so only the header and CRC are checked.
constexpr uint64_t kSeqUnknown = ~0ull;

// CRC32C of `n` bytes — the checksum of src/common/checksum.h. The table
// version costs ~12 us per 4 KiB block on x86, more than a cached Mux read,
// so where SSE4.2 is present the same polynomial is computed with the crc32
// instruction; UseHardwareCrc() checks that both agree before it is used.
#if defined(__x86_64__)
__attribute__((target("sse4.2"))) inline uint32_t Crc32cHw(const uint8_t* p,
                                                          size_t n) {
  uint64_t crc = 0xffffffffu;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    crc = __builtin_ia32_crc32di(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; i < n; ++i) {
    crc32 = __builtin_ia32_crc32qi(crc32, p[i]);
  }
  return ~crc32;
}

inline bool UseHardwareCrc() {
  static const bool use = [] {
    if (!__builtin_cpu_supports("sse4.2")) {
      return false;
    }
    std::vector<uint8_t> probe(kBlock);
    Rng rng(7);
    rng.Fill(probe.data(), probe.size());
    for (size_t n : {size_t{0}, size_t{1}, size_t{9}, kPayload, kBlock}) {
      if (Crc32cHw(probe.data(), n) != Crc32c(probe.data(), n)) {
        return false;
      }
    }
    return true;
  }();
  return use;
}

#endif

inline uint32_t PayloadCrc(const uint8_t* p) {
#if defined(__x86_64__)
  if (UseHardwareCrc()) {
    return Crc32cHw(p, kPayload);
  }
#endif
  return Crc32c(p, kPayload);
}

inline void FillBlock(uint8_t* dst, uint64_t file_id, uint64_t block,
                      uint64_t seq) {
  Rng rng((file_id << 40) ^ (block << 20) ^ seq ^ 0x5bd1e995ull);
  uint8_t* payload = dst + sizeof(BlockHeader);
  for (uint64_t i = 0; i < kPayload; i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(payload + i, &word, 8);
  }
  BlockHeader h{kMagic, PayloadCrc(payload), file_id, block, seq};
  std::memcpy(dst, &h, sizeof(h));
}

// Empty string when the block is correct, else what is wrong with it.
inline std::string CheckBlock(const uint8_t* src, uint64_t file_id, uint64_t block,
                       uint64_t expect_seq) {
  BlockHeader h;
  std::memcpy(&h, src, sizeof(h));
  char why[160];
  if (h.magic != kMagic) {
    std::snprintf(why, sizeof(why), "bad magic %08x", h.magic);
  } else if (h.file_id != file_id || h.block != block) {
    std::snprintf(why, sizeof(why), "holds file %llu block %llu",
                  static_cast<unsigned long long>(h.file_id),
                  static_cast<unsigned long long>(h.block));
  } else if (h.crc != PayloadCrc(src + sizeof(BlockHeader))) {
    std::snprintf(why, sizeof(why), "payload checksum mismatch");
  } else if (expect_seq != kSeqUnknown && h.seq != expect_seq) {
    std::snprintf(why, sizeof(why), "seq %llu, last write was %llu",
                  static_cast<unsigned long long>(h.seq),
                  static_cast<unsigned long long>(expect_seq));
  } else {
    return "";
  }
  return why;
}

// The benchmark's record of what every block should hold.
class ContentRecord {
 public:
  struct File {
    std::string path;
    uint64_t blocks;
    uint64_t first;  // index of block 0 in seq_
  };

  uint64_t AddFile(std::string path, uint64_t blocks) {
    files_.push_back({std::move(path), blocks, seq_.size()});
    seq_.resize(seq_.size() + blocks, 0);
    return files_.size() - 1;
  }
  const File& file(uint64_t id) const { return files_[id]; }
  size_t file_count() const { return files_.size(); }
  uint64_t total_blocks() const { return seq_.size(); }

  uint64_t NextSeq() { return next_seq_++; }
  uint64_t Expected(uint64_t id, uint64_t block) const {
    return seq_[files_[id].first + block];
  }
  void Set(uint64_t id, uint64_t block, uint64_t seq) {
    seq_[files_[id].first + block] = seq;
  }

  // Checks `count` blocks read into `buf`; logs and counts mismatches.
  bool Verify(uint64_t id, uint64_t first_block, uint64_t count,
              const uint8_t* buf) {
    bool ok = true;
    for (uint64_t b = 0; b < count; ++b) {
      const std::string why = CheckBlock(buf + b * kBlock, id, first_block + b,
                                         Expected(id, first_block + b));
      if (!why.empty()) {
        ok = false;
        if (mismatches_++ < 8) {
          std::fprintf(stderr, "content mismatch: %s block %llu: %s\n",
                       files_[id].path.c_str(),
                       static_cast<unsigned long long>(first_block + b),
                       why.c_str());
        }
      }
    }
    return ok;
  }
  uint64_t mismatches() const { return mismatches_; }

 private:
  std::vector<File> files_;
  std::vector<uint64_t> seq_;
  uint64_t next_seq_ = 1;
  uint64_t mismatches_ = 0;
};

// ---- The stack ------------------------------------------------------------------
struct StackSpec {
  uint64_t pm_bytes = 0;
  uint64_t ssd_bytes = 0;
  uint64_t hdd_bytes = 0;
  uint64_t inode_target = 4096;  // substrate inode slots (shadows + dirs)
  Mux::Options options;
};

constexpr const char* kTierNames[3] = {"pm", "ssd", "hdd"};

// Mux over novafs/xfslite/extlite on PM/SSD/HDD, devices sized from the
// workload's data set. With `recorder`, a PassThroughFs sits between Mux and
// each substrate (the traced run); without it Mux talks to them directly.
class Stack {
 public:
  Stack(const StackSpec& spec, SpanRecorder* recorder, bool pass_through)
      : spec_(spec),
        pm_dev_(device::DeviceProfile::OptanePm(spec.pm_bytes), &clock_),
        ssd_dev_(device::DeviceProfile::OptaneSsd(spec.ssd_bytes), &clock_),
        hdd_dev_(device::DeviceProfile::ExosHdd(spec.hdd_bytes), &clock_),
        novafs_(&pm_dev_, &clock_, NovaOptions(spec)),
        xfslite_(&ssd_dev_, &clock_, XfsOptions(spec)),
        extlite_(&hdd_dev_, &clock_, ExtOptions(spec)) {
    substrates_ = {&novafs_, &xfslite_, &extlite_};
    tier_fs_ = substrates_;
    if (pass_through) {
      const SpanKind kinds[3] = {SpanKind::kFsPm, SpanKind::kFsSsd,
                                 SpanKind::kFsHdd};
      for (int t = 0; t < 3; ++t) {
        pass_[t] =
            std::make_unique<PassThroughFs>(substrates_[t], kinds[t], recorder);
        tier_fs_[t] = pass_[t].get();
      }
    }
  }

  ~Stack() { DetachObs(); }

  Status Init() {
    MUX_RETURN_IF_ERROR(novafs_.Format());
    MUX_RETURN_IF_ERROR(xfslite_.Format());
    MUX_RETURN_IF_ERROR(extlite_.Format());
    return Mount(/*recover=*/false);
  }

  // Replaces Mux with a fresh instance over the same substrates and recovers
  // it from the last checkpoint. Returns the wall time of construction +
  // AddTier x3 + Recover (the old instance is torn down before timing).
  Result<int64_t> Remount() {
    DetachObs();
    mux_.reset();
    const int64_t start = WallNs();
    MUX_RETURN_IF_ERROR(Mount(/*recover=*/true));
    return WallNs() - start;
  }

  Mux& mux() { return *mux_; }
  SimClock& clock() { return clock_; }
  TierId tier(int t) const { return tiers_[t]; }
  vfs::FileSystem& substrate(int t) { return *substrates_[t]; }
  PassThroughFs* pass_through(int t) { return pass_[t].get(); }
  device::DeviceStats device_stats(int t) const {
    return t == 0 ? pm_dev_.stats() : t == 1 ? ssd_dev_.stats()
                                             : hdd_dev_.stats();
  }

 private:
  static fs::NovaFs::Options NovaOptions(const StackSpec& spec) {
    fs::NovaFs::Options options;
    options.inode_table_pages = spec.inode_target / 16 + 1;
    return options;
  }
  static fs::XfsLite::Options XfsOptions(const StackSpec& spec) {
    fs::XfsLite::Options options;
    options.inode_table_blocks = spec.inode_target / 16 + 1;
    return options;
  }
  static fs::ExtLite::Options ExtOptions(const StackSpec& spec) {
    fs::ExtLite::Options options;
    options.inode_blocks_per_group =
        spec.inode_target / (16 * options.group_count) + 1;
    return options;
  }

  Status Mount(bool recover) {
    mux_ = std::make_unique<Mux>(&clock_, spec_.options);
    const device::DeviceProfile* profiles[3] = {
        &pm_dev_.profile(), &ssd_dev_.profile(), &hdd_dev_.profile()};
    for (int t = 0; t < 3; ++t) {
      MUX_ASSIGN_OR_RETURN(tiers_[t],
                           mux_->AddTier(kTierNames[t], tier_fs_[t],
                                         *profiles[t]));
    }
    pm_dev_.AttachObs(&mux_->metrics(), &mux_->trace(), "pm");
    ssd_dev_.AttachObs(&mux_->metrics(), &mux_->trace(), "ssd");
    hdd_dev_.AttachObs(&mux_->metrics(), &mux_->trace(), "hdd");
    return recover ? mux_->Recover() : Status::Ok();
  }

  // Devices hold pointers into Mux's metrics; detach before Mux goes away.
  void DetachObs() {
    pm_dev_.AttachObs(nullptr, nullptr, "pm");
    ssd_dev_.AttachObs(nullptr, nullptr, "ssd");
    hdd_dev_.AttachObs(nullptr, nullptr, "hdd");
  }

  const StackSpec spec_;
  SimClock clock_;
  device::PmDevice pm_dev_;
  device::BlockDevice ssd_dev_;
  device::BlockDevice hdd_dev_;
  fs::NovaFs novafs_;
  fs::XfsLite xfslite_;
  fs::ExtLite extlite_;
  std::array<vfs::FileSystem*, 3> substrates_{};
  std::array<vfs::FileSystem*, 3> tier_fs_{};
  std::array<std::unique_ptr<PassThroughFs>, 3> pass_;
  std::unique_ptr<Mux> mux_;
  std::array<TierId, 3> tiers_{};
};

// ---- Client ops ------------------------------------------------------------------
enum class OpKind : uint8_t { kRead, kWrite, kStat, kReadDir };

struct Op {
  OpKind kind = OpKind::kRead;
  uint64_t file = 0;         // ContentRecord id (or namespace index for meta)
  uint64_t first_block = 0;
  uint64_t blocks = 1;
};

// Policy rounds measured by PolicyCycle: wall time of every round, MiB moved
// per second inside RunPolicyMigrations per cycle (three rounds), and
// MuxStats around the first and the last round.
struct RoundLog {
  std::vector<double> round_wall_ns;
  std::vector<double> cycle_mb_s;
  core::MuxStats before, after;
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string json_path;
  std::string spans_path;
  int corrupt_tier = -1;  // self-test: flip a byte in one read from this tier
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;  // 0 = not a sampled statistic
};

// Window accounting shared by every workload. Ops are also binned into
// slices — by default one second of start time each; migrate-churn uses one
// migration cycle each — and a window metric is the median over the
// window's full slices of that slice's value, so a burst of host CPU steal
// spoils a few slices instead of moving the whole figure.
constexpr int64_t kSliceNs = 1000000000;

struct WindowSlice {
  bench::FineHistogram read_ns, write_ns, meta_ns;
  uint64_t ok = 0;
};

struct WindowStats {
  bench::FineHistogram read_ns, write_ns, meta_ns;  // the whole window
  std::vector<WindowSlice> slices;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_write_bytes = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Client time of each full slice. Left empty by the window, it is filled
  // with the whole seconds between start_ns and end_ns (see CloseSlices).
  std::vector<double> slice_s;

  WindowSlice& Slice(size_t i) {
    if (i >= slices.size()) {
      slices.resize(i + 1);
    }
    return slices[i];
  }
  void CloseSlices() {
    if (slice_s.empty()) {
      slice_s.assign(static_cast<size_t>((end_ns - start_ns) / kSliceNs),
                     Seconds(kSliceNs));
    }
    slices.resize(std::max(slices.size(), full_slices()));
  }
  size_t full_slices() const { return slice_s.size(); }
  // Median over full slices of `fn(slice, slice seconds)`.
  template <typename Fn>
  double SliceMedian(Fn&& fn) const {
    std::vector<double> values;
    for (size_t i = 0; i < full_slices(); ++i) {
      values.push_back(fn(slices[i], slice_s[i]));
    }
    return Median(std::move(values));
  }
  double Percentile(bench::FineHistogram WindowSlice::*hist, double q) const {
    return SliceMedian([&](const WindowSlice& slice, double) {
      return (slice.*hist).Percentile(q);
    });
  }
};

class Bench {
 public:
  explicit Bench(Config config) : cfg_(std::move(config)) {}
  virtual ~Bench() = default;

  int Run();

 protected:
  // ---- what each workload provides --------------------------------------------
  virtual StackSpec Spec() const = 0;
  // Creates the namespace and lays down and places the data. Timed as setup.
  virtual Status Setup() = 0;
  // Untimed work between setup and the window: migration probe, cache
  // warm-up, the simulated replay.
  virtual Status Prepare() = 0;
  // The timed window. Fills window_ (and, on migrate-churn, probe_rounds_).
  virtual Status Window() = 0;
  // Untimed work right after the window, outside the per-layer deltas.
  virtual Status AfterWindow() { return Status::Ok(); }
  virtual uint64_t data_bytes() const = 0;
  virtual uint64_t cache_bytes() const {
    return Spec().options.enable_scm_cache
               ? Spec().options.cache.capacity_blocks * kBlock
               : 0;
  }
  // Namespace for the post-window metadata probe (empty = the window had
  // its own metadata ops).
  virtual std::vector<std::string> MetaProbeDirs() const { return {}; }
  // The window slice an op starting at `start_ns` counts in. Called on the
  // client thread when the op starts.
  virtual size_t SliceIndex(int64_t start_ns) const {
    return static_cast<size_t>(
        std::max<int64_t>(0, start_ns - window_.start_ns) / kSliceNs);
  }

  // ---- shared helpers --------------------------------------------------------------
  Mux& mux() { return stack_->mux(); }

  Status CreateDirs(const std::string& prefix, uint64_t files, uint64_t fanout,
                    std::vector<std::string>* dirs) {
    for (uint64_t d = 0; d * fanout < files; ++d) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%04llu", prefix.c_str(),
                    static_cast<unsigned long long>(d));
      MUX_RETURN_IF_ERROR(mux().Mkdir(buf));
      dirs->push_back(buf);
    }
    return Status::Ok();
  }

  static std::string FileIn(const std::string& dir, uint64_t i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/f%06llu",
                  static_cast<unsigned long long>(i));
    return dir + buf;
  }

  // Creates `path` and writes `blocks` fresh blocks (seq recorded).
  Status WriteNewFile(uint64_t id) {
    const auto& f = record_.file(id);
    MUX_ASSIGN_OR_RETURN(vfs::FileHandle h,
                         mux().Open(f.path, vfs::OpenFlags::kCreateRw));
    constexpr uint64_t kChunk = 64;
    std::vector<uint8_t> buf(kChunk * kBlock);
    for (uint64_t b = 0; b < f.blocks; b += kChunk) {
      const uint64_t n = std::min(kChunk, f.blocks - b);
      std::vector<uint64_t> seqs(n);
      for (uint64_t i = 0; i < n; ++i) {
        seqs[i] = record_.NextSeq();
        FillBlock(buf.data() + i * kBlock, id, b + i, seqs[i]);
      }
      auto wrote = mux().Write(h, b * kBlock, buf.data(), n * kBlock);
      if (!wrote.ok()) {
        (void)mux().Close(h);
        return wrote.status();
      }
      for (uint64_t i = 0; i < n; ++i) {
        record_.Set(id, b + i, seqs[i]);
      }
    }
    return mux().Close(h);
  }

  // One sync data op: Open -> Read/Write -> Close. Content is generated
  // before and verified after the timed part; with `timed` the op counts in
  // the window. `buf` holds op.blocks blocks.
  Status SyncDataOp(const Op& op, uint8_t* buf, bool timed) {
    const auto& f = record_.file(op.file);
    const uint64_t bytes = op.blocks * kBlock;
    const bool is_write = op.kind == OpKind::kWrite;
    std::array<uint64_t, 64> seqs{};
    if (is_write) {
      for (uint64_t b = 0; b < op.blocks; ++b) {
        seqs[b] = record_.NextSeq();
        FillBlock(buf + b * kBlock, op.file, op.first_block + b, seqs[b]);
      }
    }
    const int64_t start = WallNs();
    const size_t slice = timed ? SliceIndex(start) : 0;
    Status status;
    {
      SpanRecorder::Scope span(
          &recorder_, is_write ? SpanKind::kOpWrite : SpanKind::kOpRead,
          recorder_.enabled() ? recorder_.NextOpId() : 0);
      status = OpenIoClose(f.path, is_write, op.first_block * kBlock, buf,
                           bytes);
    }
    const int64_t end = WallNs();
    if (is_write) {
      for (uint64_t b = 0; b < op.blocks; ++b) {
        record_.Set(op.file, op.first_block + b,
                    status.ok() ? seqs[b] : kSeqUnknown);
      }
    } else if (status.ok()) {
      record_.Verify(op.file, op.first_block, op.blocks, buf);
    }
    if (timed) {
      Count(op.kind, status, slice, end - start, bytes);
    }
    return status;
  }

  Status OpenIoClose(const std::string& path, bool is_write, uint64_t offset,
                     uint8_t* buf, uint64_t bytes) {
    vfs::FileHandle h;
    {
      SpanRecorder::Scope span(&recorder_, SpanKind::kOpen);
      MUX_ASSIGN_OR_RETURN(
          h, mux().Open(path, is_write ? vfs::OpenFlags::kWrite
                                       : vfs::OpenFlags::kRead));
    }
    Result<uint64_t> io = InternalError("unset");
    {
      SpanRecorder::Scope span(&recorder_,
                               is_write ? SpanKind::kWrite : SpanKind::kRead);
      io = is_write ? mux().Write(h, offset, buf, bytes)
                    : mux().Read(h, offset, bytes, buf);
    }
    Status closed;
    {
      SpanRecorder::Scope span(&recorder_, SpanKind::kClose);
      closed = mux().Close(h);
    }
    MUX_RETURN_IF_ERROR(io.status());
    if (*io != bytes) {
      return InternalError(is_write ? "short write" : "short read");
    }
    return closed;
  }

  // Stat or ReadDirPaged(path, "", 32); with `timed` it counts in the window.
  Status MetaOp(OpKind kind, const std::string& path, bool timed) {
    const int64_t start = WallNs();
    const size_t slice = timed ? SliceIndex(start) : 0;
    Status status;
    {
      SpanRecorder::Scope span(&recorder_, SpanKind::kMeta);
      status = kind == OpKind::kStat
                   ? mux().Stat(path).status()
                   : mux().ReadDirPaged(path, "", 32).status();
    }
    if (timed) {
      Count(kind, status, slice, WallNs() - start, 0);
    }
    return status;
  }

  // Counts one timed op of slice `slice_index` into *counting_: latency
  // into its histograms, or a failure.
  void Count(OpKind kind, const Status& status, size_t slice_index, int64_t ns,
             uint64_t bytes) {
    WindowStats& w = *counting_;
    w.attempted++;
    if (!status.ok()) {
      w.failed++;
      if (w.failed <= 4) {
        std::fprintf(stderr, "op failed: %s\n", status.ToString().c_str());
      }
      return;
    }
    const uint64_t latency = static_cast<uint64_t>(ns);
    WindowSlice& slice = w.Slice(slice_index);
    slice.ok++;
    switch (kind) {
      case OpKind::kRead:
        w.read_ns.Add(latency);
        slice.read_ns.Add(latency);
        break;
      case OpKind::kWrite:
        w.write_ns.Add(latency);
        slice.write_ns.Add(latency);
        w.user_write_bytes += bytes;
        break;
      default:
        w.meta_ns.Add(latency);
        slice.meta_ns.Add(latency);
    }
  }

  // Replays `ops` sync ops from `next` on one client, measuring simulated
  // time per read and write (sim_read_us / sim_write_us). Runs with nothing
  // else in flight, so the values depend only on the seed.
  Status SimReplay(uint64_t ops, const std::function<Op()>& next) {
    std::vector<uint8_t> buf(64 * kBlock);
    SimClock& clock = stack_->clock();
    for (uint64_t i = 0; i < ops; ++i) {
      const Op op = next();
      const SimTime start = clock.Now();
      MUX_RETURN_IF_ERROR(SyncDataOp(op, buf.data(), /*timed=*/false));
      const SimTime ns = clock.Now() - start;
      if (op.kind == OpKind::kRead) {
        sim_read_ns_ += ns;
        sim_reads_++;
      } else {
        sim_write_ns_ += ns;
        sim_writes_++;
      }
    }
    return Status::Ok();
  }

  // kProbeCycles policy-round cycles of the files under `dir` with nothing
  // else running, logged in probe_rounds_. Run after every simulated
  // measurement: a policy round's simulated charges depend on how the host
  // schedules its copy threads.
  Status PolicyProbe(const std::string& dir, const std::vector<uint64_t>& ids,
                     int home, const std::string& base_rules) {
    for (int c = 0; c < kProbeCycles; ++c) {
      MUX_RETURN_IF_ERROR(
          PolicyCycle(dir, ids, home, base_rules, &probe_rounds_));
    }
    return Status::Ok();
  }

  // One policy-round cycle of the files under `dir`: three rounds, home ->
  // next -> next -> home, each re-pinning `dir` with SetPolicyByName("pin")
  // and running RunPolicyMigrations. The rounds are logged in `log` unless
  // it is null. After every round each block of the set must sit on the
  // round's target tier; then `after_round` runs, if given.
  Status PolicyCycle(const std::string& dir, const std::vector<uint64_t>& ids,
                     int home, const std::string& base_rules, RoundLog* log,
                     const std::function<void()>& after_round = nullptr) {
    const bool timed = log != nullptr;
    uint64_t cycle_bytes = 0;
    int64_t cycle_wall = 0;
    for (int r = 1; r <= 3; ++r) {
      const int target = (home + r) % 3;
      std::string rules = dir + "=" + kTierNames[target];
      if (!base_rules.empty()) {
        rules += "," + base_rules;
      }
      MUX_RETURN_IF_ERROR(mux().SetPolicyByName("pin", rules));
      if (timed && log->round_wall_ns.empty()) {
        log->before = mux().stats();
      }
      const uint64_t blocks_before = mux().stats().migrated_blocks;
      const int64_t start = WallNs();
      Status status;
      {
        SpanRecorder::Scope span(&recorder_, SpanKind::kRound);
        status = mux().RunPolicyMigrations();
      }
      const int64_t wall = WallNs() - start;
      MUX_RETURN_IF_ERROR(status);
      if (timed) {
        log->round_wall_ns.push_back(static_cast<double>(wall));
        cycle_bytes += (mux().stats().migrated_blocks - blocks_before) * kBlock;
        cycle_wall += wall;
        log->after = mux().stats();
      }
      MUX_RETURN_IF_ERROR(CheckPlacement(ids, target));
      if (after_round) {
        after_round();
      }
    }
    if (timed) {
      log->cycle_mb_s.push_back(
          Ratio(static_cast<double>(cycle_bytes) / kMiB, Seconds(cycle_wall)));
    }
    return Status::Ok();
  }

  // One sequential MigrateFile cycle of `ids` around PM -> SSD -> HDD -> PM
  // starting from `home` (simulated MiB/s, Fig. 3a's quantity). Each step
  // moves the files one at a time in its own seed-chosen order, so source
  // reads are not simply the write order replayed.
  Status SimMigrateCycle(const std::vector<uint64_t>& ids, int home) {
    uint64_t set_bytes = 0;
    for (uint64_t id : ids) {
      set_bytes += record_.file(id).blocks * kBlock;
    }
    SimClock& clock = stack_->clock();
    Rng rng(cfg_.seed ^ 0x6d696772ull);
    std::vector<uint64_t> order = ids;
    const SimTime start = clock.Now();
    for (int r = 1; r <= 3; ++r) {
      const int target = (home + r) % 3;
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Below(i)]);
      }
      for (uint64_t id : order) {
        MUX_RETURN_IF_ERROR(
            mux().MigrateFile(record_.file(id).path, stack_->tier(target)));
      }
      MUX_RETURN_IF_ERROR(CheckPlacement(ids, target));
    }
    sim_migrate_bytes_ = 3 * set_bytes;
    sim_migrate_ns_ = clock.Now() - start;
    return Status::Ok();
  }

  // Every block of every file in `ids` must sit on `target`.
  Status CheckPlacement(const std::vector<uint64_t>& ids, int target) {
    for (uint64_t id : ids) {
      const auto& f = record_.file(id);
      MUX_ASSIGN_OR_RETURN(auto breakdown, mux().FileTierBreakdown(f.path));
      const auto it = breakdown.find(stack_->tier(target));
      const uint64_t on_target = it == breakdown.end() ? 0 : it->second;
      if (on_target != f.blocks) {
        placement_errors_++;
        if (placement_errors_ <= 4) {
          std::fprintf(stderr, "placement: %s has %llu of %llu blocks on %s\n",
                       f.path.c_str(),
                       static_cast<unsigned long long>(on_target),
                       static_cast<unsigned long long>(f.blocks),
                       kTierNames[target]);
        }
      }
    }
    return Status::Ok();
  }

  // Reads every recorded file end to end and checks every block.
  Status ContentCheck() {
    std::vector<uint8_t> buf(64 * kBlock);
    for (uint64_t id = 0; id < record_.file_count(); ++id) {
      const auto& f = record_.file(id);
      MUX_ASSIGN_OR_RETURN(vfs::FileHandle h,
                           mux().Open(f.path, vfs::OpenFlags::kRead));
      for (uint64_t b = 0; b < f.blocks; b += 64) {
        const uint64_t n = std::min<uint64_t>(64, f.blocks - b);
        auto read = mux().Read(h, b * kBlock, n * kBlock, buf.data());
        if (!read.ok() || *read != n * kBlock) {
          (void)mux().Close(h);
          return read.ok() ? InternalError("short read in content check")
                           : read.status();
        }
        record_.Verify(id, b, n, buf.data());
      }
      MUX_RETURN_IF_ERROR(mux().Close(h));
    }
    return Status::Ok();
  }

  Config cfg_;
  SpanRecorder recorder_;
  std::unique_ptr<Stack> stack_;
  ContentRecord record_;
  WindowStats window_;
  WindowStats* counting_ = &window_;  // where timed ops are counted
  Rng rng_{1};

  // Simulated replay and migration cycle.
  uint64_t sim_read_ns_ = 0, sim_reads_ = 0;
  uint64_t sim_write_ns_ = 0, sim_writes_ = 0;
  uint64_t sim_migrate_bytes_ = 0;
  SimTime sim_migrate_ns_ = 0;

  // Policy rounds with no client op in flight (migrate.wall_mb_s is the
  // median over their cycles), and on migrate-churn's traced run the rounds
  // and client ops of the loaded phase (migrate.loaded.*). The migrate.*
  // deltas come from the loaded rounds where there are any.
  RoundLog probe_rounds_;
  RoundLog loaded_rounds_;
  WindowStats loaded_;
  uint64_t placement_errors_ = 0;

 private:
  void EmitLayerMetrics(std::vector<Metric>* out, double untraced_ops_s);
  std::vector<Metric> layer_;
};

// Snapshots of the per-layer counters taken around the window.
struct LayerSnapshot {
  std::array<FsCounterSnapshot, 3> fs{};
  std::array<device::DeviceStats, 3> dev{};
  core::ScmCacheStats cache;
};

inline LayerSnapshot TakeLayerSnapshot(Stack& stack) {
  LayerSnapshot s;
  for (int t = 0; t < 3; ++t) {
    if (stack.pass_through(t) != nullptr) {
      s.fs[t] = stack.pass_through(t)->Snapshot();
    }
    s.dev[t] = stack.device_stats(t);
  }
  s.cache = stack.mux().CacheStats();
  return s;
}

inline uint64_t PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

inline int Bench::Run() {
  const StackSpec spec = Spec();
  rng_ = Rng(cfg_.seed * 0x9e3779b97f4a7c15ull + 17);
  const bool pass_through = cfg_.trace || cfg_.corrupt_tier >= 0;

  // ---- setup, repeated: report the median, keep the last stack -----------
  std::vector<double> setup_s;
  ContentRecord fresh_record = record_;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack_.reset();  // free the previous stack before building the next
    record_ = fresh_record;
    rng_ = Rng(cfg_.seed * 0x9e3779b97f4a7c15ull + 17);
    const int64_t start = WallNs();
    stack_ = std::make_unique<Stack>(spec, &recorder_, pass_through);
    Status status = stack_->Init();
    if (status.ok()) {
      status = Setup();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 2;
    }
    setup_s.push_back(Seconds(WallNs() - start));
  }

  if (cfg_.corrupt_tier >= 0) {
    stack_->pass_through(cfg_.corrupt_tier)->CorruptNextRead();
  }
  if (Status status = Prepare(); !status.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", status.ToString().c_str());
    return 2;
  }

  // ---- the timed window ------------------------------------------------------
  recorder_.MarkClientThread();
  const LayerSnapshot before = TakeLayerSnapshot(*stack_);
  recorder_.Enable(cfg_.trace);
  if (Status status = Window(); !status.ok()) {
    std::fprintf(stderr, "window failed: %s\n", status.ToString().c_str());
    return 2;
  }
  recorder_.Enable(false);
  window_.CloseSlices();
  const LayerSnapshot after = TakeLayerSnapshot(*stack_);
  const uint64_t blt_bytes = mux().BltMemoryBytes();

  // ---- quiesce: content, space, metadata probe ---------------------------------
  Status status = AfterWindow();
  if (status.ok()) {
    status = ContentCheck();
  }
  uint64_t substrate_used = 0;
  for (int t = 0; status.ok() && t < 3; ++t) {
    auto fs_stats = stack_->substrate(t).StatFs();
    if (!fs_stats.ok()) {
      status = fs_stats.status();
      break;
    }
    substrate_used += fs_stats->capacity_bytes - fs_stats->free_bytes;
  }

  // ---- checkpoint, recover on a fresh Mux, metadata probe --------------------
  // Checkpoint and recover alternate until kRepeatSeconds have passed, so
  // both sample the same stretch of host time.
  // Workloads without metadata ops in their window run a burst of
  // Stat / ReadDirPaged(32) over their own namespace in each iteration;
  // meta_p99_us is then the median of the bursts' p99s.
  const std::vector<std::string> probe_dirs = MetaProbeDirs();
  Rng meta_rng(cfg_.seed ^ 0x6d657461ull);
  std::vector<double> checkpoint_s, recover_s, meta_burst_p99_ns;
  const int64_t repeat_start = WallNs();
  while (status.ok() && checkpoint_s.size() < static_cast<size_t>(kMaxRepeats) &&
         (checkpoint_s.size() < static_cast<size_t>(kMinRepeats) ||
          WallNs() - repeat_start < static_cast<int64_t>(kRepeatSeconds * 1e9))) {
    const int64_t start = WallNs();
    status = mux().Checkpoint();
    checkpoint_s.push_back(Seconds(WallNs() - start));
    if (status.ok()) {
      auto wall = stack_->Remount();
      status = wall.status();
      if (wall.ok()) {
        recover_s.push_back(Seconds(*wall));
      }
    }
    if (!probe_dirs.empty()) {
      recorder_.Enable(cfg_.trace);
      bench::FineHistogram burst;
      for (uint64_t i = 0; status.ok() && i < kMetaBurstOps; ++i) {
        const OpKind kind = i % 2 == 0 ? OpKind::kStat : OpKind::kReadDir;
        const std::string& path =
            kind == OpKind::kStat
                ? record_.file(meta_rng.Below(record_.file_count())).path
                : probe_dirs[meta_rng.Below(probe_dirs.size())];
        const int64_t op_start = WallNs();
        status = MetaOp(kind, path, /*timed=*/false);
        const uint64_t ns = static_cast<uint64_t>(WallNs() - op_start);
        burst.Add(ns);
        window_.meta_ns.Add(ns);
      }
      recorder_.Enable(false);
      meta_burst_p99_ns.push_back(burst.Percentile(0.99));
    }
  }
  double snapshot_mb = 0;
  if (status.ok()) {
    auto meta = stack_->substrate(0).Stat(spec.options.meta_path);
    status = meta.status();
    snapshot_mb = meta.ok() ? static_cast<double>(meta->size) / kMiB : 0;
  }
  bool fsck_clean = false;
  if (status.ok()) {
    auto report = mux().Fsck();
    status = report.status();
    fsck_clean = report.ok() && report->Clean();
    if (report.ok() && !fsck_clean) {
      std::fprintf(stderr,
                   "fsck: %llu missing shadows, %llu size inconsistencies, "
                   "%llu replica mismatches\n",
                   static_cast<unsigned long long>(report->missing_shadows),
                   static_cast<unsigned long long>(report->size_inconsistencies),
                   static_cast<unsigned long long>(report->replica_mismatches));
    }
  }
  if (status.ok()) {
    status = ContentCheck();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "post-window checks failed: %s\n",
                 status.ToString().c_str());
    return 2;
  }

  if (cfg_.corrupt_tier >= 0 &&
      !stack_->pass_through(cfg_.corrupt_tier)->corrupted()) {
    std::fprintf(stderr, "--corrupt-read: no read from %s to corrupt\n",
                 kTierNames[cfg_.corrupt_tier]);
    return 2;
  }
  const bool correct =
      record_.mismatches() == 0 && placement_errors_ == 0 && fsck_clean;

  // ---- end-to-end metrics --------------------------------------------------------
  const double window_s = Seconds(window_.end_ns - window_.start_ns);
  using Hist = bench::FineHistogram WindowSlice::*;
  auto window_p = [&](Hist hist, double q) {
    return window_.Percentile(hist, q) / 1e3;
  };
  const double meta_p99_us =
      probe_dirs.empty() ? window_p(&WindowSlice::meta_ns, 0.99)
                         : Median(meta_burst_p99_ns) / 1e3;
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"ops_s",
       window_.SliceMedian([](const WindowSlice& slice, double seconds) {
         return static_cast<double>(slice.ok) / seconds;
       }),
       "ops/s", window_.full_slices()},
      {"read_p50_us", window_p(&WindowSlice::read_ns, 0.50), "us",
       window_.read_ns.count()},
      {"read_p99_us", window_p(&WindowSlice::read_ns, 0.99), "us",
       window_.read_ns.count()},
      {"write_p50_us", window_p(&WindowSlice::write_ns, 0.50), "us",
       window_.write_ns.count()},
      {"write_p99_us", window_p(&WindowSlice::write_ns, 0.99), "us",
       window_.write_ns.count()},
      {"meta_p99_us", meta_p99_us, "us", window_.meta_ns.count()},
      {"ok_frac",
       1.0 - Ratio(static_cast<double>(window_.failed),
                   static_cast<double>(window_.attempted)),
       "ratio", window_.attempted},
      {"checkpoint_s", InterquartileMean(checkpoint_s), "s",
       checkpoint_s.size()},
      {"recover_s", InterquartileMean(recover_s), "s", recover_s.size()},
      {"rss_mb", static_cast<double>(PeakRssBytes()) / kMiB, "MiB", 0},
      {"space_amp",
       Ratio(static_cast<double>(substrate_used),
             static_cast<double>(record_.total_blocks() * kBlock)),
       "ratio", 0},
      {"sim_read_us", Ratio(static_cast<double>(sim_read_ns_), sim_reads_) / 1e3,
       "sim_us", sim_reads_},
      {"sim_write_us",
       Ratio(static_cast<double>(sim_write_ns_), sim_writes_) / 1e3, "sim_us",
       sim_writes_},
      {"sim_migrate_mb_s",
       Ratio(static_cast<double>(sim_migrate_bytes_) / kMiB,
             Seconds(static_cast<int64_t>(sim_migrate_ns_))),
       "sim_MiB/s", 0},
  };

  // ---- per-layer metrics (traced run only) ----------------------------------
  std::vector<Metric> layer;
  if (cfg_.trace) {
    const TraceSummary tr = recorder_.Summarize();
    auto p50 = [&](SpanKind k) { return tr.of(k).hist.Percentile(0.5) / 1e3; };
    auto mean = [&](SpanKind k, uint64_t v) {
      return Ratio(static_cast<double>(v), tr.of(k).count) / 1e3;
    };
    const KindStats& rd = tr.of(SpanKind::kOpRead);
    const KindStats& wr = tr.of(SpanKind::kOpWrite);
    auto push = [&](const std::string& name, double v, const char* unit,
                    uint64_t n = 0) { layer.push_back({name, v, unit, n}); };
    const char* spans[] = {"open", "close", "read", "write", "meta"};
    const SpanKind kinds[] = {SpanKind::kOpen, SpanKind::kClose,
                              SpanKind::kRead, SpanKind::kWrite,
                              SpanKind::kMeta};
    for (int i = 0; i < 5; ++i) {
      push(std::string("mux.") + spans[i] + ".p50_us", p50(kinds[i]), "us",
           tr.of(kinds[i]).count);
    }
    push("mux.read.cpu_us", mean(SpanKind::kOpRead, rd.cpu_ns), "us", rd.count);
    push("mux.write.cpu_us", mean(SpanKind::kOpWrite, wr.cpu_ns), "us",
         wr.count);
    push("mux.read.wait_us",
         mean(SpanKind::kOpRead, rd.wall_ns - std::min(rd.wall_ns, rd.cpu_ns)),
         "us", rd.count);
    push("mux.write.wait_us",
         mean(SpanKind::kOpWrite, wr.wall_ns - std::min(wr.wall_ns, wr.cpu_ns)),
         "us", wr.count);
    push("mux.read.self_us",
         mean(SpanKind::kOpRead,
              rd.wall_ns - std::min(rd.wall_ns, rd.nested_fs_ns)),
         "us", rd.count);
    push("mux.setup_share",
         Ratio(static_cast<double>(tr.of(SpanKind::kOpen).wall_ns +
                                   tr.of(SpanKind::kClose).wall_ns),
               static_cast<double>(rd.wall_ns + wr.wall_ns)),
         "ratio");
    push("async_io.submit_us",
         mean(SpanKind::kSubmit, tr.of(SpanKind::kSubmit).wall_ns), "us",
         tr.of(SpanKind::kSubmit).count);
    push("async_io.offthread_fs_share",
         Ratio(static_cast<double>(tr.offthread_fs_ns),
               static_cast<double>(tr.total_fs_ns)),
         "ratio");

    const core::ScmCacheStats& c0 = before.cache;
    const core::ScmCacheStats& c1 = after.cache;
    const double hits = static_cast<double>(c1.hits - c0.hits);
    const double misses = static_cast<double>(c1.misses - c0.misses);
    const double admissions = static_cast<double>(c1.admissions - c0.admissions);
    push("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
    push("cache.admissions", admissions, "count");
    push("cache.evictions", static_cast<double>(c1.evictions - c0.evictions),
         "count");
    push("cache.hits_per_admission", Ratio(hits, admissions), "ratio");
    push("cache.agg_flush_kb",
         Ratio(static_cast<double>(c1.agg_flush_bytes - c0.agg_flush_bytes) /
                   1024.0,
               static_cast<double>(c1.agg_flushes - c0.agg_flushes)),
         "KiB");

    uint64_t dev_written = 0;
    for (int t = 0; t < 3; ++t) {
      const std::string fs = std::string("fs.") + kTierNames[t];
      const FsCounterSnapshot d = after.fs[t] - before.fs[t];
      push(fs + ".calls", static_cast<double>(d.calls), "count");
      push(fs + ".busy_ms", static_cast<double>(d.busy_ns) / 1e6, "ms");
      push(fs + ".read_mb", static_cast<double>(d.read_bytes) / kMiB, "MiB");
      push(fs + ".write_mb", static_cast<double>(d.write_bytes) / kMiB, "MiB");
      push(fs + ".dax_mb", static_cast<double>(d.dax_bytes) / kMiB, "MiB");
      push(fs + ".errors", static_cast<double>(d.errors), "count");
    }
    for (int t = 0; t < 3; ++t) {
      const std::string dev = std::string("device.") + kTierNames[t];
      const device::DeviceStats& a = after.dev[t];
      const device::DeviceStats& b = before.dev[t];
      dev_written += a.bytes_written - b.bytes_written;
      push(dev + ".read_ops", static_cast<double>(a.read_ops - b.read_ops),
           "count");
      push(dev + ".write_ops", static_cast<double>(a.write_ops - b.write_ops),
           "count");
      push(dev + ".read_mb",
           static_cast<double>(a.bytes_read - b.bytes_read) / kMiB, "MiB");
      push(dev + ".write_mb",
           static_cast<double>(a.bytes_written - b.bytes_written) / kMiB,
           "MiB");
      push(dev + ".flushes", static_cast<double>(a.flushes - b.flushes),
           "count");
      push(dev + ".busy_sim_ms",
           static_cast<double>(a.busy_ns - b.busy_ns) / 1e6, "sim_ms");
    }
    push("device.write_amp",
         Ratio(static_cast<double>(dev_written),
               static_cast<double>(window_.user_write_bytes)),
         "ratio");

    const RoundLog& rounds = loaded_rounds_.round_wall_ns.empty()
                                 ? probe_rounds_
                                 : loaded_rounds_;
    const core::MuxStats& m0 = rounds.before;
    const core::MuxStats& m1 = rounds.after;
    push("migrate.round.p50_ms", Median(rounds.round_wall_ns) / 1e6, "ms",
         rounds.round_wall_ns.size());
    push("migrate.wall_mb_s", Median(probe_rounds_.cycle_mb_s), "MiB/s",
         probe_rounds_.cycle_mb_s.size());
    push("migrate.loaded.mb_s", Median(loaded_rounds_.cycle_mb_s), "MiB/s",
         loaded_rounds_.cycle_mb_s.size());
    push("migrate.loaded.ops_s",
         loaded_.slice_s.empty()
             ? 0.0
             : static_cast<double>(loaded_.read_ns.count() +
                                   loaded_.write_ns.count()) /
                   loaded_.slice_s[0],
         "ops/s");
    push("migrate.loaded.read_p99_us", loaded_.read_ns.Percentile(0.99) / 1e3,
         "us", loaded_.read_ns.count());
    push("migrate.loaded.write_p99_us",
         loaded_.write_ns.Percentile(0.99) / 1e3, "us",
         loaded_.write_ns.count());
    push("migrate.blocks",
         static_cast<double>(m1.migrated_blocks - m0.migrated_blocks), "count");
    push("migrate.occ_conflicts",
         static_cast<double>(m1.occ.conflicts - m0.occ.conflicts), "count");
    push("migrate.retried_blocks",
         static_cast<double>(m1.occ.retried_blocks - m0.occ.retried_blocks),
         "count");
    push("migrate.lock_fallbacks",
         static_cast<double>(m1.occ.lock_fallbacks - m0.occ.lock_fallbacks),
         "count");
    push("migrate.task_failures",
         static_cast<double>(m1.migration_task_failures -
                             m0.migration_task_failures),
         "count");
    push("migrate.clean_commit_ratio",
         Ratio(static_cast<double>(m1.occ.clean_commits - m0.occ.clean_commits),
               static_cast<double>(m1.occ.passes - m0.occ.passes)),
         "ratio");
    push("blt.bytes_per_block",
         Ratio(static_cast<double>(blt_bytes),
               static_cast<double>(record_.total_blocks())),
         "B");
    push("bookkeeper.snapshot_mb", snapshot_mb, "MiB");
    if (!cfg_.spans_path.empty() && !recorder_.WriteCsv(cfg_.spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", cfg_.spans_path.c_str());
    }
  }

  // ---- report ------------------------------------------------------------------------
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("workload %s  seed %llu  window %.2f s  trace %d\n",
              cfg_.workload.c_str(), static_cast<unsigned long long>(cfg_.seed),
              window_s, cfg_.trace ? 1 : 0);
  std::printf("stamp {\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"nproc\": %ld, \"data_bytes\": %llu, \"cache_bytes\": %llu, "
              "\"pm_bytes\": %llu, \"ssd_bytes\": %llu, \"hdd_bytes\": %llu}\n",
              MUX_BENCH_BUILD_TYPE, MUX_BENCH_COMPILER, nproc,
              static_cast<unsigned long long>(data_bytes()),
              static_cast<unsigned long long>(cache_bytes()),
              static_cast<unsigned long long>(spec.pm_bytes),
              static_cast<unsigned long long>(spec.ssd_bytes),
              static_cast<unsigned long long>(spec.hdd_bytes));
  std::printf("ops attempted %llu  failed %llu  (fail_frac %.6f)  content "
              "mismatches %llu  placement errors %llu  fsck %s\n",
              static_cast<unsigned long long>(window_.attempted),
              static_cast<unsigned long long>(window_.failed),
              Ratio(static_cast<double>(window_.failed),
                    static_cast<double>(window_.attempted)),
              static_cast<unsigned long long>(record_.mismatches()),
              static_cast<unsigned long long>(placement_errors_),
              fsck_clean ? "clean" : "NOT CLEAN");
  auto print = [](const char* title, const std::vector<Metric>& metrics) {
    std::printf("%s\n", title);
    for (const Metric& m : metrics) {
      if (m.samples > 0) {
        std::printf("  %-30s %16.4f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<unsigned long long>(m.samples));
      } else {
        std::printf("  %-30s %16.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
  };
  print("end-to-end:", e2e);
  if (cfg_.trace) {
    print("per-layer (traced run):", layer);
  }

  bench::JsonReport json("mux_perfbench");
  json.Add("run", "correct", correct ? 1 : 0);
  json.Add("run", "attempted", static_cast<double>(window_.attempted));
  json.Add("run", "failed", static_cast<double>(window_.failed));
  json.Add("stamp", "seed", static_cast<double>(cfg_.seed));
  json.Add("stamp", "nproc", static_cast<double>(nproc));
  json.Add("stamp", "data_bytes", static_cast<double>(data_bytes()));
  json.Add("stamp", "cache_bytes", static_cast<double>(cache_bytes()));
  json.Add("stamp", "pm_bytes", static_cast<double>(spec.pm_bytes));
  json.Add("stamp", "ssd_bytes", static_cast<double>(spec.ssd_bytes));
  json.Add("stamp", "hdd_bytes", static_cast<double>(spec.hdd_bytes));
  for (const Metric& m : e2e) {
    json.Add("end_to_end", m.name, m.value);
    if (m.samples > 0) {
      json.Add("samples", m.name, static_cast<double>(m.samples));
    }
  }
  for (const Metric& m : layer) {
    json.Add("per_layer", m.name, m.value);
  }
  if (!cfg_.json_path.empty() && !json.WriteTo(cfg_.json_path)) {
    std::fprintf(stderr, "cannot write %s\n", cfg_.json_path.c_str());
    return 2;
  }
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace mux::perfbench

#endif  // MUX_PERFBENCH_BENCH_H_
