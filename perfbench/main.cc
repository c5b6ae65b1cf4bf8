// The repository benchmark: three closed-loop workloads over the public Mux
// API, run against a fully assembled stack (Mux over novafs / xfslite /
// extlite on simulated PM / SSD / HDD devices).
//
//   mux_perfbench --workload hot-read|cold-spill|migrate-churn --seed N
//                 --seconds S --trace 0|1 [--json PATH] [--spans PATH]
//                 [--corrupt-read pm|ssd|hdd]
//
// Prints every metric with its unit (and, for percentiles, the sample
// count) and writes the numbers as a JsonReport to --json. With --trace 1 a
// pass-through file system sits under every tier and the per-layer table is
// printed too; --spans writes the raw spans as CSV. --corrupt-read flips one
// byte of the first client-sized read from that tier after setup (the
// self-test that the content checks catch a bad read). Exit status: 0 = every check passed,
// 3 = a content, placement or fsck check failed, 2 = the stack could not be
// set up or driven.
//
// README.md next to this file says why each workload exists and which
// warm-up rule it applies; the rules are restated where they are applied.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"

namespace mux::perfbench {
namespace {

// Picks `k` distinct indices from [0, n) in random order.
std::vector<uint64_t> Sample(Rng& rng, uint64_t n, uint64_t k) {
  std::vector<uint64_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  for (uint64_t i = 0; i < k; ++i) {
    std::swap(idx[i], idx[i + rng.Below(n - i)]);
  }
  idx.resize(k);
  return idx;
}

uint64_t Draw(ZipfianGenerator& zipf, uint64_t n) {
  return std::min<uint64_t>(zipf.Next(), n - 1);
}

// Room for one Mux checkpoint on PM (measured: ~110 bytes per namespace
// entry), doubled for the copy being replaced.
// Per-device room for substrate metadata (journal, inode tables, bitmaps).
constexpr uint64_t kSlack = 32 * kMiB;

uint64_t SnapshotBytes(uint64_t files) { return 2 * files * 128; }

// ---- hot-read ---------------------------------------------------------------------
// 100k files in 1,024-entry directories; 8,000 of them (chosen by the seed)
// hold 4 blocks each. The data lives on the SSD tier and the SCM cache on PM
// is sized to hold all of it, so after warm-up every read is served from PM
// through the cache and the per-op CPU path is the whole cost. One sync
// client: zipf(0.99) over the data files, 88% 4 KiB reads, 10% 4 KiB writes,
// 2% Stat / ReadDirPaged(32), each data op Open -> Read/Write -> Close.
class HotRead : public Bench {
 public:
  using Bench::Bench;

 private:
  static constexpr uint64_t kFiles = 100000;
  static constexpr uint64_t kFanout = 1024;
  static constexpr uint64_t kDataFiles = 8000;
  static constexpr uint64_t kBlocks = 4;
  // Migration probe: few large files, so a round's wall time is copy and
  // planning, not a thousand per-file task hand-offs.
  static constexpr uint64_t kProbeFiles = 64;
  static constexpr uint64_t kProbeBlocks = 64;  // 256 KiB
  static constexpr uint64_t kCacheBlocks = kDataFiles * kBlocks * 5 / 4;
  static constexpr uint64_t kReplayOps = 20000;

  StackSpec Spec() const override {
    StackSpec s;
    const uint64_t data = kDataFiles * kBlocks * kBlock;
    const uint64_t probe = kProbeFiles * kProbeBlocks * kBlock;
    s.options.policy = "pin";
    s.options.policy_args = kBaseRules;
    s.options.enable_scm_cache = true;
    s.options.cache.capacity_blocks = kCacheBlocks;
    s.pm_bytes = kCacheBlocks * kBlock + probe + SnapshotBytes(kFiles) +
                 kSlack;
    s.ssd_bytes = (data + probe) * 9 / 8 + kSlack;
    s.hdd_bytes = probe + kSlack;
    s.inode_target = 2 * (kDataFiles + kProbeFiles) + kFiles / kFanout + 4096;
    return s;
  }
  uint64_t data_bytes() const override {
    return (kDataFiles * kBlocks + kProbeFiles * kProbeBlocks) * kBlock;
  }

  Status Setup() override {
    dirs_.clear();
    data_ids_.assign(kDataFiles, 0);
    probe_ids_.clear();
    MUX_RETURN_IF_ERROR(CreateDirs("/d", kFiles, kFanout, &dirs_));
    const std::vector<uint64_t> chosen = Sample(rng_, kFiles, kDataFiles);
    std::vector<int64_t> rank_of(kFiles, -1);
    for (uint64_t r = 0; r < kDataFiles; ++r) {
      rank_of[chosen[r]] = static_cast<int64_t>(r);
    }
    for (uint64_t f = 0; f < kFiles; ++f) {
      const std::string path = FileIn(dirs_[f / kFanout], f);
      if (rank_of[f] >= 0) {
        const uint64_t id = record_.AddFile(path, kBlocks);
        data_ids_[static_cast<uint64_t>(rank_of[f])] = id;
        MUX_RETURN_IF_ERROR(WriteNewFile(id));
      } else {
        MUX_ASSIGN_OR_RETURN(vfs::FileHandle h,
                             mux().Open(path, vfs::OpenFlags::kCreateRw));
        MUX_RETURN_IF_ERROR(mux().Close(h));
      }
    }
    MUX_RETURN_IF_ERROR(mux().Mkdir("/probe"));
    for (uint64_t p : Sample(rng_, kProbeFiles, kProbeFiles)) {
      probe_ids_.push_back(record_.AddFile(FileIn("/probe", p), kProbeBlocks));
      MUX_RETURN_IF_ERROR(WriteNewFile(probe_ids_.back()));
    }
    return Status::Ok();
  }

  Status Prepare() override {
    MUX_RETURN_IF_ERROR(SimMigrateCycle(probe_ids_, /*home=*/1));
    // Warm-up rule: fill the cache before timing. A block is admitted on its
    // second miss, so three full passes leave every data block cached.
    std::vector<uint8_t> buf(kBlocks * kBlock);
    for (int pass = 0; pass < 3; ++pass) {
      for (uint64_t id : data_ids_) {
        MUX_RETURN_IF_ERROR(SyncDataOp(Op{OpKind::kRead, id, 0, kBlocks},
                                       buf.data(), /*timed=*/false));
      }
    }
    ZipfianGenerator zipf(kDataFiles, 0.99, cfg_.seed ^ 0x7265706cull);
    Rng rng(cfg_.seed ^ 0x7265706cull);
    MUX_RETURN_IF_ERROR(SimReplay(kReplayOps, [&] {
      const uint64_t id = data_ids_[Draw(zipf, kDataFiles)];
      const OpKind kind =
          rng.Below(98) < 88 ? OpKind::kRead : OpKind::kWrite;
      return Op{kind, id, rng.Below(kBlocks), 1};
    }));
    return PolicyProbe("/probe", probe_ids_, /*home=*/1, kBaseRules);
  }

  Status Window() override {
    ZipfianGenerator zipf(kDataFiles, 0.99, cfg_.seed);
    Rng rng(cfg_.seed ^ 0x686f74ull);
    std::vector<uint8_t> buf(kBlock);
    window_.start_ns = WallNs();
    const int64_t end =
        window_.start_ns + static_cast<int64_t>(cfg_.seconds * 1e9);
    while (WallNs() < end) {
      const uint64_t id = data_ids_[Draw(zipf, kDataFiles)];
      const uint64_t dice = rng.Below(100);
      if (dice < 98) {
        const OpKind kind = dice < 88 ? OpKind::kRead : OpKind::kWrite;
        (void)SyncDataOp(Op{kind, id, rng.Below(kBlocks), 1}, buf.data(),
                         /*timed=*/true);
      } else {
        const std::string& path = record_.file(id).path;
        if (dice == 98) {
          (void)MetaOp(OpKind::kStat, path, /*timed=*/true);
        } else {
          (void)MetaOp(OpKind::kReadDir, path.substr(0, path.rfind('/')),
                       /*timed=*/true);
        }
      }
    }
    window_.end_ns = WallNs();
    return Status::Ok();
  }

  static constexpr const char* kBaseRules = "/=ssd";
  std::vector<std::string> dirs_;
  std::vector<uint64_t> data_ids_;  // by zipf rank
  std::vector<uint64_t> probe_ids_;
};

// ---- cold-spill -------------------------------------------------------------------
// 2,048 files x 256 KiB (512 MiB), half on SSD and half on HDD (placed by
// MigrateFile during setup), behind a 32 MiB SCM cache — 1/16 of the data.
// Files are opened once. One thread keeps 4 ReadAsync/WriteAsync ops in
// flight (90/10), 16 KiB each at a uniformly random block-aligned offset, so
// every op crosses the submission rings, the resume pool, xfslite/extlite
// and the devices.
class ColdSpill : public Bench {
 public:
  using Bench::Bench;

 private:
  static constexpr uint64_t kFiles = 2048;
  static constexpr uint64_t kBlocks = 64;  // 256 KiB
  static constexpr uint64_t kCacheBlocks = 8192;
  static constexpr uint64_t kOpBlocks = 4;  // 16 KiB
  static constexpr int kInFlight = 4;
  static constexpr uint64_t kProbeFiles = 64;
  static constexpr uint64_t kReplayOps = 40000;
  // Warm-up rule: a leading slice of the same load runs before the window
  // and is not measured — the cache's admission sketch and the substrate
  // page caches start empty, and the first seconds show it.
  static constexpr double kLeadingSliceS = 2.0;

  StackSpec Spec() const override {
    StackSpec s;
    const uint64_t half = kFiles / 2 * kBlocks * kBlock;
    const uint64_t probe = kProbeFiles * kBlocks * kBlock;
    s.options.policy = "pin";
    s.options.enable_scm_cache = true;
    s.options.cache.capacity_blocks = kCacheBlocks;
    s.pm_bytes = kCacheBlocks * kBlock + probe + kBlocks * kBlock +
                 SnapshotBytes(kFiles) + kSlack;
    s.ssd_bytes = half * 9 / 8 + probe + kSlack;
    s.hdd_bytes = s.ssd_bytes;
    s.inode_target = 2 * (kFiles + kProbeFiles) + 4096;
    return s;
  }
  uint64_t data_bytes() const override {
    return (kFiles + kProbeFiles) * kBlocks * kBlock;
  }
  std::vector<std::string> MetaProbeDirs() const override {
    return {"/cold", "/probe"};
  }

  Status Setup() override {
    file_ids_.clear();
    probe_ids_.clear();
    MUX_RETURN_IF_ERROR(mux().Mkdir("/cold"));
    const std::vector<uint64_t> order = Sample(rng_, kFiles, kFiles);
    std::vector<bool> on_ssd(kFiles, false);
    for (uint64_t i = 0; i < kFiles / 2; ++i) {
      on_ssd[order[i]] = true;
    }
    for (uint64_t f = 0; f < kFiles; ++f) {
      const uint64_t id = record_.AddFile(FileIn("/cold", f), kBlocks);
      file_ids_.push_back(id);
      MUX_RETURN_IF_ERROR(WriteNewFile(id));  // lands on PM
      MUX_RETURN_IF_ERROR(mux().MigrateFile(record_.file(id).path,
                                            stack_->tier(on_ssd[f] ? 1 : 2)));
    }
    MUX_RETURN_IF_ERROR(mux().Mkdir("/probe"));
    for (uint64_t p : Sample(rng_, kProbeFiles, kProbeFiles)) {
      probe_ids_.push_back(record_.AddFile(FileIn("/probe", p), kBlocks));
      MUX_RETURN_IF_ERROR(WriteNewFile(probe_ids_.back()));
    }
    return Status::Ok();
  }

  Op NextOp(Rng& rng) const {
    const OpKind kind = rng.Below(10) == 0 ? OpKind::kWrite : OpKind::kRead;
    return Op{kind, file_ids_[rng.Below(kFiles)],
              rng.Below(kBlocks - kOpBlocks + 1), kOpBlocks};
  }

  Status Prepare() override {
    MUX_RETURN_IF_ERROR(SimMigrateCycle(probe_ids_, /*home=*/0));
    Rng rng(cfg_.seed ^ 0x7265706cull);
    MUX_RETURN_IF_ERROR(SimReplay(kReplayOps, [&] { return NextOp(rng); }));
    MUX_RETURN_IF_ERROR(PolicyProbe("/probe", probe_ids_, /*home=*/0, ""));
    handles_.assign(record_.file_count(), 0);
    for (uint64_t id : file_ids_) {
      MUX_ASSIGN_OR_RETURN(handles_[id],
                           mux().Open(record_.file(id).path,
                                      vfs::OpenFlags::kReadWrite));
    }
    return AsyncLoop(kLeadingSliceS, /*timed=*/false);
  }

  Status Window() override {
    MUX_RETURN_IF_ERROR(AsyncLoop(cfg_.seconds, /*timed=*/true));
    for (uint64_t id : file_ids_) {
      MUX_RETURN_IF_ERROR(mux().Close(handles_[id]));
    }
    return Status::Ok();
  }

  struct Slot {
    Op op;
    std::vector<uint8_t> buf = std::vector<uint8_t>(kOpBlocks * kBlock);
    std::array<uint64_t, kOpBlocks> seqs{};
    bool busy = false;
    uint64_t op_id = 0;
    int64_t submit_ns = 0;
    int64_t submit_cpu_ns = 0;
    uint64_t submit_fs_ns = 0;
    // Written by the completion callback, read after the queue handoff.
    int64_t done_ns = 0;
    Status status;
    uint64_t bytes = 0;
  };

  bool Overlaps(const Op& op, const std::array<Slot, kInFlight>& slots) const {
    for (const Slot& s : slots) {
      if (s.busy && s.op.file == op.file &&
          s.op.first_block < op.first_block + op.blocks &&
          op.first_block < s.op.first_block + s.op.blocks) {
        return true;
      }
    }
    return false;
  }

  // Keeps kInFlight ops in flight for `seconds`, then drains. With `timed`
  // the ops count in the window.
  Status AsyncLoop(double seconds, bool timed) {
    Rng rng(cfg_.seed ^ (timed ? 0x636f6c64ull : 0x6c656164ull));
    std::array<Slot, kInFlight> slots;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<int> completed;  // guarded by mu

    const bool tracing = recorder_.enabled();
    const int64_t begin = WallNs();
    const int64_t end = begin + static_cast<int64_t>(seconds * 1e9);
    if (timed) {
      window_.start_ns = begin;
      window_.end_ns = end;
    }

    auto submit = [&](int i) {
      Slot& s = slots[i];
      do {
        s.op = NextOp(rng);
      } while (Overlaps(s.op, slots));
      s.busy = true;
      const bool is_write = s.op.kind == OpKind::kWrite;
      if (is_write) {
        for (uint64_t b = 0; b < kOpBlocks; ++b) {
          s.seqs[b] = record_.NextSeq();
          FillBlock(s.buf.data() + b * kBlock, s.op.file,
                    s.op.first_block + b, s.seqs[b]);
        }
      }
      auto done = [&, i](Result<uint64_t> result) {
        Slot& slot = slots[i];
        slot.done_ns = WallNs();
        slot.status = result.status();
        slot.bytes = result.ok() ? *result : 0;
        // Notify under the lock: once the client can pop the last slot it
        // returns and destroys `cv`.
        std::lock_guard<std::mutex> lock(mu);
        completed.push_back(i);
        cv.notify_one();
      };
      const int64_t cpu_start = tracing ? ThreadCpuNs() : 0;
      s.submit_ns = WallNs();
      s.op_id = tracing ? recorder_.NextOpId() : 0;
      {
        SpanRecorder::Scope span(&recorder_, SpanKind::kSubmit, s.op_id);
        const vfs::FileHandle h = handles_[s.op.file];
        const uint64_t offset = s.op.first_block * kBlock;
        if (is_write) {
          mux().WriteAsync(h, offset, s.buf.data(), kOpBlocks * kBlock, done);
        } else {
          mux().ReadAsync(h, offset, kOpBlocks * kBlock, s.buf.data(), done);
        }
        s.submit_fs_ns = tracing ? recorder_.CurrentNestedFsNs() : 0;
      }
      s.submit_cpu_ns = tracing ? ThreadCpuNs() - cpu_start : 0;
    };

    auto finish = [&](int i) {
      Slot& s = slots[i];
      s.busy = false;
      Status status = s.status;
      if (status.ok() && s.bytes != kOpBlocks * kBlock) {
        status = InternalError("short async transfer");
      }
      const bool is_write = s.op.kind == OpKind::kWrite;
      if (is_write) {
        for (uint64_t b = 0; b < kOpBlocks; ++b) {
          record_.Set(s.op.file, s.op.first_block + b,
                      status.ok() ? s.seqs[b] : kSeqUnknown);
        }
      } else if (status.ok()) {
        record_.Verify(s.op.file, s.op.first_block, kOpBlocks, s.buf.data());
      }
      if (timed) {
        Count(s.op.kind, status, SliceIndex(s.submit_ns),
              s.done_ns - s.submit_ns, kOpBlocks * kBlock);
        const SpanKind op_kind = is_write ? SpanKind::kOpWrite : SpanKind::kOpRead;
        const SpanKind call_kind = is_write ? SpanKind::kWrite : SpanKind::kRead;
        for (SpanKind kind : {op_kind, call_kind}) {
          recorder_.RecordCompleted(kind, s.op_id, s.submit_ns, s.done_ns,
                                    s.submit_cpu_ns, s.submit_fs_ns);
        }
      }
    };

    for (int i = 0; i < kInFlight; ++i) {
      submit(i);
    }
    int in_flight = kInFlight;
    while (in_flight > 0) {
      int i;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !completed.empty(); });
        i = completed.front();
        completed.pop_front();
      }
      finish(i);
      if (WallNs() < end) {
        submit(i);
      } else {
        --in_flight;
      }
    }
    return Status::Ok();
  }

  std::vector<uint64_t> file_ids_;
  std::vector<vfs::FileHandle> handles_;  // by record id; opened once
  std::vector<uint64_t> probe_ids_;
};

// ---- migrate-churn ----------------------------------------------------------------
// A 20k-file namespace plus 256 x 1 MiB files under /churn. Each round
// moves /churn to the next tier (SetPolicyByName("pin") +
// RunPolicyMigrations), cycling PM -> SSD -> HDD -> PM; after each round one
// sync client runs a one-second burst of 50/50 4 KiB reads and writes,
// zipf(0.9) over the same files, on the tier they now sit on. The traced run
// adds a phase in which a migrator thread runs the rounds while the client
// races them.
class MigrateChurn : public Bench {
 public:
  using Bench::Bench;

 private:
  static constexpr uint64_t kFiles = 20000;
  static constexpr uint64_t kFanout = 1024;
  static constexpr uint64_t kSetFiles = 256;
  static constexpr uint64_t kBlocks = 256;  // 1 MiB
  static constexpr uint64_t kReplayOps = 20000;
  static constexpr double kBurstS = 1.0;
  static constexpr int kLoadedCycles = 2;

  StackSpec Spec() const override {
    StackSpec s;
    const uint64_t set = kSetFiles * kBlocks * kBlock;
    s.options.policy = "pin";
    s.options.policy_args = "/churn=pm";
    s.pm_bytes = set * 9 / 8 + SnapshotBytes(kFiles) + kSlack;
    s.ssd_bytes = set * 9 / 8 + kSlack;
    s.hdd_bytes = s.ssd_bytes;
    s.inode_target = 2 * kSetFiles + kFiles / kFanout + 4096;
    return s;
  }
  uint64_t data_bytes() const override {
    return kSetFiles * kBlocks * kBlock;
  }
  std::vector<std::string> MetaProbeDirs() const override {
    std::vector<std::string> dirs = dirs_;
    dirs.push_back("/churn");
    return dirs;
  }

  Status Setup() override {
    dirs_.clear();
    set_ids_.clear();
    MUX_RETURN_IF_ERROR(CreateDirs("/n", kFiles, kFanout, &dirs_));
    for (uint64_t f = 0; f < kFiles; ++f) {
      MUX_ASSIGN_OR_RETURN(
          vfs::FileHandle h,
          mux().Open(FileIn(dirs_[f / kFanout], f), vfs::OpenFlags::kCreateRw));
      MUX_RETURN_IF_ERROR(mux().Close(h));
    }
    // Files are laid down (and later moved) in a seed-chosen order, so the
    // on-device layout — and with it every simulated HDD seek — follows the
    // seed; the zipf ranks are a second, independent permutation.
    MUX_RETURN_IF_ERROR(mux().Mkdir("/churn"));
    for (uint64_t f : Sample(rng_, kSetFiles, kSetFiles)) {
      set_ids_.push_back(record_.AddFile(FileIn("/churn", f), kBlocks));
      MUX_RETURN_IF_ERROR(WriteNewFile(set_ids_.back()));
    }
    by_rank_.clear();
    for (uint64_t r : Sample(rng_, kSetFiles, kSetFiles)) {
      by_rank_.push_back(set_ids_[r]);
    }
    return Status::Ok();
  }

  Op NextOp(ZipfianGenerator& zipf, Rng& rng) const {
    const OpKind kind = rng.Below(2) == 0 ? OpKind::kRead : OpKind::kWrite;
    return Op{kind, by_rank_[Draw(zipf, kSetFiles)], rng.Below(kBlocks), 1};
  }

  Status Prepare() override {
    // One sequential MigrateFile cycle of the whole set (sim_migrate_mb_s):
    // deliberately not taken from the policy rounds, whose simulated
    // bandwidth depends on how the host schedules the copy threads.
    MUX_RETURN_IF_ERROR(SimMigrateCycle(set_ids_, /*home=*/0));
    // The replay runs with the set on SSD: on PM every 4 KiB op costs the
    // same simulated time whatever the seed, so it would measure nothing.
    // The warm-up cycle's first round then finds the set already in place.
    for (uint64_t id : set_ids_) {
      MUX_RETURN_IF_ERROR(
          mux().MigrateFile(record_.file(id).path, stack_->tier(1)));
    }
    ZipfianGenerator zipf(kSetFiles, 0.9, cfg_.seed ^ 0x7265706cull);
    Rng rng(cfg_.seed ^ 0x7265706cull);
    MUX_RETURN_IF_ERROR(
        SimReplay(kReplayOps, [&] { return NextOp(zipf, rng); }));
    // Warm-up rule: one policy cycle runs before the window and is not
    // measured — it is the first time the policy path touches the
    // destination extents, and it ran about twice as slow as later cycles.
    return PolicyCycle("/churn", set_ids_, /*home=*/0, "", nullptr);
  }

  // Window slices are whole cycles: every slice holds one round and one
  // client burst on each tier, so a slice's figures do not depend on where
  // one-second boundaries fall among PM, SSD and HDD.
  size_t SliceIndex(int64_t) const override { return cycle_; }

  // Whole cycles until --seconds have passed. After every round the client
  // runs a kBurstS burst against the set on its new tier; only the bursts
  // count towards the client time of the slice.
  Status Window() override {
    ZipfianGenerator zipf(kSetFiles, 0.9, cfg_.seed);
    Rng rng(cfg_.seed ^ 0x6368726eull);
    std::vector<uint8_t> buf(kBlock);
    double client_s = 0;
    auto burst = [&] {
      const int64_t start = WallNs();
      const int64_t end = start + static_cast<int64_t>(kBurstS * 1e9);
      while (WallNs() < end) {
        (void)SyncDataOp(NextOp(zipf, rng), buf.data(), /*timed=*/true);
      }
      client_s += Seconds(WallNs() - start);
    };
    window_.start_ns = WallNs();
    const int64_t end =
        window_.start_ns + static_cast<int64_t>(cfg_.seconds * 1e9);
    for (cycle_ = 0; WallNs() < end; ++cycle_) {
      client_s = 0;
      MUX_RETURN_IF_ERROR(PolicyCycle("/churn", set_ids_, /*home=*/0, "",
                                      &probe_rounds_, burst));
      window_.slice_s.push_back(client_s);
    }
    window_.end_ns = WallNs();
    return Status::Ok();
  }

  // Traced run only: kLoadedCycles cycles with a migrator thread running the
  // rounds while the client races them (the migrate.loaded.* per-layer
  // metrics). Not gated: under the client's load the round rate switched
  // between about 250 and 500 MiB/s for tens of seconds at a time, and the
  // client's p99 (ops blocked behind a file's move) followed it.
  Status AfterWindow() override {
    if (!cfg_.trace) {
      return Status::Ok();
    }
    ZipfianGenerator zipf(kSetFiles, 0.9, cfg_.seed ^ 0x6c6f6164ull);
    Rng rng(cfg_.seed ^ 0x6c6f6164ull);
    std::vector<uint8_t> buf(kBlock);
    std::atomic<bool> done{false};
    Status migrator_status;
    counting_ = &loaded_;
    cycle_ = 0;
    const int64_t start = WallNs();
    std::thread migrator([&] {
      for (int c = 0; c < kLoadedCycles && migrator_status.ok(); ++c) {
        migrator_status =
            PolicyCycle("/churn", set_ids_, /*home=*/0, "", &loaded_rounds_);
      }
      done.store(true);
    });
    while (!done.load()) {
      (void)SyncDataOp(NextOp(zipf, rng), buf.data(), /*timed=*/true);
    }
    migrator.join();
    loaded_.slice_s = {Seconds(WallNs() - start)};
    counting_ = &window_;
    return migrator_status;
  }

  std::vector<std::string> dirs_;
  std::vector<uint64_t> set_ids_;
  std::vector<uint64_t> by_rank_;
  size_t cycle_ = 0;  // the window cycle now running
};

int Usage() {
  std::fprintf(stderr,
               "usage: mux_perfbench --workload hot-read|cold-spill|"
               "migrate-churn --seed N --seconds S --trace 0|1 [--json PATH] "
               "[--spans PATH] [--corrupt-read pm|ssd|hdd]\n");
  return 2;
}

}  // namespace
}  // namespace mux::perfbench

int main(int argc, char** argv) {
  using namespace mux::perfbench;
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--json") {
      cfg.json_path = value;
    } else if (flag == "--spans") {
      cfg.spans_path = value;
    } else if (flag == "--corrupt-read") {
      for (int t = 0; t < 3; ++t) {
        if (value == kTierNames[t]) {
          cfg.corrupt_tier = t;
        }
      }
      if (cfg.corrupt_tier < 0) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(cfg.seconds > 0)) {
    return Usage();
  }
  std::unique_ptr<Bench> bench;
  if (cfg.workload == "hot-read") {
    bench = std::make_unique<HotRead>(cfg);
  } else if (cfg.workload == "cold-spill") {
    bench = std::make_unique<ColdSpill>(cfg);
  } else if (cfg.workload == "migrate-churn") {
    bench = std::make_unique<MigrateChurn>(cfg);
  } else {
    return Usage();
  }
  return bench->Run();
}
