#include "e2ebench/drivers.h"

#include <vector>

#include "src/kernel/layout.h"
#include "src/sim/rng.h"
#include "src/workloads/kernel_compile.h"
#include "src/workloads/multiuser.h"

namespace ppcmm::e2e {

namespace {

KernelCompileConfig CompileConfig(const Sizes& sizes, uint64_t seed) {
  KernelCompileConfig config;
  config.compilation_units = sizes.kcompile_units;
  config.seed = seed;
  return config;
}

MultiuserConfig UsersConfig(const Sizes& sizes, uint64_t seed) {
  MultiuserConfig config;
  config.users = sizes.multiuser_users;
  config.rounds = sizes.multiuser_rounds;
  config.seed = seed;
  return config;
}

// The §4 kernel compile: the same public-call stream as RunKernelCompile, minus its
// read-only TLB occupancy sampling.
class KcompileDriver : public Driver {
 public:
  KcompileDriver(const Sizes& sizes, uint64_t seed)
      : config_(CompileConfig(sizes, seed)), rng_(config_.seed) {}

  void Setup(Calls& k) override {
    cc1_image_ = k.CreateFile(config_.cc1_text_pages);
    libc_image_ = k.CreateFile(config_.shared_lib_pages);
    const FileId make_image = k.CreateFile(8);
    make_ = k.CreateTask("make");
    k.Exec(make_, ExecImage{.text_pages = 8,
                            .data_pages = 32,
                            .stack_pages = 4,
                            .text_file = make_image});
    k.SwitchTo(make_);
    k.UserExecute(512);
  }

  void Run(Calls& k, const std::function<void()>& checkpoint) override {
    const uint32_t lib_base = (kUserMmapBase >> kPageShift) + 0x400;
    const MmapOptions lib_map{.fixed_page = lib_base,
                              .file = libc_image_,
                              .file_page_offset = 0,
                              .writable = false};
    const EffAddr heap(kUserDataBase);
    for (uint32_t unit = 0; unit < config_.compilation_units; ++unit) {
      k.UserExecute(1024);
      k.NullSyscall();

      const TaskId cc1 = k.Fork(make_);
      k.SwitchTo(cc1);
      k.Exec(cc1, ExecImage{.text_pages = config_.cc1_text_pages,
                            .data_pages = config_.working_set_pages + 16,
                            .stack_pages = 8,
                            .text_file = cc1_image_});

      k.Mmap(config_.shared_lib_pages, lib_map);
      for (uint32_t i = 0; i < config_.shared_lib_pages / 4; ++i) {
        const uint32_t page =
            lib_base + static_cast<uint32_t>(rng_.NextBelow(config_.shared_lib_pages));
        k.UserTouch(EffAddr::FromPage(page), AccessKind::kLoad);
      }
      k.Mmap(config_.shared_lib_pages, lib_map);

      const FileId source = k.CreateFile(config_.source_file_pages);
      k.FileRead(source, 0, config_.source_file_pages * kPageSize,
                 EffAddr(kUserDataBase + 16 * kPageSize));

      for (uint32_t loop = 0; loop < config_.compute_loops; ++loop) {
        k.UserExecute(4096);
        const uint32_t offset = static_cast<uint32_t>(rng_.NextBelow(kPageSize / 64)) * 64;
        k.UserTouchRun(heap + offset, kPageSize, config_.working_set_pages, AccessKind::kLoad);
        k.UserTouchRun(heap + offset, 3 * kPageSize, (config_.working_set_pages + 2) / 3,
                       AccessKind::kStore);
      }

      const FileId object = k.CreateFile(config_.object_file_pages);
      k.FileWrite(object, 0, config_.object_file_pages * kPageSize, heap);
      k.SimulateIoWait(Cycles(k.disk_latency_cycles()));

      k.Exit(cc1);
      k.SwitchTo(make_);
      k.DeleteFile(source);
      k.DeleteFile(object);
      checkpoint();
    }
  }

 private:
  KernelCompileConfig config_;
  Rng rng_;
  FileId cc1_image_;
  FileId libc_image_;
  TaskId make_{0};
};

// The §5.1/§9 multiuser mix: the same public-call stream as RunMultiuserWorkload.
class MultiuserDriver : public Driver {
 public:
  MultiuserDriver(const Sizes& sizes, uint64_t seed)
      : config_(UsersConfig(sizes, seed)), rng_(config_.seed) {}

  void Setup(Calls& k) override {
    shell_image_ = k.CreateFile(8);
    cc_image_ = k.CreateFile(32);
    editor_image_ = k.CreateFile(16);
    for (uint32_t u = 0; u < config_.users; ++u) {
      User user;
      user.shell = k.CreateTask("sh" + std::to_string(u));
      k.Exec(user.shell, ExecImage{.text_pages = 8,
                                   .data_pages = config_.editor_buffer_pages + 16,
                                   .stack_pages = 4,
                                   .text_file = shell_image_});
      k.SwitchTo(user.shell);
      k.UserExecute(128);
      user.mail_pipe = k.CreatePipe();
      users_.push_back(user);
    }
  }

  void Run(Calls& k, const std::function<void()>& checkpoint) override {
    for (uint32_t round = 0; round < config_.rounds; ++round) {
      for (uint32_t u = 0; u < config_.users; ++u) {
        const User& user = users_[u];
        k.SwitchTo(user.shell);
        switch ((round + u) % 4) {
          case 0:
            Edit(k);
            break;
          case 1:
            Compile(k, user);
            break;
          case 2:
            Shell(k, user);
            break;
          case 3:
            Mail(k, user);
            break;
        }
      }
      k.RunIdle(Cycles(20'000));
      checkpoint();
    }
  }

 private:
  struct User {
    TaskId shell{0};
    uint32_t mail_pipe = 0;
  };

  void Edit(Calls& k) {
    const FileId autosave = k.CreateFile(4);
    for (uint32_t burst = 0; burst < 6; ++burst) {
      k.UserExecute(256);
      const EffAddr line(kUserDataBase + (burst % 16) * 64);
      k.UserTouchRun(line, 2 * kPageSize, (config_.editor_buffer_pages + 1) / 2,
                     AccessKind::kLoad);
      k.UserTouchRun(line, 8 * kPageSize, (config_.editor_buffer_pages + 7) / 8,
                     AccessKind::kStore);
    }
    k.FileWrite(autosave, 0, 2 * kPageSize, EffAddr(kUserDataBase));
    k.SimulateIoWait(Cycles(k.disk_latency_cycles() / 2));
    k.DeleteFile(autosave);
  }

  void Compile(Calls& k, const User& user) {
    const TaskId cc = k.Fork(user.shell);
    k.SwitchTo(cc);
    k.Exec(cc, ExecImage{.text_pages = 32,
                         .data_pages = config_.compile_ws_pages + 8,
                         .stack_pages = 4,
                         .text_file = cc_image_});
    for (uint32_t pass = 0; pass < 3; ++pass) {
      k.UserExecute(1024);
      const uint32_t offset = static_cast<uint32_t>(rng_.NextBelow(64)) * 64;
      k.UserTouchRun(EffAddr(kUserDataBase + offset), kPageSize, config_.compile_ws_pages,
                     AccessKind::kLoad);
      k.UserTouchRun(EffAddr(kUserDataBase + offset), 3 * kPageSize,
                     (config_.compile_ws_pages + 2) / 3, AccessKind::kStore);
    }
    const FileId object = k.CreateFile(2);
    k.FileWrite(object, 0, 2 * kPageSize, EffAddr(kUserDataBase));
    k.SimulateIoWait(Cycles(k.disk_latency_cycles()));
    k.Exit(cc);
    k.SwitchTo(user.shell);
    k.DeleteFile(object);
  }

  void Shell(Calls& k, const User& user) {
    for (uint32_t cmd = 0; cmd < 2; ++cmd) {
      const TaskId child = k.Fork(user.shell);
      k.SwitchTo(child);
      k.Exec(child, ExecImage{.text_pages = 8,
                              .data_pages = 8,
                              .stack_pages = 2,
                              .text_file = shell_image_});
      k.UserExecute(512);
      k.NullSyscall();
      k.Exit(child);
      k.SwitchTo(user.shell);
    }
  }

  void Mail(Calls& k, const User& user) {
    for (uint32_t m = 0; m < config_.mail_messages; ++m) {
      k.UserTouch(EffAddr(kUserDataBase + 0x2000), AccessKind::kStore);
      k.PipeWrite(user.mail_pipe, EffAddr(kUserDataBase + 0x2000), 512);
      k.PipeRead(user.mail_pipe, EffAddr(kUserDataBase + 0x3000), 512);
    }
    k.FileRead(editor_image_, 0, 4 * kPageSize, EffAddr(kUserDataBase + 0x4000));
  }

  MultiuserConfig config_;
  Rng rng_;
  FileId shell_image_;
  FileId cc_image_;
  FileId editor_image_;
  std::vector<User> users_;
};

// A lat_mmap-style storm at ncpus=4: each round moves to the least-advanced CPU, maps a
// warm page-cache file read-only, loads every page and unmaps it. Region sizes straddle
// the 20-page lazy-flush cutoff, so both the eager per-page flush (with IPI shootdowns)
// and the lazy VSID bump run. No idle task runs and nothing is zero-filled.
class MmapStormDriver : public Driver {
 public:
  static constexpr uint32_t kMinPages = 4;
  static constexpr uint32_t kMaxPages = 40;

  MmapStormDriver(const Sizes& sizes, uint64_t seed) : sizes_(sizes), rng_(seed) {}

  void Setup(Calls& k) override {
    const uint32_t ncpus = k.system().machine().ncpus();
    for (uint32_t cpu = 0; cpu < ncpus; ++cpu) {
      k.SwitchCpu(cpu);
      const TaskId id = k.CreateTask("storm" + std::to_string(cpu));
      k.Exec(id, ExecImage{.text_pages = 8, .data_pages = 32, .stack_pages = 4});
      k.SwitchTo(id);
    }
    // Warm the page cache: every page of the file is resident before the storm starts.
    file_ = k.CreateFile(kMaxPages);
    for (uint32_t page = 0; page < kMaxPages; page += 8) {
      k.FileRead(file_, page * kPageSize, 8 * kPageSize, EffAddr(kUserDataBase));
    }
  }

  void Run(Calls& k, const std::function<void()>& checkpoint) override {
    const Machine& machine = k.system().machine();
    const MmapOptions map{.file = file_, .file_page_offset = 0, .writable = false};
    for (uint32_t round = 0; round < sizes_.storm_rounds; ++round) {
      uint32_t next = 0;
      for (uint32_t cpu = 1; cpu < machine.ncpus(); ++cpu) {
        if (machine.CpuCycles(cpu) < machine.CpuCycles(next)) {
          next = cpu;
        }
      }
      k.SwitchCpu(next);
      const uint32_t pages =
          kMinPages + static_cast<uint32_t>(rng_.NextBelow(kMaxPages - kMinPages + 1));
      const uint32_t start = k.Mmap(pages, map);
      k.UserTouchRun(EffAddr::FromPage(start), kPageSize, pages, AccessKind::kLoad);
      k.Munmap(start, pages);
      if ((round + 1) % sizes_.storm_batch == 0) {
        checkpoint();
      }
    }
  }

 private:
  Sizes sizes_;
  Rng rng_;
  FileId file_;
};

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (const Workload w : {Workload::kKcompile, Workload::kMultiuser, Workload::kMmapStorm}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kKcompile:
      return "kcompile";
    case Workload::kMultiuser:
      return "multiuser";
    case Workload::kMmapStorm:
      return "mmap_storm";
  }
  return "?";
}

MachineConfig MachineFor(Workload workload) {
  switch (workload) {
    case Workload::kKcompile:
      return MachineConfig::Ppc604(133);
    case Workload::kMultiuser:
      return MachineConfig::Ppc603(180);
    case Workload::kMmapStorm: {
      MachineConfig config = MachineConfig::Ppc604(185);
      config.ncpus = 4;
      return config;
    }
  }
  return MachineConfig::Ppc604(185);
}

std::unique_ptr<Driver> MakeDriver(Workload workload, const Sizes& sizes, uint64_t seed) {
  switch (workload) {
    case Workload::kKcompile:
      return std::make_unique<KcompileDriver>(sizes, seed);
    case Workload::kMultiuser:
      return std::make_unique<MultiuserDriver>(sizes, seed);
    case Workload::kMmapStorm:
      return std::make_unique<MmapStormDriver>(sizes, seed);
  }
  return nullptr;
}

std::optional<HwCounters> LibraryCounters(Workload workload, const Sizes& sizes,
                                          uint64_t seed) {
  if (workload == Workload::kMmapStorm) {
    return std::nullopt;
  }
  System system(MachineFor(workload), OptimizationConfig::AllOptimizations());
  if (workload == Workload::kKcompile) {
    return RunKernelCompile(system, CompileConfig(sizes, seed)).counters;
  }
  return RunMultiuserWorkload(system, UsersConfig(sizes, seed)).counters;
}

}  // namespace ppcmm::e2e
