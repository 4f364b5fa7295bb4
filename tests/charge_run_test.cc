// The run-charging contract: HTAB scans and page zeroing charge their memory references as
// runs (MemCharger::ChargeRun → Machine::TouchDataRun), and that must be bit-identical to
// charging every reference on its own, in the order the per-slot loops used to. Each case
// drives the same operation on two machines: one through DataMemCharger, one through a
// reference charger that overrides only Charge and so inherits the base per-reference
// loop. The reference charger records what it sees, and that must equal a model of the
// per-slot scans. Afterwards the HTAB contents, every CPU's dcache stats and clock, the L2
// stats, the global cycle count and the attribution ledger must match, and stay matching
// through an aliasing sweep that exposes dirty bits and LRU order. Cases cover page tables
// cached and uncached, the 604, 603 and 604+L2 profiles, and ncpus=4 with CPU 2 current.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/kernel/mem_manager.h"
#include "src/mmu/hash_table.h"
#include "src/mmu/mmu.h"
#include "src/sim/machine.h"

namespace ppcmm {
namespace {

constexpr uint32_t kPtegs = 64;
constexpr uint32_t kPtegMask = kPtegs - 1;
const PhysAddr kHtabBase(0x180000);
constexpr uint64_t kRamBytes = 4ull * 1024 * 1024;

// One charged reference.
struct Ref {
  uint32_t pa;
  bool is_write;
  bool operator==(const Ref&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Ref& r) {
  return out << (r.is_write ? "W" : "R") << std::hex << r.pa << std::dec;
}

using Refs = std::vector<Ref>;

// Overrides only Charge: ChargeRun falls back to the base class's per-reference loop.
// Records every reference it charges.
class PerReferenceCharger : public MemCharger {
 public:
  PerReferenceCharger(Machine& machine, bool cached) : machine_(machine), cached_(cached) {}
  void Charge(PhysAddr pa, bool is_write) override {
    refs_.push_back({pa.value, is_write});
    machine_.TouchData(pa, is_write, cached_);
  }
  Refs TakeRefs() { return std::exchange(refs_, {}); }

 private:
  Machine& machine_;
  bool cached_;
  Refs refs_;
};

class SetVsidOracle : public VsidOracle {
 public:
  void MarkLive(uint32_t v) { live_.insert(v); }
  void Retire(uint32_t v) { live_.erase(v); }
  bool IsLive(Vsid v) const override { return live_.contains(v.value); }

 private:
  std::unordered_set<uint32_t> live_;
};

// A PTE of `vsid` whose primary hash is `pteg`; `j` tells apart pages of one VSID there.
HashedPte PteIn(uint32_t pteg, uint32_t vsid, uint32_t j) {
  return HashedPte{.valid = true,
                   .vsid = Vsid(vsid),
                   .page_index = ((pteg ^ vsid) & kPtegMask) | (j * kPtegs),
                   .rpn = 0x100 + j,
                   .cache_inhibited = false,
                   .writable = true,
                   .referenced = false,
                   .changed = false};
}

bool SamePte(const HashedPte& a, const HashedPte& b) {
  return a.valid == b.valid && a.vsid.value == b.vsid.value && a.page_index == b.page_index &&
         a.rpn == b.rpn && a.changed == b.changed;
}

// Models of the per-slot scans: one read per probed slot, in slot order, with a slot's
// write right after its read. `before` is the table as the operation found it.
void AddRef(Refs& refs, const HashTable& t, uint32_t g, uint32_t s, bool is_write) {
  refs.push_back({t.SlotAddr(g, s).value, is_write});
}

// Search (no write), MarkChanged and InvalidatePage (a write at the hit).
Refs ProbeModel(const HashTable& before, VirtPage vp, bool write_at_hit) {
  Refs refs;
  for (uint32_t g : {before.PrimaryPteg(vp), before.SecondaryPteg(vp)}) {
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      AddRef(refs, before, g, s, false);
      if (before.At(g, s).Matches(vp)) {
        if (write_at_hit) {
          AddRef(refs, before, g, s, true);
        }
        return refs;
      }
    }
  }
  return refs;
}

// Insert: the free-slot pass, then (both PTEGs full) a write at the replaced slot.
Refs InsertModel(const HashTable& before, const HashTable& after, VirtPage vp) {
  Refs refs;
  const uint32_t groups[2] = {before.PrimaryPteg(vp), before.SecondaryPteg(vp)};
  for (uint32_t g : groups) {
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      AddRef(refs, before, g, s, false);
      if (!before.At(g, s).valid) {
        AddRef(refs, before, g, s, true);
        return refs;
      }
    }
  }
  for (uint32_t g : groups) {
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      if (!SamePte(before.At(g, s), after.At(g, s))) {
        AddRef(refs, before, g, s, true);
      }
    }
  }
  return refs;
}

// ReclaimZombies from PTEG `cursor`.
Refs ReclaimModel(const HashTable& before, uint32_t cursor, uint32_t max_ptegs,
                  const VsidOracle& oracle) {
  Refs refs;
  const uint32_t limit = std::min(max_ptegs, before.num_ptegs());
  for (uint32_t i = 0; i < limit; ++i) {
    const uint32_t g = (cursor + i) % before.num_ptegs();
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      AddRef(refs, before, g, s, false);
      const HashedPte& pte = before.At(g, s);
      if (pte.valid && !oracle.IsLive(pte.vsid)) {
        AddRef(refs, before, g, s, true);
      }
    }
  }
  return refs;
}

struct MachineCase {
  const char* name;
  MachineConfig (*profile)(uint32_t mhz);
  uint32_t ncpus;
  bool cached;
};

// gtest prints the parameter into the test's listed name; keep that stable.
void PrintTo(const MachineCase& c, std::ostream* out) { *out << c.name; }

MachineConfig Ppc604WithL2Default(uint32_t mhz) { return MachineConfig::Ppc604WithL2(mhz); }

MachineConfig ConfigFor(const MachineCase& c) {
  MachineConfig config = c.profile(133);
  config.ncpus = c.ncpus;
  config.ram_bytes = kRamBytes;
  config.htab_ptegs = kPtegs;
  return config;
}

std::unique_ptr<Machine> MakeMachine(const MachineCase& c) {
  auto machine = std::make_unique<Machine>(ConfigFor(c));
  if (c.ncpus > 1) {
    machine->SetCurrentCpu(2);
  }
  machine->attr().SetEnabled(true);
  return machine;
}

void AppendStats(std::ostringstream& out, const char* name, const CacheStats& s) {
  out << name << " accesses=" << s.accesses << " hits=" << s.hits << " misses=" << s.misses
      << " evictions=" << s.evictions << " writebacks=" << s.dirty_writebacks
      << " uncached=" << s.uncached_accesses << " prefetches=" << s.prefetches << "\n";
}

// Everything a charged reference can change, as text (gtest diffs multi-line strings).
std::string Snapshot(Machine& machine, const HashTable* htab) {
  std::ostringstream out;
  out << "cycles=" << machine.counters().cycles << "\n";
  for (uint32_t cpu = 0; cpu < machine.ncpus(); ++cpu) {
    out << "cpu" << cpu << " clock=" << machine.CpuCycles(cpu) << "\n";
    AppendStats(out, "  dcache", machine.dcache(cpu).stats());
  }
  if (machine.l2cache() != nullptr) {
    AppendStats(out, "l2", machine.l2cache()->stats());
  }
  out << "attr total=" << machine.attr().TotalAttributed() << "\n";
  for (const CycleLedger::Cell& cell : machine.attr().Cells()) {
    out << "  cell";
    for (AttrCause cause : cell.path) {
      out << "/" << AttrCauseName(cause);
    }
    out << " task=" << cell.task << " cycles=" << cell.cycles << "\n";
  }
  if (htab != nullptr) {
    for (uint32_t g = 0; g < htab->num_ptegs(); ++g) {
      for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
        const HashedPte& p = htab->At(g, s);
        if (p.valid || p.vsid.value != 0) {
          out << "slot " << g << "." << s << " v=" << p.valid << " vsid=" << p.vsid.value
              << " pi=" << p.page_index << " rpn=" << p.rpn << " c=" << p.changed << "\n";
        }
      }
    }
  }
  return out.str();
}

// Reads one aliasing line per dcache way for every line of [lo, lo + bytes): evictions
// and write-backs then depend on the LRU order and dirty bits the operation left behind.
void AliasingSweep(Machine& machine, PhysAddr lo, uint32_t bytes) {
  const CacheGeometry& g = machine.config().dcache;
  const uint32_t way_bytes = g.size_bytes / g.associativity;
  for (uint32_t way = 1; way <= g.associativity; ++way) {
    for (uint32_t off = 0; off < bytes; off += g.line_bytes) {
      machine.TouchData(lo + (off + way * way_bytes), /*is_write=*/false);
    }
  }
}

// Two HTAB rigs driven in lockstep: `run` charges through DataMemCharger, `ref` through
// the per-reference loop.
class HtabChargeRunTest : public ::testing::TestWithParam<MachineCase> {
 protected:
  HtabChargeRunTest()
      : run_(MakeMachine(GetParam())),
        ref_(MakeMachine(GetParam())),
        run_htab_(kPtegs, kHtabBase),
        ref_htab_(kPtegs, kHtabBase),
        run_charger_(*run_, GetParam().cached),
        ref_charger_(*ref_, GetParam().cached) {}

  // Applies `setup` to both tables without charging anything.
  template <typename Setup>
  void Populate(Setup setup) {
    NullMemCharger null_charger;
    setup(run_htab_, null_charger);
    setup(ref_htab_, null_charger);
  }

  // Runs `op` on both rigs under an attribution scope; checks results and state agree, and
  // the references charged match `model(before, after)`; then checks the state again after
  // an aliasing sweep over the table.
  template <typename Model, typename Op>
  void Both(const std::string& label, Model model, Op op) {
    SCOPED_TRACE(label);
    const HashTable before = ref_htab_;
    {
      CycleScope scope(*run_, AttrCause::kIdleReclaim);
      const auto got = op(run_htab_, run_charger_);
      CycleScope ref_scope(*ref_, AttrCause::kIdleReclaim);
      const auto want = op(ref_htab_, ref_charger_);
      EXPECT_EQ(got, want);
    }
    EXPECT_EQ(ref_charger_.TakeRefs(), model(before, ref_htab_));
    EXPECT_EQ(Snapshot(*run_, &run_htab_), Snapshot(*ref_, &ref_htab_));
    AliasingSweep(*run_, kHtabBase, run_htab_.SizeBytes());
    AliasingSweep(*ref_, kHtabBase, ref_htab_.SizeBytes());
    EXPECT_EQ(Snapshot(*run_, nullptr), Snapshot(*ref_, nullptr));
  }

  void ClearTables() {
    run_htab_.Clear();
    ref_htab_.Clear();
  }

  // Fills the target's primary PTEG with min(depth, 8) fillers and its secondary PTEG with
  // the rest, so the target's next free slot (or its slot once inserted) is at `depth`.
  void FillAhead(const HashedPte& target, uint32_t depth) {
    const uint32_t primary = run_htab_.PrimaryPteg(target.virt_page());
    const uint32_t secondary = run_htab_.SecondaryPteg(target.virt_page());
    Populate([&](HashTable& htab, MemCharger& charger) {
      for (uint32_t i = 0; i < depth; ++i) {
        const uint32_t pteg = i < kPtesPerPteg ? primary : secondary;
        htab.Insert(PteIn(pteg, 0x200 + i, i), oracle_, charger);
      }
    });
  }

  std::unique_ptr<Machine> run_;
  std::unique_ptr<Machine> ref_;
  HashTable run_htab_;
  HashTable ref_htab_;
  DataMemCharger run_charger_;
  PerReferenceCharger ref_charger_;
  SetVsidOracle oracle_;
};

struct SearchOutcome {
  bool found;
  uint32_t rpn;
  uint32_t refs;
  bool operator==(const SearchOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& out, const SearchOutcome& o) {
  return out << "found=" << o.found << " rpn=" << o.rpn << " refs=" << o.refs;
}

TEST_P(HtabChargeRunTest, SearchAtEveryDepthAndMiss) {
  const HashedPte target = PteIn(5, 0x40, 0);
  const VirtPage vp = target.virt_page();
  auto model = [&](const HashTable& before, const HashTable&) {
    return ProbeModel(before, vp, /*write_at_hit=*/false);
  };
  for (uint32_t depth = 0; depth < 2 * kPtesPerPteg; ++depth) {
    ClearTables();
    FillAhead(target, depth);
    Populate([&](HashTable& htab, MemCharger& c) { htab.Insert(target, oracle_, c); });
    Both("search depth " + std::to_string(depth), model, [&](HashTable& htab, MemCharger& c) {
      const HtabSearchResult r = htab.Search(vp, c);
      EXPECT_EQ(r.memory_refs, depth + 1);
      return SearchOutcome{r.found, r.pte.rpn, r.memory_refs};
    });
  }
  for (uint32_t depth : {0u, 5u, 2 * kPtesPerPteg}) {
    ClearTables();
    FillAhead(target, depth);
    Both("search miss " + std::to_string(depth), model, [&](HashTable& htab, MemCharger& c) {
      const HtabSearchResult r = htab.Search(vp, c);
      EXPECT_FALSE(r.found);
      return SearchOutcome{r.found, r.pte.rpn, r.memory_refs};
    });
  }
}

TEST_P(HtabChargeRunTest, InvalidatePageAndMarkChanged) {
  const HashedPte target = PteIn(9, 0x41, 0);
  const VirtPage vp = target.virt_page();
  auto model = [&](const HashTable& before, const HashTable&) {
    return ProbeModel(before, vp, /*write_at_hit=*/true);
  };
  for (uint32_t depth = 0; depth <= 2 * kPtesPerPteg; ++depth) {
    const bool miss = depth == 2 * kPtesPerPteg;
    ClearTables();
    FillAhead(target, depth);
    if (!miss) {
      Populate([&](HashTable& htab, MemCharger& c) { htab.Insert(target, oracle_, c); });
    }
    Both("mark changed " + std::to_string(depth), model,
         [&](HashTable& htab, MemCharger& c) { return htab.MarkChanged(vp, c); });
    Both("invalidate " + std::to_string(depth), model, [&](HashTable& htab, MemCharger& c) {
      const std::optional<HashedPte> old = htab.InvalidatePage(vp, c);
      EXPECT_EQ(old.has_value(), !miss);
      return old.has_value() && old->changed;
    });
  }
}

TEST_P(HtabChargeRunTest, InsertAtEveryFreeSlotAndReplace) {
  oracle_.MarkLive(0x42);
  const HashedPte target = PteIn(17, 0x42, 0);
  auto model = [&](const HashTable& before, const HashTable& after) {
    return InsertModel(before, after, target.virt_page());
  };
  for (uint32_t depth = 0; depth <= 2 * kPtesPerPteg; ++depth) {
    ClearTables();
    FillAhead(target, depth);
    Both("insert " + std::to_string(depth), model,
         [&](HashTable& htab, MemCharger& c) { return htab.Insert(target, oracle_, c); });
  }
}

TEST_P(HtabChargeRunTest, ReclaimZombiesAtRunEdges) {
  // Zombie positions as flat slot indices into a 4-PTEG pass starting at PTEG 10: the first
  // slot, each side of the first 32-byte line boundary, each side of the PTEG boundary, and
  // the last slot.
  const uint32_t first = 10 * kPtesPerPteg;
  for (const std::vector<uint32_t>& zombies : std::vector<std::vector<uint32_t>>{
           {},
           {first},
           {first + 3},
           {first + 4},
           {first + 3, first + 4},
           {first + 7, first + 8},
           {first + 31},
           {first, first + 1, first + 2, first + 12, first + 30, first + 31}}) {
    ClearTables();
    Populate([&](HashTable& htab, MemCharger& c) {
      htab.ReclaimZombies(10, oracle_, c);  // park the cursor on PTEG 10
      for (uint32_t g = 8; g < 16; ++g) {
        for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
          const uint32_t flat = g * kPtesPerPteg + s;
          const bool zombie = std::find(zombies.begin(), zombies.end(), flat) != zombies.end();
          const uint32_t vsid = zombie ? 0x300 + flat : 0x500;
          oracle_.MarkLive(vsid);
          htab.Insert(PteIn(g, vsid, s + 1), oracle_, c);
        }
      }
    });
    for (uint32_t z : zombies) {
      oracle_.Retire(0x300 + z);
    }
    auto model = [&](const HashTable& before, const HashTable&) {
      return ReclaimModel(before, 10, 4, oracle_);
    };
    Both("reclaim " + std::to_string(zombies.size()), model, [&](HashTable& htab, MemCharger& c) {
      const uint32_t reclaimed = htab.ReclaimZombies(4, oracle_, c);
      EXPECT_EQ(reclaimed, zombies.size());
      return reclaimed;
    });
  }
}

TEST_P(HtabChargeRunTest, ReclaimZombiesAcrossCursorWrap) {
  // Zombies scattered over the whole table, including the last slot before the wrap
  // (vsid 0x603) and the first slot after it (vsid 0x600).
  Populate([&](HashTable& htab, MemCharger& c) {
    for (uint32_t g = 0; g < kPtegs; ++g) {
      for (uint32_t s = 0; s < kPtesPerPteg; s += 1 + (g % 3)) {
        const uint32_t vsid = 0x600 + (g * 7 + s) % 5;
        oracle_.MarkLive(vsid);
        htab.Insert(PteIn(g, vsid, s + 1), oracle_, c);
      }
    }
    htab.ReclaimZombies(kPtegs - 3, oracle_, c);  // park the cursor three PTEGs before the end
  });
  auto reclaim = [&](uint32_t max_ptegs) {
    return [this, max_ptegs](HashTable& htab, MemCharger& c) {
      return htab.ReclaimZombies(max_ptegs, oracle_, c);
    };
  };
  auto model = [&](uint32_t cursor, uint32_t max_ptegs) {
    return [this, cursor, max_ptegs](const HashTable& before, const HashTable&) {
      return ReclaimModel(before, cursor, max_ptegs, oracle_);
    };
  };
  oracle_.Retire(0x600);
  oracle_.Retire(0x603);
  Both("reclaim wrap", model(kPtegs - 3, 6), reclaim(6));
  oracle_.Retire(0x601);
  Both("reclaim more than the table", model(3, 3 * kPtegs), reclaim(3 * kPtegs));
  Both("reclaim clean table", model(3, kPtegs + 5), reclaim(kPtegs + 5));
}

const MachineCase kMachineCases[] = {
    {"ppc604_cached", &MachineConfig::Ppc604, 1, true},
    {"ppc604_uncached", &MachineConfig::Ppc604, 1, false},
    {"ppc603_cached", &MachineConfig::Ppc603, 1, true},
    {"ppc603_uncached", &MachineConfig::Ppc603, 1, false},
    {"ppc604_l2_cached", &Ppc604WithL2Default, 1, true},
    {"ppc604_l2_uncached", &Ppc604WithL2Default, 1, false},
    {"ppc604_smp4_cached", &MachineConfig::Ppc604, 4, true},
    {"ppc604_smp4_uncached", &MachineConfig::Ppc604, 4, false},
    {"ppc603_smp4_cached", &MachineConfig::Ppc603, 4, true},
    {"ppc604_l2_smp4_cached", &Ppc604WithL2Default, 4, true},
};

std::string CaseName(const ::testing::TestParamInfo<MachineCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Machines, HtabChargeRunTest, ::testing::ValuesIn(kMachineCases),
                         CaseName);

// Idle and demand page zeroing through MemManager's public entry points, against the old
// per-line TouchData + AddCycles loop on a twin machine.
class ZeroChargeRunTest : public ::testing::TestWithParam<MachineCase> {
 protected:
  static constexpr uint32_t kFirstFrame = 256;
  static constexpr uint32_t kFrames = 256;
  // The frames the cases zero come from the bottom of the allocator's range.
  static constexpr uint32_t kZeroedFrames = 16;

  ZeroChargeRunTest()
      : run_(MakeMachine(GetParam())),
        ref_(MakeMachine(GetParam())),
        run_alloc_(kFirstFrame, kFrames),
        ref_alloc_(kFirstFrame, kFrames) {}

  void ReferenceZero(uint32_t frame, bool cached) {
    const uint32_t line = ref_->config().dcache.line_bytes;
    for (uint32_t offset = 0; offset < kPageSize; offset += line) {
      ref_->TouchData(PhysAddr::FromFrame(frame, offset), /*is_write=*/true, cached);
      ref_->AddCycles(Cycles(line / 4 * 2));
    }
  }

  // Reads and writes a few lines of the frames the cases zero, on both machines, so
  // zeroing meets resident, dirty and absent lines.
  void Disturb(uint32_t round) {
    for (uint32_t i = 0; i < 48; ++i) {
      const PhysAddr pa =
          PhysAddr::FromFrame(kFirstFrame + (round + i) % kZeroedFrames, (i * 160) % kPageSize);
      run_->TouchData(pa, i % 3 == 0);
      ref_->TouchData(pa, i % 3 == 0);
    }
  }

  void ExpectIdentical(const std::string& label) {
    SCOPED_TRACE(label);
    EXPECT_EQ(Snapshot(*run_, nullptr), Snapshot(*ref_, nullptr));
    AliasingSweep(*run_, PhysAddr::FromFrame(kFirstFrame), kZeroedFrames * kPageSize);
    AliasingSweep(*ref_, PhysAddr::FromFrame(kFirstFrame), kZeroedFrames * kPageSize);
    EXPECT_EQ(Snapshot(*run_, nullptr), Snapshot(*ref_, nullptr));
  }

  std::unique_ptr<Machine> run_;
  std::unique_ptr<Machine> ref_;
  PageAllocator run_alloc_;
  PageAllocator ref_alloc_;
};

TEST_P(ZeroChargeRunTest, IdleZeroingUnderEveryPolicy) {
  for (IdleZeroPolicy policy : {IdleZeroPolicy::kCached, IdleZeroPolicy::kUncachedNoList,
                                IdleZeroPolicy::kUncachedWithList}) {
    OptimizationConfig config;
    config.idle_zero = policy;
    MemManager mem(*run_, run_alloc_, config);
    const bool cached = policy == IdleZeroPolicy::kCached;
    for (uint32_t round = 0; round < 6; ++round) {
      Disturb(round);
      {
        CycleScope scope(*run_, AttrCause::kIdleZero);
        ASSERT_TRUE(mem.IdleZeroOnePage());
      }
      CycleScope scope(*ref_, AttrCause::kIdleZero);
      const uint32_t frame = *ref_alloc_.Alloc();
      ReferenceZero(frame, cached);
      if (policy == IdleZeroPolicy::kUncachedNoList) {
        ref_alloc_.DecRef(frame);
      }
    }
    ExpectIdentical(std::string("idle policy ") + std::to_string(static_cast<int>(policy)));
  }
}

TEST_P(ZeroChargeRunTest, DemandZeroing) {
  OptimizationConfig config;  // idle_zero off: every get_free_page() zeroes on demand
  MemManager mem(*run_, run_alloc_, config);
  for (uint32_t round = 0; round < 6; ++round) {
    Disturb(round);
    uint32_t frame = 0;
    {
      CycleScope scope(*run_, AttrCause::kFaultAnon);
      frame = mem.GetFreePage();
    }
    CycleScope scope(*ref_, AttrCause::kFaultAnon);
    ref_->AddCycles(Cycles(2));  // the pre-cleared list check
    const uint32_t ref_frame = *ref_alloc_.Alloc();
    EXPECT_EQ(frame, ref_frame);
    ReferenceZero(ref_frame, /*cached=*/true);
  }
  ExpectIdentical("demand");
}

// Page zeroing is charged per policy, not per page-table caching: one case per profile and
// CPU count is enough.
const MachineCase kZeroCases[] = {
    {"ppc604", &MachineConfig::Ppc604, 1, true},
    {"ppc603", &MachineConfig::Ppc603, 1, true},
    {"ppc604_l2", &Ppc604WithL2Default, 1, true},
    {"ppc604_smp4", &MachineConfig::Ppc604, 4, true},
    {"ppc604_l2_smp4", &Ppc604WithL2Default, 4, true},
};

INSTANTIATE_TEST_SUITE_P(Machines, ZeroChargeRunTest, ::testing::ValuesIn(kZeroCases),
                         CaseName);

}  // namespace
}  // namespace ppcmm
