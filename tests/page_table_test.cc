// Two-level page table tests: the three-load walk, map/unmap/update, directory allocation,
// and iteration.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "src/pagetable/page_table.h"
#include "src/sim/check.h"
#include "src/sim/rng.h"

namespace ppcmm {
namespace {

struct Fixture {
  Fixture() : memory(4 * 1024 * 1024), alloc(0, 1024) {}
  PhysicalMemory memory;
  PageAllocator alloc;
};

LinuxPte MakePte(uint32_t frame, bool writable = true) {
  return LinuxPte{.present = true,
                  .writable = writable,
                  .user = true,
                  .accessed = false,
                  .dirty = false,
                  .cache_inhibited = false,
                  .cow = false,
                  .frame = frame};
}

TEST(LinuxPteTest, EncodeDecodeRoundTrip) {
  LinuxPte pte{.present = true,
               .writable = false,
               .user = true,
               .accessed = true,
               .dirty = false,
               .cache_inhibited = true,
               .cow = true,
               .frame = 0xABCDE};
  EXPECT_EQ(LinuxPte::Decode(pte.Encode()), pte);
  EXPECT_EQ(LinuxPte::Decode(0).present, false);
}

TEST(PageTableTest, PgdAllocatedOnConstruction) {
  Fixture f;
  const uint32_t free_before = f.alloc.FreeCount();
  PageTable pt(f.alloc, f.memory);
  EXPECT_EQ(f.alloc.FreeCount(), free_before - 1);
  EXPECT_TRUE(f.alloc.IsAllocated(pt.pgd_frame()));
}

TEST(PageTableTest, MapLookupUnmap) {
  Fixture f;
  PageTable pt(f.alloc, f.memory);
  const EffAddr ea(0x10005000);
  pt.Map(ea, MakePte(0x77));
  const auto found = pt.LookupQuiet(ea);
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(found->present);
  EXPECT_EQ(found->frame, 0x77u);
  EXPECT_EQ(pt.PresentCount(), 1u);

  const auto old = pt.Unmap(ea);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->frame, 0x77u);
  EXPECT_EQ(pt.PresentCount(), 0u);
  const auto gone = pt.LookupQuiet(ea);
  EXPECT_TRUE(!gone.has_value() || !gone->present);
}

TEST(PageTableTest, LookupChargesTwoLoads) {
  Fixture f;
  PageTable pt(f.alloc, f.memory);
  pt.Map(EffAddr(0x10000000), MakePte(1));
  NullMemCharger charger;
  pt.Lookup(EffAddr(0x10000000), charger);
  EXPECT_EQ(charger.refs(), 2u);  // PGD entry + PTE entry; the task-struct load is the caller's
  // A region with no PTE page costs only the PGD probe.
  NullMemCharger charger2;
  EXPECT_FALSE(pt.Lookup(EffAddr(0x50000000), charger2).has_value());
  EXPECT_EQ(charger2.refs(), 1u);
}

TEST(PageTableTest, PtePageAllocatedPerFourMegabytes) {
  Fixture f;
  PageTable pt(f.alloc, f.memory);
  const uint32_t before = f.alloc.FreeCount();
  pt.Map(EffAddr(0x10000000), MakePte(1));
  pt.Map(EffAddr(0x10001000), MakePte(2));  // same 4 MB region: no new directory
  EXPECT_EQ(f.alloc.FreeCount(), before - 1);
  pt.Map(EffAddr(0x10400000), MakePte(3));  // next region: one more
  EXPECT_EQ(f.alloc.FreeCount(), before - 2);
}

TEST(PageTableTest, DestructorReleasesDirectories) {
  Fixture f;
  const uint32_t before = f.alloc.FreeCount();
  {
    PageTable pt(f.alloc, f.memory);
    pt.Map(EffAddr(0x10000000), MakePte(1));
    pt.Map(EffAddr(0x70000000), MakePte(2));
  }
  EXPECT_EQ(f.alloc.FreeCount(), before);
}

TEST(PageTableTest, UpdateRewritesFlags) {
  Fixture f;
  PageTable pt(f.alloc, f.memory);
  const EffAddr ea(0x20000000);
  pt.Map(ea, MakePte(5, /*writable=*/true));
  pt.Update(ea, [](LinuxPte& pte) {
    pte.writable = false;
    pte.cow = true;
  });
  const auto pte = pt.LookupQuiet(ea);
  ASSERT_TRUE(pte.has_value());
  EXPECT_FALSE(pte->writable);
  EXPECT_TRUE(pte->cow);
  EXPECT_EQ(pte->frame, 5u);
}

TEST(PageTableTest, UpdateMisuseThrows) {
  Fixture f;
  PageTable pt(f.alloc, f.memory);
  EXPECT_THROW(pt.Update(EffAddr(0x30000000), [](LinuxPte&) {}), CheckFailure);
  pt.Map(EffAddr(0x30000000), MakePte(1));
  EXPECT_THROW(pt.Update(EffAddr(0x30001000), [](LinuxPte&) {}), CheckFailure);
  EXPECT_THROW(pt.Update(EffAddr(0x30000000), [](LinuxPte& pte) { pte.present = false; }),
               CheckFailure);
  EXPECT_THROW(pt.Map(EffAddr(0x30002000), LinuxPte{}), CheckFailure);  // non-present map
}

TEST(PageTableTest, ForEachPresentVisitsExactlyTheMappedPages) {
  Fixture f;
  PageTable pt(f.alloc, f.memory);
  std::map<uint32_t, uint32_t> expected;  // eff page -> frame
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const uint32_t page = static_cast<uint32_t>(rng.NextBelow(1 << 20));
    const uint32_t frame = static_cast<uint32_t>(100 + i);
    pt.Map(EffAddr::FromPage(page), MakePte(frame));
    expected[page] = frame;
  }
  std::map<uint32_t, uint32_t> seen;
  pt.ForEachPresent([&](EffAddr ea, const LinuxPte& pte) {
    EXPECT_EQ(ea.PageOffset(), 0u);
    seen[ea.EffPageNumber()] = pte.frame;
  });
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(pt.PresentCount(), expected.size());
}

// Holds the table to a brute-force reference: ForEachPresent must visit exactly the
// reference's entries in ascending EA order, and the present-entry index must agree with a
// full scan of the tree.
void ExpectMatchesReference(const PageTable& pt, const std::map<uint32_t, LinuxPte>& ref) {
  std::vector<std::pair<uint32_t, LinuxPte>> seen;
  pt.ForEachPresent([&](EffAddr ea, const LinuxPte& pte) {
    seen.emplace_back(ea.EffPageNumber(), pte);
  });
  EXPECT_EQ(seen, (std::vector<std::pair<uint32_t, LinuxPte>>(ref.begin(), ref.end())));
  EXPECT_EQ(pt.PresentCount(), ref.size());
  EXPECT_FALSE(pt.CheckPresentIndex().has_value());
}

TEST(PageTableTest, IndexTracksRandomMapUnmapRemapUpdateStream) {
  Fixture f;
  const uint32_t free_before = f.alloc.FreeCount();
  {
    PageTable pt(f.alloc, f.memory);
    // The index's edges: the first and last PGD slot, and entries at both ends of a PTE
    // page and on each side of a 64-bit word boundary.
    std::vector<uint32_t> pages;
    for (const uint32_t g : {0u, 1u, 1023u}) {
      for (const uint32_t i : {0u, 1u, 63u, 64u, 65u, 1023u}) {
        pages.push_back(g << 10 | i);
      }
    }
    std::map<uint32_t, LinuxPte> ref;
    Rng rng(13);
    for (int op = 0; op < 3000 && !HasFailure(); ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const uint32_t page = pages[rng.NextBelow(pages.size())];
      switch (rng.NextBelow(4)) {
        case 0:
        case 1: {  // map, or remap a present page to a new frame
          const LinuxPte pte = MakePte(static_cast<uint32_t>(rng.NextBelow(1 << 20)),
                                       rng.Chance(1, 2));
          pt.Map(EffAddr::FromPage(page), pte);
          ref[page] = pte;
          break;
        }
        case 2: {
          const std::optional<LinuxPte> old = pt.Unmap(EffAddr::FromPage(page));
          const auto it = ref.find(page);
          EXPECT_EQ(old.has_value(), it != ref.end());
          if (it != ref.end()) {
            EXPECT_EQ(*old, it->second);
            ref.erase(it);
          }
          break;
        }
        default: {
          if (ref.empty()) {
            break;
          }
          auto it = std::next(ref.begin(), static_cast<long>(rng.NextBelow(ref.size())));
          const auto flip = [](LinuxPte& pte) {
            pte.dirty = !pte.dirty;
            pte.accessed = true;
          };
          pt.Update(EffAddr::FromPage(it->first), flip);
          flip(it->second);
          break;
        }
      }
      ExpectMatchesReference(pt, ref);
    }

    // Empty PGD slot 0's PTE page entry by entry, then refill it: the page stays allocated
    // and the index follows it down to nothing and back.
    const uint32_t free_with_tables = f.alloc.FreeCount();
    for (uint32_t i = 0; i < kPteEntriesPerPage; ++i) {
      if (pt.Unmap(EffAddr::FromPage(i)).has_value()) {
        ref.erase(i);
        ExpectMatchesReference(pt, ref);
      }
    }
    for (const uint32_t i : {1023u, 64u, 0u, 63u}) {
      pt.Map(EffAddr::FromPage(i), MakePte(i));
      ref[i] = MakePte(i);
      ExpectMatchesReference(pt, ref);
    }
    EXPECT_EQ(f.alloc.FreeCount(), free_with_tables);
    EXPECT_EQ(f.alloc.FreeCount(), free_before - 4);  // the PGD and three PTE pages
  }
  EXPECT_EQ(f.alloc.FreeCount(), free_before);
}

TEST(PageTableTest, RemapReplacesWithoutLeakingPresentCount) {
  Fixture f;
  PageTable pt(f.alloc, f.memory);
  pt.Map(EffAddr(0x10000000), MakePte(1));
  pt.Map(EffAddr(0x10000000), MakePte(2));
  EXPECT_EQ(pt.PresentCount(), 1u);
  EXPECT_EQ(pt.LookupQuiet(EffAddr(0x10000000))->frame, 2u);
}

TEST(PageTableTest, UnmapAbsentReturnsNothing) {
  Fixture f;
  PageTable pt(f.alloc, f.memory);
  EXPECT_FALSE(pt.Unmap(EffAddr(0x10000000)).has_value());
  pt.Map(EffAddr(0x10000000), MakePte(1));
  EXPECT_FALSE(pt.Unmap(EffAddr(0x10001000)).has_value());
}

}  // namespace
}  // namespace ppcmm
