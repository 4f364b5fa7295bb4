// File read/write path tests: unaligned offsets, page-crossing copies, write-then-read
// round trips, copies into copy-on-write pages — the CopyUserKernel edge cases the LmBench
// drivers never hit.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"

namespace ppcmm {
namespace {

TaskId SpawnStd(Kernel& kernel) {
  const TaskId id = kernel.CreateTask("t");
  kernel.Exec(id, ExecImage{.text_pages = 4, .data_pages = 64, .stack_pages = 2});
  kernel.SwitchTo(id);
  return id;
}

// The byte the page cache synthesizes for a never-written file at `abs_offset`.
uint8_t FileByte(FileId file, uint32_t abs_offset) {
  const uint32_t page = abs_offset >> kPageShift;
  const uint32_t in_page = abs_offset & kPageOffsetMask;
  const uint32_t word = (file.value * 0x9E3779B9u) ^ (page << 16) ^ (in_page & ~3u);
  return static_cast<uint8_t>(word >> ((in_page & 3) * 8));
}

TEST(FileIoTest, WriteThenReadRoundTripsUserBytes) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel);
  const FileId file = kernel.page_cache().CreateFile(4);

  // Fill the user source buffer with a pattern through simulated memory.
  const EffAddr src(kUserDataBase);
  kernel.UserTouchRange(src, 2 * kPageSize, kPageSize, AccessKind::kStore);
  for (uint32_t page = 0; page < 2; ++page) {
    const uint32_t frame =
        kernel.task(t).mm->page_table->LookupQuiet(src + page * kPageSize)->frame;
    for (uint32_t off = 0; off < kPageSize; off += 4) {
      sys.machine().memory().Write32(PhysAddr::FromFrame(frame, off),
                                     0xAB000000 + page * kPageSize + off);
    }
  }

  kernel.FileWrite(file, 0, 2 * kPageSize, src);

  // Read back into a different buffer and verify every word.
  const EffAddr dst(kUserDataBase + 0x10000);
  kernel.FileRead(file, 0, 2 * kPageSize, dst);
  for (uint32_t page = 0; page < 2; ++page) {
    const uint32_t frame =
        kernel.task(t).mm->page_table->LookupQuiet(dst + page * kPageSize)->frame;
    for (uint32_t off = 0; off < kPageSize; off += 256) {
      ASSERT_EQ(sys.machine().memory().Read32(PhysAddr::FromFrame(frame, off)),
                0xAB000000 + page * kPageSize + off);
    }
  }
}

TEST(FileIoTest, UnalignedOffsetsCrossPageBoundaries) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel);
  const FileId file = kernel.page_cache().CreateFile(4);

  // Read 600 bytes starting 100 bytes before a page boundary, into a destination that
  // itself straddles a page boundary.
  const uint32_t file_offset = kPageSize - 100;
  const EffAddr dst(kUserDataBase + kPageSize - 200);
  kernel.FileRead(file, file_offset, 600, dst);

  for (uint32_t i = 0; i < 600; i += 37) {
    const EffAddr ea = dst + i;
    const auto pte = kernel.task(t).mm->page_table->LookupQuiet(ea);
    ASSERT_TRUE(pte.has_value() && pte->present) << "at +" << i;
    const uint8_t got = sys.machine().memory().Read8(
        PhysAddr::FromFrame(pte->frame, ea.PageOffset()));
    ASSERT_EQ(got, FileByte(file, file_offset + i)) << "at +" << i;
  }
}

TEST(FileIoTest, WritesPersistAcrossEviction) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel);
  const FileId file = kernel.page_cache().CreateFile(2);
  const EffAddr buf(kUserDataBase);
  kernel.UserTouch(buf, AccessKind::kStore);
  kernel.FileWrite(file, 64, 16, buf);
  // Note: eviction discards cached contents and refills from the synthetic "disk" — this
  // kernel has no writeback daemon, so dirty page-cache data lives only while cached. The
  // test documents that behaviour: after eviction the original synthesized bytes return.
  bool miss = false;
  const uint32_t frame_before = kernel.page_cache().GetPage(file, 0, &miss);
  EXPECT_FALSE(miss);
  kernel.page_cache().EvictFile(file);
  const uint32_t frame_after = kernel.page_cache().GetPage(file, 0, &miss);
  EXPECT_TRUE(miss);
  (void)frame_before;
  const uint32_t word = sys.machine().memory().Read32(PhysAddr::FromFrame(frame_after, 64));
  EXPECT_EQ(word, (file.value * 0x9E3779B9u) ^ 0u ^ 64u);
}

TEST(FileIoTest, PipeCopiesAtOddOffsets) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel);
  const uint32_t pipe = kernel.CreatePipe();
  // Source straddling a page boundary at a 4-byte-aligned but line-unaligned offset.
  const EffAddr src(kUserDataBase + kPageSize - 44);
  kernel.UserTouch(src, AccessKind::kStore);
  kernel.UserTouch(src + 80, AccessKind::kStore);
  const uint32_t f0 = kernel.task(t).mm->page_table->LookupQuiet(src)->frame;
  for (uint32_t i = 0; i < 44; i += 4) {
    sys.machine().memory().Write32(PhysAddr::FromFrame(f0, kPageSize - 44 + i), 0x51000000 + i);
  }
  const uint32_t f1 = kernel.task(t).mm->page_table->LookupQuiet(src + 44)->frame;
  for (uint32_t i = 44; i < 96; i += 4) {
    sys.machine().memory().Write32(PhysAddr::FromFrame(f1, i - 44), 0x51000000 + i);
  }

  EXPECT_EQ(kernel.PipeWrite(pipe, src, 96), 96u);
  const EffAddr dst(kUserDataBase + 0x20000 + 12);  // unaligned destination too
  EXPECT_EQ(kernel.PipeRead(pipe, dst, 96), 96u);
  for (uint32_t i = 0; i < 96; i += 4) {
    const EffAddr ea = dst + i;
    const uint32_t frame = kernel.task(t).mm->page_table->LookupQuiet(ea)->frame;
    ASSERT_EQ(sys.machine().memory().Read32(PhysAddr::FromFrame(frame, ea.PageOffset())),
              0x51000000 + i)
        << "at +" << i;
  }
}

// The frame behind `ea` in task `t`'s address space, from its Linux PTE.
uint32_t UserFrame(System& sys, TaskId t, EffAddr ea) {
  return sys.kernel().task(t).mm->page_table->LookupQuiet(ea).value().frame;
}

// The byte at `ea` in task `t`'s address space.
uint8_t UserByte(System& sys, TaskId t, EffAddr ea) {
  return sys.machine().memory().Read8(PhysAddr::FromFrame(UserFrame(sys, t, ea), ea.PageOffset()));
}

uint8_t ParentPattern(uint32_t page, uint32_t offset) {
  return static_cast<uint8_t>(0xC0 ^ (page * 7) ^ (offset * 13));
}

TEST(FileIoTest, CopyIntoCowSharedBufferBreaksCowBeforeTheBytesLand) {
  // After a fork every data page is shared copy-on-write. The child's FileRead and
  // PipeRead land in unaligned buffers straddling a page boundary, so the first store into
  // each page breaks COW mid-copy: the bytes must reach the child's fresh frames and leave
  // the parent's frames untouched. Both the HTAB and the direct-reload probe paths.
  for (const auto& [machine, opts] :
       {std::pair{MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations()},
        std::pair{MachineConfig::Ppc603(133), OptimizationConfig::OnlyDirectReload()}}) {
    System sys(machine, opts);
    Kernel& kernel = sys.kernel();
    const TaskId parent = SpawnStd(kernel);
    const FileId file = kernel.page_cache().CreateFile(4);
    const uint32_t pipe = kernel.CreatePipe();

    // The parent fills data pages 0-3 with its pattern and queues pipe bytes taken from
    // page 8.
    const EffAddr data(kUserDataBase);
    kernel.UserTouchRange(data, 4 * kPageSize, kPageSize, AccessKind::kStore);
    std::vector<uint32_t> parent_frames;
    for (uint32_t page = 0; page < 4; ++page) {
      parent_frames.push_back(UserFrame(sys, parent, data + page * kPageSize));
      for (uint32_t off = 0; off < kPageSize; ++off) {
        sys.machine().memory().Write8(PhysAddr::FromFrame(parent_frames[page], off),
                                      ParentPattern(page, off));
      }
    }
    const EffAddr pipe_src = data + 8 * kPageSize;
    kernel.UserTouch(pipe_src, AccessKind::kStore);
    for (uint32_t i = 0; i < 300; ++i) {
      sys.machine().memory().Write8(
          PhysAddr::FromFrame(UserFrame(sys, parent, pipe_src), i),
          static_cast<uint8_t>(0x5A + i * 3));
    }
    ASSERT_EQ(kernel.PipeWrite(pipe, pipe_src, 300), 300u);

    const TaskId child = kernel.Fork(parent);
    kernel.SwitchTo(child);
    ASSERT_EQ(UserFrame(sys, child, data), parent_frames[0]) << "fork must share the page";
    // 28 bytes past a line boundary, 100 bytes before page 1; 60 bytes before page 3.
    const EffAddr file_dst(kUserDataBase + kPageSize - 100);
    const EffAddr pipe_dst(kUserDataBase + 3 * kPageSize - 60);
    const uint32_t file_offset = 2 * kPageSize - 70;
    kernel.FileRead(file, file_offset, 300, file_dst);
    ASSERT_EQ(kernel.PipeRead(pipe, pipe_dst, 300), 300u);

    for (uint32_t i = 0; i < 300; ++i) {
      ASSERT_EQ(UserByte(sys, child, file_dst + i), FileByte(file, file_offset + i)) << "+" << i;
      ASSERT_EQ(UserByte(sys, child, pipe_dst + i), static_cast<uint8_t>(0x5A + i * 3))
          << "+" << i;
    }
    for (uint32_t page = 0; page < 4; ++page) {
      const EffAddr page_ea = data + page * kPageSize;
      EXPECT_NE(UserFrame(sys, child, page_ea), parent_frames[page]) << "page " << page;
      EXPECT_EQ(UserFrame(sys, parent, page_ea), parent_frames[page]) << "page " << page;
      for (uint32_t off = 0; off < kPageSize; ++off) {
        ASSERT_EQ(UserByte(sys, parent, page_ea + off), ParentPattern(page, off))
            << "parent page " << page << " +" << off;
        // Outside the copied ranges the child's copy still holds the parent's bytes.
        const EffAddr ea = page_ea + off;
        const bool in_file = ea.value >= file_dst.value && ea.value < file_dst.value + 300;
        const bool in_pipe = ea.value >= pipe_dst.value && ea.value < pipe_dst.value + 300;
        if (!in_file && !in_pipe) {
          ASSERT_EQ(UserByte(sys, child, ea), ParentPattern(page, off))
              << "child page " << page << " +" << off;
        }
      }
    }
  }
}

TEST(FileIoTest, WriteFromAMappingOfTheSamePageCachePage) {
  // The user buffer is a read-only mapping of file page 0 and the write lands 100 bytes
  // further into that same page-cache page, so the user and kernel ranges alias.
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel);
  const FileId file = kernel.page_cache().CreateFile(2);
  const EffAddr src =
      EffAddr::FromPage(kernel.Mmap(1, MmapOptions{.file = file, .writable = false}));
  kernel.UserTouch(src, AccessKind::kLoad);
  const uint32_t frame = UserFrame(sys, t, src);
  std::vector<uint8_t> before(100);
  for (uint32_t i = 0; i < 100; ++i) {
    before[i] = sys.machine().memory().Read8(PhysAddr::FromFrame(frame, i));
  }

  kernel.FileWrite(file, 100, 200, src);

  bool miss = false;
  ASSERT_EQ(kernel.page_cache().GetPage(file, 0, &miss), frame);
  // The source bytes below offset 100 are read before anything overwrites them.
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_EQ(sys.machine().memory().Read8(PhysAddr::FromFrame(frame, 100 + i)), before[i])
        << "+" << i;
  }
}

}  // namespace
}  // namespace ppcmm
