#include "src/verify/fuzz/reference_mmu.h"

#include <algorithm>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

// The user address-space ABI, in effective page numbers. These mirror src/kernel/layout.h
// by value on purpose: the oracle states the contract independently instead of including
// the kernel's header, so a layout regression shows up as a divergence.
constexpr uint32_t kRefTextStartPage = 0x1000;   // kUserTextBase >> 12
constexpr uint32_t kRefDataStartPage = 0x10000;  // kUserDataBase >> 12
constexpr uint32_t kRefStackEndPage = 0x7FFFF;   // kUserStackTop >> 12 (stack grows down)
constexpr uint32_t kRefMmapHintPage = 0x40000;   // kUserMmapBase >> 12

bool IsKind(const RefVmaAttr& attr, RefRegionKind kind) {
  return attr.kind == static_cast<uint8_t>(kind);
}

RefVmaAttr MakeAttr(bool writable, RefRegionKind kind) {
  return RefVmaAttr{.writable = writable, .kind = static_cast<uint8_t>(kind)};
}

}  // namespace

ReferenceMmu::ReferenceMmu(const RefArchConfig& config)
    : config_(config),
      cpu_current_(std::max(1u, config.ncpus), 0),
      fb_first_frame_(config.num_frames - kFbPages),
      fb_content_(kFbPages, 0) {}

uint32_t ReferenceMmu::NonFbVmaPages(const RefTask& t) {
  return t.vmas.TotalPages() - (t.fb_mapped ? kFbPages : 0);
}

uint32_t ReferenceMmu::TotalUserPages() const {
  uint32_t total = 0;
  for (const auto& [id, t] : tasks_) {
    total += NonFbVmaPages(t);
  }
  return total;
}

void ReferenceMmu::InstallImage(RefTask& t, uint32_t text, uint32_t data, uint32_t stack) {
  t.vmas.Insert(kRefTextStartPage, text, MakeAttr(false, RefRegionKind::kText));
  t.vmas.Insert(kRefDataStartPage, data, MakeAttr(true, RefRegionKind::kData));
  t.vmas.Insert(kRefStackEndPage - stack, stack, MakeAttr(true, RefRegionKind::kStack));
}

void ReferenceMmu::Boot(uint32_t task_id, uint32_t text_pages, uint32_t data_pages,
                        uint32_t stack_pages) {
  PPCMM_CHECK_MSG(tasks_.empty(), "oracle Boot() called twice");
  RefTask t;
  t.id = task_id;
  InstallImage(t, text_pages, data_pages, stack_pages);
  tasks_.emplace(task_id, std::move(t));
  current_ = task_id;
  cpu_current_[current_cpu_] = task_id;
  next_task_id_ = task_id + 1;
}

ExpectedStep ReferenceMmu::Plan(const FuzzOp& op, uint32_t op_index) {
  PPCMM_CHECK_MSG(!tasks_.empty(), "oracle Plan() before Boot()");
  ExpectedStep step;
  step.kind = op.kind;
  switch (op.kind) {
    case FuzzOpKind::kTouch:
      PlanTouch(op, op_index, step);
      break;
    case FuzzOpKind::kTouchRun:
      PlanTouchRun(op, op_index, step);
      break;
    case FuzzOpKind::kMmap:
      PlanMmap(op, step);
      break;
    case FuzzOpKind::kMmapFixed:
      PlanMmapFixed(op, step);
      break;
    case FuzzOpKind::kMunmap:
      PlanMunmap(op, step);
      break;
    case FuzzOpKind::kFork:
      PlanFork(step);
      break;
    case FuzzOpKind::kExit:
      PlanExit(op, step);
      break;
    case FuzzOpKind::kExec:
      PlanExec(op, step);
      break;
    case FuzzOpKind::kSwitch:
      PlanSwitch(op, step);
      break;
    case FuzzOpKind::kCpuSwitch:
      PlanCpuSwitch(op, step);
      break;
    case FuzzOpKind::kTlbie:
      PlanTlbie(op, step);
      break;
    case FuzzOpKind::kTlbia:
      break;  // architecturally invisible; nothing to predict
    case FuzzOpKind::kFbMap:
      PlanFbMap(step);
      break;
    case FuzzOpKind::kFbTouch:
      PlanFbTouch(op, op_index, step);
      break;
    case FuzzOpKind::kFbBatToggle:
      fb_bat_on_ = !fb_bat_on_;
      step.fb_bat_after = fb_bat_on_;
      break;
    case FuzzOpKind::kIdle:
      step.idle_cycles = 500 + op.a % 4000;
      break;
  }
  return step;
}

void ReferenceMmu::PlanTouch(const FuzzOp& op, uint32_t op_index, ExpectedStep& step) {
  RefTask& cur = Current();
  // Candidate regions: everything except the framebuffer aperture (kFbTouch owns that —
  // its fault accounting depends on the BAT, which this planner deliberately ignores).
  std::vector<ReferenceVmaModel::Region> regions;
  for (const ReferenceVmaModel::Region& r : cur.vmas.Regions()) {
    if (!IsKind(r.attr, RefRegionKind::kFb)) {
      regions.push_back(r);
    }
  }
  if (regions.empty()) {
    step.skip = true;
    step.skip_reason = "no touchable regions";
    return;
  }
  const ReferenceVmaModel::Region& r = regions[op.a % regions.size()];
  step.page = r.start + op.b % r.pages;
  switch (op.c % 3) {
    case 0:
      step.access = AccessKind::kLoad;
      break;
    case 1:
      step.access = AccessKind::kStore;
      break;
    default:
      step.access = AccessKind::kInstructionFetch;
      break;
  }
  if (step.access == AccessKind::kStore && !r.attr.writable) {
    // A store to a genuinely read-only mapping is a kernel CheckFailure by design (there
    // is no signal delivery in this kernel); downgrade rather than model it.
    step.access = AccessKind::kLoad;
  }
  step.offset = ((op.c >> 4) % 64) * 64;  // word-aligned, < kPageSize

  const bool is_store = step.access == AccessKind::kStore;
  auto it = cur.pages.find(step.page);
  if (it == cur.pages.end()) {
    // Demand fault: the kernel installs the page with the VMA's protection and a zeroed
    // frame, charging exactly one page fault to the task.
    step.expect_page_faults = 1;
    RefPage p;
    p.writable = r.attr.writable;
    p.stored = is_store;
    it = cur.pages.emplace(step.page, p).first;
  } else if (is_store && !it->second.writable) {
    // Present but write-protected in a writable region: must be COW. One COW fault
    // breaks the share; the task ends up with a private writable copy.
    PPCMM_CHECK_MSG(it->second.cow, "oracle invariant: non-writable page must be cow");
    step.expect_cow_faults = 1;
    it->second.writable = true;
    it->second.cow = false;
    it->second.stored = true;
  } else if (is_store) {
    it->second.stored = true;
  }
  if (step.access == AccessKind::kInstructionFetch) {
    return;  // an ifetch neither reads nor writes the token word
  }
  if (is_store) {
    step.write_token = true;
    step.token = TokenFor(op_index, cur.id, step.page);
    it->second.token = step.token;
  } else {
    step.check_token = true;
    step.token = it->second.token;
  }
}

void ReferenceMmu::PlanTouchRun(const FuzzOp& op, uint32_t op_index, ExpectedStep& step) {
  RefTask& cur = Current();
  // Same candidate set as PlanTouch: every region except the framebuffer aperture.
  std::vector<ReferenceVmaModel::Region> regions;
  for (const ReferenceVmaModel::Region& r : cur.vmas.Regions()) {
    if (!IsKind(r.attr, RefRegionKind::kFb)) {
      regions.push_back(r);
    }
  }
  if (regions.empty()) {
    step.skip = true;
    step.skip_reason = "no touchable regions";
    return;
  }
  const ReferenceVmaModel::Region& r = regions[op.a % regions.size()];
  const uint32_t first = r.start + op.b % r.pages;
  const uint32_t max_pages = r.start + r.pages - first;
  const uint32_t pages = 1 + op.c % std::min(max_pages, 8u);
  step.page = first;
  step.page_count = pages;
  // Loads or stores only: a run's accesses all share one kind, and ifetch runs add no
  // coverage the per-page kTouch ifetch doesn't already have.
  step.access = (op.c >> 8) % 2 == 0 ? AccessKind::kLoad : AccessKind::kStore;
  if (step.access == AccessKind::kStore && !r.attr.writable) {
    step.access = AccessKind::kLoad;  // same downgrade as PlanTouch (no signals here)
  }
  step.offset = ((op.c >> 4) % 16) * 64;
  step.run_stride = 1u << (2 + (op.b >> 16) % 9);  // 4..1024 bytes; always enters each page
  const uint32_t total_bytes = pages * kPageSize - step.offset;
  step.run_count = (total_bytes - 1) / step.run_stride + 1;

  // Page-granular architectural effects, applied in run order: absent pages demand-fault
  // as the run first enters them; COW pages break mid-run on store runs. This is exactly
  // the "crossing flush/COW boundaries mid-run" shape a run must survive.
  const bool is_store = step.access == AccessKind::kStore;
  for (uint32_t p = first; p < first + pages; ++p) {
    auto it = cur.pages.find(p);
    if (it == cur.pages.end()) {
      ++step.expect_page_faults;
      RefPage pg;
      pg.writable = r.attr.writable;
      pg.stored = is_store;
      it = cur.pages.emplace(p, pg).first;
    } else if (is_store && !it->second.writable) {
      PPCMM_CHECK_MSG(it->second.cow, "oracle invariant: non-writable page must be cow");
      ++step.expect_cow_faults;
      it->second.writable = true;
      it->second.cow = false;
      it->second.stored = true;
    } else if (is_store) {
      it->second.stored = true;
    }
    if (is_store) {
      it->second.token = TokenFor(op_index, cur.id, p);
    }
    step.run_tokens.push_back(it->second.token);
  }
  step.write_token = is_store;
  step.check_token = !is_store;
}

void ReferenceMmu::PlanMmap(const FuzzOp& op, ExpectedStep& step) {
  RefTask& cur = Current();
  const uint32_t pages = DecodeMmapPageCount(op.a, op.b);
  if (TotalUserPages() + pages > kVmaPageBudget) {
    step.skip = true;
    step.skip_reason = "vma page budget";
    return;
  }
  step.kind = FuzzOpKind::kMmap;  // kMmapFixed falls back here when it has no region
  step.fixed = false;
  step.page_count = pages;
  step.start_page = cur.vmas.FindFreeRange(kRefMmapHintPage, pages);
  cur.vmas.Insert(step.start_page, pages, MakeAttr(true, RefRegionKind::kMmap));
}

void ReferenceMmu::PlanMmapFixed(const FuzzOp& op, ExpectedStep& step) {
  RefTask& cur = Current();
  std::vector<ReferenceVmaModel::Region> mmaps;
  for (const ReferenceVmaModel::Region& r : cur.vmas.Regions()) {
    if (IsKind(r.attr, RefRegionKind::kMmap)) {
      mmaps.push_back(r);
    }
  }
  if (mmaps.empty()) {
    PlanMmap(op, step);  // nothing to remap over yet; behave as a plain mmap
    return;
  }
  const ReferenceVmaModel::Region& r = mmaps[op.a % mmaps.size()];
  const uint32_t start = r.start + op.b % r.pages;
  const uint32_t pages = 1 + op.c % 24;
  if (TotalUserPages() + pages > kVmaPageBudget) {
    step.skip = true;
    step.skip_reason = "vma page budget";
    return;
  }
  step.fixed = true;
  step.start_page = start;
  step.page_count = pages;
  // MAP_FIXED semantics: whatever overlaps [start, start+pages) is unmapped first, its
  // pages gone for good; then a fresh anonymous writable region appears.
  cur.vmas.Remove(start, pages);
  cur.pages.erase(cur.pages.lower_bound(start), cur.pages.lower_bound(start + pages));
  cur.vmas.Insert(start, pages, MakeAttr(true, RefRegionKind::kMmap));
}

void ReferenceMmu::PlanMunmap(const FuzzOp& op, ExpectedStep& step) {
  RefTask& cur = Current();
  std::vector<ReferenceVmaModel::Region> mmaps;
  for (const ReferenceVmaModel::Region& r : cur.vmas.Regions()) {
    if (IsKind(r.attr, RefRegionKind::kMmap)) {
      mmaps.push_back(r);
    }
  }
  if (mmaps.empty()) {
    step.skip = true;
    step.skip_reason = "no mmap regions";
    return;
  }
  const ReferenceVmaModel::Region& r = mmaps[op.a % mmaps.size()];
  step.start_page = r.start + op.b % r.pages;
  step.page_count = 1 + op.c % (r.start + r.pages - step.start_page);
  cur.vmas.Remove(step.start_page, step.page_count);
  cur.pages.erase(cur.pages.lower_bound(step.start_page),
                  cur.pages.lower_bound(step.start_page + step.page_count));
}

void ReferenceMmu::PlanFork(ExpectedStep& step) {
  RefTask& parent = Current();
  if (tasks_.size() >= kMaxLiveTasks) {
    step.skip = true;
    step.skip_reason = "task cap";
    return;
  }
  if (TotalUserPages() + NonFbVmaPages(parent) > kVmaPageBudget) {
    step.skip = true;
    step.skip_reason = "vma page budget";
    return;
  }
  step.target_task = next_task_id_++;
  RefTask child = parent;  // deep copy: vmas, pages, fb_mapped
  child.id = step.target_task;
  // Every writable present page becomes COW on both sides. Framebuffer pages are I/O
  // frames: physically shared outright, never COW'd, both sides keep write access.
  for (auto& [page, p] : parent.pages) {
    if (IsFbPage(page) || !p.writable) {
      continue;  // read-only and already-COW pages just gain a sharer
    }
    p.writable = false;
    p.cow = true;
    RefPage& cp = child.pages.at(page);
    cp.writable = false;
    cp.cow = true;
  }
  tasks_.emplace(child.id, std::move(child));
}

void ReferenceMmu::PlanExit(const FuzzOp& op, ExpectedStep& step) {
  std::vector<uint32_t> candidates;
  for (const auto& [id, t] : tasks_) {
    if (id != current_) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) {
    step.skip = true;
    step.skip_reason = "no non-current task";
    return;
  }
  step.target_task = candidates[op.a % candidates.size()];
  tasks_.erase(step.target_task);
  // Exiting a task current on another CPU leaves that CPU idle (the kernel does the same).
  for (uint32_t& on_cpu : cpu_current_) {
    if (on_cpu == step.target_task) {
      on_cpu = 0;
    }
  }
}

void ReferenceMmu::PlanExec(const FuzzOp& op, ExpectedStep& step) {
  // A task current on another CPU cannot exec: exec reloads the executing CPU's segment
  // registers, and a cross-CPU exec would leave the remote CPU resolving through stale
  // segments. Real kernels have the same shape — execve runs on the task's own CPU.
  // Always every task at ncpus=1.
  std::vector<uint32_t> ids;
  for (const auto& [id, t] : tasks_) {
    if (!RunningElsewhere(id)) {
      ids.push_back(id);
    }
  }
  RefTask& t = tasks_.at(ids[op.a % ids.size()]);
  step.target_task = t.id;
  step.exec_text = 1 + op.b % 12;
  step.exec_data = 1 + op.c % 12;
  step.exec_stack = 1 + (op.a >> 8) % 4;
  const uint32_t new_pages = step.exec_text + step.exec_data + step.exec_stack;
  if (TotalUserPages() - NonFbVmaPages(t) + new_pages > kVmaPageBudget) {
    step.skip = true;
    step.skip_reason = "vma page budget";
    return;
  }
  // Exec wipes the whole address space, framebuffer mapping included. The DBAT is a
  // global register, not address-space state: it survives (fb_bat_on_ untouched).
  t.pages.clear();
  t.vmas.Clear();
  t.fb_mapped = false;
  InstallImage(t, step.exec_text, step.exec_data, step.exec_stack);
}

void ReferenceMmu::PlanSwitch(const FuzzOp& op, ExpectedStep& step) {
  // Tasks current on another CPU are excluded: a task runs on at most one CPU at a time.
  // At ncpus=1 the candidate list is every task, exactly as before.
  std::vector<uint32_t> ids;
  for (const auto& [id, t] : tasks_) {
    if (!RunningElsewhere(id)) {
      ids.push_back(id);
    }
  }
  step.target_task = ids[op.a % ids.size()];  // switching to the current task is legal
  current_ = step.target_task;
  cpu_current_[current_cpu_] = current_;
}

void ReferenceMmu::PlanCpuSwitch(const FuzzOp& op, ExpectedStep& step) {
  const uint32_t ncpus = static_cast<uint32_t>(cpu_current_.size());
  if (ncpus <= 1) {
    step.skip = true;
    step.skip_reason = "uniprocessor";
    return;
  }
  const uint32_t target = op.a % ncpus;
  if (target == current_cpu_) {
    step.skip = true;
    step.skip_reason = "already on that cpu";
    return;
  }
  step.target_cpu = target;
  if (cpu_current_[target] == 0) {
    // The target CPU is idle. The runner must put a task on it (ops always run against a
    // current task), so plan a switch-in too — any task not current on some other CPU.
    std::vector<uint32_t> candidates;
    for (const auto& [id, t] : tasks_) {
      bool busy_elsewhere = false;
      for (uint32_t cpu = 0; cpu < ncpus; ++cpu) {
        if (cpu != target && cpu_current_[cpu] == id) {
          busy_elsewhere = true;
          break;
        }
      }
      if (!busy_elsewhere) {
        candidates.push_back(id);
      }
    }
    if (candidates.empty()) {
      step.skip = true;
      step.skip_reason = "no schedulable task for the idle cpu";
      return;
    }
    step.target_task = candidates[op.b % candidates.size()];
    cpu_current_[target] = step.target_task;
  }
  current_cpu_ = target;
  current_ = cpu_current_[target];
}

void ReferenceMmu::PlanTlbie(const FuzzOp& op, ExpectedStep& step) {
  RefTask& cur = Current();
  if (cur.pages.empty()) {
    step.skip = true;
    step.skip_reason = "no present pages";
    return;
  }
  auto it = cur.pages.begin();
  std::advance(it, op.a % cur.pages.size());
  step.start_page = it->first;  // architecturally invisible: the reload path restores it
}

void ReferenceMmu::PlanFbMap(ExpectedStep& step) {
  RefTask& cur = Current();
  if (cur.fb_mapped) {
    step.skip = true;
    step.skip_reason = "framebuffer already mapped";
    return;
  }
  cur.fb_mapped = true;
  cur.vmas.Insert(kFbStartPage, kFbPages, MakeAttr(true, RefRegionKind::kFb));
  fb_bat_on_ = fb_bat_on_ || config_.framebuffer_bat;
  step.start_page = kFbStartPage;
  step.fb_bat_after = fb_bat_on_;
}

void ReferenceMmu::PlanFbTouch(const FuzzOp& op, uint32_t op_index, ExpectedStep& step) {
  RefTask& cur = Current();
  if (!fb_bat_on_ && !cur.fb_mapped) {
    step.skip = true;
    step.skip_reason = "framebuffer unreachable";
    return;
  }
  const uint32_t idx = op.a % kFbPages;
  step.page = kFbStartPage + idx;
  step.access = (op.b % 2 == 0) ? AccessKind::kLoad : AccessKind::kStore;
  step.offset = ((op.b >> 4) % 64) * 64;
  step.via_bat = fb_bat_on_;  // the DBAT wins over any PTE for the aperture
  step.expect_exact_frame = true;
  step.expect_frame = fb_first_frame_ + idx;
  if (!step.via_bat) {
    // PTE path: demand faults apply exactly as for anonymous memory, except the frame is
    // the fixed aperture frame and its content is shared globally.
    auto it = cur.pages.find(step.page);
    if (it == cur.pages.end()) {
      step.expect_page_faults = 1;
      RefPage p;
      p.writable = true;
      p.stored = step.access == AccessKind::kStore;
      cur.pages.emplace(step.page, p);
    } else if (step.access == AccessKind::kStore) {
      it->second.stored = true;
    }
  }
  if (step.access == AccessKind::kStore) {
    step.write_token = true;
    step.token = TokenFor(op_index, cur.id, step.page);
    fb_content_[idx] = step.token;
  } else {
    step.check_token = true;
    step.token = fb_content_[idx];
  }
}

}  // namespace ppcmm
