// Clean fixture: the reload tier walks nothing it should not.
#include "src/mmu/tlb.h"
struct CleanMmu {
  unsigned Access(unsigned ea) { return ea == 0 ? Reload(ea) : ea; }
  unsigned Reload(unsigned ea) { return SoftwareRefill(ea); }
  unsigned SoftwareRefill(unsigned ea) {
    InstallTlbEntry(ea);
    return ea;
  }
  void InstallTlbEntry(unsigned ea) { last_ = ea; }
  unsigned AccessRun(unsigned ea, unsigned n) {
    // Span replay: valid only while the live entry still maps the page.
    for (unsigned i = 0; i < n && live_ == ea; ++i) {
      last_ = ea + i;
    }
    return last_;
  }
  unsigned last_ = 0;
  unsigned live_ = 0;
};
