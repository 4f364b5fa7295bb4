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
  unsigned last_ = 0;
};
