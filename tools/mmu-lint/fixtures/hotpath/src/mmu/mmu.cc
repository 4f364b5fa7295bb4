// Fixture: one banned token per hot body in the Mmu tier.
#include <cstdio>
#include <mutex>
struct FixtureMmu {
  unsigned Access(unsigned ea) {
    if (ea == 0) {
      throw ea;  // line 7: HOT-THROW-021
    }
    return ea;
  }
  unsigned Reload(unsigned ea) {
    std::mutex m;  // line 12: HOT-LOCK-022
    m.lock();
    m.unlock();
    return ea;
  }
  unsigned SoftwareRefill(unsigned ea) {
    printf("refill %u\n", ea);  // line 18: HOT-IO-023
    return ea;
  }
  void InstallTlbEntry(unsigned ea) { spare_ = new unsigned(ea); }  // line 21: HOT-ALLOC-020
  unsigned* spare_ = nullptr;
};
