// Clean fixture: the full pure-translation tier, virtual-free.
#include "src/sim/types.h"
struct CleanTlb {
  const unsigned* LookupPtr(unsigned vp) const { return &entries_[vp & 63u]; }
  unsigned entries_[64] = {};
};
